"""The non-symmetric non-metric connection and its curvature.

Given a Kenmotsu structure, the connection studied here modifies the
Levi-Civita one by

    D_X Y = nabla_X Y - eta(Y) X - g(X, Y) xi

so its coefficients in a chart are

    G^k_ij = Gamma^k_ij - eta_j delta^k_i - g_ij xi^k.

Its torsion is eta(X) Y - eta(Y) X (non-symmetric) and its metric gradient
is (D_X g)(Y,Z) = 2 eta(Y) g(X,Z) + 2 eta(Z) g(X,Y) (non-metric).  The
curvature of D relates to the Levi-Civita curvature by a closed form, and
on the Reeb field it vanishes identically; both facts are checked
numerically by computing the curvature twice, once straight from the
coefficient field and once through the closed form.  Everything downstream
consumes the direct computation; the closed form only feeds cross-checks.

:class:`CurvatureBundle` is the geometry every check reads, computed for a
whole batch of points at once: each ``check_*`` function of the package
takes one bundle and nothing else, so one bundle per chart serves every
identity.
"""

from __future__ import annotations

from functools import cached_property
from dataclasses import dataclass

import numpy as np

from .charts import (
    ChartManifold,
    ConnectionCoefficients,
    DifferentiationConfig,
    _add_connection_terms,
    _christoffel,
    levi_civita,
    riemann_of_connection,
    stencil,
    stencil_partials,
)
from .report import IdentityResidualReport, new_report, per_point
from .structure import AlmostContactStructure
from .tensors import MetricPair, slots, _swap_slot_components

# bytes that one array of a chunk of points may take: the curvature pass
# and the rank-6 Weyl actions hold about ten such arrays at a time, so
# their memory stays bounded whatever the number of points
CHUNK_BYTES = 2**18


def _chunk_ranges(count: int, bytes_per_point: int) -> list[tuple[int, int]]:
    """(lo, hi) ranges over ``count`` points, each holding at most CHUNK_BYTES per array."""
    size = max(1, CHUNK_BYTES // bytes_per_point)
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _modified_coefficients(
    lc_gamma: np.ndarray, g: np.ndarray, eta: np.ndarray, xi: np.ndarray
) -> np.ndarray:
    """G^k_ij = Gamma^k_ij - eta_j delta^k_i - g_ij xi^k, with leading point axes."""
    eye = np.eye(g.shape[-1])
    return (
        lc_gamma
        - np.einsum("...j,ki->...kij", eta, eye)
        - np.einsum("...ij,...k->...kij", g, xi)
    )


@dataclass(frozen=True)
class NonMetricConnection:
    """The modified connection attached to a structure on a chart."""

    manifold: ChartManifold
    structure: AlmostContactStructure

    def coefficients_at(
        self, points: np.ndarray, cfg: DifferentiationConfig
    ) -> ConnectionCoefficients:
        """Coefficients at one point (dim,) or a batch (..., dim)."""
        m = self.manifold
        p = m.require_inside(points)
        gamma = _modified_coefficients(
            levi_civita(m, p, cfg).gamma,
            m.metric_at(p),
            self.structure.eta_at(m.dim, p),
            self.structure.xi_at(m.dim, p),
        )
        return ConnectionCoefficients(m.dim, gamma, symmetric=False)


@dataclass(frozen=True)
class EinsteinFit:
    """Least-squares fit of a Ricci operator to a*I + b*(xi (x) eta).

    Everything is in (1,1) "normalized" components, so ``residual`` is
    comparable across metrics of very different scales.  ``b`` is zero by
    construction for the plain Einstein fit.  The fields are floats for one
    fit and (N,) arrays for the per-point fits of a batch.
    """

    a: float | np.ndarray
    b: float | np.ndarray
    residual: float | np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.residual) < 0):
            raise ValueError("residual must be nonnegative")


def _fit_operators(
    ops: np.ndarray,
    xi: np.ndarray | None = None,
    eta: np.ndarray | None = None,
    joint: bool = False,
) -> EinsteinFit:
    """Fit each (1,1) operator ``ops[n]`` to a*I, or to a*I + b*(xi (x) eta).

    The least-squares fit is the orthogonal projection of the operator onto
    span{I, xi (x) eta}: a = tr/m for the plain fit (``xi`` None), the 2x2
    normal equations otherwise.  Their determinant is at least
    (1 - 1/m) m |xi (x) eta|^2, so only a zero outer product leaves them
    singular; b is then 0, the minimum-norm fit.  Per point the fields are
    (N,) arrays; ``joint`` fits one (a, b) to all points and gives floats.
    ``residual`` is the largest absolute entry of the operator minus its fit.
    """
    m = ops.shape[-1]
    total = (lambda x: np.sum(x, keepdims=True)) if joint else (lambda x: x)
    uu = total(np.full(len(ops), float(m)))
    uy = total(np.trace(ops, axis1=-2, axis2=-1))
    a, b, outer = uy / uu, np.zeros_like(uy), 0.0
    if xi is not None:
        outer = np.einsum("...i,...j->...ij", xi, eta)
        uv = total(np.trace(outer, axis1=-2, axis2=-1))
        vv = total(np.sum(outer * outer, axis=(-2, -1)))
        vy = total(np.sum(outer * ops, axis=(-2, -1)))
        solvable = vv > 0.0
        det = np.where(solvable, uu * vv - uv * uv, 1.0)
        a = np.where(solvable, (vv * uy - uv * vy) / det, a)
        b = np.where(solvable, (uu * vy - uv * uy) / det, 0.0)
    fitted = a[:, None, None] * np.eye(m) + b[:, None, None] * outer
    residual = np.max(np.abs(ops - fitted), axis=(-2, -1))
    if joint:
        return EinsteinFit(a=float(a[0]), b=float(b[0]), residual=float(np.max(residual)))
    return EinsteinFit(a=a, b=b, residual=residual)


class CurvatureBundle:
    """The geometry of a chart and its structure at a batch of N points.

    ``p`` is the read-only (N, dim) array of the points; every report row
    built from the bundle holds this one array.  Every other array has a
    leading point axis of length N, followed by one axis of length dim per
    tensor slot; scalars per point have shape (N,).  Each part is computed
    on first use and then kept, for all points at once:
    ``metric`` (a :class:`~kenmotsu.tensors.MetricPair` of (N, dim, dim)
    arrays), ``phi``, ``eta``, ``xi``, their partials ``dxi[n, a, k]`` and
    ``deta[n, a, j]``, the Levi-Civita and modified coefficients
    ``lc_gamma``/``gamma`` [n, k, i, j], one Levi-Civita and one modified
    curvature pass ``lc_riemann``/``riemann`` [n, l, i, j, k], the
    finite-difference metric partials ``dg_fd`` [n, a, i, j], both Ricci
    tensors and scalars, the per-point Einstein fits ``lc_einstein_fits`` of
    the Levi-Civita Ricci operator, the closed-form modified curvature with
    its cross-check residuals and the Weyl tensor.

    The chart and structure callables are evaluated on the sample points and
    on all their stencils: a callable marked by
    :func:`~kenmotsu.charts.batched` once per batch, any other once per
    point.  Everything after them is whole-array arithmetic.  The
    curvature pass runs over chunks of points (:func:`_chunk_ranges`), so its
    memory stays bounded.  ``riemann``/``ricci``/``scalar`` come from
    differentiating the modified coefficient field (the direct route,
    consumed downstream); ``*_closed_form`` come from the Levi-Civita
    curvature through

        K(X,Y)Z = R(X,Y)Z + g(Y,Z) X - g(X,Z) Y
                  + 2 [g(Y,Z) eta(X) - g(X,Z) eta(Y)] xi
        Ric_K   = S + 2(n+1) g - 2 eta (x) eta
        scal_K  = r + 2n(2n+3)

    and ``cross`` holds, per point, the max-abs disagreements plus the
    symmetry defect of the direct Ricci tensor.  A bundle without a
    structure serves Levi-Civita data only.
    """

    def __init__(
        self,
        manifold: ChartManifold,
        structure: AlmostContactStructure | None,
        points: np.ndarray,
        cfg: DifferentiationConfig,
    ):
        self.manifold = manifold
        self.structure = structure
        self.cfg = cfg
        p = manifold.require_inside(points).reshape(-1, manifold.dim)
        self.p = _frozen(p)

    @cached_property
    def metric(self) -> MetricPair:
        return self.manifold.metric_pair_at(self.p)

    @cached_property
    def phi(self) -> np.ndarray:
        return _frozen(self.structure.phi_at(self.manifold.dim, self.p))

    @cached_property
    def eta(self) -> np.ndarray:
        return _frozen(self.structure.eta_at(self.manifold.dim, self.p))

    @cached_property
    def xi(self) -> np.ndarray:
        return _frozen(self.structure.xi_at(self.manifold.dim, self.p))

    @cached_property
    def _stencil(self) -> np.ndarray:
        """Every point's stencil, (N, S, dim)."""
        return stencil(self.manifold.require_inside(self.p, margin=self.cfg.step), self.cfg)

    @cached_property
    def _eta_on_stencil(self) -> np.ndarray:
        return self.structure.eta_at(self.manifold.dim, self._stencil)

    @cached_property
    def _xi_on_stencil(self) -> np.ndarray:
        return self.structure.xi_at(self.manifold.dim, self._stencil)

    @cached_property
    def deta(self) -> np.ndarray:
        """deta[n, a, j] = d_a eta_j."""
        return _frozen(stencil_partials(self._eta_on_stencil, self.cfg, axis=1))

    @cached_property
    def dxi(self) -> np.ndarray:
        """dxi[n, a, k] = d_a xi^k."""
        return _frozen(stencil_partials(self._xi_on_stencil, self.cfg, axis=1))

    @cached_property
    def lc_gamma(self) -> np.ndarray:
        return levi_civita(self.manifold, self.p, self.cfg).gamma

    @cached_property
    def gamma(self) -> np.ndarray:
        """Coefficients of the modified connection at the points."""
        return _frozen(
            _modified_coefficients(self.lc_gamma, self.metric.matrix, self.eta, self.xi)
        )

    @cached_property
    def _curvature(self) -> dict[str, np.ndarray]:
        m = self.manifold
        m.require_inside(self.p, margin=2.0 * self.cfg.step)
        # one coefficient array on the 1 + 4 dim stencil of a point
        per_point = 8 * (4 * m.dim + 1) * m.dim**3
        ranges = _chunk_ranges(len(self.p), per_point)
        chunks = [self._curvature_chunk(lo, hi) for lo, hi in ranges]
        return {k: _frozen(np.concatenate([c[k] for c in chunks])) for k in chunks[0]}

    def _curvature_chunk(self, lo: int, hi: int) -> dict[str, np.ndarray]:
        """Both curvature passes and the metric partials for points lo..hi.

        The metric, its partials and the Christoffel symbols are evaluated
        once on the chunk's stencils and serve both connections; the fields
        handed to ``riemann_of_connection`` return them, since that is
        where it asks (on ``stencil`` of the same points).
        """
        m, cfg = self.manifold, self.cfg
        points, q = self.p[lo:hi], self._stencil[lo:hi]
        pair = m.metric_pair_at(q)
        lc = ConnectionCoefficients(
            m.dim, _christoffel(pair.inverse, m.metric_partials_at(q, cfg)), symmetric=True
        )
        out = {
            "lc_riemann": riemann_of_connection(m, lambda _: lc, points, cfg),
            "dg_fd": stencil_partials(pair.matrix, cfg, axis=1),
        }
        if self.structure is not None:
            modified = ConnectionCoefficients(
                m.dim,
                _modified_coefficients(
                    lc.gamma, pair.matrix, self._eta_on_stencil[lo:hi], self._xi_on_stencil[lo:hi]
                ),
            )
            out["riemann"] = riemann_of_connection(m, lambda _: modified, points, cfg)
        return out

    @property
    def lc_riemann(self) -> np.ndarray:
        return self._curvature["lc_riemann"]

    @property
    def riemann(self) -> np.ndarray:
        return self._curvature["riemann"]

    @property
    def dg_fd(self) -> np.ndarray:
        """dg_fd[n, a, i, j] = d_a g_ij by central differences of the metric values."""
        return self._curvature["dg_fd"]

    @cached_property
    def lc_ricci(self) -> np.ndarray:
        return _frozen(_ricci_components(self.lc_riemann))

    @cached_property
    def ricci(self) -> np.ndarray:
        return _frozen(_ricci_components(self.riemann))

    @cached_property
    def lc_scalar(self) -> np.ndarray:
        return _frozen(np.einsum("...jk,...jk->...", self.metric.inverse, self.lc_ricci))

    @cached_property
    def scalar(self) -> np.ndarray:
        return _frozen(np.einsum("...jk,...jk->...", self.metric.inverse, self.ricci))

    @cached_property
    def ricci_operator(self) -> np.ndarray:
        """Q^a_b = g^ac Ric_cb."""
        return _frozen(_swap_slot_components(self.metric.inverse, self.ricci, 0))

    @cached_property
    def lc_einstein_fits(self) -> EinsteinFit:
        """Per point, the fit of the Levi-Civita Ricci operator to a*I, as (N,) arrays."""
        return _fit_operators(self.metric.inverse @ self.lc_ricci)

    @cached_property
    def riemann_closed_form(self) -> np.ndarray:
        g, eta, xi = self.metric.matrix, self.eta, self.xi
        eye = np.eye(self.manifold.dim)
        correction = (
            np.einsum("...jk,li->...lijk", g, eye)
            - np.einsum("...ik,lj->...lijk", g, eye)
            + 2.0 * np.einsum("...jk,...i,...l->...lijk", g, eta, xi)
            - 2.0 * np.einsum("...ik,...j,...l->...lijk", g, eta, xi)
        )
        return _frozen(self.lc_riemann + correction)

    @cached_property
    def ricci_closed_form(self) -> np.ndarray:
        n, g, eta = self.manifold.n, self.metric.matrix, self.eta
        outer = np.einsum("...i,...j->...ij", eta, eta)
        return _frozen(self.lc_ricci + 2.0 * (n + 1) * g - 2.0 * outer)

    @cached_property
    def scalar_closed_form(self) -> np.ndarray:
        n = self.manifold.n
        return _frozen(self.lc_scalar + 2.0 * n * (2 * n + 3))

    @cached_property
    def cross(self) -> dict[str, np.ndarray]:
        ric = self.ricci
        return {
            "riemann": per_point(self.riemann - self.riemann_closed_form),
            "ricci": per_point(ric - self.ricci_closed_form),
            "scalar": np.abs(self.scalar - self.scalar_closed_form),
            "ricci-symmetry": per_point(ric - np.swapaxes(ric, -1, -2)),
        }

    @cached_property
    def weyl(self) -> np.ndarray:
        """Conformal curvature tensor of the metric, (1,3) components [n, l, i, j, k].

        C(X,Y)Z = R(X,Y)Z - [S(Y,Z)X - S(X,Z)Y + g(Y,Z)QX - g(X,Z)QY]/(m-2)
                  + r [g(Y,Z)X - g(X,Z)Y] / ((m-1)(m-2))
        """
        m = self.manifold.dim
        g = self.metric.matrix
        eye = np.eye(m)
        s = self.lc_ricci
        q = self.metric.inverse @ s
        term_s = (
            np.einsum("...jk,li->...lijk", s, eye)
            - np.einsum("...ik,lj->...lijk", s, eye)
            + np.einsum("...jk,...li->...lijk", g, q)
            - np.einsum("...ik,...lj->...lijk", g, q)
        )
        term_g = np.einsum("...jk,li->...lijk", g, eye) - np.einsum("...ik,lj->...lijk", g, eye)
        scale = self.lc_scalar[:, None, None, None, None]
        return _frozen(self.lc_riemann - term_s / (m - 2) + scale * term_g / ((m - 1) * (m - 2)))


def _ricci_components(riem: np.ndarray) -> np.ndarray:
    """S[..., j, k] = riem[..., a, a, j, k]: the upper slot traced against slot 1."""
    return np.trace(riem, axis1=-4, axis2=-3)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only copy: every check reads the same bundle."""
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def curvature_bundle(
    conn: NonMetricConnection, points: np.ndarray, cfg: DifferentiationConfig
) -> CurvatureBundle:
    """The geometry record of ``conn`` at a batch of points (or one point, as a batch of one)."""
    return CurvatureBundle(conn.manifold, conn.structure, points, cfg)


def check_torsion(geometry: CurvatureBundle) -> IdentityResidualReport:
    """Torsion T(X,Y) = eta(X) Y - eta(Y) X, from the coefficient skew part."""
    gamma, eta = geometry.gamma, geometry.eta
    eye = np.eye(geometry.manifold.dim)
    torsion = gamma - np.swapaxes(gamma, -1, -2)
    want = np.einsum("...i,kj->...kij", eta, eye) - np.einsum("...j,ki->...kij", eta, eye)
    report = new_report("torsion-form")
    report.add_points(geometry.p, per_point(torsion - want))
    return report


def check_nonmetricity(geometry: CurvatureBundle) -> IdentityResidualReport:
    """(D_X g)(Y,Z) = 2 eta(Y) g(X,Z) + 2 eta(Z) g(X,Y)."""
    g, eta = geometry.metric.matrix, geometry.eta
    grad = _add_connection_terms(geometry.dg_fd, g, slots("dd"), geometry.gamma)
    want = 2.0 * np.einsum("...i,...aj->...aij", eta, g) + 2.0 * np.einsum(
        "...j,...ai->...aij", eta, g
    )
    report = new_report("nonmetricity")
    report.add_points(geometry.p, per_point(grad - want))
    report.extras["opposite-sign-residual"] = float(np.max(per_point(grad + want)))
    return report


def check_reeb_transport(geometry: CurvatureBundle) -> IdentityResidualReport:
    """D_X xi = -2 eta(X) xi."""
    xi = geometry.xi
    grad = _add_connection_terms(geometry.dxi, xi, slots("u"), geometry.gamma)
    want = -2.0 * np.einsum("...i,...j->...ij", geometry.eta, xi)
    report = new_report("reeb-transport")
    report.add_points(geometry.p, per_point(grad - want))
    return report


def check_deformation_form(geometry: CurvatureBundle) -> IdentityResidualReport:
    """The form beta(X,Y) = (nabla_X eta)(Y) + eta(X) eta(Y) + g(X,Y) equals 2g.

    nabla is Levi-Civita here; this is the shape of the connection's
    defining deformation, and it collapsing to 2g is equivalent to the
    Kenmotsu condition.
    """
    g, eta = geometry.metric.matrix, geometry.eta
    grad_eta = _add_connection_terms(geometry.deta, eta, slots("d"), geometry.lc_gamma)
    beta = grad_eta + np.einsum("...i,...j->...ij", eta, eta) + g
    report = new_report("deformation-form")
    report.add_points(geometry.p, per_point(beta - 2.0 * g))
    return report


_CROSS_TO_IDENTITY = {
    "riemann": "riemann-cross-check",
    "ricci": "ricci-cross-check",
    "scalar": "scalar-cross-check",
    "ricci-symmetry": "ricci-symmetry",
}


def check_curvature_relation(geometry: CurvatureBundle) -> list[IdentityResidualReport]:
    """Cross-check direct vs closed-form curvature at each point.

    The Riemann comparison stacks two finite-difference curvature passes,
    so its gate is scaled per chart (``fd_scaled`` in the identity table);
    the Ricci/scalar comparisons and the symmetry defect of the direct
    Ricci are not.
    Returns one report per comparison.  Extras on the scalar report record
    the mean of both scalars and the dimension-only shift between them.
    """
    reports = []
    for key, name in _CROSS_TO_IDENTITY.items():
        report = new_report(name)
        report.add_points(geometry.p, geometry.cross[key])
        reports.append(report)
    n = geometry.manifold.n
    reports[2].extras.update(
        {
            "mean-scalar": float(np.mean(geometry.scalar)),
            "mean-lc-scalar": float(np.mean(geometry.lc_scalar)),
            "expected-shift": float(2 * n * (2 * n + 3)),
        }
    )
    return reports


def check_reeb_curvature_degeneracy(geometry: CurvatureBundle) -> IdentityResidualReport:
    """K(X,Y) xi = 0 for the modified curvature, with a Levi-Civita contrast.

    The extras record max |R(X,Y) xi| for the Levi-Civita curvature at the
    same points; on a Kenmotsu chart that stays O(1), which is what makes
    the degeneracy of the modified connection informative rather than a
    symptom of everything being flat.
    """
    xi = geometry.xi
    degen = np.einsum("...lijk,...k->...lij", geometry.riemann, xi)
    lc = np.einsum("...lijk,...k->...lij", geometry.lc_riemann, xi)
    report = new_report("irregularity")
    report.add_points(geometry.p, per_point(degen))
    report.extras["levi-civita-contrast"] = float(np.max(per_point(lc)))
    return report
