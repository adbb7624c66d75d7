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
consumes the direct computation; the closed form lives in the one check
that compares the two, :func:`check_curvature_relation`.

:class:`CurvatureBundle` is the geometry every check reads, computed for a
whole batch of points at once: each ``check_*`` function of the package
takes one bundle and nothing else, so one bundle per chart serves every
identity.
"""

from __future__ import annotations

from functools import cache, cached_property
from dataclasses import dataclass

import numpy as np

from .charts import (
    ChartManifold,
    _christoffel_partials,
    _nabla_bilinear,
    _nabla_form,
    _nabla_vector,
    levi_civita,
    riemann_of_connection,
)
from .report import IdentityResidualReport, _read_only, per_point, row, sides_row
from .structure import AlmostContactStructure, StructureError, _kenmotsu_residuals
from .tensors import MetricPair

# bytes that one array of a chunk of points may take: the curvature pass
# and the Weyl commutation's actions on curvature operators hold a few
# such arrays at a time, so their memory stays bounded whatever the
# number of points
CHUNK_BYTES = 2**18


def _chunk_ranges(count: int, bytes_per_point: int) -> list[tuple[int, int]]:
    """(lo, hi) ranges over ``count`` points, each holding at most CHUNK_BYTES per array."""
    size = max(1, CHUNK_BYTES // bytes_per_point)
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _modified_coefficients(
    lc_gamma: np.ndarray, g: np.ndarray, eta: np.ndarray, xi: np.ndarray
) -> np.ndarray:
    """G^k_ij = Gamma^k_ij - eta_j delta^k_i - g_ij xi^k, with leading point axes."""
    eye = np.eye(g.shape[-1])[:, :, None]
    out = lc_gamma - eye * eta[..., None, None, :]
    out -= g[..., None, :, :] * xi[..., :, None, None]
    return out


@dataclass(frozen=True)
class NonMetricConnection:
    """The modified connection attached to a structure on a chart."""

    manifold: ChartManifold
    structure: AlmostContactStructure

    def coefficients_at(self, points: np.ndarray) -> np.ndarray:
        """Coefficients gamma[..., k, i, j] at one point (dim,) or a batch (..., dim)."""
        p = self.manifold.require_inside(points)
        gamma = CurvatureBundle(self.manifold, self.structure, p).gamma
        return gamma.reshape(p.shape[:-1] + gamma.shape[1:])


@dataclass(frozen=True)
class EinsteinFit:
    """One least-squares fit of the Ricci operators at N points to a*I + b*(xi (x) eta).

    Everything is in (1,1) "normalized" components, so ``residual`` is
    comparable across metrics of very different scales.  ``a`` and ``b``
    are floats, ``b`` zero by construction for the plain Einstein fit;
    ``residual[n]`` is the largest absolute entry of operator n minus the fit.
    """

    a: float
    b: float
    residual: np.ndarray


def _fit_operators(
    ops: np.ndarray, xi: np.ndarray | None = None, eta: np.ndarray | None = None
) -> EinsteinFit:
    """Fit the (1,1) operators ``ops[n]`` to one a*I, or to one a*I + b*(xi (x) eta).

    The least-squares fit over all the points is the orthogonal projection
    of the stacked operators onto span{I, xi (x) eta}: a = sum tr / (N m)
    for the plain fit (``xi`` None), the 2x2 normal equations summed over
    the points otherwise.  Their determinant is at least (1 - 1/m) m
    sum |xi (x) eta|^2, so only zero outer products everywhere leave them
    singular; b is then 0, the minimum-norm fit.
    """
    m = ops.shape[-1]
    uu, uy = float(m * len(ops)), np.sum(np.trace(ops, axis1=-2, axis2=-1))
    outer, a, b = 0.0, uy / uu, 0.0
    if xi is not None:
        outer = np.einsum("...i,...j->...ij", xi, eta)
        uv = np.sum(np.trace(outer, axis1=-2, axis2=-1))
        vv, vy = (np.sum(np.sum(outer * t, axis=(-2, -1))) for t in (outer, ops))
        if vv > 0.0:
            det = uu * vv - uv * uv
            a, b = (vv * uy - uv * vy) / det, (uu * vy - uv * uy) / det
    return EinsteinFit(float(a), float(b), per_point(ops - (a * np.eye(m) + b * outer)))


class CurvatureBundle:
    """The geometry of a chart and its structure at a batch of N points.

    ``p`` is the read-only (N, dim) array of the points, in the order of
    every row's residuals.  Every other array has a leading point axis of
    length N, followed by one axis of length dim per tensor slot; scalars
    per point have shape (N,).  Each part is computed
    on first use and then kept, for all points at once:
    ``metric`` (a :class:`~kenmotsu.tensors.MetricPair` of (N, dim, dim)
    arrays) and its partials ``dg[n, a, i, j]`` = d_a g_ij, ``phi``, ``eta``,
    ``xi``, their partials ``dxi[n, a, k]`` and ``deta[n, a, j]``, the
    Levi-Civita and modified coefficients ``lc_gamma``/``gamma`` [n, k, i, j],
    the Levi-Civita derivative of eta ``lc_nabla_eta[n, a, j]`` =
    (nabla_a eta)_j, one Levi-Civita and one modified curvature pass
    ``lc_riemann``/``riemann`` [n, l, i, j, k], both Ricci tensors and
    scalars, the one Einstein fit ``lc_einstein_fit`` of the Levi-Civita
    Ricci operator over all the points, the Weyl tensor, and g wedge g and
    Q(g,S), built once for every row that reads them: ``g_wedge_g`` and
    ``tachibana_ricci``.  A part that one row alone reads, such as the
    closed-form curvature of :func:`check_curvature_relation`, is that row's
    local and never kept here.

    The chart and structure callables run once each on first-order jets of
    all the points, which give g, dg, dxi and deta.  The curvature pass runs
    over chunks of points (:func:`_chunk_ranges`), each evaluating the metric
    on second-order jets for the Christoffel partials in closed form, so no
    Hessian is ever held for all the points.  ``riemann``/``ricci``/``scalar``
    come from the partials of the modified coefficients.  A bundle without a
    structure serves Levi-Civita data only; its structure parts raise
    :class:`~kenmotsu.structure.StructureError`.
    """

    def __init__(
        self,
        manifold: ChartManifold,
        structure: AlmostContactStructure | None,
        points: np.ndarray,
    ):
        self.manifold = manifold
        self.structure = structure
        # the caller owns the points: the record keeps its own copy
        self.p = _read_only(np.array(manifold.require_inside(points)).reshape(-1, manifold.dim))
        self._fields: dict[str, list[np.ndarray]] = {}

    @cached_property
    def _metric(self) -> tuple[MetricPair, np.ndarray]:
        """g with its inverse, and dg, from one evaluation of the metric."""
        g, dg = self.manifold.metric_partials_at(self.p)
        return self.manifold.metric_pair_at(self.p, g), dg

    @property
    def metric(self) -> MetricPair:
        return self._metric[0]

    @property
    def dg(self) -> np.ndarray:
        return self._metric[1]

    def _structure(self, part: str) -> AlmostContactStructure:
        """The structure that ``part`` is computed from."""
        if self.structure is None:
            raise StructureError(f"no {part}: the geometry record has no structure")
        return self.structure

    def _field(self, name: str) -> list[np.ndarray]:
        """[value, partials] of the structure field ``name`` at the points, evaluated once."""
        if name not in self._fields:
            at = getattr(self._structure(name), f"{name}_at")
            self._fields[name] = at(self.manifold.dim, self.p)
        return self._fields[name]

    phi = property(lambda self: self._field("phi")[0])
    eta = property(lambda self: self._field("eta")[0])
    deta = property(lambda self: self._field("eta")[1])
    xi = property(lambda self: self._field("xi")[0])
    dxi = property(lambda self: self._field("xi")[1])

    @cached_property
    def lc_gamma(self) -> np.ndarray:
        return _read_only(levi_civita(self.metric, self.dg))

    @cached_property
    def lc_nabla_eta(self) -> np.ndarray:
        """lc_nabla_eta[n, a, j] = (nabla_a eta)_j, nabla the Levi-Civita connection."""
        return _read_only(_nabla_form(self.deta, self.eta, self.lc_gamma))

    @cached_property
    def gamma(self) -> np.ndarray:
        """Coefficients of the modified connection at the points."""
        return _read_only(
            _modified_coefficients(self.lc_gamma, self.metric.matrix, self.eta, self.xi)
        )

    @cached_property
    def _curvature(self) -> dict[str, np.ndarray]:
        # bytes per point: one rank-4 array, such as the second metric partials
        ranges = _chunk_ranges(len(self.p), 8 * self.manifold.dim**4)
        chunks = [self._curvature_chunk(lo, hi) for lo, hi in ranges]
        if len(chunks) == 1:
            return {k: _read_only(v) for k, v in chunks[0].items()}
        return {k: _read_only(np.concatenate([c[k] for c in chunks])) for k in chunks[0]}

    def _curvature_chunk(self, lo: int, hi: int) -> dict[str, np.ndarray]:
        """Both curvature passes for points lo..hi, with d Gamma in closed form."""
        dg, lc = self.dg[lo:hi], self.lc_gamma[lo:hi]
        ddg = self.manifold.metric_partials_at(self.p[lo:hi], 2)[2]
        dlc = _christoffel_partials(self.metric.inverse[lo:hi], dg, ddg, lc)
        out = {"lc_riemann": riemann_of_connection(lc, dlc)}
        if self.structure is not None:
            # d_a G^k_ij = d_a Gamma^k_ij - d_a eta_j delta^k_i - d_a g_ij xi^k - g_ij d_a xi^k
            g, xi = self.metric.matrix[lo:hi], self.xi[lo:hi]
            dmodified = _modified_coefficients(dlc, dg, self.deta[lo:hi], xi[:, None])
            dmodified -= g[:, None, None] * self.dxi[lo:hi, :, :, None, None]
            out["riemann"] = riemann_of_connection(self.gamma[lo:hi], dmodified)
        return out

    @property
    def lc_riemann(self) -> np.ndarray:
        return self._curvature["lc_riemann"]

    @property
    def riemann(self) -> np.ndarray:
        self._structure("modified curvature")
        return self._curvature["riemann"]

    @cached_property
    def lc_ricci(self) -> np.ndarray:
        return _read_only(_ricci_components(self.lc_riemann))

    @cached_property
    def ricci(self) -> np.ndarray:
        return _read_only(_ricci_components(self.riemann))

    @cached_property
    def lc_scalar(self) -> np.ndarray:
        return _read_only(np.einsum("...jk,...jk->...", self.metric.inverse, self.lc_ricci))

    @cached_property
    def scalar(self) -> np.ndarray:
        return _read_only(np.einsum("...jk,...jk->...", self.metric.inverse, self.ricci))

    @cached_property
    def lc_einstein_fit(self) -> EinsteinFit:
        """The one fit of the Levi-Civita Ricci operator to a*I over all the points."""
        return _fit_operators(self.metric.inverse @ self.lc_ricci)

    @cached_property
    def g_wedge_g(self) -> np.ndarray:
        """(X wedge_g Y) Z = g(Y,Z) X - g(X,Z) Y, (1,3) components [n, l, i, j, k]."""
        return _read_only(_wedge(self.metric.matrix))

    @cached_property
    def tachibana_ricci(self) -> np.ndarray:
        """Q(g,S)(Z,U; X,Y), the action of g wedge_g on S, at the pairs X < Y: [n, pair, Z, U]."""
        return _read_only(_pair_action(self.g_wedge_g, self.lc_ricci))

    @cached_property
    def weyl(self) -> np.ndarray:
        """Conformal curvature tensor of the metric, (1,3) components [n, l, i, j, k].

        C(X,Y)Z = R(X,Y)Z - [S(Y,Z)X - S(X,Z)Y + g(Y,Z)QX - g(X,Z)QY]/(m-2)
                  + r [g(Y,Z)X - g(X,Z)Y] / ((m-1)(m-2))
        as two wedges: the terms in g are one, with B = Q - r/(m-1) I and Q = g^-1 S.
        """
        m, g, s = self.manifold.dim, self.metric.matrix, self.lc_ricci
        shift = self.metric.inverse @ s - (self.lc_scalar / (m - 1))[:, None, None] * np.eye(m)
        return _read_only(self.lc_riemann - (_wedge(s) + _wedge(g, shift)) / (m - 2))


def _wedge(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """(X wedge Y) Z = a(Y,Z) BX - a(X,Z) BY, (1,3) components [..., l, i, j, k].

    ``b`` holds B[..., l, i], the identity by default: then a = g gives the metric wedge.
    """
    b = np.eye(a.shape[-1]) if b is None else b
    # the second term is the first with i and j swapped
    first = np.einsum("...jk,...li->...lijk", a, b)
    return first - np.swapaxes(first, -3, -2)


def _derivation(rows: np.ndarray, t: np.ndarray, symmetric: bool = False) -> np.ndarray:
    """out[n, f] = -(A_f t[n] + t[n] A_f^t) for the (d, d) matrices A_f stacked in rows[n].

    A ``symmetric`` t has t A_f^t = (A_f t)^t: one matmul gives both products.
    """
    k, d = t.shape[:2]
    out = (rows @ t).reshape(k, -1, d, d)
    if symmetric:
        out = out + out.swapaxes(2, 3)
    else:
        # a contiguous t^t: matmul is about twice as slow on the transposed view
        t_t = np.ascontiguousarray(np.swapaxes(t, 1, 2))
        out += (rows @ t_t).reshape(k, -1, d, d).swapaxes(2, 3)
    return np.negative(out, out=out)


@cache
def _slot_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The slot pairs X < Y of m indices, as read-only index arrays built once per m."""
    return tuple(_read_only(index) for index in np.triu_indices(m, k=1))


def _pair_action(curv: np.ndarray, target: np.ndarray) -> np.ndarray:
    """(curv(X,Y) . target)(Z,U) at the pairs X < Y: curv[n, l, X, Y, z] -> out[n, pair, Z, U]."""
    n, m = curv.shape[:2]
    x, y = _slot_pairs(m)
    # T(A Z, U) + T(Z, A U) = (A^t T + T A)(Z, U): the family's rows are the A(X,Y)^t
    return _derivation(curv[:, :, x, y, :].transpose(0, 2, 3, 1).reshape(n, -1, m), target)


def _ricci_components(riem: np.ndarray) -> np.ndarray:
    """S[..., j, k] = riem[..., a, a, j, k]: the upper slot traced against slot 1."""
    return np.trace(riem, axis1=-4, axis2=-3)


def curvature_bundle(conn: NonMetricConnection, points: np.ndarray) -> CurvatureBundle:
    """The geometry record of ``conn`` at a batch of points (or one point, as a batch of one)."""
    return CurvatureBundle(conn.manifold, conn.structure, points)


def check_torsion(geometry: CurvatureBundle) -> IdentityResidualReport:
    """Torsion T(X,Y) = eta(X) Y - eta(Y) X = -(X wedge_g Y) xi, from the coefficient skew part."""
    gamma = geometry.gamma
    torsion = gamma - np.swapaxes(gamma, -1, -2)
    want = -np.einsum("...kijz,...z->...kij", geometry.g_wedge_g, geometry.xi)
    return sides_row("torsion-form", torsion, want)


def check_nonmetricity(geometry: CurvatureBundle) -> IdentityResidualReport:
    """(D_X g)(Y,Z) = 2 eta(Y) g(X,Z) + 2 eta(Z) g(X,Y)."""
    g, eta = geometry.metric.matrix, geometry.eta
    grad = _nabla_bilinear(geometry.dg, g, geometry.gamma)
    want = 2.0 * np.einsum("...i,...aj->...aij", eta, g) + 2.0 * np.einsum(
        "...j,...ai->...aij", eta, g
    )
    return sides_row("nonmetricity", grad, want)


def check_reeb_transport(geometry: CurvatureBundle) -> IdentityResidualReport:
    """D_X xi = -2 eta(X) xi."""
    grad = _nabla_vector(geometry.dxi, geometry.xi, geometry.gamma)
    want = -2.0 * np.einsum("...i,...j->...ij", geometry.eta, geometry.xi)
    return sides_row("reeb-transport", grad, want)


def check_deformation_form(geometry: CurvatureBundle) -> IdentityResidualReport:
    """The form beta(X,Y) = (nabla_X eta)(Y) + eta(X) eta(Y) + g(X,Y) equals 2g.

    nabla is Levi-Civita here; beta, the shape of the connection's defining
    deformation, has beta - 2g = nabla eta + eta (x) eta - g, the
    ``eta-gradient`` residual of :func:`~kenmotsu.structure.check_kenmotsu`.
    """
    return row("deformation-form", _kenmotsu_residuals(geometry)["eta-gradient"])


def scalar_shift(n: int) -> float:
    """scal_K - r in dimension 2n + 1, by the closed form of :func:`check_curvature_relation`."""
    return 2.0 * n * (2 * n + 3)


def check_curvature_relation(geometry: CurvatureBundle) -> list[IdentityResidualReport]:
    """Cross-check the direct modified curvature against its closed form, point by point.

    The closed forms come from the Levi-Civita curvature R, Ricci tensor S
    and scalar r:

        K(X,Y)Z = R(X,Y)Z + g(Y,Z) BX - g(X,Z) BY,  BX = X + 2 eta(X) xi
        Ric_K   = S + 2(n+1) g - 2 eta (x) eta
        scal_K  = r + 2n(2n+3)

    Returns one report per comparison: Riemann, Ricci, scalar, and the
    symmetry defect of the direct Ricci tensor.  Each closed form is reduced
    to its per-point residuals at once; none is kept.
    """
    n, g, xi, eta = geometry.manifold.n, geometry.metric.matrix, geometry.xi, geometry.eta
    b = np.eye(geometry.manifold.dim) + 2.0 * np.einsum("...l,...i->...li", xi, eta)
    riemann = geometry.riemann - (geometry.lc_riemann + _wedge(g, b))
    ric, outer = geometry.ricci, np.einsum("...i,...j->...ij", eta, eta)
    ricci = ric - (geometry.lc_ricci + 2.0 * (n + 1) * g - 2.0 * outer)
    scalar = geometry.scalar - (geometry.lc_scalar + scalar_shift(n))
    return [
        row("riemann-cross-check", per_point(riemann)),
        row("ricci-cross-check", per_point(ricci)),
        row("scalar-cross-check", np.abs(scalar)),
        row("ricci-symmetry", per_point(ric - np.swapaxes(ric, -1, -2))),
    ]


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
    extras = {"levi-civita-contrast": float(per_point(lc).max())}
    return row("irregularity", per_point(degen), extras)
