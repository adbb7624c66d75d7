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

:class:`CurvatureBundle` is the per-point geometry every check reads: each
``check_*`` function of the package accepts, in place of a coordinate
point, a bundle already built at it, so one bundle per point serves every
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .charts import (
    ChartManifold,
    ConnectionCoefficients,
    DifferentiationConfig,
    _add_connection_terms,
    array_field_partials,
    levi_civita,
    levi_civita_field,
    ricci_from_riemann,
    riemann_of_connection,
    scalar_curvature_of,
)
from .report import IdentityResidualReport, PointResidual, new_report
from .structure import AlmostContactStructure, StructureError, check_almost_contact
from .tensors import MetricPair, MultiTensor, raise_slot, slots


@dataclass(frozen=True)
class NonMetricConnection:
    """The modified connection attached to a structure on a chart."""

    manifold: ChartManifold
    structure: AlmostContactStructure

    def coefficients_at(
        self, point: np.ndarray, cfg: DifferentiationConfig
    ) -> ConnectionCoefficients:
        m = self.manifold
        p = m.require_inside(point)
        lc = levi_civita(m, p, cfg)
        g = m.metric_at(p)
        eta = self.structure.eta_at(m.dim, p)
        xi = self.structure.xi_at(m.dim, p)
        eye = np.eye(m.dim)
        gamma = (
            lc.gamma
            - np.einsum("j,ki->kij", eta, eye)
            - np.einsum("ij,k->kij", g, xi)
        )
        return ConnectionCoefficients(m.dim, gamma, symmetric=False)

    def coefficient_field(self, cfg: DifferentiationConfig):
        return lambda p: self.coefficients_at(p, cfg)


def build_connection(
    manifold: ChartManifold,
    structure: AlmostContactStructure,
    validate_points: list[np.ndarray] | None = None,
    axiom_tol: float | None = None,
) -> NonMetricConnection:
    """Attach the connection, optionally gating on the structure axioms."""
    if validate_points:
        report = check_almost_contact(manifold, structure, validate_points, tol=axiom_tol)
        if not report.passed:
            raise StructureError(
                f"structure axioms fail (max residual {report.max_residual:.3e})"
            )
    return NonMetricConnection(manifold, structure)


class CurvatureBundle:
    """The geometry of a chart and its structure at one point.

    Each part is computed on first use and then kept: the metric pair,
    ``eta``, ``xi``, the Levi-Civita and modified coefficients at the point,
    the single-stencil partials of ``xi`` and ``eta``, one Levi-Civita and
    one modified curvature pass, both Ricci tensors and scalars, the
    closed-form modified curvature with its cross-check residuals and the
    Weyl tensor.  ``riemann``/``ricci``/``scalar`` come from differentiating
    the modified coefficient field (the direct route, consumed downstream);
    ``*_closed_form`` come from the Levi-Civita curvature through

        K(X,Y)Z = R(X,Y)Z + g(Y,Z) X - g(X,Z) Y
                  + 2 [g(Y,Z) eta(X) - g(X,Z) eta(Y)] xi
        Ric_K   = S + 2(n+1) g - 2 eta (x) eta
        scal_K  = r + 2n(2n+3)

    and ``cross`` holds the max-abs disagreements plus the symmetry defect
    of the direct Ricci tensor.  A bundle without a structure serves
    Levi-Civita data only.
    """

    def __init__(
        self,
        manifold: ChartManifold,
        structure: AlmostContactStructure | None,
        point: np.ndarray,
        cfg: DifferentiationConfig,
    ):
        self.manifold = manifold
        self.structure = structure
        self.connection = NonMetricConnection(manifold, structure)
        self.cfg = cfg
        self.p = _frozen(manifold.require_inside(point))
        self.point = tuple(self.p)

    def _partials(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        self.manifold.require_inside(self.p, margin=self.cfg.step)
        return _frozen(array_field_partials(f, self.p, self.cfg))

    @cached_property
    def metric(self) -> MetricPair:
        return self.manifold.metric_pair_at(self.p)

    @cached_property
    def eta(self) -> np.ndarray:
        return _frozen(self.structure.eta_at(self.manifold.dim, self.p))

    @cached_property
    def xi(self) -> np.ndarray:
        return _frozen(self.structure.xi_at(self.manifold.dim, self.p))

    @cached_property
    def deta(self) -> np.ndarray:
        """deta[a, j] = d_a eta_j."""
        return self._partials(lambda q: self.structure.eta_at(self.manifold.dim, q))

    @cached_property
    def dxi(self) -> np.ndarray:
        """dxi[a, k] = d_a xi^k."""
        return self._partials(lambda q: self.structure.xi_at(self.manifold.dim, q))

    @cached_property
    def lc_gamma(self) -> np.ndarray:
        return levi_civita(self.manifold, self.p, self.cfg).gamma

    @cached_property
    def gamma(self) -> np.ndarray:
        """Coefficients of the modified connection at the point."""
        return self.connection.coefficients_at(self.p, self.cfg).gamma

    @cached_property
    def lc_riemann(self) -> MultiTensor:
        m, cfg = self.manifold, self.cfg
        return riemann_of_connection(m, levi_civita_field(m, cfg), self.p, cfg)

    @cached_property
    def riemann(self) -> MultiTensor:
        field = self.connection.coefficient_field(self.cfg)
        return riemann_of_connection(self.manifold, field, self.p, self.cfg)

    @cached_property
    def lc_ricci(self) -> MultiTensor:
        return ricci_from_riemann(self.lc_riemann)

    @cached_property
    def ricci(self) -> MultiTensor:
        return ricci_from_riemann(self.riemann)

    @cached_property
    def lc_scalar(self) -> float:
        return scalar_curvature_of(self.lc_ricci, self.metric)

    @cached_property
    def scalar(self) -> float:
        return scalar_curvature_of(self.ricci, self.metric)

    @cached_property
    def ricci_operator(self) -> MultiTensor:
        return raise_slot(self.ricci, 0, self.metric)

    @cached_property
    def riemann_closed_form(self) -> MultiTensor:
        dim, g, eta, xi = self.manifold.dim, self.metric.matrix, self.eta, self.xi
        eye = np.eye(dim)
        correction = (
            np.einsum("jk,li->lijk", g, eye)
            - np.einsum("ik,lj->lijk", g, eye)
            + 2.0 * np.einsum("jk,i,l->lijk", g, eta, xi)
            - 2.0 * np.einsum("ik,j,l->lijk", g, eta, xi)
        )
        return MultiTensor(dim, slots("uddd"), self.lc_riemann.components + correction)

    @cached_property
    def ricci_closed_form(self) -> MultiTensor:
        n, g, eta = self.manifold.n, self.metric.matrix, self.eta
        return MultiTensor(
            self.manifold.dim,
            slots("dd"),
            self.lc_ricci.components + 2.0 * (n + 1) * g - 2.0 * np.outer(eta, eta),
        )

    @cached_property
    def scalar_closed_form(self) -> float:
        n = self.manifold.n
        return self.lc_scalar + 2.0 * n * (2 * n + 3)

    @cached_property
    def cross(self) -> dict[str, float]:
        ric = self.ricci.components
        return {
            "riemann": float(
                np.max(np.abs(self.riemann.components - self.riemann_closed_form.components))
            ),
            "ricci": float(np.max(np.abs(ric - self.ricci_closed_form.components))),
            "scalar": float(abs(self.scalar - self.scalar_closed_form)),
            "ricci-symmetry": float(np.max(np.abs(ric - ric.T))),
        }

    @cached_property
    def weyl(self) -> MultiTensor:
        """Conformal curvature tensor of the metric as a (1,3) tensor.

        C(X,Y)Z = R(X,Y)Z - [S(Y,Z)X - S(X,Z)Y + g(Y,Z)QX - g(X,Z)QY]/(m-2)
                  + r [g(Y,Z)X - g(X,Z)Y] / ((m-1)(m-2))
        """
        m = self.manifold.dim
        g = self.metric.matrix
        eye = np.eye(m)
        s = self.lc_ricci.components
        q = self.metric.inverse @ s
        term_s = (
            np.einsum("jk,li->lijk", s, eye)
            - np.einsum("ik,lj->lijk", s, eye)
            + np.einsum("jk,li->lijk", g, q)
            - np.einsum("ik,lj->lijk", g, q)
        )
        term_g = np.einsum("jk,li->lijk", g, eye) - np.einsum("ik,lj->lijk", g, eye)
        comps = (
            self.lc_riemann.components
            - term_s / (m - 2)
            + self.lc_scalar * term_g / ((m - 1) * (m - 2))
        )
        return MultiTensor(m, slots("uddd"), comps)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only copy: every check reads the same bundle."""
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def curvature_bundle(
    conn: NonMetricConnection, point: np.ndarray, cfg: DifferentiationConfig
) -> CurvatureBundle:
    """The geometry record of ``conn`` at one point; parts come on first use."""
    return CurvatureBundle(conn.manifold, conn.structure, point, cfg)


def _bundles(
    manifold: ChartManifold,
    structure: AlmostContactStructure | None,
    points: list,
    cfg: DifferentiationConfig,
) -> list[CurvatureBundle]:
    """One record per point; a point that is already a record is used as is."""
    return [
        p if isinstance(p, CurvatureBundle) else CurvatureBundle(manifold, structure, p, cfg)
        for p in points
    ]


def check_torsion(
    conn: NonMetricConnection,
    points: list[np.ndarray],
    cfg: DifferentiationConfig,
    tol: float | None = None,
) -> IdentityResidualReport:
    """Torsion T(X,Y) = eta(X) Y - eta(Y) X, from the coefficient skew part."""
    eye = np.eye(conn.manifold.dim)
    report = new_report("torsion-form", tol)
    for b in _bundles(conn.manifold, conn.structure, points, cfg):
        torsion = b.gamma - b.gamma.transpose(0, 2, 1)
        want = np.einsum("i,kj->kij", b.eta, eye) - np.einsum("j,ki->kij", b.eta, eye)
        report.points.append(
            PointResidual(b.point, float(np.max(np.abs(torsion - want))))
        )
    return report


def check_nonmetricity(
    conn: NonMetricConnection,
    points: list[np.ndarray],
    cfg: DifferentiationConfig,
    tol: float | None = None,
) -> IdentityResidualReport:
    """(D_X g)(Y,Z) = 2 eta(Y) g(X,Z) + 2 eta(Z) g(X,Y)."""
    report = new_report("nonmetricity", tol)
    flipped = 0.0
    for b in _bundles(conn.manifold, conn.structure, points, cfg):
        g, eta = b.metric.matrix, b.eta
        dg = b._partials(b.manifold.metric)
        grad = _add_connection_terms(dg, g, slots("dd"), b.gamma)
        want = 2.0 * np.einsum("i,aj->aij", eta, g) + 2.0 * np.einsum("j,ai->aij", eta, g)
        report.points.append(
            PointResidual(b.point, float(np.max(np.abs(grad - want))))
        )
        flipped = max(flipped, float(np.max(np.abs(grad + want))))
    report.extras["opposite-sign-residual"] = flipped
    return report


def check_reeb_transport(
    conn: NonMetricConnection,
    points: list[np.ndarray],
    cfg: DifferentiationConfig,
    tol: float | None = None,
) -> IdentityResidualReport:
    """D_X xi = -2 eta(X) xi."""
    report = new_report("reeb-transport", tol)
    for b in _bundles(conn.manifold, conn.structure, points, cfg):
        grad = _add_connection_terms(b.dxi, b.xi, slots("u"), b.gamma)
        want = -2.0 * np.outer(b.eta, b.xi)
        report.points.append(
            PointResidual(b.point, float(np.max(np.abs(grad - want))))
        )
    return report


def check_deformation_form(
    conn: NonMetricConnection,
    points: list[np.ndarray],
    cfg: DifferentiationConfig,
    tol: float | None = None,
) -> IdentityResidualReport:
    """The form beta(X,Y) = (nabla_X eta)(Y) + eta(X) eta(Y) + g(X,Y) equals 2g.

    nabla is Levi-Civita here; this is the shape of the connection's
    defining deformation, and it collapsing to 2g is equivalent to the
    Kenmotsu condition.
    """
    report = new_report("deformation-form", tol)
    for b in _bundles(conn.manifold, conn.structure, points, cfg):
        g = b.metric.matrix
        grad_eta = _add_connection_terms(b.deta, b.eta, slots("d"), b.lc_gamma)
        beta = grad_eta + np.outer(b.eta, b.eta) + g
        report.points.append(
            PointResidual(b.point, float(np.max(np.abs(beta - 2.0 * g))))
        )
    return report


_CROSS_TO_IDENTITY = {
    "riemann": "riemann-cross-check",
    "ricci": "ricci-cross-check",
    "scalar": "scalar-cross-check",
    "ricci-symmetry": "ricci-symmetry",
}


def check_curvature_relation(
    conn: NonMetricConnection,
    points: list[np.ndarray],
    cfg: DifferentiationConfig,
    riemann_tol: float | None = None,
    contraction_tol: float | None = None,
) -> list[IdentityResidualReport]:
    """Cross-check direct vs closed-form curvature at each point.

    The Riemann comparison stacks two finite-difference curvature passes,
    so it gets its own tolerance; the Ricci/scalar comparisons and the
    symmetry defect of the direct Ricci use ``contraction_tol``.
    Returns one report per comparison.  Extras on the scalar report record
    the mean of both scalars and the dimension-only shift between them.
    """
    tols = {
        "riemann": riemann_tol,
        "ricci": contraction_tol,
        "scalar": contraction_tol,
        "ricci-symmetry": contraction_tol,
    }
    reports = {
        key: new_report(name, tols[key]) for key, name in _CROSS_TO_IDENTITY.items()
    }
    bundles = _bundles(conn.manifold, conn.structure, points, cfg)
    scal_sum = 0.0
    lc_scal_sum = 0.0
    for bundle in bundles:
        for key in _CROSS_TO_IDENTITY:
            reports[key].points.append(PointResidual(bundle.point, bundle.cross[key]))
        scal_sum += bundle.scalar
        lc_scal_sum += bundle.lc_scalar
    if bundles:
        n = conn.manifold.n
        reports["scalar"].extras.update(
            {
                "mean-scalar": scal_sum / len(bundles),
                "mean-lc-scalar": lc_scal_sum / len(bundles),
                "expected-shift": float(2 * n * (2 * n + 3)),
            }
        )
    return [reports[k] for k in _CROSS_TO_IDENTITY]


def check_reeb_curvature_degeneracy(
    conn: NonMetricConnection,
    points: list[np.ndarray],
    cfg: DifferentiationConfig,
    tol: float | None = None,
) -> IdentityResidualReport:
    """K(X,Y) xi = 0 for the modified curvature, with a Levi-Civita contrast.

    The extras record max |R(X,Y) xi| for the Levi-Civita curvature at the
    same points; on a Kenmotsu chart that stays O(1), which is what makes
    the degeneracy of the modified connection informative rather than a
    symptom of everything being flat.
    """
    report = new_report("irregularity", tol)
    contrast = 0.0
    for bundle in _bundles(conn.manifold, conn.structure, points, cfg):
        degen = np.einsum("lijk,k->lij", bundle.riemann.components, bundle.xi)
        lc = np.einsum("lijk,k->lij", bundle.lc_riemann.components, bundle.xi)
        report.points.append(
            PointResidual(bundle.point, float(np.max(np.abs(degen))))
        )
        contrast = max(contrast, float(np.max(np.abs(lc))))
    report.extras["levi-civita-contrast"] = contrast
    return report
