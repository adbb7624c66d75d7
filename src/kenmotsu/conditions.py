"""Curvature derivation actions, the Ricci semi-symmetry chain, and Weyl.

The central gadget: a (1,3) curvature-like tensor A acts on a (0,k) tensor
T as a derivation,

    (A(X,Y) . T)(Z_1, ..., Z_k) = - sum_s T(Z_1, ..., A(X,Y) Z_s, ..., Z_k)

producing a (0,k+2) tensor stored with the (X,Y) pair in the trailing two
slots.  With A the curvature this is the usual R . T; with A the metric
wedge endomorphism (X wedge_g Y) Z = g(Y,Z) X - g(X,Z) Y it is the
Tachibana tensor Q(g,T).

On the modified connection the derivation action on its Ricci tensor
relates to the Levi-Civita one by

    (K . ric_K)(Z,U,X,Y) = (R . S)(Z,U,X,Y)
        - g(Y,Z) S(X,U) + g(X,Z) S(Y,U) - g(Y,U) S(Z,X) + g(X,U) S(Z,Y)

which is an identity on every Kenmotsu chart.  Demanding K . ric_K = R . S
(the semi-symmetry comparison) therefore forces the four-term bracket to
vanish, which happens exactly when S = -2n g; the checks below walk that
chain and report the Einstein fits and scalar targets that follow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import ChartManifold, DifferentiationConfig
from .connection import CurvatureBundle, NonMetricConnection, _bundles
from .report import IdentityResidualReport, PointResidual, new_report
from .tensors import DOWN, MetricPair, MultiTensor, lower_slot, slots

_SUPPORTED_TARGET_RANKS = (2, 4)


def _endomorphism_action(curv: np.ndarray, target: np.ndarray, k: int) -> np.ndarray:
    """Apply a (1,3) endomorphism family to every slot of a (0,k) array."""
    out = None
    for s in range(k):
        term = np.tensordot(curv, target, axes=(0, s))
        term = np.moveaxis(term, (0, 1, 2), (k, k + 1, s))
        out = term if out is None else out + term
    return -out


def _check_action_args(curv: MultiTensor, target: MultiTensor) -> int:
    if curv.variance != slots("uddd"):
        raise ValueError("curvature argument must be a (1,3) tensor")
    if any(v != DOWN for v in target.variance):
        raise ValueError("target must be fully covariant")
    k = target.rank
    if k not in _SUPPORTED_TARGET_RANKS:
        raise ValueError(f"unsupported target rank {k}; expected one of {_SUPPORTED_TARGET_RANKS}")
    if curv.dim != target.dim:
        raise ValueError("dimension mismatch between curvature and target")
    return k


def derivation_action(curv: MultiTensor, target: MultiTensor) -> MultiTensor:
    """(curv(X,Y) . target) as a (0,k+2) tensor, (X,Y) slots trailing."""
    k = _check_action_args(curv, target)
    comps = _endomorphism_action(curv.components, target.components, k)
    return MultiTensor(curv.dim, slots("d" * (k + 2)), comps)


def metric_wedge(gpair: MetricPair) -> MultiTensor:
    """(X wedge_g Y) Z = g(Y,Z) X - g(X,Z) Y as a (1,3) tensor."""
    g = gpair.matrix
    eye = np.eye(gpair.dim)
    comps = np.einsum("jz,mi->mijz", g, eye) - np.einsum("iz,mj->mijz", g, eye)
    return MultiTensor(gpair.dim, slots("uddd"), comps)


def tachibana(gpair: MetricPair, target: MultiTensor) -> MultiTensor:
    """Tachibana tensor Q(g, target), a (0,k+2) tensor."""
    return derivation_action(metric_wedge(gpair), target)


def _semisymmetry_defect(g: np.ndarray, ric: np.ndarray) -> np.ndarray:
    """The four-term bracket, indexed out[z,u,i,j] for arguments (Z,U,X,Y)."""
    return (
        -np.einsum("jz,iu->zuij", g, ric)
        + np.einsum("iz,ju->zuij", g, ric)
        - np.einsum("ju,zi->zuij", g, ric)
        + np.einsum("iu,zj->zuij", g, ric)
    )


def check_derivation_identity(
    conn: NonMetricConnection,
    points: list[np.ndarray],
    cfg: DifferentiationConfig,
    tol: float | None = None,
) -> IdentityResidualReport:
    """Check the derivation-action identity relating both connections.

    Left side from the direct modified curvature and its contraction, right
    side from Levi-Civita data; holds on every Kenmotsu chart, Einstein or
    not, so it is an end-to-end test of the whole pipeline.
    """
    report = new_report("derivation-identity", tol)
    for b in _bundles(conn.manifold, conn.structure, points, cfg):
        lhs = derivation_action(b.riemann, b.ricci).components
        rhs = (
            derivation_action(b.lc_riemann, b.lc_ricci).components
            + _semisymmetry_defect(b.metric.matrix, b.lc_ricci.components)
        )
        report.points.append(
            PointResidual(b.point, float(np.max(np.abs(lhs - rhs))))
        )
    return report


@dataclass(frozen=True)
class EinsteinFit:
    """Least-squares fit of a Ricci operator to a*I + b*(xi (x) eta).

    Everything is in (1,1) "normalized" components, so ``residual`` is
    comparable across metrics of very different scales.  ``b`` is zero by
    construction for the plain Einstein fit.
    """

    a: float
    b: float
    residual: float

    def __post_init__(self) -> None:
        if self.residual < 0:
            raise ValueError("residual must be nonnegative")


def _fit_operator_samples(
    samples: list[tuple[np.ndarray, np.ndarray, np.ndarray]], fit_eta: bool
) -> EinsteinFit:
    """Joint fit over (operator, xi, eta) samples, one block per point."""
    basis_one = []
    basis_eta = []
    values = []
    for op, xi, eta in samples:
        dim = op.shape[0]
        basis_one.append(np.eye(dim).ravel())
        basis_eta.append(np.outer(xi, eta).ravel())
        values.append(op.ravel())
    y = np.concatenate(values)
    if fit_eta:
        design = np.stack([np.concatenate(basis_one), np.concatenate(basis_eta)], axis=1)
    else:
        design = np.concatenate(basis_one)[:, None]
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    a = float(coef[0])
    b = float(coef[1]) if fit_eta else 0.0
    residual = float(np.max(np.abs(y - design @ coef)))
    return EinsteinFit(a=a, b=b, residual=residual)


def einstein_fit(
    ric: MultiTensor,
    gpair: MetricPair,
    xi: np.ndarray,
    eta: np.ndarray,
    fit_eta: bool = False,
) -> EinsteinFit:
    """Fit one (0,2) tensor at one point; see :class:`EinsteinFit`."""
    if ric.variance != slots("dd"):
        raise ValueError("expected a (0,2) tensor to fit")
    op = gpair.inverse @ ric.components
    return _fit_operator_samples([(op, xi, eta)], fit_eta)


@dataclass
class SemisymmetryVerdict:
    """Outcome of the semi-symmetry comparison over a set of points.

    ``condition`` is the four-term bracket residual report; ``holds`` is its
    pass flag.  The fits are joint across all points; ``companions`` carries
    per-point reports for the four numeric consequences of the condition
    (Einstein fit a = -2n, operator fit (a,b) = (2,-2) for the modified
    Ricci, and the two constant-scalar targets), so a runner can print them
    as rows next to the condition itself.
    """

    condition: IdentityResidualReport
    holds: bool
    ricci_fit: EinsteinFit
    modified_ricci_fit: EinsteinFit
    scalar_mean: float
    modified_scalar_mean: float
    scalar_deviation: float
    modified_scalar_deviation: float
    companions: list[IdentityResidualReport]


def check_semisymmetry_condition(
    conn: NonMetricConnection,
    points: list[np.ndarray],
    cfg: DifferentiationConfig,
    tol: float | None = None,
    fit_tol: float | None = None,
    scalar_tol: float | None = None,
) -> SemisymmetryVerdict:
    """Evaluate the four-term bracket and the consequences of it vanishing.

    When the bracket vanishes the chain forces S = -2n g,
    r = -2n(2n+1), ric_K = 2g - 2 eta (x) eta and scal_K = 4n; the verdict
    carries joint Einstein fits of S (b forced to 0) and of ric_K (free
    a, b) plus the scalar means and worst deviations from those targets.
    """
    n = conn.manifold.n
    report = new_report("semisymmetry-condition", tol)
    einstein_row = new_report("einstein-ricci-fit", fit_tol)
    eta_row = new_report("eta-einstein-fit", fit_tol)
    scalar_row = new_report("scalar-curvature-constant", scalar_tol)
    mod_scalar_row = new_report("modified-scalar-constant", scalar_tol)
    bundles = _bundles(conn.manifold, conn.structure, points, cfg)
    plain_samples = []
    modified_samples = []
    scal_sum = 0.0
    mod_scal_sum = 0.0
    for b in bundles:
        g = b.metric.matrix
        ginv = b.metric.inverse
        xi, eta = b.xi, b.eta
        defect = _semisymmetry_defect(g, b.lc_ricci.components)
        # normalize with the inverse metric on the Z slot so the residual is
        # scale-free, matching the (1,1) convention of the fits
        defect_norm = np.einsum("az,zuij->auij", ginv, defect)
        report.points.append(
            PointResidual(b.point, float(np.max(np.abs(defect_norm))))
        )
        plain_op = (ginv @ b.lc_ricci.components, xi, eta)
        modified_op = (ginv @ b.ricci.components, xi, eta)
        plain_samples.append(plain_op)
        modified_samples.append(modified_op)
        point_fit = _fit_operator_samples([plain_op], fit_eta=False)
        einstein_row.points.append(
            PointResidual(b.point, max(abs(point_fit.a + 2.0 * n), point_fit.residual))
        )
        point_eta_fit = _fit_operator_samples([modified_op], fit_eta=True)
        eta_row.points.append(
            PointResidual(
                b.point,
                max(
                    abs(point_eta_fit.a - 2.0),
                    abs(point_eta_fit.b + 2.0),
                    point_eta_fit.residual,
                ),
            )
        )
        scalar_row.points.append(
            PointResidual(b.point, abs(b.lc_scalar + 2.0 * n * (2 * n + 1)))
        )
        mod_scalar_row.points.append(
            PointResidual(b.point, abs(b.scalar - 4.0 * n))
        )
        scal_sum += b.lc_scalar
        mod_scal_sum += b.scalar
    count = max(len(bundles), 1)
    ricci_fit = _fit_operator_samples(plain_samples, fit_eta=False)
    modified_fit = _fit_operator_samples(modified_samples, fit_eta=True)
    report.extras.update(
        {
            "einstein-a": ricci_fit.a,
            "einstein-residual": ricci_fit.residual,
            "eta-einstein-a": modified_fit.a,
            "eta-einstein-b": modified_fit.b,
            "eta-einstein-residual": modified_fit.residual,
            "mean-scalar": scal_sum / count,
            "mean-modified-scalar": mod_scal_sum / count,
        }
    )
    einstein_row.extras.update({"joint-a": ricci_fit.a, "joint-residual": ricci_fit.residual})
    eta_row.extras.update(
        {
            "joint-a": modified_fit.a,
            "joint-b": modified_fit.b,
            "joint-residual": modified_fit.residual,
        }
    )
    scalar_row.extras["target"] = -2.0 * n * (2 * n + 1)
    mod_scalar_row.extras["target"] = 4.0 * n
    return SemisymmetryVerdict(
        condition=report,
        holds=report.passed,
        ricci_fit=ricci_fit,
        modified_ricci_fit=modified_fit,
        scalar_mean=scal_sum / count,
        modified_scalar_mean=mod_scal_sum / count,
        scalar_deviation=scalar_row.max_residual,
        modified_scalar_deviation=mod_scalar_row.max_residual,
        companions=[einstein_row, eta_row, scalar_row, mod_scalar_row],
    )


def weyl_tensor(
    manifold: ChartManifold, point: np.ndarray, cfg: DifferentiationConfig
) -> MultiTensor:
    """Conformal curvature tensor as a (1,3) tensor; see :attr:`CurvatureBundle.weyl`.

    Fully traceless; identically zero in dimension 3 and on space forms.
    """
    return CurvatureBundle(manifold, None, point, cfg).weyl


def weyl_trace_residual(weyl: MultiTensor, gpair: MetricPair) -> float:
    """Max absolute value over all six single g-traces of the (0,4) form."""
    c4 = lower_slot(weyl, 0, gpair).components
    ginv = gpair.inverse
    worst = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            moved = np.moveaxis(c4, (a, b), (0, 1))
            tr = np.tensordot(ginv, moved, axes=([0, 1], [0, 1]))
            worst = max(worst, float(np.max(np.abs(tr))))
    return worst


def check_weyl_commutation(
    manifold: ChartManifold,
    points: list[np.ndarray],
    cfg: DifferentiationConfig,
    tol: float | None = None,
    einstein: bool = False,
) -> IdentityResidualReport:
    """Commutator of the Weyl and curvature actions against Tachibana terms.

    On an Einstein chart of dimension >= 5 the theory gives
    C . R - R . C = Q(g,R) = Q(g,C); on the catalog's Einstein example all
    three vanish individually, so the check is degenerate and asserts each
    is below tolerance.  Off the Einstein case the report is informational:
    it records the three magnitudes and the residual of the scaled relation
    C . R - R . C = -[r / (m(m-1))] Q(g,R) under both the total-dimension
    normalization and the contact-n one, since the literature is ambiguous
    about which dimension enters the scale.
    """
    report = new_report("weyl-tachibana", tol)
    if manifold.dim < 5:
        report.status = "not-applicable"
        report.note = "conformal tensor is identically zero in dimension 3"
        return report
    if not einstein:
        report.status = "info"
        report.note = "Einstein hypothesis fails here; magnitudes recorded only"
    m = manifold.dim
    n = manifold.n
    worst = {"commutator": 0.0, "tachibana-riemann": 0.0, "tachibana-weyl": 0.0,
             "relation-total-dim": 0.0, "relation-contact-n": 0.0}
    for b in _bundles(manifold, None, points, cfg):
        gpair, riem, weyl, r = b.metric, b.lc_riemann, b.weyl, b.lc_scalar
        riem4 = lower_slot(riem, 0, gpair)
        weyl4 = lower_slot(weyl, 0, gpair)
        commutator = (
            derivation_action(weyl, riem4).components
            - derivation_action(riem, weyl4).components
        )
        q_riem = tachibana(gpair, riem4).components
        q_weyl = tachibana(gpair, weyl4).components
        mags = {
            "commutator": float(np.max(np.abs(commutator))),
            "tachibana-riemann": float(np.max(np.abs(q_riem))),
            "tachibana-weyl": float(np.max(np.abs(q_weyl))),
        }
        # dim >= 5 here, so the contact half-dimension n is at least 2 and
        # both normalizations of the scale factor are finite
        scale_total = r / (m * (m - 1))
        scale_contact = r / (n * (n - 1))
        mags["relation-total-dim"] = float(
            np.max(np.abs(commutator + scale_total * q_riem))
        )
        mags["relation-contact-n"] = float(
            np.max(np.abs(commutator + scale_contact * q_riem))
        )
        for k, v in mags.items():
            worst[k] = max(worst[k], v)
        headline = max(mags["commutator"], mags["tachibana-riemann"], mags["tachibana-weyl"])
        report.points.append(PointResidual(b.point, headline))
    report.extras.update(worst)
    return report


def check_weyl(
    manifold: ChartManifold,
    points: list[np.ndarray],
    cfg: DifferentiationConfig,
    trace_tol: float | None = None,
    vanish_tol: float | None = None,
) -> tuple[IdentityResidualReport, IdentityResidualReport, IdentityResidualReport]:
    """Tracelessness, vanishing, and metric-Tachibana sanity in one sweep."""
    traceless = new_report("weyl-traceless", trace_tol)
    vanishing = new_report("weyl-vanishing", vanish_tol)
    metric_q = new_report("tachibana-metric")
    for b in _bundles(manifold, None, points, cfg):
        gpair, weyl = b.metric, b.weyl
        traceless.points.append(
            PointResidual(b.point, weyl_trace_residual(weyl, gpair))
        )
        vanishing.points.append(
            PointResidual(b.point, float(np.max(np.abs(weyl.components))))
        )
        qgg = tachibana(gpair, gpair.lower).components
        metric_q.points.append(PointResidual(b.point, float(np.max(np.abs(qgg)))))
    return traceless, vanishing, metric_q
