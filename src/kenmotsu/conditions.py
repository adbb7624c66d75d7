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
from .connection import (
    CurvatureBundle,
    EinsteinFit,
    NonMetricConnection,
    _bundle,
    _chunk_ranges,
    _fit_operators,
    _mean,
)
from .report import IdentityResidualReport, new_report, per_point
from .tensors import DOWN, MetricPair, MultiTensor, slots, _swap_slot_components, _tensordot_each

_SUPPORTED_TARGET_RANKS = (2, 4)


def _endomorphism_action(curv: np.ndarray, target: np.ndarray, k: int) -> np.ndarray:
    """Apply a family of endomorphisms to every slot of a (0,k) array, point by point.

    ``curv[n, l, p, z]`` holds the endomorphism A(X,Y) of each (X,Y) pair p,
    the pairs flattened into one axis; ``target`` is (n, dim, ..., dim).  The
    result is indexed out[n, Z_1, ..., Z_k, p].
    """
    out = None
    for s in range(k):
        term = _tensordot_each(curv, target, (0,), (s,))
        term = np.moveaxis(term, (1, 2), (k + 1, s + 1))
        out = term if out is None else out + term
    return -out


def _action_on_all_pairs(curv: np.ndarray, target: np.ndarray, k: int) -> np.ndarray:
    """(curv(X,Y) . target) for every (X,Y): curv[n, l, X, Y, z] -> out[n, Z_1..Z_k, X, Y]."""
    n, m = curv.shape[:2]
    out = _endomorphism_action(curv.reshape(n, m, m * m, m), target, k)
    return out.reshape(out.shape[:-1] + (m, m))


def _on_pairs(curv: np.ndarray) -> np.ndarray:
    """An antisymmetric family curv[n, l, X, Y, z] at the pairs X < Y only: [n, l, p, z].

    A(Y,X) = -A(X,Y) and A(X,X) = 0 (exactly for the wedge, to roundoff for
    the curvatures), and every action is linear in A, so the largest
    absolute value of an action over these m(m-1)/2 pairs is its largest
    over all m^2.
    """
    x, y = np.triu_indices(curv.shape[1], k=1)
    return curv[:, :, x, y, :]


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
    comps = _action_on_all_pairs(curv.components[None], target.components[None], k)[0]
    return MultiTensor(curv.dim, slots("d" * (k + 2)), comps)


def _wedge(g: np.ndarray) -> np.ndarray:
    """(X wedge_g Y) Z = g(Y,Z) X - g(X,Z) Y, (1,3) components with leading point axes."""
    eye = np.eye(g.shape[-1])
    return np.einsum("...jz,mi->...mijz", g, eye) - np.einsum("...iz,mj->...mijz", g, eye)


def metric_wedge(gpair: MetricPair) -> MultiTensor:
    """(X wedge_g Y) Z = g(Y,Z) X - g(X,Z) Y as a (1,3) tensor."""
    return MultiTensor(gpair.dim, slots("uddd"), _wedge(gpair.matrix))


def tachibana(gpair: MetricPair, target: MultiTensor) -> MultiTensor:
    """Tachibana tensor Q(g, target), a (0,k+2) tensor."""
    return derivation_action(metric_wedge(gpair), target)


def _semisymmetry_defect(g: np.ndarray, ric: np.ndarray) -> np.ndarray:
    """The four-term bracket, indexed out[..., z, u, i, j] for arguments (Z,U,X,Y)."""
    return (
        -np.einsum("...jz,...iu->...zuij", g, ric)
        + np.einsum("...iz,...ju->...zuij", g, ric)
        - np.einsum("...ju,...zi->...zuij", g, ric)
        + np.einsum("...iu,...zj->...zuij", g, ric)
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
    b = _bundle(conn.manifold, conn.structure, points, cfg)
    lhs = _action_on_all_pairs(b.riemann, b.ricci, 2)
    rhs = _action_on_all_pairs(b.lc_riemann, b.lc_ricci, 2) + _semisymmetry_defect(
        b.metric.matrix, b.lc_ricci
    )
    report = new_report("derivation-identity", tol)
    report.add_points(b.p, per_point(lhs - rhs))
    return report


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
    fields = (np.asarray(xi)[None], np.asarray(eta)[None]) if fit_eta else ()
    return _fit_operators(op[None], *fields, joint=True)


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
    b = _bundle(conn.manifold, conn.structure, points, cfg)
    g, ginv, xi, eta = b.metric.matrix, b.metric.inverse, b.xi, b.eta
    defect = _semisymmetry_defect(g, b.lc_ricci)
    # normalize with the inverse metric on the Z slot so the residual is
    # scale-free, matching the (1,1) convention of the fits
    defect_norm = np.einsum("...az,...zuij->...auij", ginv, defect)
    report = new_report("semisymmetry-condition", tol)
    report.add_points(b.p, per_point(defect_norm))
    plain_ops = ginv @ b.lc_ricci
    modified_ops = ginv @ b.ricci
    einstein_row = new_report("einstein-ricci-fit", fit_tol)
    plain = b.lc_einstein_fits
    einstein_row.add_points(b.p, np.maximum(np.abs(plain.a + 2.0 * n), plain.residual))
    eta_row = new_report("eta-einstein-fit", fit_tol)
    modified = _fit_operators(modified_ops, xi, eta)
    eta_row.add_points(
        b.p,
        np.max([np.abs(modified.a - 2.0), np.abs(modified.b + 2.0), modified.residual], axis=0),
    )
    scalar_row = new_report("scalar-curvature-constant", scalar_tol)
    scalar_row.add_points(b.p, np.abs(b.lc_scalar + 2.0 * n * (2 * n + 1)))
    mod_scalar_row = new_report("modified-scalar-constant", scalar_tol)
    mod_scalar_row.add_points(b.p, np.abs(b.scalar - 4.0 * n))
    ricci_fit = _fit_operators(plain_ops, joint=True)
    modified_fit = _fit_operators(modified_ops, xi, eta, joint=True)
    scalar_mean, modified_scalar_mean = _mean(b.lc_scalar), _mean(b.scalar)
    report.extras.update(
        {
            "einstein-a": ricci_fit.a,
            "einstein-residual": ricci_fit.residual,
            "eta-einstein-a": modified_fit.a,
            "eta-einstein-b": modified_fit.b,
            "eta-einstein-residual": modified_fit.residual,
            "mean-scalar": scalar_mean,
            "mean-modified-scalar": modified_scalar_mean,
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
        scalar_mean=scalar_mean,
        modified_scalar_mean=modified_scalar_mean,
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
    weyl = CurvatureBundle(manifold, None, point, cfg).weyl[0]
    return MultiTensor(manifold.dim, slots("uddd"), weyl)


def _weyl_trace(weyl: np.ndarray, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Per point, the max absolute value over all six single g-traces of the (0,4) form."""
    c4 = _swap_slot_components(g, weyl, 0)
    worst = np.zeros(len(c4))
    for a in range(4):
        for b in range(a + 1, 4):
            moved = np.moveaxis(c4, (a + 1, b + 1), (1, 2))
            worst = np.maximum(worst, per_point(_tensordot_each(ginv, moved, (0, 1), (0, 1))))
    return worst


def weyl_trace_residual(weyl: MultiTensor, gpair: MetricPair) -> float:
    """Max absolute value over all six single g-traces of the (0,4) form."""
    return float(_weyl_trace(weyl.components[None], gpair.matrix[None], gpair.inverse[None])[0])


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
    about which dimension enters the scale.  R, C and the wedge are
    antisymmetric in (X,Y), so the rank-6 actions are taken on the pairs
    X < Y only (:func:`_on_pairs`), over chunks of points so that their
    memory stays bounded.
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
    b = _bundle(manifold, None, points, cfg)
    keys = ("commutator", "tachibana-riemann", "tachibana-weyl",
            "relation-total-dim", "relation-contact-n")
    mags = {k: [] for k in keys}
    pairs = m * (m - 1) // 2
    for lo, hi in _chunk_ranges(len(b.p), 8 * m**4 * pairs):
        g = b.metric.matrix[lo:hi]
        riem, weyl = b.lc_riemann[lo:hi], b.weyl[lo:hi]
        riem4 = _swap_slot_components(g, riem, 0)
        weyl4 = _swap_slot_components(g, weyl, 0)
        commutator = _endomorphism_action(_on_pairs(weyl), riem4, 4) - _endomorphism_action(
            _on_pairs(riem), weyl4, 4
        )
        wedge = _on_pairs(_wedge(g))
        q_riem = _endomorphism_action(wedge, riem4, 4)
        # dim >= 5 here, so the contact half-dimension n is at least 2 and
        # both normalizations of the scale factor are finite
        r = b.lc_scalar[lo:hi].reshape((-1,) + (1,) * 5)
        scale_total = r / (m * (m - 1))
        scale_contact = r / (n * (n - 1))
        mags["commutator"].append(per_point(commutator))
        mags["tachibana-riemann"].append(per_point(q_riem))
        mags["tachibana-weyl"].append(per_point(_endomorphism_action(wedge, weyl4, 4)))
        mags["relation-total-dim"].append(per_point(commutator + scale_total * q_riem))
        mags["relation-contact-n"].append(per_point(commutator + scale_contact * q_riem))
    mags = {k: np.concatenate(v) for k, v in mags.items()}
    headline = np.max([mags[k] for k in keys[:3]], axis=0)
    report.add_points(b.p, headline)
    report.extras.update({k: float(np.max(v)) for k, v in mags.items()})
    return report


def check_weyl(
    manifold: ChartManifold,
    points: list[np.ndarray],
    cfg: DifferentiationConfig,
    trace_tol: float | None = None,
    vanish_tol: float | None = None,
) -> tuple[IdentityResidualReport, IdentityResidualReport, IdentityResidualReport]:
    """Tracelessness, vanishing, and metric-Tachibana sanity in one sweep."""
    b = _bundle(manifold, None, points, cfg)
    g = b.metric.matrix
    traceless = new_report("weyl-traceless", trace_tol)
    traceless.add_points(b.p, _weyl_trace(b.weyl, g, b.metric.inverse))
    vanishing = new_report("weyl-vanishing", vanish_tol)
    vanishing.add_points(b.p, per_point(b.weyl))
    metric_q = new_report("tachibana-metric")
    metric_q.add_points(b.p, per_point(_action_on_all_pairs(_wedge(g), g, 2)))
    return traceless, vanishing, metric_q
