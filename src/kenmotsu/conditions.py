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

from .connection import (
    CurvatureBundle,
    EinsteinFit,
    _chunk_ranges,
    _fit_operators,
)
from .report import IdentityResidualReport, new_report, per_point
from .tensors import _swap_slot_components, _tensordot_each

# threshold on an Einstein fit residual, in (1,1) components: the CLI's
# einstein verdict reads the joint fit, the Weyl commutation the largest
# per-point fit
EINSTEIN_FIT_THRESHOLD = 1e-4


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


def _two_form_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i < j of m indices, and the induced action of an endomorphism on 2-forms.

    A 2-form w stored at the pairs, w[q], has the components
    w(a, b) = sum_q sign[a, b, q] w[q], with ``sign[a, b, q]`` +1 where
    (a, b) is the q-th pair, -1 where (b, a) is and 0 elsewhere.  An
    endomorphism A[c, z] acts on it by (A w)(Z_1, Z_2) = w(A Z_1, Z_2)
    + w(Z_1, A Z_2): the matrix from pair r to pair q is
    sum_{c,z} A[c, z] induced[(c, z), (q, r)].
    """
    i, j = np.triu_indices(m, k=1)
    q = np.arange(len(i))
    sign = np.zeros((m, m, len(i)))
    sign[i, j, q] = 1.0
    sign[j, i, q] = -1.0
    induced = np.zeros((m, m, len(i), len(i)))
    induced[:, i, q] = sign[:, j]
    induced[:, j, q] = sign[i].transpose(1, 0, 2)
    return i, j, induced.reshape(m * m, -1)


def _two_form_action(
    family: np.ndarray, target: np.ndarray, tables: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> np.ndarray:
    """Endomorphisms acting as derivations on a (0,4) array with a 2-form in slots 1, 2.

    ``family[n, l, p, z]`` holds the endomorphism A_p (the pairs flattened
    into one axis, as for :func:`_endomorphism_action`) and
    ``target[n, a, q, b]`` the (0,4) tensor T(Z_0, Z_1, Z_2, Z_3) at the
    pairs q = (Z_1, Z_2) of ``tables``.  The derivation keeps the
    antisymmetry in (Z_1, Z_2), so the result is stored the same way,
    out[n, p, a, q, b]: two matmuls over l act on the outer slots, and the
    induced action of each A_p on 2-forms (:func:`_two_form_tables`), a
    pairs x pairs matrix, acts on the middle one; the derivation's sign
    negates the sum.
    """
    n, m, p = family.shape[:3]
    pairs = len(tables[0])
    out = np.matmul(
        family.transpose(0, 2, 3, 1).reshape(n, p * m, m), target.reshape(n, m, pairs * m)
    ).reshape(n, p, m, pairs, m)
    out += np.matmul(target.reshape(n, 1, m * pairs, m), family.transpose(0, 2, 1, 3)).reshape(
        n, p, m, pairs, m
    )
    on_two_forms = family.transpose(0, 2, 1, 3).reshape(n * p, m * m) @ tables[2]
    middle = np.matmul(
        on_two_forms.reshape(n, p * pairs, pairs),
        target.transpose(0, 2, 1, 3).reshape(n, pairs, m * m),
    )
    out += middle.reshape(n, p, pairs, m, m).transpose(0, 1, 3, 2, 4)
    return np.negative(out, out=out)


def _commutation_maxima(
    g: np.ndarray,
    riem: np.ndarray,
    weyl: np.ndarray,
    scalar: np.ndarray,
    n: int,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, ...]:
    """Per point of one chunk: |C.R - R.C|, |Q(g,R)|, |Q(g,C)| and both scaled relations.

    [C, wedge] act on R and [R, wedge] on C, each family stacked into one
    call; the arrays die with the call, before the next chunk allocates.
    """
    x, y, _ = tables
    m, pairs = g.shape[-1], len(x)
    wedge = _wedge(g)[:, :, x, y, :]
    on_riem = _two_form_action(
        np.concatenate([weyl[:, :, x, y, :], wedge], axis=2),
        _swap_slot_components(g, riem, 0)[:, :, x, y, :],
        tables,
    )
    on_weyl = _two_form_action(
        np.concatenate([riem[:, :, x, y, :], wedge], axis=2),
        _swap_slot_components(g, weyl, 0)[:, :, x, y, :],
        tables,
    )
    commutator = on_riem[:, :pairs] - on_weyl[:, :pairs]
    q_riem = on_riem[:, pairs:]
    # dim >= 5 here, so the contact half-dimension n is at least 2 and
    # both normalizations of the scale factor are finite
    r = scalar.reshape((-1,) + (1,) * 4)
    scale_total = r / (m * (m - 1))
    scale_contact = r / (n * (n - 1))
    return (
        per_point(commutator),
        per_point(q_riem),
        per_point(on_weyl[:, pairs:]),
        per_point(commutator + scale_total * q_riem),
        per_point(commutator + scale_contact * q_riem),
    )


def _wedge(g: np.ndarray) -> np.ndarray:
    """(X wedge_g Y) Z = g(Y,Z) X - g(X,Z) Y, (1,3) components with leading point axes."""
    eye = np.eye(g.shape[-1])
    return np.einsum("...jz,mi->...mijz", g, eye) - np.einsum("...iz,mj->...mijz", g, eye)


def _semisymmetry_defect(g: np.ndarray, ric: np.ndarray) -> np.ndarray:
    """The four-term bracket, indexed out[..., z, u, i, j] for arguments (Z,U,X,Y)."""
    return (
        -np.einsum("...jz,...iu->...zuij", g, ric)
        + np.einsum("...iz,...ju->...zuij", g, ric)
        - np.einsum("...ju,...zi->...zuij", g, ric)
        + np.einsum("...iu,...zj->...zuij", g, ric)
    )


def check_derivation_identity(geometry: CurvatureBundle) -> IdentityResidualReport:
    """Check the derivation-action identity relating both connections.

    Left side from the direct modified curvature and its contraction, right
    side from Levi-Civita data; holds on every Kenmotsu chart, Einstein or
    not, so it is an end-to-end test of the whole pipeline.
    """
    lc_ricci = geometry.lc_ricci
    lhs = _action_on_all_pairs(geometry.riemann, geometry.ricci, 2)
    rhs = _action_on_all_pairs(geometry.lc_riemann, lc_ricci, 2) + _semisymmetry_defect(
        geometry.metric.matrix, lc_ricci
    )
    report = new_report("derivation-identity")
    report.add_points(geometry.p, per_point(lhs - rhs))
    return report


@dataclass
class SemisymmetryVerdict:
    """Outcome of the semi-symmetry comparison over a set of points.

    ``condition`` is the four-term bracket residual report.  The fits are
    joint across all points; ``companions`` carries per-point reports for
    the four numeric consequences of the condition (Einstein fit a = -2n,
    operator fit (a,b) = (2,-2) for the modified Ricci, and the two
    constant-scalar targets), so a runner can print them as rows next to
    the condition itself.
    """

    condition: IdentityResidualReport
    ricci_fit: EinsteinFit
    modified_ricci_fit: EinsteinFit
    scalar_mean: float
    modified_scalar_mean: float
    companions: list[IdentityResidualReport]


def check_semisymmetry_condition(geometry: CurvatureBundle) -> SemisymmetryVerdict:
    """Evaluate the four-term bracket and the consequences of it vanishing.

    When the bracket vanishes the chain forces S = -2n g,
    r = -2n(2n+1), ric_K = 2g - 2 eta (x) eta and scal_K = 4n; the verdict
    carries joint Einstein fits of S (b forced to 0) and of ric_K (free
    a, b) plus the scalar means; the companion rows hold the per-point
    deviations from those targets.
    """
    n, p = geometry.manifold.n, geometry.p
    g, ginv, xi, eta = geometry.metric.matrix, geometry.metric.inverse, geometry.xi, geometry.eta
    defect = _semisymmetry_defect(g, geometry.lc_ricci)
    # normalize with the inverse metric on the Z slot so the residual is
    # scale-free, matching the (1,1) convention of the fits
    defect_norm = np.einsum("...az,...zuij->...auij", ginv, defect)
    report = new_report("semisymmetry-condition")
    report.add_points(p, per_point(defect_norm))
    plain_ops = ginv @ geometry.lc_ricci
    modified_ops = ginv @ geometry.ricci
    einstein_row = new_report("einstein-ricci-fit")
    plain = geometry.lc_einstein_fits
    einstein_row.add_points(p, np.maximum(np.abs(plain.a + 2.0 * n), plain.residual))
    eta_row = new_report("eta-einstein-fit")
    modified = _fit_operators(modified_ops, xi, eta)
    eta_row.add_points(
        p,
        np.max([np.abs(modified.a - 2.0), np.abs(modified.b + 2.0), modified.residual], axis=0),
    )
    scalar_row = new_report("scalar-curvature-constant")
    scalar_row.add_points(p, np.abs(geometry.lc_scalar + 2.0 * n * (2 * n + 1)))
    mod_scalar_row = new_report("modified-scalar-constant")
    mod_scalar_row.add_points(p, np.abs(geometry.scalar - 4.0 * n))
    ricci_fit = _fit_operators(plain_ops, joint=True)
    modified_fit = _fit_operators(modified_ops, xi, eta, joint=True)
    scalar_mean = float(np.mean(geometry.lc_scalar))
    modified_scalar_mean = float(np.mean(geometry.scalar))
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
        ricci_fit=ricci_fit,
        modified_ricci_fit=modified_fit,
        scalar_mean=scalar_mean,
        modified_scalar_mean=modified_scalar_mean,
        companions=[einstein_row, eta_row, scalar_row, mod_scalar_row],
    )


def _weyl_trace(weyl: np.ndarray, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Per point, the max absolute value over all six single g-traces of the (0,4) form."""
    c4 = _swap_slot_components(g, weyl, 0)
    worst = np.zeros(len(c4))
    for a in range(4):
        for b in range(a + 1, 4):
            moved = np.moveaxis(c4, (a + 1, b + 1), (1, 2))
            worst = np.maximum(worst, per_point(_tensordot_each(ginv, moved, (0, 1), (0, 1))))
    return worst


def check_weyl_commutation(geometry: CurvatureBundle) -> IdentityResidualReport:
    """Commutator of the Weyl and curvature actions against Tachibana terms.

    On an Einstein chart of dimension m >= 5 with scalar curvature r,
    C = R - [r / (m(m-1))] g wedge g, and R . (g wedge g) = 0 and
    Q(g, g wedge g) = 0 give C . R - R . C = -[r / (m(m-1))] Q(g,R) and
    Q(g,C) = Q(g,R).  On the catalog's Einstein example C, C . R - R . C
    and Q(g,R) all vanish individually, so the check is degenerate and
    asserts each is below tolerance.  The chart counts as Einstein where
    the Levi-Civita Ricci operator fits a*I at every point, each fit
    residual below :data:`EINSTEIN_FIT_THRESHOLD`.  Off the Einstein case
    the report is informational: it records the three magnitudes and the
    residual of the scaled relation under the total-dimension scale
    r / (m(m-1)), the one above, and under the contact-n scale r / (n(n-1)).

    R, C and the wedge are antisymmetric in their (X,Y) slots, and so are
    the (0,4) forms of R and C, so both are stored at the m(m-1)/2 pairs
    X < Y: a family of endomorphisms at its pairs acts on a (0,4) array
    with a 2-form in its middle slots (:func:`_two_form_action`), and each
    rank-6 array holds m^2 (m(m-1)/2)^2 values per point instead of m^6.
    Every action is linear in the endomorphism and keeps the antisymmetry
    of its target, so the largest value over the stored pairs is the
    largest over all of them.  That holds exactly for the wedge and to
    roundoff for the computed curvatures, whose other half is taken as the
    negative of the stored one; with the different order of summation the
    magnitudes match those of the full per-point actions to roundoff, not
    bit for bit.  The work runs over chunks of points so that memory stays
    bounded.
    """
    report = new_report("weyl-tachibana")
    m, n = geometry.manifold.dim, geometry.manifold.n
    if m < 5:
        report.status = "not-applicable"
        report.note = "conformal tensor is identically zero in dimension 3"
        return report
    if not geometry.lc_einstein_fits.residual.max() < EINSTEIN_FIT_THRESHOLD:
        report.status = "info"
        report.note = "Einstein hypothesis fails here; magnitudes recorded only"
    keys = ("commutator", "tachibana-riemann", "tachibana-weyl",
            "relation-total-dim", "relation-contact-n")
    mags = {k: [] for k in keys}
    tables = _two_form_tables(m)
    pairs = len(tables[0])
    # the largest array of a chunk is a stacked action: two families of
    # pairs endomorphisms acting on a (0,4) array with a 2-form in its middle
    for lo, hi in _chunk_ranges(len(geometry.p), 8 * 2 * pairs * m**2 * pairs):
        maxima = _commutation_maxima(
            geometry.metric.matrix[lo:hi],
            geometry.lc_riemann[lo:hi],
            geometry.weyl[lo:hi],
            geometry.lc_scalar[lo:hi],
            n,
            tables,
        )
        for key, value in zip(keys, maxima):
            mags[key].append(value)
    mags = {k: np.concatenate(v) for k, v in mags.items()}
    headline = np.max([mags[k] for k in keys[:3]], axis=0)
    report.add_points(geometry.p, headline)
    report.extras.update({k: float(np.max(v)) for k, v in mags.items()})
    return report


def check_weyl(
    geometry: CurvatureBundle,
) -> tuple[IdentityResidualReport, IdentityResidualReport, IdentityResidualReport]:
    """Tracelessness, vanishing, and metric-Tachibana sanity in one sweep."""
    p, g, weyl = geometry.p, geometry.metric.matrix, geometry.weyl
    traceless = new_report("weyl-traceless")
    traceless.add_points(p, _weyl_trace(weyl, g, geometry.metric.inverse))
    vanishing = new_report("weyl-vanishing")
    vanishing.add_points(p, per_point(weyl))
    metric_q = new_report("tachibana-metric")
    metric_q.add_points(p, per_point(_action_on_all_pairs(_wedge(g), g, 2)))
    return traceless, vanishing, metric_q
