"""Curvature derivation actions, the Ricci semi-symmetry chain, and Weyl.

The central gadget: a (1,3) curvature-like tensor A acts on a (0,k) tensor
T as a derivation,

    (A(X,Y) . T)(Z_1, ..., Z_k) = - sum_s T(Z_1, ..., A(X,Y) Z_s, ..., Z_k)

producing a (0,k+2) tensor.  With A the curvature this is the usual R . T;
with A the metric wedge endomorphism (X wedge_g Y) Z = g(Y,Z) X - g(X,Z) Y
it is the Tachibana tensor Q(g,T).  Each A here is antisymmetric in
(X,Y) and the action is linear in A, so every action is antisymmetric in
(X,Y): it is computed at the m(m-1)/2 pairs X < Y only, and its largest
value there is its largest over all (X,Y).  One helper, :func:`_derivation`
of :mod:`kenmotsu.connection`, computes -(A t + t A^t) for a family of
matrices A stacked along rows; the (0,2) targets and the curvature
operators on 2-forms both go through it.  The geometry record holds g wedge g
and Q(g,S) once each, and every row here reads those.

On the modified connection the derivation action on its Ricci tensor
relates to the Levi-Civita one by

    (K . ric_K)(Z,U,X,Y) = (R . S)(Z,U,X,Y)
        - g(Y,Z) S(X,U) + g(X,Z) S(Y,U) - g(Y,U) S(Z,X) + g(X,U) S(Z,Y)

which is an identity on every Kenmotsu chart; the bracket is Q(g,S).
Demanding K . ric_K = R . S (the semi-symmetry comparison) therefore
forces the four-term bracket to vanish, which happens exactly when
S = -2n g; the checks below walk that chain and report the Einstein fits
and scalar targets that follow.
"""

from __future__ import annotations

import numpy as np

from .connection import (
    CurvatureBundle,
    _chunk_ranges,
    _derivation,
    _fit_operators,
    _pair_action,
)
from .report import IdentityResidualReport, per_point, row, sides_row

# threshold on the joint Einstein fit residual, in (1,1) components
EINSTEIN_FIT_THRESHOLD = 1e-4


def _two_form_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i < j of m indices, and the induced action of an endomorphism on 2-forms.

    A 2-form w stored at the pairs, w[q], has the components
    w(a, b) = sum_q sign[a, b, q] w[q], with ``sign[a, b, q]`` +1 where
    (a, b) is the q-th pair, -1 where (b, a) is and 0 elsewhere.  An
    endomorphism A[c, z] acts on it by (A w)(Z_1, Z_2) = w(A Z_1, Z_2)
    + w(Z_1, A Z_2): the pairs x pairs matrix from pair r to pair q is
    sum_{c,z} A[c, z] induced[(c, z), (q, r)], so one matmul against
    ``induced`` gives it for a whole stack of endomorphisms.
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


def _commutation_maxima(
    geometry: CurvatureBundle, chunk: slice, tables: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, ...]:
    """Per point of a chunk: |C.R - R.C|, |Q(g,R)|, |Q(g,C)| and both scaled relations.

    The (0,4) form T of R or C, antisymmetrized in its outer slots, is its
    curvature operator on 2-forms, T[s, q] = T(a_s, X_q, Y_q, b_s) at the
    pairs s and q of ``tables``.  An endomorphism A_p with induced action
    Ahat_p on 2-forms acts on it by A_p . T = -(Ahat_p T + T Ahat_p^t)
    (:func:`_derivation`).  T is symmetric, by the pair symmetry of R and C,
    so T Ahat_p^t is the transpose of Ahat_p T: one matmul per target.  The
    families are stacked [C, wedge, R], so [C, wedge] acting on R and
    [wedge, R] acting on C are slices of one array of induced actions,
    ``act``; the arrays die with the call, before the next chunk allocates.
    """
    x, y, induced = tables
    g = geometry.metric.matrix[chunk]
    k, m, n, pairs = len(g), g.shape[-1], geometry.manifold.n, len(x)
    forms = (geometry.weyl, geometry.g_wedge_g, geometry.lc_riemann)
    family = np.concatenate([t[chunk, :, x, y, :] for t in forms], axis=2)
    act = (family.transpose(0, 2, 1, 3).reshape(-1, m * m) @ induced).reshape(
        k, 3 * pairs * pairs, pairs
    )
    # one matmul lowers the upper slot of all three forms (the wedge's operator
    # goes unused); T[n, s, q] keeps the outer pairs s, antisymmetrized
    t4 = (g @ family.reshape(k, m, -1)).reshape(k, m, 3 * pairs, m).transpose(0, 1, 3, 2)
    operators = 0.5 * (t4[:, x, y] - t4[:, y, x])
    on_riem = _derivation(act[:, : 2 * pairs * pairs], operators[..., 2 * pairs :], symmetric=True)
    on_weyl = _derivation(act[:, pairs * pairs :], operators[..., :pairs], symmetric=True)
    del act
    commutator = on_riem[:, :pairs] - on_weyl[:, pairs:]
    q_riem = on_riem[:, pairs:]
    maxima = [per_point(commutator), per_point(q_riem), per_point(on_weyl[:, :pairs])]
    # dim >= 5 here, so the contact half-dimension n is at least 2 and
    # both normalizations of the scale factor are finite
    r = geometry.lc_scalar[chunk].reshape(-1, 1, 1, 1)
    for scale in (m * (m - 1), n * (n - 1)):
        relation = r / scale * q_riem
        relation += commutator
        maxima.append(per_point(relation))
    return tuple(maxima)


def check_derivation_identity(geometry: CurvatureBundle) -> IdentityResidualReport:
    """Check the derivation-action identity relating both connections.

    Left side from the direct modified curvature and its contraction, right
    side from Levi-Civita data; holds on every Kenmotsu chart, Einstein or
    not, so it is an end-to-end test of the whole pipeline.
    """
    # the bracket is Q(g,S), the record's tachibana_ricci
    lhs = _pair_action(geometry.riemann, geometry.ricci)
    rhs = _pair_action(geometry.lc_riemann, geometry.lc_ricci)
    rhs += geometry.tachibana_ricci
    return sides_row("derivation-identity", lhs, rhs)


def check_semisymmetry_condition(geometry: CurvatureBundle) -> list[IdentityResidualReport]:
    """Evaluate the four-term bracket and the consequences of it vanishing.

    When the bracket vanishes the chain forces S = -2n g,
    r = -2n(2n+1), ric_K = 2g - 2 eta (x) eta and scal_K = 4n.  Returns the
    ``semisymmetry-condition`` row, whose extras hold the means of both
    scalar curvatures, then one row per consequence: the per-point
    deviations from those targets, with the joint Einstein fits of S (b
    forced to 0) and of ric_K (free a, b) as the ``joint-*`` extras of the
    two fit rows.
    """
    n = geometry.manifold.n
    ginv, xi, eta = geometry.metric.inverse, geometry.xi, geometry.eta
    # the bracket is Q(g,S) at the pairs X < Y; g^-1 on its Z slot makes the
    # residual scale-free, in the (1,1) convention of the fits
    defect_norm = ginv[:, None] @ geometry.tachibana_ricci
    means = {
        "mean-lc-scalar": float(np.mean(geometry.lc_scalar)),
        "mean-modified-scalar": float(np.mean(geometry.scalar)),
    }
    plain, plain_joint = geometry.lc_einstein_fits
    modified, eta_joint = _fit_operators(ginv @ geometry.ricci, xi, eta)
    # the scalar curvatures the chain forces: r of S and scal_K of ric_K
    r, scal_k = -2.0 * n * (2 * n + 1), 4.0 * n
    rows = {
        "semisymmetry-condition": (per_point(defect_norm), means),
        "einstein-ricci-fit": (
            np.maximum(np.abs(plain.a + 2.0 * n), plain.residual),
            {"joint-a": plain_joint.a, "joint-residual": plain_joint.residual},
        ),
        "eta-einstein-fit": (
            np.max([np.abs(modified.a - 2.0), np.abs(modified.b + 2.0), modified.residual], axis=0),
            {"joint-a": eta_joint.a, "joint-b": eta_joint.b, "joint-residual": eta_joint.residual},
        ),
        "scalar-curvature-constant": (np.abs(geometry.lc_scalar - r), {"target": r}),
        "modified-scalar-constant": (np.abs(geometry.scalar - scal_k), {"target": scal_k}),
    }
    return [row(name, residuals, extras) for name, (residuals, extras) in rows.items()]


def _weyl_trace(weyl: np.ndarray, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Per point, the max absolute value over all six single g-traces of the (0,4) form."""
    n, m = g.shape[:2]
    # the (0,4) form: g lowers the upper slot
    c4 = (g @ weyl.reshape(n, m, -1)).reshape(weyl.shape)
    worst = np.zeros(n)
    for a in range(4):
        for b in range(a + 1, 4):
            moved = np.moveaxis(c4, (a + 1, b + 1), (1, 2))
            trace = ginv.reshape(n, 1, m * m) @ moved.reshape(n, m * m, -1)
            worst = np.maximum(worst, per_point(trace))
    return worst


def check_weyl_commutation(geometry: CurvatureBundle) -> IdentityResidualReport:
    """Commutator of the Weyl and curvature actions against Tachibana terms.

    On an Einstein chart of dimension m >= 5 with scalar curvature r,
    C = R - [r / (m(m-1))] g wedge g, and R . (g wedge g) = 0 and
    Q(g, g wedge g) = 0 give C . R - R . C = -[r / (m(m-1))] Q(g,R) and
    Q(g,C) = Q(g,R).  On the catalog's Einstein example C, C . R - R . C
    and Q(g,R) all vanish individually, so the check is degenerate and
    asserts each is below tolerance.  The chart counts as Einstein where
    one a*I fits the Levi-Civita Ricci operator at all points, the joint
    fit residual below :data:`EINSTEIN_FIT_THRESHOLD`, as for the CLI's
    einstein verdict.  Off the Einstein case
    the report is informational: it records the three magnitudes and the
    residual of the scaled relation under the total-dimension scale
    r / (m(m-1)), the one above, and under the contact-n scale r / (n(n-1)).

    Each form is stored as its curvature operator on 2-forms, and R, C and
    the wedge act only at their slot pairs (:func:`_commutation_maxima`;
    README's Library section says why the maxima stay those over all (X,Y)).
    The work runs over chunks of points so that memory stays bounded.
    """
    m = geometry.manifold.dim
    if m < 5:
        note = "conformal tensor is identically zero in dimension 3"
        return row("weyl-tachibana", [], status="not-applicable", note=note)
    status, note = "ok", ""
    if not geometry.lc_einstein_fits[1].residual < EINSTEIN_FIT_THRESHOLD:
        status, note = "info", "Einstein hypothesis fails here; magnitudes recorded only"
    keys = ("commutator", "tachibana-riemann", "tachibana-weyl",
            "relation-total-dim", "relation-contact-n")
    tables = _two_form_tables(m)
    pairs = len(tables[0])
    # the largest array of a chunk holds the induced actions on 2-forms of
    # three families of pairs endomorphisms: C, the wedge and R
    chunks = [_commutation_maxima(geometry, slice(lo, hi), tables)
              for lo, hi in _chunk_ranges(len(geometry.p), 8 * 3 * pairs**3)]
    mags = {k: np.concatenate(v) for k, v in zip(keys, zip(*chunks))}
    headline = np.max([mags[k] for k in keys[:3]], axis=0)
    extras = {k: float(np.max(v)) for k, v in mags.items()}
    return row("weyl-tachibana", headline, extras, status=status, note=note)


def check_weyl(
    geometry: CurvatureBundle,
) -> tuple[IdentityResidualReport, IdentityResidualReport, IdentityResidualReport]:
    """Tracelessness, vanishing, and metric-Tachibana sanity in one sweep."""
    g, weyl = geometry.metric.matrix, geometry.weyl
    return (
        row("weyl-traceless", _weyl_trace(weyl, g, geometry.metric.inverse)),
        row("weyl-vanishing", per_point(weyl)),
        row("tachibana-metric", per_point(_pair_action(geometry.g_wedge_g, g))),
    )
