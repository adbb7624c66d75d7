"""Test-only charts and the references for the jets and the derivation actions.

The package takes every partial from jets; central differences of a
field's values live here only, as the independent check of those partials.
The package acts with curvature-like tensors on (0,2) targets and on
curvature operators only; the per-slot action on a (0,k) tensor at every
(X,Y) lives here, as the rank-k reference for those actions, and so does
the four-term semi-symmetry bracket at every (X,Y), the rank-4 reference
for the record's Q(g,S) at the slot pairs.
"""

import numpy as np

from kenmotsu import ChartManifold, jets
from kenmotsu.catalog import _flat, _hyperbolic_times_flat, warped
from kenmotsu.connection import _wedge

STEP = 1e-4


def central_difference(f, p, step=STEP):
    """d_a f(p), the derivative axis first: central differences with one Richardson level.

    (4 D_{h/2} - D_h) / 3 cancels the h^2 term, so for step 1e-4 the
    truncation error is O(1e-16) times the fifth derivatives and the
    roundoff about 1e-12 times the values.
    """
    p = np.asarray(p, dtype=float)

    def differences(h):
        return np.stack([(f(p + h * e) - f(p - h * e)) / (2.0 * h) for e in np.eye(len(p))])

    return (4.0 * differences(step / 2.0) - differences(step)) / 3.0


def generic_chart() -> ChartManifold:
    """A dim-5 metric with no symmetry: g = I + 0.1 (T + T^t)/2, T_ij = sin(w_ij . p + c_ij)."""
    rng = np.random.default_rng(7)
    w, c = rng.normal(size=(5, 5, 5)), rng.normal(size=(5, 5))

    def metric(p):
        t = [[jets.sin(sum(w[i, j, k] * p[..., k] for k in range(5)) + c[i, j]) for j in range(5)]
             for i in range(5)]
        return jets.matrix(
            [[float(i == j) + 0.05 * (t[i][j] + t[j][i]) for j in range(5)] for i in range(5)]
        )

    return ChartManifold(dim=5, metric=metric, domain=((-1.0, 1.0),) * 5)


def ne7():
    """ne5's fibre times a flat plane: a dim-7 Kenmotsu chart, n = 3."""
    return warped(
        "ne7", 1.0, _hyperbolic_times_flat,
        domain=((-2.0, 2.0), (0.5, 3.0)) + ((-2.0, 2.0),) * 4 + ((-1.0, 1.0),),
        sample_box=((-1.0, 1.0), (0.7, 2.5)) + ((-1.0, 1.0),) * 4 + ((-0.5, 0.5),),
        expected_kenmotsu=True, expected_einstein=False, expected_weyl_flat=False,
    )


def beta2():
    """R x_{e^{2t}} R^2: beta-Kenmotsu at beta = 2, constant curvature -4, not Kenmotsu."""
    return warped(
        "beta2", 2.0, _flat,
        domain=((-2.0, 2.0),) * 2 + ((-1.0, 1.0),),
        sample_box=((-1.0, 1.0),) * 2 + ((-0.5, 0.5),),
        expected_kenmotsu=False, expected_einstein=True, expected_weyl_flat=True,
    )


def _endomorphism_action(curv: np.ndarray, target: np.ndarray, k: int) -> np.ndarray:
    """Apply a family of endomorphisms to every slot of a (0,k) array, point by point.

    ``curv[n, l, p, z]`` holds the endomorphism A(X,Y) of each (X,Y) pair p,
    the pairs flattened into one axis; ``target`` is (n, dim, ..., dim).  The
    result is indexed out[n, Z_1, ..., Z_k, p].
    """
    n, m = curv.shape[:2]
    # one row per (p, z), to be summed over l against one slot of the target
    family = np.moveaxis(curv, 1, -1).reshape(n, -1, m)
    out = None
    for s in range(k):
        # slot s first, the other slots flattened behind it
        moved = np.moveaxis(target, s + 1, 1)
        shape = (n, *curv.shape[2:], *moved.shape[2:])
        term = (family @ moved.reshape(n, m, -1)).reshape(shape)
        term = np.moveaxis(term, (1, 2), (k + 1, s + 1))
        out = term if out is None else out + term
    return -out


def _action_on_all_pairs(curv: np.ndarray, target: np.ndarray, k: int) -> np.ndarray:
    """(curv(X,Y) . target) for every (X,Y): curv[n, l, X, Y, z] -> out[n, Z_1..Z_k, X, Y]."""
    n, m = curv.shape[:2]
    out = _endomorphism_action(curv.reshape(n, m, m * m, m), target, k)
    return out.reshape(out.shape[:-1] + (m, m))


def _semisymmetry_defect(g: np.ndarray, ric: np.ndarray) -> np.ndarray:
    """The four-term bracket, indexed out[..., z, u, i, j] for arguments (Z,U,X,Y).

    It is Q(g,S) = -S((X wedge_g Y) Z, U) - S(Z, (X wedge_g Y) U), each term
    minus a wedge of g: with B = S^t on the Z slot and B = S on the U slot.
    """
    first = np.moveaxis(_wedge(g, np.swapaxes(ric, -1, -2)), -1, -4)
    return -first - np.moveaxis(_wedge(g, ric), -1, -3)
