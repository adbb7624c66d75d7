"""Test-only charts and the finite-difference reference for the jets.

The package takes every partial from jets; central differences of a
field's values live here only, as the independent check of those partials.
"""

import numpy as np

from kenmotsu import ChartManifold, jets
from kenmotsu.catalog import _flat, _hyperbolic_times_flat, warped

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
