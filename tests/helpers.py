"""Test-only charts and the references for the jets and the derivation actions.

The package takes every partial from jets; central differences of a
field's values live here only, as the independent check of those partials.
The package acts with curvature-like tensors on (0,2) targets and on
curvature operators only; the per-slot action on a (0,k) tensor at every
(X,Y) lives here, as the rank-k reference for those actions, and so does
the four-term semi-symmetry bracket at every (X,Y), the rank-4 reference
for the record's Q(g,S) at the slot pairs.
"""

import dataclasses

import numpy as np

from kenmotsu import AlmostContactStructure, ChartManifold, by_name, jets
from kenmotsu.catalog import (
    NamedExample, _constant, _diagonal, _flat, _hyperbolic_times_flat, _planar_phi, warped,
)
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


def s2s3() -> ChartManifold:
    """S^2(1) x S^3(sqrt 2) in coordinates (theta, phi, chi, alpha, beta).

    g = dtheta^2 + sin^2 theta dphi^2 + 2 (dchi^2 + sin^2 chi (dalpha^2 + sin^2 alpha dbeta^2)):
    both factors have Ricci tensor equal to their metric, so S = g and r = 5.
    It is Einstein and not a space form, and its Weyl tensor is not zero,
    unlike every Einstein chart of the catalog.
    """

    def metric(p):
        theta, chi, alpha = p[..., 0], p[..., 2], p[..., 3]
        sphere3 = 2.0 * jets.sin(chi) ** 2
        return jets.matrix(_diagonal(
            [1.0, jets.sin(theta) ** 2, 2.0, sphere3, sphere3 * jets.sin(alpha) ** 2]))

    polar, azimuth = (0.5, 2.6), (-3.0, 3.0)
    return ChartManifold(5, metric, (polar, azimuth, polar, polar, azimuth))


def s2s3_points(count: int, seed: int) -> np.ndarray:
    """Uniform draws from the sample box of :func:`s2s3`, inside its domain with a margin."""
    box = np.array([(0.7, 2.4), (-2.0, 2.0), (0.7, 2.4), (0.7, 2.4), (-2.0, 2.0)])
    return np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], size=(count, 5))


def ne7():
    """ne5's fibre times a flat plane: a dim-7 Kenmotsu chart, n = 3."""
    return warped(
        "ne7", 1.0, _hyperbolic_times_flat,
        domain=((-2.0, 2.0), (0.5, 3.0)) + ((-2.0, 2.0),) * 4 + ((-1.0, 1.0),),
        sample_box=((-1.0, 1.0), (0.7, 2.5)) + ((-1.0, 1.0),) * 4 + ((-0.5, 0.5),),
        expected_kenmotsu=True, expected_einstein=False, expected_weyl_flat=False,
    )


def h5z():
    """h5 in upper half-space coordinates (x1..x4, z), z = e^-t: xi and eta vary with z.

    The metric is (dx^2 + dz^2)/z^2, with xi = -z d_z, eta = -dz/z and the
    planar phi.  Every catalog chart has constant xi and eta, so only here
    do dxi and deta enter the rows.
    """

    def metric(p):
        return jets.matrix(_diagonal([1.0 / p[..., 4] ** 2] * 5))

    def last_component(entry):
        """The vector or covector field (0, 0, 0, 0, ``entry(z)``)."""
        return lambda p: jets.matrix([[0.0] * 4 + [entry(p[..., 4])]])[..., 0, :]

    return NamedExample(
        name="h5z",
        manifold=ChartManifold(5, metric, ((-2.0, 2.0),) * 4 + ((0.3, 3.0),)),
        structure=AlmostContactStructure(
            phi=_constant(_planar_phi(5)),
            xi=last_component(lambda z: -z),
            eta=last_component(lambda z: -1.0 / z),
        ),
        expected_kenmotsu=True, expected_einstein=True, expected_weyl_flat=True,
        sample_box=((-1.0, 1.0),) * 4 + ((0.6, 1.6),),
        notes="h5 in upper half-space coordinates; non-constant xi and eta",
    )


def h5polar():
    """h5 with polar coordinates (r, theta) on the first fibre plane: phi varies with r.

    The metric is e^{2t}(dr^2 + r^2 dtheta^2 + dx3^2 + dx4^2) + dt^2, with
    phi d_r = d_theta / r, phi d_theta = -r d_r and the planar rotation on
    (x3, x4); xi = eta = e_t.  Every other chart has a constant phi, for
    which phi^T g phi and phi g phi^T agree; here phi varies and they differ.
    """

    def phi(p):
        r = p[..., 0]
        return jets.matrix([
            [0.0, -r, 0.0, 0.0, 0.0],
            [1.0 / r, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0] * 5,
        ])

    example = warped(
        "h5polar", 1.0, lambda x: _diagonal([1.0, x[..., 0] ** 2, 1.0, 1.0]),
        domain=((0.3, 3.0),) + ((-2.0, 2.0),) * 3 + ((-1.0, 1.0),),
        sample_box=((0.6, 2.0),) + ((-1.0, 1.0),) * 3 + ((-0.5, 0.5),),
        expected_kenmotsu=True, expected_einstein=True, expected_weyl_flat=True,
        notes="h5 in polar coordinates on one fibre plane; non-constant phi",
    )
    return dataclasses.replace(example, structure=dataclasses.replace(example.structure, phi=phi))


def beta2():
    """R x_{e^{2t}} R^2: beta-Kenmotsu at beta = 2, constant curvature -4, not Kenmotsu."""
    return warped(
        "beta2", 2.0, _flat,
        domain=((-2.0, 2.0),) * 2 + ((-1.0, 1.0),),
        sample_box=((-1.0, 1.0),) * 2 + ((-0.5, 0.5),),
        expected_kenmotsu=False, expected_einstein=True, expected_weyl_flat=True,
    )


def sheared(example, a, name, domain, sample_box):
    """``example``, whose structure is constant, in the linear coordinates x = A x'.

    The metric is g'(x') = A^t g(A x') A, built entry by entry over jets;
    phi' = A^-1 phi A, xi' = A^-1 xi and eta' = eta A.  A shear that mixes
    the Reeb axis into another moves xi off its coordinate axis, so
    xi (x) eta and eta (x) xi are different arrays there.
    """
    a = np.asarray(a, dtype=float)
    dim, inverse = len(a), np.linalg.inv(a)
    origin = np.zeros(dim)
    phi, xi, eta = (getattr(example.structure, f"{f}_at")(dim, origin)[0]
                    for f in ("phi", "xi", "eta"))

    def metric(p):
        x = jets.matrix([[sum(a[i, k] * p[..., k] for k in range(dim)) for i in range(dim)]])
        g = example.manifold.metric(x[..., 0, :])
        return jets.matrix([[sum(a[k, i] * a[l, j] * g[..., k, l]
                                 for k in range(dim) for l in range(dim))
                             for j in range(dim)] for i in range(dim)])

    return dataclasses.replace(
        example, name=name, manifold=ChartManifold(dim, metric, domain), sample_box=sample_box,
        structure=AlmostContactStructure(
            phi=_constant(inverse @ phi @ a), xi=_constant(inverse @ xi), eta=_constant(eta @ a)
        ),
        notes=f"{example.name} in the sheared coordinates x = A x'",
    )


def _shear(dim, column):
    """The identity with 0.5 at (0, ``column``): x1 = x1' + 0.5 x'_column."""
    a = np.eye(dim)
    a[0, column] = 0.5
    return a


def h5shear():
    """h5 under x1 = x1' + 0.5 t': xi' = d_t - 0.5 d_1 and eta' = dt."""
    return sheared(by_name("h5"), _shear(5, 4), "h5shear",
                   domain=((-3.0, 3.0),) * 4 + ((-1.0, 1.0),), sample_box=((-0.5, 0.5),) * 5)


def euclidean3shear():
    """euclidean3 under x1 = x1' + 0.5 t': the control chart off the coordinate axes."""
    base = by_name("euclidean3")
    return sheared(base, _shear(3, 2), "euclidean3shear",
                   domain=base.manifold.domain, sample_box=base.sample_box)


def heis3():
    """Blair's Sasakian R^3: eta = (dz - y dx)/2, xi = 2 d_z, g = eta (x) eta + (dx^2 + dy^2)/4.

    phi d_x = -d_y and phi d_y = d_x + y d_z.  A contact metric chart,
    d eta != 0, where every other chart has d eta = 0: the modified Ricci
    tensor is not symmetric here.
    """

    def metric(p):
        y = p[..., 1]
        return jets.matrix([[0.25 * y * y + 0.25, 0.0, -0.25 * y],
                            [0.0, 0.25, 0.0],
                            [-0.25 * y, 0.0, 0.25]])

    def phi(p):
        return jets.matrix([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, p[..., 1], 0.0]])

    def eta(p):
        return jets.matrix([[-0.5 * p[..., 1], 0.0, 0.5]])[..., 0, :]

    return NamedExample(
        name="heis3",
        manifold=ChartManifold(3, metric, ((-2.0, 2.0),) * 3),
        structure=AlmostContactStructure(phi=phi, xi=_constant(np.array([0.0, 0.0, 2.0])),
                                         eta=eta),
        expected_kenmotsu=False, expected_einstein=False, expected_weyl_flat=True,
        sample_box=((-1.0, 1.0),) * 3,
        notes="Sasakian: a contact metric control, d eta != 0",
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
