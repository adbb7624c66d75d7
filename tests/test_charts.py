import math
import re

import numpy as np
import pytest
from helpers import beta2, central_difference, generic_chart, ne7

from kenmotsu import (
    ChartManifold,
    CurvatureBundle,
    DomainError,
    MetricError,
    by_name,
    catalog,
    jets,
    levi_civita,
)
from kenmotsu.charts import _add_connection_terms, _partials_at, riemann_of_connection
from kenmotsu.connection import _wedge
from kenmotsu.tensors import SYMMETRY_TOL, slots


def christoffel(manifold, p):
    """The Levi-Civita coefficients of a chart at p, from its metric pair and partials."""
    return levi_civita(manifold.metric_pair_at(p), manifold.metric_partials_at(p)[1])


def _pointwise(metric):
    """A chart metric read off each point's coordinates, with zero partials that no test reads."""
    def over_jets(x):
        value = np.array([metric(q) for q in x.value])
        return jets.Jet(value, np.zeros(value.shape + x.shape[-1:]))

    return over_jets


def constant_curvature_riemann(g):
    """Independent oracle: space of curvature -1 has R = -(g wedge g)."""
    dim = g.shape[0]
    eye = np.eye(dim)
    return -(np.einsum("jk,li->lijk", g, eye) - np.einsum("ik,lj->lijk", g, eye))


def ne5_ricci_oracle(point):
    """Warped-product closed form for the ne5 chart.

    For g = dt^2 + e^{2t} g_fiber with a 4-dimensional fiber,
    Ric = Ric_fiber - 4 e^{2t} g_fiber on fiber pairs and Ric(dt,dt) = -4;
    the hyperbolic block contributes Ric_fiber = -g_hyperbolic.
    """
    _, y1, _, _, t = point
    w = math.exp(2.0 * t)
    hyper = -(1.0 + 4.0 * w) / y1**2
    return np.diag([hyper, hyper, -4.0 * w, -4.0 * w, -4.0])


def test_chart_validation():
    metric = lambda p: np.eye(4)
    with pytest.raises(ValueError):
        ChartManifold(dim=4, metric=metric, domain=((-1, 1),) * 4)
    with pytest.raises(ValueError):
        ChartManifold(dim=3, metric=metric, domain=((-1, 1),) * 2)
    with pytest.raises(ValueError):
        ChartManifold(dim=3, metric=metric, domain=((-1, 1), (2, 2), (-1, 1)))


def test_domain_membership_and_margins():
    # the box is closed and no call takes a margin: the partials come from
    # the point itself, so a corner is inside and a hair beyond it is not
    m = by_name("h3").manifold
    assert m.contains(np.array([0.0, 0.0, 0.0]))
    assert m.contains(np.array([2.0, 0.0, -1.0]))
    assert not m.contains(np.array([0.0, 0.0, 5.0]))
    with pytest.raises(DomainError, match=r"^point \[0\.0, 0\.0, 1\.001\] leaves the chart domain$"):
        m.require_inside(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.001]]))
    with pytest.raises(DomainError):
        m.require_inside(np.array([0.0, 0.0]))


def test_metric_validation_errors():
    bad_shape = ChartManifold(dim=3, metric=lambda p: np.eye(2), domain=((-1, 1),) * 3)
    with pytest.raises(MetricError):
        bad_shape.metric_at(np.zeros(3))
    asym = ChartManifold(
        dim=3,
        metric=lambda p: np.eye(3) + np.array([[0, 1e-3, 0], [0, 0, 0], [0, 0, 0]]),
        domain=((-1, 1),) * 3,
    )
    with pytest.raises(MetricError):
        asym.metric_at(np.zeros(3))
    indef = ChartManifold(
        dim=3, metric=lambda p: np.diag([1.0, -1.0, 1.0]), domain=((-1, 1),) * 3
    )
    with pytest.raises(MetricError):
        indef.metric_at(np.zeros(3))


def _skewed(skew):
    m = np.diag([2.0, 1.0, 3.0])
    m[0, 1] += skew
    return m


@pytest.mark.parametrize(
    "bad, why",
    [
        (np.full((3, 3), np.nan), "has non-finite entries"),
        (_skewed(10.0 * SYMMETRY_TOL), "is not symmetric"),
        (np.diag([1.0, -1.0, 1.0]), "is not positive definite"),
        (np.diag([1.0, 0.0, 1.0]), "is not positive definite"),
    ],
    ids=["non-finite", "asymmetric", "indefinite", "singular"],
)
def test_metric_pair_at_names_the_first_failing_point(bad, why):
    # the first point is fine, the second and third are not: the error names
    # the second, with the reason its own metric fails
    points = np.array([[0.1, 0.0, 0.0], [0.2, 0.0, 0.0], [0.3, 0.0, 0.0]])
    chart = ChartManifold(
        dim=3, metric=_pointwise(lambda q: bad if q[0] > 0.15 else np.eye(3)),
        domain=((-1, 1),) * 3,
    )
    message = f"metric {why} at {points[1].tolist()}"
    with pytest.raises(MetricError, match=f"^{re.escape(message)}$"):
        chart.metric_pair_at(points)
    with pytest.raises(MetricError, match=f"^{re.escape(message)}$"):
        chart.metric_at(points)


def test_metric_pair_at_names_the_point_whose_inverse_fails():
    # a positive-definite metric whose smallest eigenvalue, 1e-14, is too
    # small for its inverse to pass: only the inverse check rejects it
    c, s = np.cos(0.7), np.sin(0.7)
    q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    q = q @ np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    chart = ChartManifold(
        dim=3,
        metric=_pointwise(lambda p: q @ np.diag([1.0, 1.0, 1e-14 if p[0] > 0.5 else 1.0]) @ q.T),
        domain=((-1, 1),) * 3,
    )
    points = np.array([[0.0, 0.0, 0.0], [0.9, 0.0, 0.0]])
    assert chart.metric_at(points).shape == (2, 3, 3)
    message = "metric inverse does not invert the metric at [0.9, 0.0, 0.0]"
    with pytest.raises(MetricError, match=f"^{re.escape(message)}$"):
        chart.metric_pair_at(points)


@pytest.mark.parametrize("name", [ex.name for ex in catalog()] + ["generic"])
def test_finite_difference_matches_analytic_partials(name):
    # the jets' partials against central differences of the values, one
    # point at a time: the metric's first partials against differences of
    # its values, its second against differences of its first, and each
    # structure field's partials against differences of its values
    if name == "generic":
        m, structure = generic_chart(), None
        points = np.random.default_rng(5).uniform(-0.5, 0.5, size=(5, 5))
    else:
        ex = by_name(name)
        m, structure, points = ex.manifold, ex.structure, ex.sample_points(5, seed=5)
    for p in points:
        _, dg, ddg = m.metric_partials_at(p, 2)
        fd = central_difference(lambda q: m.metric_partials_at(q)[0], p)
        assert np.max(np.abs(fd - dg)) < 1e-9
        fd2 = central_difference(lambda q: m.metric_partials_at(q)[1], p)
        assert np.max(np.abs(fd2 - ddg)) < 1e-9
        for field in () if structure is None else ("phi", "xi", "eta"):
            at = getattr(structure, f"{field}_at")
            fd = central_difference(lambda q: at(m.dim, q)[0], p)
            assert np.max(np.abs(fd - at(m.dim, p)[1])) < 1e-9, field


# beta, and whether the fibre's first two coordinates span a hyperbolic plane
WARPED = {
    "euclidean3": (0.0, False), "h3": (1.0, False), "h5": (1.0, False), "ne5": (1.0, True),
    "ne7": (1.0, True), "beta2": (2.0, False),
}


def oneill_riemann(g, points, beta, hyperbolic):
    """R = R_N - beta^2 (g wedge g) on R x_{e^{beta t}} N, as [n, l, i, j, k].

    B. O'Neill, Semi-Riemannian Geometry (1983), Prop. 7.42, for the warping
    function e^{beta t}.  R_N is the fibre's curvature lifted to M: zero on a
    flat fibre, and -(g_H wedge g_H) on a hyperbolic block, with g_H =
    (dx^2 + dy^2) / y^2 without the warp.  No metric derivative enters.
    """
    riem = -beta**2 * _wedge(g)
    if hyperbolic:
        riem[:, :2, :2, :2, :2] -= _wedge(np.eye(2) / points[:, 1, None, None] ** 2)
    return riem


@pytest.mark.parametrize("name", list(WARPED))
def test_curvature_meets_the_warped_product_formula(name):
    ex = {"ne7": ne7, "beta2": beta2}.get(name, lambda: by_name(name))()
    points = ex.sample_points(200, seed=6)
    record = CurvatureBundle(ex.manifold, ex.structure, points)
    oracle = oneill_riemann(record.metric.matrix, points, *WARPED[name])
    assert np.max(np.abs(record.lc_riemann - oracle)) < 1e-12


@pytest.mark.parametrize("name", [ex.name for ex in catalog()])
def test_exact_curvature_agrees_with_the_stencil_fallback(name):
    # the closed-form d Gamma against central differences of Gamma, one
    # point at a time, for both connections
    ex = by_name(name)
    points = ex.sample_points(20, seed=6)
    exact = CurvatureBundle(ex.manifold, ex.structure, points)
    for part, coefficients in (("lc_riemann", "lc_gamma"), ("riemann", "gamma")):
        def gamma_at(q):
            return getattr(CurvatureBundle(ex.manifold, ex.structure, q), coefficients)[0]

        fallback = np.stack(
            [riemann_of_connection(gamma_at(p), central_difference(gamma_at, p)) for p in points]
        )
        assert np.max(np.abs(getattr(exact, part) - fallback)) < 1e-9, part


def test_richardson_improves_truncation_error():
    # the reference stencil's Richardson level against plain central
    # differences, at a step large enough that truncation dominates roundoff
    m = by_name("h3").manifold
    p = np.array([0.3, -0.2, 0.25])
    h = 1e-3
    truth = m.metric_partials_at(p)[1]
    metric = lambda q: m.metric_partials_at(q)[0]
    plain = np.stack([(metric(p + h * e) - metric(p - h * e)) / (2.0 * h) for e in np.eye(3)])
    extrap = central_difference(metric, p, step=h)
    err_plain = np.max(np.abs(plain - truth))
    err_extrap = np.max(np.abs(extrap - truth))
    assert err_plain > 1e-8
    assert err_extrap < err_plain / 100.0


def test_scalar_curvature_from_exact_partials_meets_the_oracle():
    # -20 on h5 (curvature -1 in dim 5) and -20 - 2 e^{-2t} on ne5, to roundoff
    for name in ("h5", "ne5"):
        ex = by_name(name)
        points = ex.sample_points(50, seed=7)
        exact = -20.0 - (2.0 * np.exp(-2.0 * points[:, -1]) if name == "ne5" else 0.0)
        scalar = CurvatureBundle(ex.manifold, None, points).lc_scalar
        assert np.max(np.abs(scalar - exact)) < 1e-13, name


def test_christoffel_oracle_h3():
    m = by_name("h3").manifold
    p = np.array([0.1, 0.2, 0.3])
    gamma = christoffel(m, p)
    w = math.exp(0.6)  # e^{2t} at t = 0.3
    expected = np.zeros((3, 3, 3))
    expected[0, 0, 2] = expected[0, 2, 0] = 1.0  # fiber-t mixing
    expected[1, 1, 2] = expected[1, 2, 1] = 1.0
    expected[2, 0, 0] = expected[2, 1, 1] = -w
    assert np.max(np.abs(gamma - expected)) < 1e-12
    assert math.isclose(w, 1.8221188003905089)


def test_levi_civita_is_symmetric_flag():
    # the Levi-Civita connection is torsion-free: Gamma^k_ij = Gamma^k_ji
    m = by_name("h5").manifold
    gamma = christoffel(m, np.array([0.1, -0.2, 0.3, 0.0, -0.1]))
    assert gamma.shape == (5, 5, 5)
    assert np.array_equal(gamma, np.swapaxes(gamma, -1, -2))


@pytest.mark.parametrize("name", ["h3", "h5"])
def test_riemann_matches_constant_curvature_oracle(name):
    ex = by_name(name)
    points = ex.sample_points(4, seed=2)
    riem = CurvatureBundle(ex.manifold, None, points).lc_riemann
    for n, p in enumerate(points):
        oracle = constant_curvature_riemann(ex.manifold.metric_at(p))
        assert np.max(np.abs(riem[n] - oracle)) < 1e-10


def test_ricci_and_scalar_on_space_forms():
    for name, n in (("h3", 1), ("h5", 2)):
        ex = by_name(name)
        p = ex.sample_points(1, seed=3)[0]
        b = CurvatureBundle(ex.manifold, None, p)
        g = ex.manifold.metric_at(p)
        assert np.max(np.abs(b.lc_ricci[0] + 2.0 * n * g)) < 1e-10
        assert abs(b.lc_scalar[0] + 2 * n * (2 * n + 1)) < 1e-9


def test_ne5_ricci_against_warped_product_oracle():
    ex = by_name("ne5")
    points = ex.sample_points(5, seed=9)
    ric = CurvatureBundle(ex.manifold, None, points).lc_ricci
    for n, p in enumerate(points):
        assert np.max(np.abs(ric[n] - ne5_ricci_oracle(p))) < 1e-9


def test_ne5_frozen_point_values():
    ex = by_name("ne5")
    p = np.array([0.1, 1.5, 0.2, 0.3, 0.0])
    b = CurvatureBundle(ex.manifold, None, p)
    ric = b.lc_ricci[0]
    assert abs(ric[0, 0] - (-2.2222222222222223)) < 1e-10
    assert abs(ric[2, 2] - (-4.0)) < 1e-10
    assert abs(ric[4, 4] - (-4.0)) < 1e-10
    assert abs(b.lc_scalar[0] - (-22.0)) < 1e-9  # -20 - 2 e^{-2t} at t = 0


def test_curvature_needs_no_margin_at_the_domain_edge():
    # the partials come from the point itself, so a corner of the chart
    # has the curvature -1 of every other point, and a point just beyond
    # the corner is refused
    m = by_name("h3").manifold
    assert abs(CurvatureBundle(m, None, np.array([2.0, -2.0, 1.0])).lc_scalar[0] + 6.0) < 1e-12
    with pytest.raises(DomainError):
        CurvatureBundle(m, None, np.array([2.0, -2.0, 1.0 + 1e-12]))


def test_metric_compatibility_of_levi_civita():
    # the partials of g made covariant with the record's Levi-Civita symbols
    ex = by_name("h5")
    b = CurvatureBundle(ex.manifold, None, ex.sample_points(3, seed=4))
    grad = _add_connection_terms(b.dg, b.metric.matrix, slots("dd"), b.lc_gamma)
    assert grad.shape == (3, 5, 5, 5)
    assert np.max(np.abs(grad)) < 1e-10


def test_covariant_derivative_of_constant_field_flat():
    m = by_name("euclidean3").manifold
    vec = np.array([1.0, 2.0, -1.0])
    _, partials = _partials_at(lambda q: vec, np.zeros(3), (3,), 1, "field", ValueError)
    gamma = christoffel(m, np.zeros(3))
    grad = _add_connection_terms(partials[None], vec[None], slots("u"), gamma[None])
    assert grad.shape == (1, 3, 3)
    assert np.max(np.abs(grad)) < 1e-12


def test_riemann_of_connection_arbitrary_coefficients():
    # a connection with constant coefficients on a flat chart: curvature is
    # the commutator quadratic, computable by hand
    rng = np.random.default_rng(12)
    const = rng.normal(size=(3, 3, 3)) * 0.5
    riem = riemann_of_connection(const, np.zeros((3,) + const.shape))
    q1 = np.einsum("lim,mjk->lijk", const, const)
    expected = q1 - q1.transpose(0, 2, 1, 3)
    assert riem.shape == (3, 3, 3, 3)
    assert np.max(np.abs(riem - expected)) < 1e-9
