import dataclasses
import math
import re

import numpy as np
import pytest

from kenmotsu import (
    ChartManifold,
    CurvatureBundle,
    DifferentiationConfig,
    DomainError,
    MetricError,
    by_name,
    catalog,
    check_weyl,
    levi_civita,
)
from kenmotsu.charts import (
    _add_connection_terms,
    array_field_partials,
    riemann_of_connection,
    stencil,
    stencil_partials,
)
from kenmotsu.tensors import SYMMETRY_TOL, slots

CFG = DifferentiationConfig()


def christoffel(manifold, p, cfg=CFG):
    """The Levi-Civita coefficients of a chart at p, from its metric pair and partials."""
    return levi_civita(manifold.metric_pair_at(p), manifold.metric_partials_at(p, cfg))


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


def test_config_validation():
    with pytest.raises(ValueError):
        DifferentiationConfig(step=0.0)
    with pytest.raises(ValueError):
        DifferentiationConfig(step=-1e-4)


def test_chart_validation():
    metric = lambda p: np.eye(4)
    with pytest.raises(ValueError):
        ChartManifold(dim=4, metric=metric, domain=((-1, 1),) * 4)
    with pytest.raises(ValueError):
        ChartManifold(dim=3, metric=metric, domain=((-1, 1),) * 2)
    with pytest.raises(ValueError):
        ChartManifold(dim=3, metric=metric, domain=((-1, 1), (2, 2), (-1, 1)))


def test_domain_membership_and_margins():
    m = by_name("h3").manifold
    assert m.contains(np.array([0.0, 0.0, 0.0]))
    assert not m.contains(np.array([0.0, 0.0, 5.0]))
    assert not m.contains(np.array([1.95, 0.0, 0.0]), margin=0.1)
    with pytest.raises(DomainError):
        m.require_inside(np.array([0.0, 0.0, 0.999]), margin=0.01)
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
        dim=3, metric=lambda q: bad if q[0] > 0.15 else np.eye(3), domain=((-1, 1),) * 3
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
        metric=lambda p: q @ np.diag([1.0, 1.0, 1e-14 if p[0] > 0.5 else 1.0]) @ q.T,
        domain=((-1, 1),) * 3,
    )
    points = np.array([[0.0, 0.0, 0.0], [0.9, 0.0, 0.0]])
    assert chart.metric_at(points).shape == (2, 3, 3)
    message = "metric inverse does not invert the metric at [0.9, 0.0, 0.0]"
    with pytest.raises(MetricError, match=f"^{re.escape(message)}$"):
        chart.metric_pair_at(points)


@pytest.mark.parametrize("name", [ex.name for ex in catalog()])
def test_finite_difference_matches_analytic_partials(name):
    # the warped constructor's beta term and fibre term, one point at a time;
    # the second partials against differences of the analytic first partials
    m = by_name(name).manifold
    for p in by_name(name).sample_points(5, seed=5):
        fd = array_field_partials(m.metric, p, CFG)
        assert np.max(np.abs(fd - m.metric_partials(p))) < 1e-9
        fd2 = array_field_partials(m.metric_partials, p, CFG)
        assert np.max(np.abs(fd2 - m.metric_second_partials(p))) < 1e-9


def test_second_partials_need_first_partials():
    with pytest.raises(ValueError, match="metric_second_partials needs metric_partials"):
        ChartManifold(dim=3, metric=lambda p: np.eye(3), domain=((-1, 1),) * 3,
                      metric_second_partials=lambda p: np.zeros((3,) * 4))


@pytest.mark.parametrize("name", [ex.name for ex in catalog()])
def test_exact_curvature_agrees_with_the_stencil_fallback(name):
    # the closed-form d Gamma against differences of Gamma on the stencils,
    # for both connections
    ex = by_name(name)
    points = ex.sample_points(20, seed=6)
    stencil_chart = dataclasses.replace(ex.manifold, metric_second_partials=None)
    exact = CurvatureBundle(ex.manifold, ex.structure, points, CFG)
    fallback = CurvatureBundle(stencil_chart, ex.structure, points, CFG)
    for part in ("lc_riemann", "riemann"):
        assert np.max(np.abs(getattr(exact, part) - getattr(fallback, part))) < 1e-9, part


def test_scalar_curvature_from_exact_partials_meets_the_oracle():
    # -20 on h5 (curvature -1 in dim 5) and -20 - 2 e^{-2t} on ne5, to roundoff
    for name in ("h5", "ne5"):
        ex = by_name(name)
        points = ex.sample_points(50, seed=7)
        exact = -20.0 - (2.0 * np.exp(-2.0 * points[:, -1]) if name == "ne5" else 0.0)
        scalar = CurvatureBundle(ex.manifold, None, points, CFG).lc_scalar
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
    riem = CurvatureBundle(ex.manifold, None, points, CFG).lc_riemann
    for n, p in enumerate(points):
        oracle = constant_curvature_riemann(ex.manifold.metric_at(p))
        assert np.max(np.abs(riem[n] - oracle)) < 1e-10


def test_ricci_and_scalar_on_space_forms():
    for name, n in (("h3", 1), ("h5", 2)):
        ex = by_name(name)
        p = ex.sample_points(1, seed=3)[0]
        b = CurvatureBundle(ex.manifold, None, p, CFG)
        g = ex.manifold.metric_at(p)
        assert np.max(np.abs(b.lc_ricci[0] + 2.0 * n * g)) < 1e-10
        assert abs(b.lc_scalar[0] + 2 * n * (2 * n + 1)) < 1e-9


def test_ne5_ricci_against_warped_product_oracle():
    ex = by_name("ne5")
    points = ex.sample_points(5, seed=9)
    ric = CurvatureBundle(ex.manifold, None, points, CFG).lc_ricci
    for n, p in enumerate(points):
        assert np.max(np.abs(ric[n] - ne5_ricci_oracle(p))) < 1e-9


def test_ne5_frozen_point_values():
    ex = by_name("ne5")
    p = np.array([0.1, 1.5, 0.2, 0.3, 0.0])
    b = CurvatureBundle(ex.manifold, None, p, CFG)
    ric = b.lc_ricci[0]
    assert abs(ric[0, 0] - (-2.2222222222222223)) < 1e-10
    assert abs(ric[2, 2] - (-4.0)) < 1e-10
    assert abs(ric[4, 4] - (-4.0)) < 1e-10
    assert abs(b.lc_scalar[0] - (-22.0)) < 1e-9  # -20 - 2 e^{-2t} at t = 0


def test_richardson_improves_truncation_error():
    # step chosen large enough that truncation dominates roundoff
    fiber = lambda p: np.diag([math.exp(2.0 * p[2])] * 2 + [1.0])
    chart = ChartManifold(dim=3, metric=fiber, domain=((-2, 2), (-2, 2), (-1, 1)))
    p = np.array([0.3, -0.2, 0.25])
    truth = christoffel(by_name("h3").manifold, p)
    plain = christoffel(chart, p, DifferentiationConfig(step=1e-3, richardson=False))
    extrap = christoffel(chart, p, DifferentiationConfig(step=1e-3, richardson=True))
    err_plain = np.max(np.abs(plain - truth))
    err_extrap = np.max(np.abs(extrap - truth))
    assert err_plain > 1e-8
    assert err_extrap < err_plain / 100.0


def test_curvature_stencil_respects_domain():
    m = by_name("h3").manifold
    near_edge = np.array([0.0, 0.0, 0.99999])
    with pytest.raises(DomainError):
        CurvatureBundle(m, None, near_edge, CFG).lc_riemann


@pytest.mark.parametrize(
    "bad", [np.diag([1.0, -1.0, 1.0]), np.full((3, 3), np.nan)], ids=["indefinite", "non-finite"]
)
def test_metric_is_validated_at_stencil_points(bad):
    # the metric is fine at the sample point and at every stencil point but
    # one, the +h offset along the first axis
    p = np.array([0.1, -0.2, 0.3])
    h = CFG.step
    offset = (p + np.array([h, 0.0, 0.0])).tolist()
    chart = ChartManifold(
        dim=3,
        metric=lambda q: bad if q[0] > p[0] + 0.75 * h else np.eye(3),
        metric_partials=lambda q: np.zeros((3, 3, 3)),
        domain=((-1, 1),) * 3,
    )
    chart.metric_pair_at(p)
    with pytest.raises(MetricError, match=re.escape(str(offset))):
        CurvatureBundle(chart, None, p, CFG).lc_riemann
    # in a batch, the error names the offset of the point it belongs to
    with pytest.raises(MetricError, match=re.escape(str(offset))):
        check_weyl(CurvatureBundle(chart, None, [np.array([-0.5, 0.0, 0.0]), p], CFG))


def test_metric_compatibility_of_levi_civita():
    # the finite-difference partials of g made covariant with the record's
    # Levi-Civita symbols
    ex = by_name("h5")
    b = CurvatureBundle(ex.manifold, None, ex.sample_points(3, seed=4), CFG)
    grad = _add_connection_terms(b.dg_fd, b.metric.matrix, slots("dd"), b.lc_gamma)
    assert grad.shape == (3, 5, 5, 5)
    assert np.max(np.abs(grad)) < 1e-10


def test_covariant_derivative_of_constant_field_flat():
    m = by_name("euclidean3").manifold
    vec = np.array([1.0, 2.0, -1.0])
    partials = array_field_partials(lambda q: vec, np.zeros(3), CFG)
    gamma = christoffel(m, np.zeros(3))
    grad = _add_connection_terms(partials[None], vec[None], slots("u"), gamma[None])
    assert grad.shape == (1, 3, 3)
    assert np.max(np.abs(grad)) < 1e-12


def test_riemann_of_connection_arbitrary_coefficients():
    # a connection with constant coefficients on a flat chart: curvature is
    # the commutator quadratic, computable by hand
    rng = np.random.default_rng(12)
    const = rng.normal(size=(3, 3, 3)) * 0.5
    on_stencil = np.broadcast_to(const, stencil(np.zeros(3), CFG).shape[:-1] + const.shape)
    riem = riemann_of_connection(const, stencil_partials(on_stencil, CFG, axis=-4))
    q1 = np.einsum("lim,mjk->lijk", const, const)
    expected = q1 - q1.transpose(0, 2, 1, 3)
    assert riem.shape == (3, 3, 3, 3)
    assert np.max(np.abs(riem - expected)) < 1e-9
