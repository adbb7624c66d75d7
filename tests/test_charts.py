import math
import re

import numpy as np
import pytest

from kenmotsu import (
    ChartManifold,
    ConnectionCoefficients,
    CurvatureBundle,
    DifferentiationConfig,
    DomainError,
    MetricError,
    by_name,
    check_weyl,
    levi_civita,
)
from kenmotsu.charts import _add_connection_terms, array_field_partials, riemann_of_connection
from kenmotsu.tensors import slots

CFG = DifferentiationConfig()


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


def test_finite_difference_matches_analytic_partials_on_ne5():
    ex = by_name("ne5")
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = np.array(
            [
                rng.uniform(-1, 1),
                rng.uniform(0.8, 2.4),
                rng.uniform(-1, 1),
                rng.uniform(-1, 1),
                rng.uniform(-0.4, 0.4),
            ]
        )
        fd = array_field_partials(ex.manifold.metric, p, CFG)
        analytic = ex.manifold.metric_partials(p)
        assert np.max(np.abs(fd - analytic)) < 1e-9


def test_christoffel_oracle_h3():
    m = by_name("h3").manifold
    p = np.array([0.1, 0.2, 0.3])
    gamma = levi_civita(m, p, CFG).gamma
    w = math.exp(0.6)  # e^{2t} at t = 0.3
    expected = np.zeros((3, 3, 3))
    expected[0, 0, 2] = expected[0, 2, 0] = 1.0  # fiber-t mixing
    expected[1, 1, 2] = expected[1, 2, 1] = 1.0
    expected[2, 0, 0] = expected[2, 1, 1] = -w
    assert np.max(np.abs(gamma - expected)) < 1e-12
    assert math.isclose(w, 1.8221188003905089)


def test_levi_civita_is_symmetric_flag():
    m = by_name("h5").manifold
    coeffs = levi_civita(m, np.array([0.1, -0.2, 0.3, 0.0, -0.1]), CFG)
    assert coeffs.symmetric
    with pytest.raises(ValueError):
        ConnectionCoefficients(3, np.arange(27.0).reshape(3, 3, 3), symmetric=True)


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
    truth = levi_civita(by_name("h3").manifold, p, CFG).gamma
    plain = levi_civita(chart, p, DifferentiationConfig(step=1e-3, richardson=False)).gamma
    extrap = levi_civita(chart, p, DifferentiationConfig(step=1e-3, richardson=True)).gamma
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
    gamma = levi_civita(m, np.zeros(3), CFG).gamma
    grad = _add_connection_terms(partials[None], vec[None], slots("u"), gamma[None])
    assert grad.shape == (1, 3, 3)
    assert np.max(np.abs(grad)) < 1e-12


def test_riemann_of_connection_arbitrary_coefficients():
    # a connection with constant coefficients on a flat chart: curvature is
    # the commutator quadratic, computable by hand
    m = by_name("euclidean3").manifold
    rng = np.random.default_rng(12)
    const = rng.normal(size=(3, 3, 3)) * 0.5
    field = lambda p: ConnectionCoefficients(3, const)
    riem = riemann_of_connection(m, field, np.zeros(3), CFG)
    q1 = np.einsum("lim,mjk->lijk", const, const)
    expected = q1 - q1.transpose(0, 2, 1, 3)
    assert riem.shape == (3, 3, 3, 3)
    assert np.max(np.abs(riem - expected)) < 1e-9
