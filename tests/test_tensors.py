import numpy as np
import pytest

from kenmotsu import (
    ChartManifold,
    CurvatureBundle,
    MetricError,
    MetricPair,
    by_name,
)
from kenmotsu.connection import _ricci_components
from kenmotsu.report import per_point
from kenmotsu.tensors import DOWN, MultiTensor


def h3_metric_pair(point):
    return by_name("h3").manifold.metric_pair_at(np.asarray(point))


def test_components_are_frozen_and_copied():
    src = np.zeros((3, 3))
    t = MultiTensor(3, (DOWN, DOWN), src)
    src[0, 0] = 5.0
    assert t.components[0, 0] == 0.0
    with pytest.raises(ValueError):
        t.components[0, 0] = 1.0


def test_shape_and_variance_validation():
    with pytest.raises(ValueError):
        MultiTensor(3, (DOWN,), np.zeros((4,)))
    with pytest.raises(ValueError):
        MultiTensor(3, ("sideways",), np.zeros(3))
    with pytest.raises(ValueError):
        MultiTensor(3, (DOWN,), np.array([1.0, np.nan, 0.0]))


def test_h3_curvature_contraction_oracle():
    # Constant-curvature oracle: riem = -(g wedge g), so the trace over the
    # first two slots must equal -2 g exactly, independent of the library's
    # differentiation path.
    pair = h3_metric_pair([0.3, -0.4, 0.2])
    g = pair.matrix
    eye = np.eye(3)
    riem = -(np.einsum("jk,li->lijk", g, eye) - np.einsum("ik,lj->lijk", g, eye))
    ric = _ricci_components(riem[None])[0]
    assert np.max(np.abs(ric + 2.0 * g)) < 1e-14


def test_raise_ricci_gives_minus_two_identity_on_h3():
    point = np.array([0.25, 0.1, -0.3])
    b = CurvatureBundle(by_name("h3").manifold, None, point)
    q = b.metric.inverse @ b.lc_ricci
    assert q.shape == (1, 3, 3)
    assert np.max(np.abs(q[0] + 2.0 * np.eye(3))) < 1e-9


def test_lower_reeb_gives_eta_on_h3():
    ex = by_name("h3")
    point = np.array([-0.2, 0.5, 0.35])
    pair = ex.manifold.metric_pair_at(point)
    eta = pair.matrix @ ex.structure.xi(point)
    assert np.max(np.abs(eta - ex.structure.eta(point))) < 1e-12


def test_raise_lower_roundtrip_random_dim5():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(5, 5))
    pair = MetricPair.from_matrix(m @ m.T + 5.0 * np.eye(5))
    t = rng.normal(size=(20, 5, 5))
    g = np.broadcast_to(pair.matrix, (20, 5, 5))
    ginv = np.broadcast_to(pair.inverse, (20, 5, 5))
    back = g @ (ginv @ t)
    assert np.max(np.abs(back - t)) < 1e-10


def test_max_abs_values():
    assert per_point(np.zeros((1, 3, 3, 3)))[0] == 0.0
    comps = np.zeros((1, 3, 3))
    comps[0, 1, 2] = -7.5
    assert per_point(comps)[0] == 7.5


def test_metric_pair_rejects_asymmetric():
    m = np.eye(3)
    m[0, 1] = 1e-6
    with pytest.raises(ValueError):
        MetricPair.from_matrix(m)


def test_metric_pair_rejects_indefinite():
    with pytest.raises(ValueError):
        MetricPair.from_matrix(np.diag([1.0, -1.0, 1.0]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: MetricPair(np.eye(3), np.full((3, 3), np.nan)),
        # the inverse of so small a matrix overflows
        lambda: MetricPair.from_matrix(1e-320 * np.eye(3)),
    ],
    ids=["nan-inverse", "overflowing-inverse"],
)
def test_metric_pair_rejects_non_finite_inverse(make):
    with pytest.raises(MetricError, match="inverse does not invert the metric"):
        make()


@pytest.mark.parametrize("skew, accepted", [(1e-11, True), (1e-9, False)])
def test_metric_symmetry_has_one_threshold(skew, accepted):
    # the chart and the metric pair judge asymmetry by the same gate, so a
    # metric the chart accepts cannot fail later when its pair is built
    m = np.diag([2.0, 1.0, 3.0])
    m[0, 1] += skew
    chart = ChartManifold(dim=3, metric=lambda p: m, domain=((-1, 1),) * 3)
    if accepted:
        assert np.array_equal(chart.metric_at(np.zeros(3)), m)
        assert np.array_equal(chart.metric_pair_at(np.zeros(3)).matrix, m)
        assert np.array_equal(MetricPair.from_matrix(m).matrix, m)
    else:
        with pytest.raises(MetricError, match="not symmetric"):
            chart.metric_at(np.zeros(3))
        with pytest.raises(MetricError, match="not symmetric"):
            MetricPair.from_matrix(m)


def test_metric_pair_inverse_identity():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(5, 5))
    pair = MetricPair.from_matrix(m @ m.T + 6.0 * np.eye(5))
    assert np.max(np.abs(pair.matrix @ pair.inverse - np.eye(5))) < 1e-10
