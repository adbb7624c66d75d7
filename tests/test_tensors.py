import numpy as np
import pytest

from kenmotsu import (
    DOWN,
    ChartManifold,
    MetricError,
    MetricPair,
    MultiTensor,
    UP,
    by_name,
    contract,
    lower_slot,
    max_abs,
    raise_slot,
    slots,
)
from kenmotsu.charts import DifferentiationConfig, ricci


def h3_metric_pair(point):
    return by_name("h3").manifold.metric_pair_at(np.asarray(point))


def test_slots_codes():
    assert slots("ud") == (UP, DOWN)
    assert slots("") == ()
    with pytest.raises(ValueError):
        slots("ux")


def test_components_are_frozen_and_copied():
    src = np.zeros((3, 3))
    t = MultiTensor(3, slots("dd"), src)
    src[0, 0] = 5.0
    assert t.components[0, 0] == 0.0
    with pytest.raises(ValueError):
        t.components[0, 0] = 1.0


def test_shape_and_variance_validation():
    with pytest.raises(ValueError):
        MultiTensor(3, slots("d"), np.zeros((4,)))
    with pytest.raises(ValueError):
        MultiTensor(3, ("sideways",), np.zeros(3))
    with pytest.raises(ValueError):
        MultiTensor(3, slots("d"), np.array([1.0, np.nan, 0.0]))


def test_scalar_rank_zero():
    t = MultiTensor(3, (), np.asarray(2.5))
    assert t.item() == 2.5
    assert max_abs(t) == 2.5
    with pytest.raises(ValueError):
        MultiTensor(3, slots("d"), np.zeros(3)).item()


def test_contract_trace_of_identity():
    t = MultiTensor(3, slots("ud"), np.eye(3))
    assert contract(t, 0, 1).item() == 3.0


def test_contract_composition_of_identities():
    # delta (x) delta, contracting the inner pair, collapses to delta
    comps = np.einsum("ij,kl->ijkl", np.eye(3), np.eye(3))
    t = MultiTensor(3, slots("udud"), comps)
    inner = contract(t, 2, 1)
    assert inner.variance == slots("ud")
    assert np.array_equal(inner.components, np.eye(3))


def test_contract_slot_validation():
    t = MultiTensor(3, slots("ud"), np.eye(3))
    with pytest.raises(ValueError):
        contract(t, 1, 0)  # kinds swapped
    with pytest.raises(ValueError):
        contract(t, 0, 0)
    with pytest.raises(ValueError):
        contract(t, 0, 5)


def test_h3_curvature_contraction_oracle():
    # Constant-curvature oracle: riem = -(g wedge g), so the trace over the
    # first two slots must equal -2 g exactly, independent of the library's
    # differentiation path.
    pair = h3_metric_pair([0.3, -0.4, 0.2])
    g = pair.matrix
    eye = np.eye(3)
    riem = -(np.einsum("jk,li->lijk", g, eye) - np.einsum("ik,lj->lijk", g, eye))
    ric = contract(MultiTensor(3, slots("uddd"), riem), 0, 1)
    assert np.max(np.abs(ric.components + 2.0 * g)) < 1e-14


def test_raise_ricci_gives_minus_two_identity_on_h3():
    point = np.array([0.25, 0.1, -0.3])
    pair = h3_metric_pair(point)
    ric = ricci(by_name("h3").manifold, point, DifferentiationConfig())
    q = raise_slot(ric, 0, pair)
    assert q.variance == slots("ud")
    assert np.max(np.abs(q.components + 2.0 * np.eye(3))) < 1e-9


def test_lower_reeb_gives_eta_on_h3():
    ex = by_name("h3")
    point = np.array([-0.2, 0.5, 0.35])
    pair = ex.manifold.metric_pair_at(point)
    xi = MultiTensor(3, slots("u"), ex.structure.xi(point))
    eta = lower_slot(xi, 0, pair)
    assert np.max(np.abs(eta.components - ex.structure.eta(point))) < 1e-12


def test_raise_lower_roundtrip_random_dim5():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(5, 5))
    pair = MetricPair.from_matrix(m @ m.T + 5.0 * np.eye(5))
    for _ in range(20):
        t = MultiTensor(5, slots("dd"), rng.normal(size=(5, 5)))
        back = lower_slot(raise_slot(t, 0, pair), 0, pair)
        assert np.max(np.abs(back.components - t.components)) < 1e-10


def test_raise_lower_kind_validation():
    pair = h3_metric_pair([0.0, 0.0, 0.0])
    t = MultiTensor(3, slots("ud"), np.eye(3))
    with pytest.raises(ValueError):
        raise_slot(t, 0, pair)  # already up
    with pytest.raises(ValueError):
        lower_slot(t, 1, pair)  # already down


def test_contract_linearity_random():
    rng = np.random.default_rng(21)
    for _ in range(25):
        a, b = rng.normal(size=2)
        t1 = rng.normal(size=(3, 3, 3))
        t2 = rng.normal(size=(3, 3, 3))
        mk = lambda c: MultiTensor(3, slots("udd"), c)
        lhs = contract(mk(a * t1 + b * t2), 0, 1)
        rhs = a * contract(mk(t1), 0, 1) + b * contract(mk(t2), 0, 1)
        assert np.max(np.abs(lhs.components - rhs.components)) < 1e-12


def test_disjoint_contractions_commute():
    rng = np.random.default_rng(3)
    comps = rng.normal(size=(3,) * 4)
    t = MultiTensor(3, slots("udud"), comps)
    # contract (0,1) then what was (2,3); order must not matter
    first = contract(contract(t, 0, 1), 0, 1)
    second = contract(contract(t, 2, 3), 0, 1)
    assert np.max(np.abs(first.components - second.components)) < 1e-12


def test_max_abs_values():
    assert max_abs(MultiTensor(3, slots("ddd"), np.zeros((3, 3, 3)))) == 0.0
    comps = np.zeros((3, 3))
    comps[1, 2] = -7.5
    assert max_abs(MultiTensor(3, slots("dd"), comps)) == 7.5


def test_metric_pair_rejects_asymmetric():
    m = np.eye(3)
    m[0, 1] = 1e-6
    with pytest.raises(ValueError):
        MetricPair.from_matrix(m)


def test_metric_pair_rejects_indefinite():
    with pytest.raises(ValueError):
        MetricPair.from_matrix(np.diag([1.0, -1.0, 1.0]))


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


def test_arithmetic_and_compatibility_checks():
    t1 = MultiTensor(3, slots("dd"), np.eye(3))
    t2 = MultiTensor(3, slots("dd"), np.ones((3, 3)))
    both = t1 + 2.0 * t2 - t2
    assert np.array_equal(both.components, np.eye(3) + np.ones((3, 3)))
    with pytest.raises(ValueError):
        t1 + MultiTensor(3, slots("ud"), np.eye(3))
    with pytest.raises(TypeError):
        t1 + np.eye(3)
