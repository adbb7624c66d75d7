"""A batch of points gives what each point gives alone.

The geometry record computes every part for all of its points at once,
over chunks of points in the curvature pass.  Swapping or mixing axes
across points would show up here as a disagreement between a record of N
points and N records of one point.  A small chunk budget makes sixteen
points span several chunks on every chart.  The catalog's chart and
structure callables run once on the coordinate jets of a whole batch of
points; each must give what it gives point by point, and a callable that
returns a plain array with a batch axis is rejected.
"""

import numpy as np
import pytest

from kenmotsu import (
    AlmostContactStructure,
    ChartManifold,
    MetricError,
    NonMetricConnection,
    StructureError,
    by_name,
    catalog,
    jets,
)

PARTS = ("lc_gamma", "gamma", "lc_riemann", "riemann", "dxi", "deta")


@pytest.mark.parametrize("ex", catalog(), ids=[ex.name for ex in catalog()])
def test_batch_equals_one_point_batches(ex, monkeypatch):
    from kenmotsu import connection, curvature_bundle

    monkeypatch.setattr(connection, "CHUNK_BYTES", 2**13)
    conn = NonMetricConnection(ex.manifold, ex.structure)
    points = ex.sample_points(16, seed=3)
    batch = curvature_bundle(conn, points)
    for i, p in enumerate(points):
        alone = curvature_bundle(conn, p)
        for part in PARTS:
            got, want = getattr(batch, part)[i], getattr(alone, part)[0]
            assert got.shape == want.shape, part
            assert np.max(np.abs(got - want)) <= 1e-12, (part, i)


@pytest.mark.parametrize("ex", catalog(), ids=[ex.name for ex in catalog()])
def test_batch_form_callables_equal_their_per_point_values(ex):
    # the metric's value, first and second partials and each structure
    # field's value and partials, from one call on the batch and from one
    # call per point; both calls take the same array loops, so they agree
    # bit for bit
    points = np.array(ex.sample_points(6, seed=11))
    m, s = ex.manifold, ex.structure
    fields = {
        "metric": lambda q: m.metric_partials_at(q, 2),
        "phi": lambda q: s.phi_at(m.dim, q),
        "xi": lambda q: s.xi_at(m.dim, q),
        "eta": lambda q: s.eta_at(m.dim, q),
    }
    for name, at in fields.items():
        batch = at(points)
        for i, p in enumerate(points):
            for got, want in zip(batch, at(p), strict=True):
                assert np.array_equal(got[i], want), (name, i)


def test_batch_form_callable_of_wrong_shape_is_rejected():
    # a plain array with the batch axis has read the jet's values, whose
    # partials it would silently drop; a plain array of the field's own
    # shape is a constant
    h3 = by_name("h3")
    chart = ChartManifold(
        dim=3, metric=lambda p: np.broadcast_to(np.eye(3), p.shape[:-1] + (3, 3)),
        domain=h3.manifold.domain,
    )
    structure = AlmostContactStructure(
        phi=h3.structure.phi,
        xi=lambda p: np.zeros(p.shape),
        eta=h3.structure.eta,
    )
    for points in (np.zeros(3), np.zeros((2, 3))):
        plain = "returned a plain array of shape"
        with pytest.raises(MetricError, match=rf"^metric {plain} \([12], 3, 3\)"):
            chart.metric_at(points)
        with pytest.raises(StructureError, match=rf"^xi {plain} \([12], 3\)"):
            structure.xi_at(3, points)
    wrong = ChartManifold(dim=3, metric=lambda p: jets.matrix([[p[..., 0]] * 2] * 2),
                          domain=h3.manifold.domain)
    with pytest.raises(MetricError, match=r"^metric returned shape \(2, 2, 2\) for a batch"):
        wrong.metric_at(np.zeros((2, 3)))


def test_batch_form_callable_sees_read_only_points_and_its_value_is_copied():
    seen = []
    eye = np.eye(3)

    def metric(p):
        seen.append(p)
        return eye

    chart = ChartManifold(dim=3, metric=metric, domain=((-1.0, 1.0),) * 3)
    g = chart.metric_at(np.zeros((2, 4, 3)))
    assert len(seen) == 1 and seen[0].shape == (8, 3)
    assert not seen[0].value.flags.writeable
    assert g.shape == (2, 4, 3, 3)
    assert not g.flags.writeable
    assert not np.shares_memory(g, eye)
