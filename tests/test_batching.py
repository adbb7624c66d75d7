"""A batch of points gives what each point gives alone.

The geometry record computes every part for all of its points at once,
over chunks of points in the curvature pass.  Swapping or mixing axes
across points would show up here as a disagreement between a record of N
points and N records of one point.  A small chunk budget makes sixteen
points span several chunks on every chart.  The catalog's chart and
structure callables take a whole batch of points in one call; each must
give what it gives point by point, and a batch-form callable whose value
lacks the batch axis is rejected.
"""

import numpy as np
import pytest

from kenmotsu import (
    AlmostContactStructure,
    ChartManifold,
    DifferentiationConfig,
    MetricError,
    NonMetricConnection,
    StructureError,
    batched,
    by_name,
    catalog,
)
from kenmotsu.catalog import NamedExample

PARTS = ("lc_gamma", "gamma", "lc_riemann", "riemann", "dxi", "deta")


def _without_partials(name: str) -> NamedExample:
    """A catalog chart whose metric partials come from finite differences."""
    ex = by_name(name)
    m = ex.manifold
    chart = ChartManifold(dim=m.dim, metric=m.metric, domain=m.domain)
    return NamedExample(
        name=f"{name}-fd",
        manifold=chart,
        structure=ex.structure,
        expected_kenmotsu=ex.expected_kenmotsu,
        expected_einstein=ex.expected_einstein,
        expected_weyl_flat=ex.expected_weyl_flat,
        sample_box=ex.sample_box,
    )


EXAMPLES = [*catalog(), _without_partials("ne5")]


@pytest.mark.parametrize("richardson", [True, False], ids=["richardson", "plain"])
@pytest.mark.parametrize("ex", EXAMPLES, ids=[ex.name for ex in EXAMPLES])
def test_batch_equals_one_point_batches(ex, richardson, monkeypatch):
    from kenmotsu import connection, curvature_bundle

    monkeypatch.setattr(connection, "CHUNK_BYTES", 2**13)
    cfg = DifferentiationConfig(richardson=richardson)
    conn = NonMetricConnection(ex.manifold, ex.structure)
    points = ex.sample_points(16, seed=3)
    batch = curvature_bundle(conn, points, cfg)
    for i, p in enumerate(points):
        alone = curvature_bundle(conn, p, cfg)
        for part in PARTS:
            got, want = getattr(batch, part)[i], getattr(alone, part)[0]
            assert got.shape == want.shape, part
            assert np.max(np.abs(got - want)) <= 1e-12, (part, i)


def _callables(ex: NamedExample) -> dict:
    s = ex.structure
    return {
        "metric": ex.manifold.metric,
        "metric_partials": ex.manifold.metric_partials,
        "metric_second_partials": ex.manifold.metric_second_partials,
        "phi": s.phi,
        "xi": s.xi,
        "eta": s.eta,
    }


@pytest.mark.parametrize("ex", catalog(), ids=[ex.name for ex in catalog()])
def test_batch_form_callables_equal_their_per_point_values(ex):
    from kenmotsu.charts import stencil

    # ne5's metric takes y1**2 and y1**3: numpy's scalar power calls libm's
    # pow, its array loop does not, and the two differ in the last ulp for a
    # few percent of inputs; every other catalog callable is elementwise
    # arithmetic and exp, which agree bit for bit
    ulps = 4 if ex.name == "ne5" else 0
    points = np.array(ex.sample_points(6, seed=11))
    batch = stencil(points, DifferentiationConfig())
    for name, f in _callables(ex).items():
        assert getattr(f, "takes_batch", False), name
        got = f(batch)
        want = np.array([[f(q) for q in row] for row in batch])
        assert got.shape == want.shape == batch.shape[:-1] + want.shape[2:], name
        spacing = np.spacing(np.maximum(np.abs(got), np.abs(want)))
        assert np.all(np.abs(got - want) <= ulps * spacing), name
        one = f(points[0])
        assert np.array_equal(one, want[0, 0]), name


def test_batch_form_callable_of_wrong_shape_is_rejected():
    # a batch-form callable that ignores the batch axis: for a batch of one
    # point its value even has the right size
    h3 = by_name("h3")
    chart = ChartManifold(dim=3, metric=batched(lambda p: np.eye(3)), domain=h3.manifold.domain)
    structure = AlmostContactStructure(
        phi=h3.structure.phi,
        xi=batched(lambda p: np.array([0.0, 0.0, 1.0])),
        eta=h3.structure.eta,
    )
    for points in (np.zeros(3), np.zeros((2, 3))):
        with pytest.raises(MetricError, match=r"metric returned shape \(3, 3\) for a batch"):
            chart.metric_at(points)
        with pytest.raises(StructureError, match=r"xi returned shape \(3,\) for a batch"):
            structure.xi_at(3, points)


def test_batch_form_callable_sees_read_only_points_and_its_value_is_copied():
    seen = []
    eye = np.eye(3)

    @batched
    def metric(p):
        seen.append(p)
        return np.broadcast_to(eye, p.shape[:-1] + (3, 3))

    chart = ChartManifold(dim=3, metric=metric, domain=((-1.0, 1.0),) * 3)
    g = chart.metric_at(np.zeros((2, 4, 3)))
    assert len(seen) == 1 and seen[0].shape == (8, 3)
    assert not seen[0].flags.writeable
    assert g.shape == (2, 4, 3, 3)
    g[0, 0, 0, 0] = 5.0  # a fresh array, not a view of the callable's data
    assert eye[0, 0] == 1.0
