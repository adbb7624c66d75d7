"""A batch of points gives what each point gives alone.

The geometry record computes every part for all of its points at once,
over chunks of points in the curvature pass.  Swapping or mixing axes
across points would show up here as a disagreement between a record of N
points and N records of one point.  Sixteen points span two chunks in
dimension 5.
"""

import numpy as np
import pytest

from kenmotsu import ChartManifold, DifferentiationConfig, NonMetricConnection, by_name, catalog
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
def test_batch_equals_one_point_batches(ex, richardson):
    from kenmotsu import curvature_bundle

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
