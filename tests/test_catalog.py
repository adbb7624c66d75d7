import numpy as np
import pytest

from kenmotsu import by_name, catalog
from kenmotsu.catalog import NamedExample


def test_catalog_names_and_order():
    names = [ex.name for ex in catalog()]
    assert names == ["euclidean3", "h3", "h5", "ne5"]


def test_by_name_rejects_unknown():
    with pytest.raises(KeyError) as err:
        by_name("nope")
    assert "euclidean3" in str(err.value)


def test_expected_flags():
    flags = {
        ex.name: (ex.expected_kenmotsu, ex.expected_einstein, ex.expected_weyl_flat)
        for ex in catalog()
    }
    assert flags == {
        "euclidean3": (False, True, True),
        "h3": (True, True, True),
        "h5": (True, True, True),
        "ne5": (True, False, False),
    }


def test_dimensions_and_contact_rank():
    dims = {ex.name: (ex.manifold.dim, ex.n) for ex in catalog()}
    assert dims == {
        "euclidean3": (3, 1),
        "h3": (3, 1),
        "h5": (5, 2),
        "ne5": (5, 2),
    }


def test_sampling_is_deterministic():
    ex = by_name("h5")
    a = ex.sample_points(10, seed=3)
    b = ex.sample_points(10, seed=3)
    assert np.array_equal(np.asarray(a), np.asarray(b))
    c = ex.sample_points(10, seed=4)
    assert not np.array_equal(np.asarray(a), np.asarray(c))


def test_sampling_streams_differ_between_examples():
    # same seed on same-dimension examples must not reuse one stream;
    # euclidean3 and h3 also share their sample box, so only the stream can
    # tell their points apart, at any seed
    draws = [
        ex.sample_points(4, seed=seed)
        for ex in (by_name("euclidean3"), by_name("h3"))
        for seed in (0, 1, 2, 2**40)
    ]
    coordinates = np.concatenate([p.ravel() for p in draws])
    assert len(np.unique(coordinates)) == len(coordinates)


def test_samples_keep_stencil_margin():
    step = 1e-3
    for ex in catalog():
        lo = np.array([b[0] for b in ex.sample_box])
        hi = np.array([b[1] for b in ex.sample_box])
        assert ex.sample_points(1, seed=9, step=step).shape == (1, ex.manifold.dim)
        points = ex.sample_points(50, seed=9, step=step)
        assert points.shape == (50, ex.manifold.dim) and points.dtype == float
        for p in points:
            assert ex.manifold.contains(p)
            assert np.all(p >= lo + 10 * step)
            assert np.all(p < hi - 10 * step)


def test_negative_seed_is_rejected():
    # random.Random would silently draw the stream of abs(seed)
    with pytest.raises(ValueError, match="seed"):
        by_name("h3").sample_points(3, seed=-1)


def test_seeded_draws_have_uniform_moments():
    # 20,000 points per axis: the standard error of the mean of a unit
    # uniform is 0.002 and that of its variance 0.0005
    ex = by_name("h3")
    lo = np.array([b[0] for b in ex.sample_box])
    hi = np.array([b[1] for b in ex.sample_box])
    for seed in (0, 7):
        unit = (ex.sample_points(20_000, seed=seed, step=0.0) - lo) / (hi - lo)
        assert np.all(np.abs(unit.mean(axis=0) - 0.5) < 0.01), seed
        assert np.all(np.abs(unit.var(axis=0) - 1 / 12) < 0.003), seed


def test_sample_box_must_sit_inside_domain():
    base = by_name("h3")
    with pytest.raises(ValueError):
        NamedExample(
            name="bad",
            manifold=base.manifold,
            structure=base.structure,
            expected_kenmotsu=True,
            expected_einstein=True,
            expected_weyl_flat=True,
            sample_box=((-5.0, 5.0),) * 3,
        )


def test_ne5_uses_relaxed_fd_scale():
    assert by_name("ne5").fd_tolerance_scale == 10.0
    assert by_name("h3").fd_tolerance_scale == 1.0


def test_notes_are_informative():
    for ex in catalog():
        assert ex.notes
