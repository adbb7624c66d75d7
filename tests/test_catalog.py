import numpy as np
import pytest
from helpers import beta2, euclidean3shear, h5polar, h5shear, h5z, heis3, ne7

import kenmotsu.cli as cli
from kenmotsu import by_name, catalog
from kenmotsu.catalog import SAMPLE_MARGIN, NamedExample
from kenmotsu.cli import SUITE_ORDER, RunConfig, run


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
    # 1e-3 is 10 steps of the central-difference stencil the package once
    # used, so the seeded points stay where earlier reports put them
    assert SAMPLE_MARGIN == 1e-3
    for ex in catalog():
        lo = np.array([b[0] for b in ex.sample_box])
        hi = np.array([b[1] for b in ex.sample_box])
        assert ex.sample_points(1, seed=9).shape == (1, ex.manifold.dim)
        points = ex.sample_points(50, seed=9)
        assert points.shape == (50, ex.manifold.dim) and points.dtype == float
        for p in points:
            assert ex.manifold.contains(p)
            assert np.all(p >= lo + SAMPLE_MARGIN)
            assert np.all(p < hi - SAMPLE_MARGIN)


def test_seeded_points_are_pinned():
    # the fixed margin keeps the seeded points where earlier reports put
    # them: the first h3 point of the default run
    first = by_name("h3").sample_points(20, seed=0)[0]
    assert first.tolist() == [-0.81770986586499, -0.4289416562077395, -0.2976261486055793]


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
        inner_lo, inner_hi = lo + SAMPLE_MARGIN, hi - SAMPLE_MARGIN
        unit = (ex.sample_points(20_000, seed=seed) - inner_lo) / (inner_hi - inner_lo)
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


def test_notes_are_informative():
    for ex in catalog():
        assert ex.notes


def _run_outside_catalog(monkeypatch, example):
    """Every suite on one constructor chart that the catalog does not hold, at 3 points."""
    monkeypatch.setattr(cli, "by_name", lambda name: example)
    report = run(RunConfig(manifolds=(example.name,), suites=SUITE_ORDER, num_points=3))
    (outcome,) = report.manifolds
    assert [s.status for s in outcome.suites] == ["ran"] * len(SUITE_ORDER)
    for row in (r for s in outcome.suites for r in s.rows):
        assert row.matched, row.identity
    assert report.exit_status == 0
    return outcome


def test_dim7_chart_matches_every_row_and_the_scalar_shift(monkeypatch):
    # ne5's fibre times a flat plane, n = 3: the shift 2n(2n+3) between the
    # scalar curvatures is pinned here beyond the catalog's n = 1 and n = 2
    verdicts = _run_outside_catalog(monkeypatch, ne7()).verdicts
    assert verdicts["kenmotsu"] is True
    assert verdicts["expected_scalar_shift"] == 54.0
    assert verdicts["scalar_shift_deviation"] < 1e-9


def test_upper_half_space_h5_matches_every_row(monkeypatch):
    # the catalog's xi and eta are constant, so dxi and deta vanish wherever
    # it looks; here they do not, and every row that reads them must still hold
    outcome = _run_outside_catalog(monkeypatch, h5z())
    rows = [r for s in outcome.suites for r in s.rows]
    assert len(rows) == 25
    assert max(r.max_residual for r in rows if r.expected) < 1e-12
    assert outcome.verdicts["kenmotsu"] is True
    assert outcome.verdicts["einstein"] is True


def test_polar_h5_matches_every_row(monkeypatch):
    # on the other charts phi is constant and phi^T g phi equals phi g phi^T;
    # here phi varies with r and the two differ, and every row must still hold
    outcome = _run_outside_catalog(monkeypatch, h5polar())
    rows = [r for s in outcome.suites for r in s.rows]
    assert len(rows) == 25
    assert max(r.max_residual for r in rows if r.expected) < 1e-12
    assert outcome.verdicts["kenmotsu"] is True
    assert outcome.verdicts["einstein"] is True


@pytest.mark.parametrize("chart,kenmotsu", [(h5shear, True), (euclidean3shear, False)])
def test_sheared_chart_matches_every_row(monkeypatch, chart, kenmotsu):
    # on every other chart xi and eta lie on one coordinate axis and
    # xi (x) eta equals eta (x) xi; here they differ, so a transposed outer
    # product in a row fails it
    example = chart()
    origin = np.zeros(example.manifold.dim)
    xi = example.structure.xi_at(len(origin), origin)[0]
    eta = example.structure.eta_at(len(origin), origin)[0]
    assert np.max(np.abs(np.outer(xi, eta) - np.outer(eta, xi))) == 0.5
    outcome = _run_outside_catalog(monkeypatch, example)
    rows = [r for s in outcome.suites for r in s.rows]
    assert len(rows) == 25
    assert max(r.max_residual for r in rows if r.expected) < 1e-12
    assert outcome.verdicts["kenmotsu"] is kenmotsu
    assert outcome.verdicts["einstein"] is True


def test_sasakian_chart_matches_every_row(monkeypatch):
    # a contact metric structure, d eta != 0: almost contact metric but
    # neither Kenmotsu nor Einstein
    outcome = _run_outside_catalog(monkeypatch, heis3())
    rows = {r.identity: r for s in outcome.suites for r in s.rows}
    assert len(rows) == 25
    assert rows["structure-axioms"].max_residual < 1e-12
    assert outcome.verdicts["kenmotsu"] is False
    assert outcome.verdicts["einstein"] is False


def test_beta_two_chart_is_not_kenmotsu(monkeypatch):
    # R x_{e^{2t}} R^2 is beta-Kenmotsu at beta = 2, nabla xi = 2(X - eta(X) xi):
    # the Kenmotsu condition fails, and the metric has constant curvature -4
    outcome = _run_outside_catalog(monkeypatch, beta2())
    condition = outcome.suites[SUITE_ORDER.index("kenmotsu")].rows[0]
    assert condition.expected is False and condition.max_residual > 1.0
    assert outcome.verdicts["kenmotsu"] is False
    assert outcome.verdicts["einstein"] is True
    assert outcome.verdicts["einstein_fit"]["a"] == pytest.approx(-8.0, abs=1e-9)
