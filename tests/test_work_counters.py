"""Upper bounds on the curvature work of a full run.

Every sample point needs one geometry record and two curvature passes, one
of the Levi-Civita connection and one of the modified connection; every
suite reads them from the record.  The Christoffel symbols are evaluated
once per chart, at the sample points.  The record takes each chart's
points as one batch, so the calls that build it do not grow with the
number of points while the points fit in one chunk.  The tests count the
calls through every module binding of the functions, so a suite that goes
back to recomputing curvature, or a record that goes back to one point at
a time, fails here.  The catalog's chart and structure callables run on
the jets of a whole batch of points, so the number of calls to them does
not grow with the number of points either: each runs once on first-order
jets of all the points, and the metric once more on second-order jets per
curvature chunk.  The sample points' metric is validated and inverted
exactly once.
"""

import dataclasses
import functools
import sys
from collections import Counter

import numpy as np
import pytest

from kenmotsu import AlmostContactStructure, charts, cli, connection
from kenmotsu.cli import SUITE_ORDER, RunConfig, run

CHARTS = ("euclidean3", "h3", "h5", "ne5")
POINTS = 2


def _replace_everywhere(monkeypatch, fn, replacement) -> None:
    """Replace every binding of ``fn`` in the package with ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name == "kenmotsu" or name.startswith("kenmotsu."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


def _count_calls(monkeypatch, fn) -> list[int]:
    """Replace every binding of ``fn`` in the package with a counting wrapper."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    _replace_everywhere(monkeypatch, fn, counted)
    return calls


def _count_method(monkeypatch, cls, name) -> list[int]:
    calls = [0]
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_calls_per_chart_do_not_grow_with_points(monkeypatch):
    counters = {
        "levi_civita": _count_calls(monkeypatch, charts.levi_civita),
        "riemann_of_connection": _count_calls(monkeypatch, charts.riemann_of_connection),
        "metric_pair_at": _count_method(monkeypatch, charts.ChartManifold, "metric_pair_at"),
    }

    def counts(points: int) -> dict[str, int]:
        for calls in counters.values():
            calls[0] = 0
        report = run(RunConfig(manifolds=CHARTS, suites=SUITE_ORDER, num_points=points))
        assert report.exit_status == 0
        return {name: calls[0] for name, calls in counters.items()}

    two, five = counts(2), counts(5)
    assert all(n > 0 for n in two.values()), two
    assert five == two
    # one chunk per chart: one Christoffel evaluation and two curvature passes
    assert two["levi_civita"] == len(CHARTS)
    assert two["riemann_of_connection"] == 2 * len(CHARTS)


def test_at_most_one_record_and_two_curvature_passes_per_point(monkeypatch):
    passes = _count_calls(monkeypatch, charts.riemann_of_connection)
    bundles = _count_calls(monkeypatch, connection.curvature_bundle)
    report = run(RunConfig(manifolds=CHARTS, suites=SUITE_ORDER, num_points=POINTS))
    assert report.exit_status == 0
    points = len(CHARTS) * POINTS
    # nonzero: a call that escaped the patched bindings would read as no work
    assert 0 < passes[0] <= 2 * points
    assert 0 < bundles[0] <= points


def test_the_metric_wedge_is_built_once_per_record(monkeypatch):
    # torsion-form, three curvature identities, tachibana-metric and every
    # chunk of the Weyl commutation read the record's one g wedge g; 60
    # points span two curvature chunks and six commutation chunks per chart,
    # so a wedge of the metric built per chunk, or per row, fails here
    records, metric_wedges = [], []
    build, wedge = connection.curvature_bundle, connection._wedge

    def recorded(*args):
        records.append(build(*args))
        return records[-1]

    def watched(a, b=None):
        if b is None:
            metric_wedges.append(a)
        return wedge(a, b)

    _replace_everywhere(monkeypatch, build, recorded)
    _replace_everywhere(monkeypatch, wedge, watched)
    report = run(RunConfig(manifolds=CHARTS, suites=SUITE_ORDER, num_points=60))
    assert report.exit_status == 0
    assert len(records) == len(CHARTS)
    for geometry in records:
        g = geometry.metric.matrix
        assert sum(np.shares_memory(a, g) for a in metric_wedges) == 1


def _count_catalog_callables(monkeypatch) -> Counter:
    """Make the CLI run catalog examples whose callables count their calls by jet order."""
    calls = Counter()
    lookup = cli.by_name

    def counted(chart: str, name: str, f):
        @functools.wraps(f)
        def wrapper(p):
            calls[chart, name, 1 if p.hess is None else 2] += 1
            return f(p)

        return wrapper

    def counted_example(name: str):
        ex = lookup(name)
        m, s = ex.manifold, ex.structure
        manifold = dataclasses.replace(m, metric=counted(name, "metric", m.metric))
        structure = AlmostContactStructure(
            *(counted(name, f, getattr(s, f)) for f in ("phi", "xi", "eta"))
        )
        return dataclasses.replace(ex, manifold=manifold, structure=structure)

    monkeypatch.setattr(cli, "by_name", counted_example)
    return calls


def test_christoffel_evaluations_and_curvature_passes_per_chunk(monkeypatch):
    # 60 dim-5 points span two chunks; each chunk evaluates the metric once
    # on second-order jets, and nothing else grows with the chunks
    levi = _count_calls(monkeypatch, charts.levi_civita)
    passes = _count_calls(monkeypatch, charts.riemann_of_connection)
    chunks = _count_method(monkeypatch, connection.CurvatureBundle, "_curvature_chunk")
    calls = _count_catalog_callables(monkeypatch)
    for chart in ("h5", "ne5"):
        for counter in (levi, passes, chunks):
            counter[0] = 0
        calls.clear()
        report = run(RunConfig(manifolds=(chart,), suites=SUITE_ORDER, num_points=60))
        assert report.exit_status == 0
        assert chunks[0] == 2, chart
        assert levi[0] == 1, chart
        assert passes[0] == 2 * chunks[0], chart
        assert calls == {(chart, "metric", 1): 1, (chart, "metric", 2): 2,
                         (chart, "phi", 1): 1, (chart, "xi", 1): 1, (chart, "eta", 1): 1}


def test_catalog_callable_calls_do_not_grow_with_points(monkeypatch):
    calls = _count_catalog_callables(monkeypatch)

    def counts(points: int) -> Counter:
        calls.clear()
        report = run(RunConfig(manifolds=CHARTS, suites=SUITE_ORDER, num_points=points))
        assert report.exit_status == 0
        return Counter(calls)

    two, five = counts(2), counts(5)
    assert len(two) == 5 * len(CHARTS), two
    assert five == two


# per chart: metric calls on first-order and on second-order jets, then
# np.linalg.cholesky and np.linalg.inv calls
FIRST_ORDER = (1, 0, 1, 1)
FULL = (1, 1, 1, 1)


@pytest.mark.parametrize("chart", CHARTS)
@pytest.mark.parametrize(
    "suites, each", [(SUITE_ORDER, FULL), (("axioms", "kenmotsu"), FIRST_ORDER)],
    ids=["full", "first-order"],
)
def test_metric_is_evaluated_validated_and_inverted_once_per_batch(monkeypatch, chart, suites, each):
    # the sample points' metric is evaluated once on first-order jets and,
    # with a curvature suite, once more on second-order jets for their one
    # chunk; it is factored and inverted exactly once, and a run without a
    # curvature suite builds no Hessian
    calls = _count_catalog_callables(monkeypatch)
    for name in ("cholesky", "inv"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls["linalg", _name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    report = run(RunConfig(manifolds=(chart,), suites=suites, num_points=POINTS))
    assert report.exit_status == 0
    keys = [(chart, "metric", 1), (chart, "metric", 2), ("linalg", "cholesky"), ("linalg", "inv")]
    assert [calls[key] for key in keys] == list(each)
