"""Upper bounds on the curvature work of a full run.

Every sample point needs one geometry record and two curvature passes, one
of the Levi-Civita connection and one of the modified connection; every
suite reads them from the record.  The record takes each chart's points
as one batch, so the calls that build it do not grow with the number of
points while the points fit in one chunk.  The tests count the calls
through every module binding of the functions, so a suite that goes back
to recomputing curvature, or a record that goes back to one point at a
time, fails here.  The catalog's chart and structure callables take a
batch of points, so the number of calls to them does not grow with the
number of points either.
"""

import dataclasses
import functools
import sys
from collections import Counter

from kenmotsu import AlmostContactStructure, by_name, charts, cli, connection
from kenmotsu.cli import SUITE_ORDER, RunConfig, run

CHARTS = ("euclidean3", "h3", "h5", "ne5")
POINTS = 2


def _count_calls(monkeypatch, fn) -> list[int]:
    """Replace every binding of ``fn`` in the package with a counting wrapper."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "kenmotsu" or name.startswith("kenmotsu."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
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


def test_at_most_one_record_and_two_curvature_passes_per_point(monkeypatch):
    passes = _count_calls(monkeypatch, charts.riemann_of_connection)
    bundles = _count_calls(monkeypatch, connection.curvature_bundle)
    report = run(RunConfig(manifolds=CHARTS, suites=SUITE_ORDER, num_points=POINTS))
    assert report.exit_status == 0
    points = len(CHARTS) * POINTS
    # nonzero: a call that escaped the patched bindings would read as no work
    assert 0 < passes[0] <= 2 * points
    assert 0 < bundles[0] <= points


def test_catalog_callable_calls_do_not_grow_with_points(monkeypatch):
    calls = Counter()

    def counted(chart: str, name: str, f):
        @functools.wraps(f)  # keeps the batch-form mark
        def wrapper(p):
            calls[chart, name] += 1
            return f(p)

        return wrapper

    def counted_example(name: str):
        ex = by_name(name)
        m, s = ex.manifold, ex.structure
        manifold = dataclasses.replace(
            m,
            metric=counted(name, "metric", m.metric),
            metric_partials=counted(name, "metric_partials", m.metric_partials),
        )
        structure = AlmostContactStructure(
            *(counted(name, f, getattr(s, f)) for f in ("phi", "xi", "eta"))
        )
        return dataclasses.replace(ex, manifold=manifold, structure=structure)

    monkeypatch.setattr(cli, "by_name", counted_example)

    def counts(points: int) -> Counter:
        calls.clear()
        report = run(RunConfig(manifolds=CHARTS, suites=SUITE_ORDER, num_points=points))
        assert report.exit_status == 0
        return Counter(calls)

    two, five = counts(2), counts(5)
    assert len(two) == 5 * len(CHARTS), two
    assert five == two
