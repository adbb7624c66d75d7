"""Upper bounds on the curvature work of a full run.

Every sample point needs one geometry record and two curvature passes, one
of the Levi-Civita connection and one of the modified connection; every
suite reads them from the record.  The record takes each chart's points
as one batch, so the calls that build it do not grow with the number of
points while the points fit in one chunk.  The tests count the calls
through every module binding of the functions, so a suite that goes back
to recomputing curvature, or a record that goes back to one point at a
time, fails here.
"""

import sys

from kenmotsu import charts, connection
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
