"""Upper bounds on the curvature work of a full run.

Every sample point needs one geometry record and two curvature passes, one
of the Levi-Civita connection and one of the modified connection; every
suite reads them from the record.  A chart with second metric partials
evaluates its Christoffel symbols once, at the sample points; one without
them evaluates them again on every chunk's stencils.  The record takes
each chart's points as one batch, so the calls that build it do not grow
with the number of points while the points fit in one chunk.  The tests count the calls
through every module binding of the functions, so a suite that goes back
to recomputing curvature, or a record that goes back to one point at a
time, fails here.  The catalog's chart and structure callables take a
batch of points, so the number of calls to them does not grow with the
number of points either, and each metric batch (the sample points, and
with a curvature suite their stencils) is evaluated and validated exactly
once; only the sample points' metric is inverted, and the stencils' too on
a chart without second partials.  The stencils of a chart's points are
built once.
"""

import dataclasses
import functools
import sys
from collections import Counter

import numpy as np
import pytest

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


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "fallback"])
def test_christoffel_evaluations_and_curvature_passes_per_chunk(monkeypatch, exact):
    # 60 dim-5 points span two chunks on the exact path and five on the
    # stencil fallback
    levi = _count_calls(monkeypatch, charts.levi_civita)
    passes = _count_calls(monkeypatch, charts.riemann_of_connection)
    chunks = _count_method(monkeypatch, connection.CurvatureBundle, "_curvature_chunk")
    if not exact:
        monkeypatch.setattr(cli, "by_name", _stencil_fallback)
    for chart in ("h5", "ne5"):
        for calls in (levi, passes, chunks):
            calls[0] = 0
        report = run(RunConfig(manifolds=(chart,), suites=SUITE_ORDER, num_points=60))
        assert report.exit_status == 0
        assert chunks[0] == (2 if exact else 5), chart
        assert levi[0] == (1 if exact else 1 + chunks[0]), chart
        assert passes[0] == 2 * chunks[0], chart


def test_one_stencil_per_chart(monkeypatch):
    # the record builds every point's stencil once and hands the values on
    # it to every finite difference, whatever the number of chunks
    calls = _count_calls(monkeypatch, charts.stencil)
    for points in (2, 50):
        calls[0] = 0
        report = run(RunConfig(manifolds=CHARTS, suites=SUITE_ORDER, num_points=points))
        assert report.exit_status == 0
        assert calls[0] == len(CHARTS), points


def _stencil_fallback(name: str):
    """The catalog example without second metric partials."""
    ex = by_name(name)
    return dataclasses.replace(
        ex, manifold=dataclasses.replace(ex.manifold, metric_second_partials=None)
    )


def _count_catalog_callables(monkeypatch, lookup=by_name) -> Counter:
    """Make the CLI run ``lookup``'s examples, whose callables count their calls."""
    calls = Counter()

    def counted(chart: str, name: str, f):
        @functools.wraps(f)  # keeps the batch-form mark
        def wrapper(p):
            calls[chart, name] += 1
            return f(p)

        return wrapper

    def counted_example(name: str):
        ex = lookup(name)
        m, s = ex.manifold, ex.structure
        fields = ("metric", "metric_partials", "metric_second_partials")
        manifold = dataclasses.replace(
            m, **{f: counted(name, f, getattr(m, f)) for f in fields if getattr(m, f)}
        )
        structure = AlmostContactStructure(
            *(counted(name, f, getattr(s, f)) for f in ("phi", "xi", "eta"))
        )
        return dataclasses.replace(ex, manifold=manifold, structure=structure)

    monkeypatch.setattr(cli, "by_name", counted_example)
    return calls


def test_catalog_callable_calls_do_not_grow_with_points(monkeypatch):
    calls = _count_catalog_callables(monkeypatch)

    def counts(points: int) -> Counter:
        calls.clear()
        report = run(RunConfig(manifolds=CHARTS, suites=SUITE_ORDER, num_points=points))
        assert report.exit_status == 0
        return Counter(calls)

    two, five = counts(2), counts(5)
    assert len(two) == 6 * len(CHARTS), two
    assert five == two


# per chart: metric, metric_partials and metric_second_partials calls, then
# np.linalg.cholesky and np.linalg.inv calls
FIRST_ORDER = (1, 1, 0, 1, 1)
EXACT = (2, 1, 1, 2, 1)
FALLBACK = (2, 2, 0, 2, 2)


@pytest.mark.parametrize("chart", CHARTS)
@pytest.mark.parametrize(
    "suites, lookup, each",
    [(SUITE_ORDER, by_name, EXACT), (SUITE_ORDER, _stencil_fallback, FALLBACK),
     (("axioms", "kenmotsu"), by_name, FIRST_ORDER)],
    ids=["full", "fallback", "first-order"],
)
def test_metric_is_evaluated_validated_and_inverted_once_per_batch(
    monkeypatch, chart, suites, lookup, each
):
    # one batch for the sample points and, with a curvature suite, one for
    # their stencils: each is evaluated and factored exactly once; the
    # stencils' metric is inverted only for the fallback's Christoffel symbols
    calls = _count_catalog_callables(monkeypatch, lookup)
    for name in ("cholesky", "inv"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls["linalg", _name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    report = run(RunConfig(manifolds=(chart,), suites=suites, num_points=POINTS))
    assert report.exit_status == 0
    keys = [(chart, f) for f in ("metric", "metric_partials", "metric_second_partials")]
    keys += [("linalg", "cholesky"), ("linalg", "inv")]
    assert [calls[key] for key in keys] == list(each)
