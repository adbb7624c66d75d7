"""Upper bounds on the curvature work of a full run.

Every sample point needs one geometry record and two curvature passes, one
of the Levi-Civita connection and one of the modified connection; every
suite reads them from the record.  The test counts the calls through
every module binding of the two functions, so a suite that goes back to
recomputing curvature fails here.
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


def test_at_most_one_record_and_two_curvature_passes_per_point(monkeypatch):
    passes = _count_calls(monkeypatch, charts.riemann_of_connection)
    bundles = _count_calls(monkeypatch, connection.curvature_bundle)
    report = run(RunConfig(manifolds=CHARTS, suites=SUITE_ORDER, num_points=POINTS))
    assert report.exit_status == 0
    points = len(CHARTS) * POINTS
    # nonzero: a call that escaped the patched bindings would read as no work
    assert 0 < passes[0] <= 2 * points
    assert 0 < bundles[0] <= points
