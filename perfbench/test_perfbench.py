"""Tests of the benchmark itself: the gate, the tracer and the smoke mode.

Run with ``python3 -m pytest perfbench -q`` from the root of the repository.
"""

from __future__ import annotations

import copy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from gate import count_failures, gated_rows  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _report(points: int = 2) -> dict:
    def row(identity, expected, passed, status="ok"):
        return {
            "identity": identity, "expected": expected, "passed": passed,
            "matched": expected is None or passed == expected, "status": status,
            "points": [{"point": [0.0], "residual": 0.0}] * points,
        }

    return {
        "manifolds": [
            {
                "name": "h5",
                "suites": [
                    {"name": "axioms", "status": "ran", "identities": [row("structure-axioms", True, True)]},
                    {"name": "weyl", "status": "ran", "identities": [
                        row("weyl-vanishing", False, False),
                        row("weyl-tachibana", None, True, status="info"),
                    ]},
                ],
            }
        ],
        "exit_status": 0,
    }


def test_gate_counts_only_gated_rows_and_each_way_to_fail():
    report = _report()
    reference = gated_rows(report)
    assert [r["identity"] for r in reference] == ["structure-axioms", "weyl-vanishing"]
    assert count_failures(report, reference, points=2) == 0

    flipped = copy.deepcopy(reference)
    flipped[1]["expected"] = True
    assert count_failures(report, flipped, points=2) == 1

    unmatched = copy.deepcopy(report)
    unmatched["manifolds"][0]["suites"][0]["identities"][0]["matched"] = False
    assert count_failures(unmatched, reference, points=2) == 1

    errored = copy.deepcopy(report)
    errored["manifolds"][0]["suites"][1]["status"] = "error"
    assert count_failures(errored, reference, points=2) == 1

    missing = copy.deepcopy(report)
    del missing["manifolds"][0]["suites"][1]
    assert count_failures(missing, reference, points=2) == 1

    assert count_failures(report, reference, points=3) == 2
    assert count_failures(report, reference, points=2, exit_code=1) == 2
    assert count_failures(None, reference, points=2) == 2


def test_tracer_counts_every_call_of_the_original_code():
    """Wrapping by binding must miss no call: compare with a profiler count."""
    from kenmotsu import cli

    spec = WORKLOADS["default"]
    config = cli.RunConfig(
        manifolds=spec["charts"], suites=spec["suites"], num_points=2, seed=0,
        output_format="json",
    )
    untraced = cli.run(config).to_json()
    profiled: Counter[str] = Counter()
    tracer = Tracer().install()
    try:
        names = {fn.__code__: name for name, fn in tracer.wrapped.items()}

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in names:
                profiled[names[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            traced = cli.run(config).to_json()
        finally:
            sys.setprofile(None)
    finally:
        tracer.uninstall()
    assert traced == untraced
    for name in tracer.wrapped:
        assert tracer.counts[name] == profiled[name], name
    for name in ("charts.riemann_of_connection", "connection.curvature_bundle",
                 "charts.levi_civita", "charts.ChartManifold.metric_pair_at"):
        assert tracer.counts[name] > 0, name
    summary = tracer.summary()
    # self times partition the two root spans, cli.run and RunReport.to_json
    roots = summary["cli.run"]["inclusive_s"] + summary["cli.RunReport.to_json"]["inclusive_s"]
    assert sum(s["self_s"] for s in summary.values()) == pytest.approx(roots)
    for s in summary.values():
        assert s["inclusive_s"] >= s["layer_self_s"] >= s["self_s"] - 1e-9
    # uninstall restores every binding
    assert cli.check_kenmotsu is tracer.wrapped["structure.check_kenmotsu"]


def test_smoke_mode_prints_every_metric_and_the_gate_can_fail():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke passed" in proc.stdout
