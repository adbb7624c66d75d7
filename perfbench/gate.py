"""Correctness gate: compare a kenmotsu JSON report with a recorded reference.

An operation is one gated identity row of the reference set on one chart:
a row whose expectation is not ``None`` and whose status is ``ok``.  The row
fails when it is missing from the report, when its suite has status
``error``, when its ``matched`` field is false, when its expectation or
status differs from the reference, or when it was evaluated at another
number of points than the workload asks for.  A nonzero exit status fails
every row of that run.

Residuals are not compared: later changes may move them at roundoff.

Record the reference sets (once, at the commit that defines them) with::

    python3 perfbench/gate.py --record
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, cli_args

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
RECORD_SEED = 0


def gated_rows(report: dict) -> list[dict]:
    """The gated rows of a report, in report order."""
    rows = []
    for chart in report["manifolds"]:
        for suite in chart["suites"]:
            for row in suite["identities"]:
                if row["expected"] is not None and row["status"] == "ok":
                    rows.append(
                        {
                            "chart": chart["name"],
                            "suite": suite["name"],
                            "identity": row["identity"],
                            "expected": row["expected"],
                            "status": row["status"],
                            "passed": row["passed"],
                        }
                    )
    return rows


def load_reference(workload: str) -> list[dict]:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)["rows"]


def count_failures(
    report: dict | None, reference: list[dict], points: int, exit_code: int = 0
) -> int:
    """Number of reference rows the report fails; see the module docstring."""
    if exit_code != 0 or report is None:
        return len(reference)
    found = {}
    for chart in report["manifolds"]:
        for suite in chart["suites"]:
            for row in suite["identities"]:
                found[(chart["name"], suite["name"], row["identity"])] = (suite, row)
    failed = 0
    for ref in reference:
        hit = found.get((ref["chart"], ref["suite"], ref["identity"]))
        if hit is None:
            failed += 1
            continue
        suite, row = hit
        if (
            suite["status"] == "error"
            or not row["matched"]
            or row["expected"] != ref["expected"]
            or row["status"] != ref["status"]
            or len(row["points"]) != points
        ):
            failed += 1
    return failed


def record() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, spec in WORKLOADS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "kenmotsu", *cli_args(spec, RECORD_SEED)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
        )
        report = json.loads(proc.stdout)
        rows = gated_rows(report)
        if proc.returncode != 0 or count_failures(report, rows, spec["points"]) != 0:
            sys.stderr.write(f"{name}: the report does not match its own expectations\n")
            return 1
        recorded = {
            "workload": name,
            "charts": list(spec["charts"]),
            "suites": list(spec["suites"]),
            "points": spec["points"],
            "seed": RECORD_SEED,
            "rows": rows,
        }
        with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(recorded, fh, indent=1)
            fh.write("\n")
        print(f"{name}: {len(rows)} gated rows")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", action="store_true", help="rewrite the reference sets")
    if parser.parse_args().record:
        sys.exit(record())
    parser.print_help()
