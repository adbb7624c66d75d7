"""The benchmark's workloads: which charts, suites and sizes each one runs.

Charts and suites are named explicitly, never as ``all``, so that charts
added to the catalog later do not silently change a workload.
"""

from __future__ import annotations

SUITES = (
    "axioms",
    "kenmotsu",
    "curvature",
    "connection",
    "irregularity",
    "semisymmetry",
    "weyl",
)

# suites whose rows differentiate the Christoffel field, i.e. need curvature
CURVATURE_SUITES = ("curvature", "connection", "irregularity", "semisymmetry", "weyl")

SEED_CHARTS = ("euclidean3", "h3", "h5", "ne5")

WORKLOADS = {
    # what a user runs by default: dims 3 and 5, the control chart, every
    # suite; carries the full per-point recomputation
    "default": {"charts": SEED_CHARTS, "suites": SUITES, "points": 20},
    # dim-5 curvature work only, at a larger N per chart: batching over
    # points and stencil offsets, and its memory, show here
    "dense5": {"charts": ("h5", "ne5"), "suites": SUITES, "points": 50},
    # one stencil level on structure fields and no curvature pass: isolates
    # per-call validation and tensor-object overhead, bypasses curvature work
    "first-order": {"charts": SEED_CHARTS, "suites": ("axioms", "kenmotsu"), "points": 1000},
}


def cli_args(spec: dict, seed: int, points: int | None = None) -> list[str]:
    """Arguments of ``python -m kenmotsu`` for one workload at one seed."""
    args = ["--json"]
    for chart in spec["charts"]:
        args += ["--manifold", chart]
    for suite in spec["suites"]:
        args += ["--suite", suite]
    return args + ["--points", str(points or spec["points"]), "--seed", str(seed)]
