"""The process that runs a workload in-process, driven by ``run.py``.

Usage: ``python perfbench/worker.py '<spec json>'`` with ``src`` on
PYTHONPATH.  The spec names the charts, suites and points.  The worker
imports kenmotsu, runs one warm-up iteration at one point per chart (the
package keeps no state between runs, so this finishes lazy set-up only),
prints ``{"ready": ...}`` and then answers one JSON command per stdin line:

- ``{"op": "run", "seed": S, "out": PATH, "trace": B, "spans": PATH|null,
  "flip": CHART|null}`` times ``cli.run(config)`` plus ``to_json()`` at seed
  S and writes the report to PATH exactly as the CLI prints it.  With
  ``trace`` the call runs under a :class:`tracing.Tracer`.  ``flip`` inverts
  the Kenmotsu expectation of one chart, for the gate's self-test.
- ``{"op": "rss"}`` returns the peak resident set size in KiB.
- ``{"op": "quit"}`` ends the process.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import resource
import sys
import time


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _flipped_by_name(original, chart: str):
    def by_name(name: str):
        example = original(name)
        if name == chart:
            example = dataclasses.replace(
                example, expected_kenmotsu=not example.expected_kenmotsu
            )
        return example

    return by_name


def main() -> int:
    import numpy
    from kenmotsu import cli

    from tracing import Tracer

    spec = json.loads(sys.argv[1])

    def config(seed: int, points: int) -> cli.RunConfig:
        return cli.RunConfig(
            manifolds=tuple(spec["charts"]),
            suites=tuple(spec["suites"]),
            num_points=points,
            seed=seed,
            output_format="json",
        )

    cli.run(config(spec["warm_seed"], 1)).to_json()
    reply = {"ready": True, "python": platform.python_version(), "numpy": numpy.__version__}
    print(json.dumps(reply), flush=True)

    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["op"] == "quit":
            break
        if cmd["op"] == "rss":
            print(json.dumps({"maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}), flush=True)
            continue
        cfg = config(cmd["seed"], spec["points"])
        original_by_name = cli.by_name
        if cmd.get("flip"):
            cli.by_name = _flipped_by_name(original_by_name, cmd["flip"])
        tracer = Tracer().install() if cmd.get("trace") else None
        try:
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            report = cli.run(cfg)
            text = report.to_json()
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
        finally:
            if tracer is not None:
                tracer.uninstall()
            cli.by_name = original_by_name
        with open(cmd["out"], "w") as fh:
            fh.write(text + "\n")
        reply = {
            "wall_s": wall,
            "cpu_s": cpu,
            "exit_status": report.exit_status,
            "json_bytes": len(text.encode()),
        }
        if tracer is not None:
            reply["calls"] = tracer.summary()
            reply["spans"] = len(tracer.spans)
            if cmd.get("spans"):
                tracer.write_spans(cmd["spans"])
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
