#!/usr/bin/env python3
"""Benchmark of the kenmotsu verifier: time to verdict, throughput, and layers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload default --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics, with nothing traced:

- ``setup_s``: fresh interpreter to ready (``import kenmotsu``, ``catalog()``,
  ``RunConfig``), median over fresh processes;
- ``verdict_s``: wall time of a fresh ``python -m kenmotsu --json ...``
  process until it exits with the report written;
- ``points_per_s``: charts x points over the in-process wall time of
  ``cli.run(config)`` plus ``RunReport.to_json()``, after a warm-up;
- ``cpu_s``: user plus system CPU of that in-process run phase;
- ``peak_rss_mb``: peak resident set of the process that runs the workload,
  read after the third iteration.

A run repeats a pair (three set-up probes, one CLI launch, one in-process
iteration at the same seed) until ``--seconds`` are used, so that every
metric samples the same load.
Timings are medians over the run's samples.  Iteration ``i`` of a run with
seed ``S`` samples its points with seed ``1000 * S + i``, so no iteration
repeats an earlier one's inputs.

``--trace 1`` runs the workload in-process with and without a
:class:`tracing.Tracer` installed from outside the package, and reports
the per-layer metrics (counts per sampled point, times per iteration) and
the tracer's overhead.

Every report is checked against the workload's reference set
(see ``gate.py``); the CLI report and the in-process report of one seed
must be byte-identical, as must the traced and untraced reports.  The last
line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from gate import count_failures, load_reference
from workloads import CURVATURE_SUITES, SUITES, WORKLOADS, cli_args

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"

# set-up probes per pair, so that they sample the same load as the pairs
SETUP_REPEATS = 3
MIN_PAIRS = 3
# every run must end within 180 s; children are killed before that
RUN_LIMIT_S = 170.0
# one BLAS/OpenMP thread per child: the arrays are at most 5x5x5x5, so more
# threads add only contention, and one process never competes with itself
CHILD_THREADS = "1"

_STARTED = time.monotonic()


class BenchError(RuntimeError):
    """The program under test could not be run to a result."""


def _time_left() -> float:
    left = RUN_LIMIT_S - (time.monotonic() - _STARTED)
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    return left


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = CHILD_THREADS
    return env


def _readline(proc: subprocess.Popen) -> str:
    """One line of a child's stdout, killing the child if it hangs."""
    watchdog = threading.Timer(_time_left(), proc.kill)
    watchdog.start()
    try:
        return proc.stdout.readline()
    finally:
        watchdog.cancel()


def iteration_seed(seed: int, i: int) -> int:
    return 1000 * seed + i


def scratch_file(workload: str, kind: str) -> Path:
    """A report file of this process only, so concurrent runs cannot clash."""
    return OUT / f"{workload}-{os.getpid()}-{kind}.json"


# -- children ---------------------------------------------------------------

_SETUP_CODE = """\
import sys
from kenmotsu import cli
from kenmotsu.catalog import catalog
catalog()
cli.RunConfig(manifolds={charts!r}, suites={suites!r}, num_points={points},
              seed={seed}, output_format="json")
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def setup_probe(spec: dict, seed: int) -> float:
    """Seconds from launching a fresh interpreter until it reports ready."""
    code = _SETUP_CODE.format(
        charts=tuple(spec["charts"]), suites=tuple(spec["suites"]),
        points=spec["points"], seed=seed,
    )
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = _readline(proc)
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=_time_left())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up probe failed with exit status {code}")
    return elapsed


def cli_launch(spec: dict, seed: int, out: Path) -> tuple[float, int]:
    """Wall time and exit status of ``python -m kenmotsu --json ... > out``."""
    with open(out, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "kenmotsu", *cli_args(spec, seed)],
            cwd=ROOT, env=child_env(), stdout=fh, timeout=_time_left(),
        )
        elapsed = time.perf_counter() - start
    return elapsed, proc.returncode


class Worker:
    """A ``worker.py`` process holding kenmotsu in memory."""

    def __init__(self, spec: dict, warm_seed: int):
        payload = json.dumps({**spec, "warm_seed": warm_seed})
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), payload], cwd=ROOT,
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.info = self._reply()
        except BaseException:
            self.close()
            raise

    def _reply(self) -> dict:
        line = _readline(self.proc)
        if not line:
            status = self.proc.wait()
            raise BenchError(f"worker ended with exit status {status}")
        return json.loads(line)

    def call(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write('{"op": "quit"}\n')
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            for pipe in (self.proc.stdin, self.proc.stdout):
                try:
                    pipe.close()
                except OSError:
                    pass

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- correctness bookkeeping ------------------------------------------------


class Ledger:
    """Operations attempted and failed, and determinism breaks."""

    def __init__(self, workload: str, points: int):
        self.reference = load_reference(workload)
        self.points = points
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, path: Path, exit_code: int, what: str) -> bytes:
        data = path.read_bytes() if path.exists() else b""
        try:
            report = json.loads(data)
        except ValueError:
            report = None
        failed = count_failures(report, self.reference, self.points, exit_code)
        self.attempted += len(self.reference)
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {len(self.reference)} rows failed")
        return data

    def same(self, a: bytes, b: bytes, what: str) -> None:
        if a != b:
            self.problems.append(f"{what}: reports of one seed differ")

    @property
    def correct(self) -> bool:
        return not self.problems


# -- statistics ---------------------------------------------------------------


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    n = len(values)
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return None


def timing(values: list[float]) -> dict:
    entry = {"median": statistics.median(values), "samples": len(values), "values": values}
    found = tail(values)
    if found:
        entry[f"p{found[0]}"] = found[1]
    return entry


# -- the two kinds of run ---------------------------------------------------


def paced(seconds: float, min_pairs: int):
    """Yield 0, 1, ... while at least half of a pair as long as the last fits."""
    start = time.monotonic()
    last = 0.0
    i = 0
    while i < min_pairs or time.monotonic() - start + last / 2 <= seconds:
        began = time.monotonic()
        yield i
        last = time.monotonic() - began
        i += 1


def measure_end_to_end(workload, spec, seed, seconds, setup_repeats, min_pairs, ledger):
    setup, verdict, wall, cpu = [], [], [], []
    cli_out, inproc_out = scratch_file(workload, "cli"), scratch_file(workload, "inproc")
    with Worker(spec, iteration_seed(seed, 999)) as worker:
        for i in paced(seconds, min_pairs):
            s = iteration_seed(seed, i)
            setup += [setup_probe(spec, s) for _ in range(setup_repeats)]
            elapsed, code = cli_launch(spec, s, cli_out)
            verdict.append(elapsed)
            from_cli = ledger.check(cli_out, code, f"cli seed {s}")
            reply = worker.call(op="run", seed=s, out=str(inproc_out))
            wall.append(reply["wall_s"])
            cpu.append(reply["cpu_s"])
            in_process = ledger.check(inproc_out, reply["exit_status"], f"in-process seed {s}")
            ledger.same(from_cli, in_process, f"cli vs in-process seed {s}")
            if i + 1 == min_pairs:
                # after a fixed number of iterations, so that runs that fit
                # more pairs in their time do not read a different peak
                rss_kib = worker.call(op="rss")["maxrss_kib"]
        info = worker.info
    points = len(spec["charts"]) * spec["points"]
    samples = {
        "setup_s": timing(setup),
        "verdict_s": timing(verdict),
        "run_wall_s": timing(wall),
        "cpu_s": timing(cpu),
    }
    metrics = {
        "verdict_s": (statistics.median(verdict), "s"),
        "points_per_s": (points / statistics.median(wall), "points/s"),
        "cpu_s": (statistics.median(cpu), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }
    return metrics, samples, info


def layer_metrics(calls: dict, spec: dict, json_bytes: int) -> dict:
    """Per-layer metrics of one traced iteration; see README.md for each."""
    pts = len(spec["charts"]) * spec["points"]

    def n(name):
        return calls.get(name, {}).get("calls", 0)

    def incl(name):
        return calls.get(name, {}).get("inclusive_s", 0.0)

    def own(name):
        return calls.get(name, {}).get("self_s", 0.0)

    def layer(name):
        return calls.get(name, {}).get("layer_self_s", 0.0)

    passes = n("charts.riemann_of_connection")
    needed = 2 * pts if set(spec["suites"]) & set(CURVATURE_SUITES) else 0
    christoffel = n("charts.levi_civita")
    metric_at, metric_pair = "charts.ChartManifold.metric_at", "charts.ChartManifold.metric_pair_at"
    out = {
        "charts.curvature_passes_per_pt": (passes / pts, "calls/pt"),
        "charts.curvature_pass_useful_ratio": (needed / passes if passes else 1.0, "ratio"),
        "charts.curvature_pass_s": (incl("charts.riemann_of_connection"), "s"),
        "charts.curvature_pass_us": (
            1e6 * incl("charts.riemann_of_connection") / passes if passes else 0.0, "us"
        ),
        "charts.christoffel_per_pt": (christoffel / pts, "calls/pt"),
        "charts.christoffel_us": (
            1e6 * incl("charts.levi_civita") / christoffel if christoffel else 0.0, "us"
        ),
        "charts.metric_validations_per_pt": ((n(metric_at) + n(metric_pair)) / pts, "calls/pt"),
        "charts.metric_pair_per_pt": (n(metric_pair) / pts, "calls/pt"),
        "charts.metric_validation_s": (own(metric_at) + own(metric_pair), "s"),
        "tensors.multitensor_per_pt": (n("tensors.MultiTensor.__init__") / pts, "calls/pt"),
        "tensors.metricpair_per_pt": (n("tensors.MetricPair.__init__") / pts, "calls/pt"),
        "structure.axioms_s": (layer("structure.check_almost_contact"), "s"),
        "structure.kenmotsu_s": (layer("structure.check_kenmotsu"), "s"),
        "structure.curvature_identities_s": (layer("structure.check_curvature_identities"), "s"),
        "connection.bundle_per_pt": (n("connection.curvature_bundle") / pts, "calls/pt"),
        "connection.coefficients_per_pt": (
            n("connection.NonMetricConnection.coefficients_at") / pts, "calls/pt"
        ),
        "connection.bundle_s": (layer("connection.curvature_bundle"), "s"),
        "conditions.weyl_tensor_per_pt": (n("conditions.weyl_tensor") / pts, "calls/pt"),
        "conditions.semisymmetry_s": (layer("conditions.check_semisymmetry_condition"), "s"),
        "conditions.weyl_s": (
            layer("conditions.check_weyl") + layer("conditions.check_weyl_commutation"), "s"
        ),
        "cli.runner_init_s": (incl("cli._ManifoldRunner.__init__"), "s"),
    }
    for suite in SUITES:
        out[f"cli.suite.{suite}_s"] = (incl(f"cli._ManifoldRunner._suite_{suite}"), "s")
    out["cli.render_json_s"] = (incl("cli.RunReport.to_json"), "s")
    out["report.json_bytes"] = (float(json_bytes), "B")
    out["catalog.sample_s"] = (incl("catalog.NamedExample.sample_points"), "s")
    return out


def measure_layers(workload, spec, seed, seconds, min_pairs, ledger):
    plain_out, traced_out = scratch_file(workload, "plain"), scratch_file(workload, "traced")
    plain, traced, layers = [], [], []
    counts = None
    with Worker(spec, iteration_seed(seed, 999)) as worker:
        for i in paced(seconds, min_pairs):
            s = iteration_seed(seed, i)
            reply = worker.call(op="run", seed=s, out=str(plain_out))
            plain.append(reply["wall_s"])
            untraced = ledger.check(plain_out, reply["exit_status"], f"untraced seed {s}")
            spans = OUT / f"{workload}-seed{seed}-spans.jsonl" if i == 0 else None
            reply = worker.call(
                op="run", seed=s, out=str(traced_out), trace=True,
                spans=str(spans) if spans else None,
            )
            traced.append(reply["wall_s"])
            ledger.same(untraced, ledger.check(traced_out, reply["exit_status"], f"traced seed {s}"),
                        f"untraced vs traced seed {s}")
            this_counts = {k: v["calls"] for k, v in reply["calls"].items()}
            if counts is None:
                counts = this_counts
            elif this_counts != counts:
                ledger.problems.append(f"traced seed {s}: call counts differ between iterations")
            layers.append(layer_metrics(reply["calls"], spec, reply["json_bytes"]))
        info = worker.info
    metrics = {
        name: (statistics.median(m[name][0] for m in layers), unit)
        for name, (_, unit) in layers[0].items()
    }
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    samples = {"untraced_wall_s": timing(plain), "traced_wall_s": timing(traced), "calls": counts}
    return metrics, samples, info


# -- driver -----------------------------------------------------------------


def provenance() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_at_start": list(os.getloadavg()),
        "child_threads": int(CHILD_THREADS),
    }


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    points: int | None = None,
    setup_repeats: int = SETUP_REPEATS,
    min_pairs: int = MIN_PAIRS,
) -> dict:
    spec = dict(WORKLOADS[workload])
    if points is not None:
        spec["points"] = points
    prov = provenance()
    OUT.mkdir(parents=True, exist_ok=True)
    ledger = Ledger(workload, spec["points"])
    try:
        if trace:
            metrics, samples, info = measure_layers(workload, spec, seed, seconds, min_pairs, ledger)
        else:
            metrics, samples, info = measure_end_to_end(
                workload, spec, seed, seconds, setup_repeats, min_pairs, ledger
            )
    finally:
        for stale in OUT.glob(f"*-{os.getpid()}-*.json"):
            stale.unlink()
    prov.update(python=info["python"], numpy=info["numpy"])
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "spec": spec, "provenance": prov, "samples": samples,
        "problems": ledger.problems, "result": result,
    }
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    return detail


def emit(detail: dict, out=sys.stdout) -> None:
    result = detail["result"]
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}", file=out)
    print("provenance " + json.dumps(detail["provenance"]), file=out)
    for name, entry in detail["samples"].items():
        if isinstance(entry, dict) and "median" in entry:
            extra = "".join(f"  {k} {v:.4f}" for k, v in entry.items() if k.startswith("p"))
            print(f"  {name:<18} median {entry['median']:.4f} s over {entry['samples']} samples{extra}",
                  file=out)
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:14.6g} {m['unit']}", file=out)
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  mismatch_rate {rate:.6g} ({result['failed']} of {result['attempted']} rows)", file=out)
    for problem in detail["problems"]:
        print(f"  problem: {problem}", file=out)
    print(json.dumps(result), file=out)


# -- smoke mode -------------------------------------------------------------


def gate_self_test() -> list[str]:
    """An injected expectation flip must make the gate fail rows."""
    spec = dict(WORKLOADS["default"], points=2)
    ledger = Ledger("default", spec["points"])
    OUT.mkdir(parents=True, exist_ok=True)
    path = scratch_file("default", "gate-self-test")
    with Worker(spec, iteration_seed(0, 999)) as worker:
        reply = worker.call(op="run", seed=0, out=str(path))
        ledger.check(path, reply["exit_status"], "unflipped")
        clean = ledger.failed
        reply = worker.call(op="run", seed=0, out=str(path), flip="h5")
        ledger.check(path, reply["exit_status"], "flipped")
    path.unlink()
    problems = []
    if clean != 0:
        problems.append(f"gate self-test: {clean} rows fail without a flip")
    if ledger.failed - clean <= 0:
        problems.append("gate self-test: flipping h5's expectation failed no row")
    return problems


def smoke() -> int:
    """Every workload at two points per chart, both traces, names and units."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = gate_self_test()
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    for workload in names:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            detail = run_benchmark(workload, 0, 0.1, trace, points=2, setup_repeats=1, min_pairs=1)
            buf = io.StringIO()
            emit(detail, buf)
            printed = buf.getvalue().splitlines()
            last = json.loads(printed[-1])
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            label = f"{workload} trace {int(trace)}"
            if got != want:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} or units differ")
            for name, unit in want.items():
                if not any(name in line and unit in line for line in printed[:-1]):
                    problems.append(f"{label}: {name} is not printed with its unit {unit}")
            if not last["correct"] or last["failed"]:
                problems.append(f"{label}: {detail['problems']}")
            print(f"smoke {label}: {len(got)} metrics, {last['attempted']} rows checked")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the kenmotsu verifier.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload tiny and check the printed metrics")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kenmotsu" / "__init__.py").is_file():
        sys.stderr.write(f"error: no kenmotsu sources under {ROOT / 'src'}\n")
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        emit(run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace)))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
