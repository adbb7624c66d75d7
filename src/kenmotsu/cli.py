"""Command-line verification runner.

Samples points on the catalog charts, runs the requested identity suites,
and renders a text or JSON report.  The JSON output is deterministic: the
same configuration (including seed) produces byte-identical bytes, so the
reports can be diffed or golden-tested.

Exit codes: 0 when every gated identity matched its expectation (controls
are EXPECTED to fail and count as matches when they do), 1 on a mismatch
or a numerical abort, 2 on a usage error, and :data:`EXIT_BROKEN_PIPE`
when the reader closes stdout before the report is written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .catalog import NamedExample, by_name, catalog
from .charts import DomainError, MetricError
from .conditions import (
    EINSTEIN_FIT_THRESHOLD,
    check_derivation_identity,
    check_semisymmetry_condition,
    check_weyl,
    check_weyl_commutation,
)
from .connection import (
    NonMetricConnection,
    check_curvature_relation,
    check_deformation_form,
    check_nonmetricity,
    check_reeb_curvature_degeneracy,
    check_reeb_transport,
    check_torsion,
    curvature_bundle,
    scalar_shift,
)
from .report import IDENTITIES, IdentityResidualReport, _read_only, to_json, write_json
from .structure import (
    StructureError,
    check_almost_contact,
    check_curvature_identities,
    check_kenmotsu,
)

SUITE_ORDER = tuple(dict.fromkeys(identity.suite for identity in IDENTITIES.values()))

# a chart or structure that cannot be evaluated at a sample point: an error
# row in the report, never a traceback
_NUMERICAL_ERRORS = (DomainError, MetricError, StructureError)

# bytes a run's largest chart may be estimated to peak at; more is refused
MEMORY_BUDGET = 2 * 2**30


class UsageError(ValueError):
    """Bad configuration: unknown name, malformed flag value, and so on."""


@dataclass(frozen=True)
class RunConfig:
    manifolds: tuple[str, ...]
    suites: tuple[str, ...]
    num_points: int = 20
    seed: int = 0
    tolerances: dict[str, float] = field(default_factory=dict)
    output_format: str = "text"

    def __post_init__(self) -> None:
        if self.num_points < 1:
            raise UsageError("--points must be at least 1")
        if self.seed < 0:
            raise UsageError("--seed must be a non-negative integer")
        if self.output_format not in ("text", "json"):
            raise UsageError(f"unknown output format {self.output_format!r}")
        for name, value in self.tolerances.items():
            if name not in IDENTITIES:
                raise UsageError(f"unknown identity in --tol: {name!r}")
            if not 0.0 < float(value) < math.inf:
                raise UsageError(f"tolerance must be a positive finite number: {name}={value!r}")

    def to_dict(self) -> dict:
        return {
            "manifolds": list(self.manifolds),
            "suites": list(self.suites),
            "num_points": self.num_points,
            "seed": self.seed,
            "tolerances": {k: float(v) for k, v in sorted(self.tolerances.items())},
            "output_format": self.output_format,
        }


def resolve_suites(names: list[str] | tuple[str, ...]) -> tuple[str, ...]:
    requested = set()
    for name in names:
        if name == "all":
            requested.update(SUITE_ORDER)
        elif name in SUITE_ORDER:
            requested.add(name)
        else:
            raise UsageError(
                f"unknown suite {name!r}; choose from {', '.join(SUITE_ORDER)} or all"
            )
    return tuple(s for s in SUITE_ORDER if s in requested)


@dataclass
class SuiteOutcome:
    name: str
    status: str = "ran"  # ran | skipped | error
    note: str = ""
    rows: list[IdentityResidualReport] = field(default_factory=list)

    @property
    def matched(self) -> bool:
        if self.status == "error":
            return False
        return all(r.matched for r in self.rows)

    def tree(self, points: np.ndarray) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "note": self.note,
            "identities": [r.tree(points) for r in self.rows],
        }


@dataclass
class ManifoldOutcome:
    name: str
    points: np.ndarray
    suites: list[SuiteOutcome] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def matched(self) -> bool:
        return all(s.matched for s in self.suites)

    def tree(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "suites": [s.tree(self.points) for s in self.suites],
            "verdicts": self.verdicts,
        }


@dataclass
class RunReport:
    config: RunConfig
    manifolds: list[ManifoldOutcome]

    @property
    def exit_status(self) -> int:
        return 0 if all(m.matched for m in self.manifolds) else 1

    def to_json(self) -> str:
        """``json.dumps(indent=2)`` of :meth:`tree`, each row's points written out as records."""
        return to_json(self.tree())

    def write_json(self, stream) -> None:
        """Write the text of :meth:`to_json` to ``stream`` as it is rendered, never whole."""
        write_json(self.tree(), stream.write)

    def tree(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "manifolds": [m.tree() for m in self.manifolds],
            "exit_status": self.exit_status,
        }


class _ManifoldRunner:
    """Runs suites for one example, sharing its geometry record."""

    def __init__(self, example: NamedExample, config: RunConfig):
        self.example = example
        self.config = config
        try:
            self.points = _read_only(example.sample_points(config.num_points, config.seed))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        # a chart or structure that fails at a sample point makes every
        # suite an error row with this message
        self.error: str | None = None
        try:
            # the geometry of every sample point, computed on first use for
            # all of them at once and read by every suite
            self.geometry = curvature_bundle(
                NonMetricConnection(example.manifold, example.structure), self.points
            )
            self.axioms = self._gated(check_almost_contact(self.geometry))
            self.kenmotsu = self._gated(check_kenmotsu(self.geometry))
        except _NUMERICAL_ERRORS as exc:
            self.error = str(exc)

    def _gated(self, report: IdentityResidualReport) -> IdentityResidualReport:
        """Set the row's status, expectation and tolerance for this chart; idempotent."""
        identity = IDENTITIES[report.identity]
        ex = self.example
        if identity.kenmotsu_only and not ex.expected_kenmotsu:
            report.status = "info"
            report.note = "closed form not applicable off the Kenmotsu class"
        if report.status == "ok":
            report.expected = all(getattr(ex, f"expected_{flag}") for flag in identity.expect)
        report.tolerance = float(self.config.tolerances.get(report.identity, identity.tolerance))
        return report

    def _verdicts(self, suites: list[SuiteOutcome]) -> dict:
        """The chart's verdicts, read from the gated rows of the suites that ran.

        The joint fits, the scalar means and the scalar shift are read off
        their rows, and are None where the suite holding the row did not run.
        """
        rows = {r.identity: r for suite in suites for r in suite.rows}
        fit = rows.get("einstein-ricci-fit")
        eta_fit = rows.get("eta-einstein-fit")
        scalars = rows.get("semisymmetry-condition")
        shift = rows.get("scalar-cross-check") if self.example.expected_kenmotsu else None
        return {
            # Kenmotsu's definition presupposes an almost contact metric structure
            "kenmotsu": None if self.error else self.axioms.passed and self.kenmotsu.passed,
            "einstein": None if fit is None
            else fit.extras["joint-residual"] < EINSTEIN_FIT_THRESHOLD,
            "einstein_fit": None if fit is None
            else {"a": fit.extras["joint-a"], "residual": fit.extras["joint-residual"]},
            "eta_einstein_fit": None if eta_fit is None
            else {k: eta_fit.extras[f"joint-{k}"] for k in ("a", "b", "residual")},
            "mean_scalar": None if scalars is None else scalars.extras["mean-lc-scalar"],
            "mean_modified_scalar": None if scalars is None
            else scalars.extras["mean-modified-scalar"],
            "scalar_shift_deviation": None if shift is None else shift.max_residual,
            "expected_scalar_shift": scalar_shift(self.example.n),
        }

    def run_suite(self, suite: str) -> SuiteOutcome:
        if self.error is not None:
            return SuiteOutcome(name=suite, status="error", note=self.error)
        if not self.axioms.passed and suite != "axioms":
            return SuiteOutcome(
                name=suite,
                status="skipped",
                note="prerequisite failed: structure axioms",
            )
        try:
            reports = getattr(self, f"_suite_{suite}")()
        except _NUMERICAL_ERRORS as exc:
            return SuiteOutcome(name=suite, status="error", note=str(exc))
        return SuiteOutcome(name=suite, rows=[self._gated(r) for r in reports])

    # -- individual suites: each returns its reports in table order --------

    def _suite_axioms(self) -> list[IdentityResidualReport]:
        return [self.axioms]

    def _suite_kenmotsu(self) -> list[IdentityResidualReport]:
        return [self.kenmotsu]

    def _suite_curvature(self) -> list[IdentityResidualReport]:
        return check_curvature_identities(self.geometry)

    def _suite_connection(self) -> list[IdentityResidualReport]:
        geometry = self.geometry
        return [
            check_torsion(geometry),
            check_nonmetricity(geometry),
            check_reeb_transport(geometry),
            check_deformation_form(geometry),
            *check_curvature_relation(geometry),
        ]

    def _suite_irregularity(self) -> list[IdentityResidualReport]:
        return [check_reeb_curvature_degeneracy(self.geometry)]

    def _suite_semisymmetry(self) -> list[IdentityResidualReport]:
        geometry = self.geometry
        return [check_derivation_identity(geometry), *check_semisymmetry_condition(geometry)]

    def _suite_weyl(self) -> list[IdentityResidualReport]:
        return [*check_weyl(self.geometry), check_weyl_commutation(self.geometry)]

    def outcome(self, requested: tuple[str, ...]) -> ManifoldOutcome:
        suites = [self.run_suite(suite) for suite in requested]
        return ManifoldOutcome(self.example.name, self.points, suites, self._verdicts(suites))


def run(config: RunConfig) -> RunReport:
    suites = resolve_suites(config.suites)
    if not suites:
        raise UsageError("no suites requested")
    examples = []
    # a repeated name runs its chart once, in first-seen order
    for name in dict.fromkeys(config.manifolds):
        try:
            examples.append(by_name(name))
        except KeyError as exc:
            raise UsageError(str(exc.args[0])) from exc
    if not examples:
        raise UsageError("no manifolds requested")
    # the peak's measured growth per point, rounded up: rank-4 curvature
    # arrays, or first-order partials where no suite reads curvature
    dim = max(example.manifold.dim for example in examples)
    first_order = set(suites) <= {"axioms", "kenmotsu"}
    peak = (48 * dim**3 if first_order else 80 * dim**4) * config.num_points
    if peak > MEMORY_BUDGET:
        # rounded to MiB in integers: --points has no bound, a float would overflow
        raise UsageError(
            f"--points {config.num_points} would take about {(peak + 2**19) // 2**20} MiB on a"
            f" dim-{dim} chart, above the {MEMORY_BUDGET // 2**20} MiB budget; use fewer points"
        )
    outcomes = [
        _ManifoldRunner(example, config).outcome(suites) for example in examples
    ]
    return RunReport(config=config, manifolds=outcomes)


# -- rendering ------------------------------------------------------------


def _tag(row: IdentityResidualReport) -> str:
    if row.status == "not-applicable":
        return "N/A"
    if row.status == "info":
        return "INFO"
    if row.passed:
        return "PASS" if row.matched else "PASS (unexpected)"
    return "FAIL (expected)" if row.matched else "FAIL"


def render_text(report: RunReport) -> str:
    lines = []
    for m in report.manifolds:
        lines.append(f"manifold {m.name} (dim {m.dim})")
        for suite in m.suites:
            if suite.status != "ran":
                lines.append(f"  suite {suite.name}: {suite.status.upper()} ({suite.note})")
                continue
            lines.append(f"  suite {suite.name}")
            for row in suite.rows:
                lines.append(
                    f"    {row.identity:<26} max {row.max_residual:10.3e}"
                    f"  tol {row.tolerance:8.1e}  {_tag(row)}"
                )
        v = m.verdicts
        lines.append("  verdicts")
        if v["kenmotsu"] is None:
            lines.append("    kenmotsu: not evaluated")
        else:
            lines.append(f"    kenmotsu: {'yes' if v['kenmotsu'] else 'no'}")
        if v["einstein"] is None:
            lines.append("    einstein: not evaluated")
        else:
            fit = v["einstein_fit"]
            lines.append(
                f"    einstein: {'yes' if v['einstein'] else 'no'}"
                f" (a = {fit['a']:.6f}, fit residual {fit['residual']:.3e})"
            )
        if v["eta_einstein_fit"] is not None:
            fit = v["eta_einstein_fit"]
            lines.append(
                f"    modified ricci fit: a = {fit['a']:.6f}, b = {fit['b']:.6f},"
                f" residual {fit['residual']:.3e}"
            )
        if v["mean_scalar"] is not None:
            lines.append(
                f"    scalar curvature: mean {v['mean_scalar']:.6f},"
                f" modified mean {v['mean_modified_scalar']:.6f}"
            )
        if v["scalar_shift_deviation"] is not None:
            lines.append(
                f"    scalar shift: deviation {v['scalar_shift_deviation']:.3e}"
                f" from expected {v['expected_scalar_shift']:.1f}"
            )
    lines.append(f"exit status: {report.exit_status}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kenmotsu",
        description=(
            "Numerically verify the identities of a non-symmetric non-metric "
            "connection on the built-in example charts."
        ),
    )
    parser.add_argument(
        "--manifold",
        action="append",
        metavar="NAME",
        help="example to run (repeatable; default: all in the catalog)",
    )
    parser.add_argument(
        "--suite",
        action="append",
        metavar="NAME",
        help=f"suite to run (repeatable; {', '.join(SUITE_ORDER)}, all; default all)",
    )
    parser.add_argument("--points", type=int, default=20, metavar="N",
                        help="sample points per manifold (default 20)")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    parser.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="IDENTITY=VALUE",
        help="override the tolerance of one identity (repeatable)",
    )
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    parser.add_argument("--list", action="store_true",
                        help="list the example catalog and exit")
    return parser


def _parse_tolerances(pairs: list[str]) -> dict[str, float]:
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise UsageError(f"--tol expects IDENTITY=VALUE, got {pair!r}")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise UsageError(f"bad tolerance value in {pair!r}") from exc
    return out


def _render_catalog() -> str:
    lines = []
    for ex in catalog():
        flags = []
        flags.append("kenmotsu" if ex.expected_kenmotsu else "not kenmotsu")
        flags.append("einstein" if ex.expected_einstein else "not einstein")
        flags.append("weyl flat" if ex.expected_weyl_flat else "weyl nonzero")
        lines.append(f"{ex.name:<12} dim {ex.manifold.dim}  {', '.join(flags)}")
        lines.append(f"{'':<12} {ex.notes}")
    return "\n".join(lines) + "\n"


# 128 + SIGPIPE, what a shell reports for a writer that signal ended
EXIT_BROKEN_PIPE = 141


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = _main(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; Python flushes it again at exit, so point
        # it at devnull first to keep that flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return status


def _main(args: argparse.Namespace) -> int:
    if args.list:
        sys.stdout.write(_render_catalog())
        return 0
    try:
        config = RunConfig(
            manifolds=tuple(args.manifold or [ex.name for ex in catalog()]),
            suites=tuple(args.suite or ["all"]),
            num_points=args.points,
            seed=args.seed,
            tolerances=_parse_tolerances(args.tol),
            output_format="json" if args.json else "text",
        )
        report = run(config)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if config.output_format == "json":
        report.write_json(sys.stdout)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(render_text(report))
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
