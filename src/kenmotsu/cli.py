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
from .report import IDENTITIES, IdentityResidualReport, to_json, write_json
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
        for name in self.tolerances:
            if name not in IDENTITIES:
                raise UsageError(f"unknown identity in --tol: {name!r}")

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

    def tree(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "note": self.note,
            "identities": [r.tree() for r in self.rows],
        }


@dataclass
class ManifoldOutcome:
    name: str
    dim: int
    suites: list[SuiteOutcome] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)

    @property
    def matched(self) -> bool:
        return all(s.matched for s in self.suites)

    def tree(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "suites": [s.tree() for s in self.suites],
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
    """Runs suites for one example, sharing its geometry record and verdicts."""

    def __init__(self, example: NamedExample, config: RunConfig):
        self.example = example
        self.config = config
        try:
            points = example.sample_points(config.num_points, config.seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        # a chart or structure that fails at a sample point makes every
        # suite an error row with this message
        self.error: str | None = None
        try:
            # the geometry of every sample point, computed on first use for
            # all of them at once and read by every suite
            self.geometry = curvature_bundle(
                NonMetricConnection(example.manifold, example.structure), points
            )
            self.axioms = self._stamped(check_almost_contact(self.geometry))
            self.kenmotsu = self._stamped(check_kenmotsu(self.geometry))
        except _NUMERICAL_ERRORS as exc:
            self.error = str(exc)
        self.verdicts: dict = {
            # Kenmotsu's definition presupposes an almost contact metric structure
            "kenmotsu": None if self.error else self.axioms.passed and self.kenmotsu.passed,
            "einstein": None,
            "einstein_fit": None,
            "eta_einstein_fit": None,
            "mean_scalar": None,
            "mean_modified_scalar": None,
            "scalar_shift_deviation": None,
            "expected_scalar_shift": scalar_shift(example.n),
        }

    def _stamped(self, report: IdentityResidualReport) -> IdentityResidualReport:
        """Apply a --tol override; otherwise the row keeps the table's tolerance."""
        if report.identity in self.config.tolerances:
            report.tolerance = float(self.config.tolerances[report.identity])
        return report

    def _gated(self, report: IdentityResidualReport) -> IdentityResidualReport:
        """Set the row's status, expectation and tolerance for this chart."""
        identity = IDENTITIES[report.identity]
        ex = self.example
        if identity.kenmotsu_only and not ex.expected_kenmotsu:
            report.status = "info"
            report.note = "closed form not applicable off the Kenmotsu class"
        if report.status == "ok":
            report.expected = all(getattr(ex, f"expected_{flag}") for flag in identity.expect)
        self._read_verdicts(report)
        return self._stamped(report)

    def _read_verdicts(self, report: IdentityResidualReport) -> None:
        """Take the verdicts a row carries: the joint fits, the scalar means, the scalar shift."""
        extras = report.extras
        if report.identity == "einstein-ricci-fit":
            self.verdicts["einstein"] = extras["joint-residual"] < EINSTEIN_FIT_THRESHOLD
            self.verdicts["einstein_fit"] = {
                "a": extras["joint-a"],
                "residual": extras["joint-residual"],
            }
        elif report.identity == "eta-einstein-fit":
            self.verdicts["eta_einstein_fit"] = {
                "a": extras["joint-a"],
                "b": extras["joint-b"],
                "residual": extras["joint-residual"],
            }
        elif report.identity == "semisymmetry-condition":
            self.verdicts["mean_scalar"] = extras["mean-lc-scalar"]
            self.verdicts["mean_modified_scalar"] = extras["mean-modified-scalar"]
        elif report.identity == "scalar-cross-check" and self.example.expected_kenmotsu:
            self.verdicts["scalar_shift_deviation"] = report.max_residual

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
        out = ManifoldOutcome(name=self.example.name, dim=self.example.manifold.dim)
        for suite in requested:
            out.suites.append(self.run_suite(suite))
        out.verdicts = self.verdicts
        return out


def run(config: RunConfig) -> RunReport:
    suites = resolve_suites(config.suites)
    if not suites:
        raise UsageError("no suites requested")
    examples = []
    for name in config.manifolds:
        try:
            examples.append(by_name(name))
        except KeyError as exc:
            raise UsageError(str(exc.args[0])) from exc
    if not examples:
        raise UsageError("no manifolds requested")
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
        if not (out[name] > 0 and math.isfinite(out[name])):
            raise UsageError(f"tolerance must be a positive finite number in {pair!r}")
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
