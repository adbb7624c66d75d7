import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kenmotsu as k
import kenmotsu.cli as cli
from kenmotsu import AlmostContactStructure, by_name
from kenmotsu.catalog import NamedExample
from kenmotsu.cli import SUITE_ORDER, RunConfig, UsageError, main, resolve_suites, run
from kenmotsu.report import IDENTITIES


def test_list_prints_catalog(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("euclidean3", "h3", "h5", "ne5"):
        assert name in out


def test_unknown_manifold_is_usage_error(capsys):
    assert main(["--manifold", "nope"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_suite_is_usage_error(capsys):
    assert main(["--manifold", "h3", "--suite", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag",
    [
        "garbage",
        "kenmotsu-condition=abc",
        "kenmotsu-condition=-1e-6",
        "kenmotsu-condition=inf",
        "kenmotsu-condition=nan",
        "unknown-identity=1e-5",
    ],
)
def test_bad_tolerance_flags(flag, capsys):
    assert main(["--manifold", "h3", "--suite", "axioms", "--tol", flag]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0])
def test_run_config_refuses_a_tolerance_that_is_not_positive_and_finite(value):
    # the library's entry point checks what --tol checks: a NaN once failed
    # every row it gated and went into the JSON config, and inf passed them all
    with pytest.raises(UsageError, match="positive finite"):
        RunConfig(manifolds=("h3",), suites=("axioms",), tolerances={"irregularity": value})


@pytest.mark.parametrize("step", ["0", "-1e-4", "nan", "inf"])
def test_bad_step_is_usage_error(step, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--manifold", "h3", "--suite", "kenmotsu", f"--step={step}"])
    assert exit_.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["--step", "1e-4"], ["--step", "5e-324"], ["--no-richardson"]],
    ids=["step", "subnormal-step", "no-richardson"],
)
def test_removed_flags_are_usage_errors(argv, capsys):
    # no finite difference is left to tune; a step of 5e-324 once underflowed
    # to a wrong verdict
    with pytest.raises(SystemExit) as exit_:
        main(["--manifold", "h3", *argv])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"kenmotsu: error: unrecognized arguments: {' '.join(argv)}"
    ]


def test_removed_flag_exits_2_without_a_traceback():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "kenmotsu", "--step", "5e-324"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("error:") == 1


def test_a_reader_closing_the_pipe_early_gets_the_broken_pipe_status_and_no_traceback():
    # as `kenmotsu --json | head -c 10`: the default report (about 600 kB)
    # outgrows the pipe's buffer, so the CLI is still writing when the
    # reader closes its end
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    with subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "kenmotsu", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        status = proc.wait(timeout=120)
    assert head == b'{\n  "confi'
    assert status == cli.EXIT_BROKEN_PIPE
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == ""


def test_every_chart_matches_on_the_default_run(capsys):
    # every row keeps its table gate on every chart, ne5's curvature rows
    # included
    assert main([]) == 0
    assert capsys.readouterr().out.endswith("exit status: 0\n")


@pytest.mark.parametrize("seed", ["-1", "-1000"])
def test_negative_seed_is_usage_error(seed, capsys):
    assert main(["--manifold", "h3", "--suite", "axioms", f"--seed={seed}"]) == 2
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer\n"


def test_nonpositive_points_rejected(capsys):
    assert main(["--manifold", "h3", "--points", "0"]) == 2
    capsys.readouterr()


def test_points_beyond_the_sampler_limit_are_usage_errors(capsys):
    # the sampler's one getrandbits call takes a C int; both counts are
    # refused before anything is allocated, the CLI's by its memory budget
    limit = (2**31 - 1) // 64
    assert main(["--points", str(10**12)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --points {10**12} would take about") and err.count("\n") == 1
    with pytest.raises(ValueError, match=re.escape(f"in [1, {limit}], got {10**12} * 3")):
        by_name("h3").sample_points(10**12, seed=0)
    with pytest.raises(ValueError, match=re.escape(f"in [1, {limit}], got 7000000 * 5")):
        by_name("h5").sample_points(7_000_000, seed=0)


class _Sampled(Exception):
    """Raised in place of sampling: the run got past its memory check."""


@pytest.mark.parametrize(
    "argv, refused",
    [
        (["--manifold", "h5", "--points", "6710886"], True),
        (["--manifold", "h3", "--manifold", "h5", "--points", "43000"], True),
        (["--manifold", "h5", "--points", "42000"], False),
        (["--manifold", "h5", "--suite", "axioms", "--suite", "kenmotsu", "--points", "300000"],
         False),
        (["--manifold", "h5", "--suite", "kenmotsu", "--points", "400000"], True),
    ],
    ids=["sampler-limit", "largest-chart", "within-budget", "first-order", "first-order-over"],
)
def test_a_run_beyond_the_memory_budget_is_refused_before_sampling(argv, refused, monkeypatch,
                                                                   capsys):
    # sampling raises, so a run that is not refused stops there and never
    # allocates for its points
    def sample_points(self, count, seed):
        raise _Sampled

    monkeypatch.setattr(NamedExample, "sample_points", sample_points)
    if not refused:
        with pytest.raises(_Sampled):
            main(argv)
        return
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "MiB budget" in err


def test_resolve_suites_order():
    assert resolve_suites(["weyl", "axioms"]) == ("axioms", "weyl")
    assert resolve_suites(["all"]) == SUITE_ORDER
    with pytest.raises(UsageError):
        resolve_suites(["bogus"])


def test_a_repeated_manifold_runs_once_in_first_seen_order(capsys):
    # as a repeated --suite does; the config keeps the flags as given
    argv = ["--manifold", "h5", "--manifold", "h3", "--manifold", "h5",
            "--suite", "axioms", "--points", "2", "--json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [m["name"] for m in doc["manifolds"]] == ["h5", "h3"]
    assert doc["config"]["manifolds"] == ["h5", "h3", "h5"]


@pytest.mark.parametrize("chart", ["euclidean3", "ne5"])
def test_verdicts_are_read_from_the_gated_rows(chart):
    # gating a row again changes nothing, and the runner keeps no verdicts of
    # its own: the same rows give the same verdicts, and a suite that did not
    # run leaves its verdicts None
    config = RunConfig(manifolds=(chart,), suites=SUITE_ORDER, num_points=3,
                       tolerances={"scalar-cross-check": 1e-3})
    runner = cli._ManifoldRunner(by_name(chart), config)
    outcome = runner.outcome(SUITE_ORDER)
    rows = [r for s in outcome.suites for r in s.rows]
    gates = [(r.status, r.note, r.expected, r.tolerance) for r in rows]
    assert [(r.status, r.note, r.expected, r.tolerance) for r in map(runner._gated, rows)] == gates
    assert not hasattr(runner, "verdicts")
    assert runner._verdicts(outcome.suites) == outcome.verdicts
    assert outcome.verdicts["einstein"] is not None
    without = [s for s in outcome.suites if s.name != "semisymmetry"]
    verdicts = runner._verdicts(without)
    assert verdicts["kenmotsu"] == outcome.verdicts["kenmotsu"]
    assert [k for k, v in verdicts.items() if v is None] == [
        "einstein", "einstein_fit", "eta_einstein_fit", "mean_scalar", "mean_modified_scalar",
        *(["scalar_shift_deviation"] if chart == "euclidean3" else []),
    ]


def test_run_requires_suites():
    with pytest.raises(UsageError):
        run(RunConfig(manifolds=("h3",), suites=()))


def test_control_failure_counts_as_match(capsys):
    code = main(["--manifold", "euclidean3", "--suite", "kenmotsu"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL (expected)" in out
    assert "kenmotsu: no" in out
    assert "exit status: 0" in out


# each text tag, as the (status, passed, matched) of its JSON row
TAGS = {
    "PASS": ("ok", True, True),
    "PASS (unexpected)": ("ok", True, False),
    "FAIL": ("ok", False, False),
    "FAIL (expected)": ("ok", False, True),
    "INFO": ("info", True, True),
    "N/A": ("not-applicable", True, True),
}


def test_text_tags_agree_with_the_json_rows(capsys):
    # a loose Kenmotsu gate lets the euclidean3 control pass it unexpectedly,
    # and an unreachable irregularity gate fails ne5, which should pass it
    argv = ["--manifold", "euclidean3", "--manifold", "h3", "--manifold", "ne5",
            "--points", "3", "--tol", "kenmotsu-condition=10", "--tol", "irregularity=1e-30"]
    assert main(argv) == 1
    lines = [line.split(None, 5) for line in capsys.readouterr().out.splitlines()
             if line.startswith("    ") and "  tol " in line]
    assert main([*argv, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    rows = [r for m in doc["manifolds"] for s in m["suites"] for r in s["identities"]]
    assert len(lines) == len(rows)
    for (identity, *_, tag), r in zip(lines, rows):
        assert identity == r["identity"]
        assert TAGS[tag] == (r["status"], r["passed"], r["matched"]), (identity, tag)
    assert {line[-1] for line in lines} == set(TAGS)


def test_ne5_semisymmetry_identity_holds_condition_fails():
    report = run(
        RunConfig(manifolds=("ne5",), suites=("semisymmetry",), num_points=6)
    )
    assert report.exit_status == 0
    (outcome,) = report.manifolds
    (suite,) = outcome.suites
    rows = {r.identity: r for r in suite.rows}
    derivation = rows["derivation-identity"]
    assert derivation.passed and derivation.expected is True
    condition = rows["semisymmetry-condition"]
    assert not condition.passed
    assert condition.expected is False and condition.matched
    assert outcome.verdicts["einstein"] is False
    assert outcome.verdicts["einstein_fit"]["residual"] > 1e-2


def test_json_schema_fields(capsys):
    code = main(
        ["--manifold", "h3", "--suite", "axioms", "--suite", "irregularity",
         "--points", "4", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"config", "manifolds", "exit_status"}
    assert set(doc["config"]) == {
        "manifolds", "suites", "num_points", "seed", "tolerances", "output_format",
    }
    (mdoc,) = doc["manifolds"]
    assert set(mdoc) == {"name", "dim", "suites", "verdicts"}
    assert set(mdoc["verdicts"]) == {
        "kenmotsu", "einstein", "einstein_fit", "eta_einstein_fit",
        "mean_scalar", "mean_modified_scalar", "scalar_shift_deviation",
        "expected_scalar_shift",
    }
    assert [s["name"] for s in mdoc["suites"]] == ["axioms", "irregularity"]
    for sdoc in mdoc["suites"]:
        assert set(sdoc) == {"name", "status", "note", "identities"}
        for row in sdoc["identities"]:
            assert set(row) == {
                "identity", "tolerance", "max_residual", "passed", "status",
                "note", "extras", "points", "expected", "matched",
            }
            for pt in row["points"]:
                assert set(pt) == {"point", "residual"}
                assert len(pt["point"]) == mdoc["dim"]


def test_scalar_means_carry_the_same_key_on_every_row():
    config = RunConfig(manifolds=("h5",), suites=("connection", "semisymmetry"), num_points=3)
    (outcome,) = run(config).manifolds
    rows = {r.identity: r for s in outcome.suites for r in s.rows}
    cross, condition = rows["scalar-cross-check"], rows["semisymmetry-condition"]
    # the means and the expected shift are reported once, on the condition
    # row and in the verdicts
    assert cross.extras == {}
    assert "mean-scalar" not in condition.extras
    assert condition.extras["mean-lc-scalar"] == pytest.approx(-20.0)
    assert condition.extras["mean-modified-scalar"] == pytest.approx(8.0)
    assert outcome.verdicts["mean_scalar"] == condition.extras["mean-lc-scalar"]
    assert outcome.verdicts["mean_modified_scalar"] == condition.extras["mean-modified-scalar"]
    assert outcome.verdicts["expected_scalar_shift"] == 2 * 2 * (2 * 2 + 3)


def test_json_output_is_deterministic(capsys):
    argv = ["--manifold", "h3", "--points", "5", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["exit_status"] == 0


@pytest.mark.parametrize("argv", [[], ["--points", "137", "--seed", "1"]])
def test_json_cli_streams_the_report_text(argv, monkeypatch, capsys):
    config = RunConfig(
        manifolds=tuple(ex.name for ex in k.catalog()),
        suites=("all",),
        num_points=137 if argv else 20,
        seed=1 if argv else 0,
        output_format="json",
    )
    expected = run(config).to_json() + "\n"

    def whole_text(self):
        raise AssertionError("the CLI must not build the whole report text")

    monkeypatch.setattr(cli.RunReport, "to_json", whole_text)
    assert main(["--json", *argv]) == 0
    assert capsys.readouterr().out == expected


def test_cli_run_never_imports_numpy_random():
    script = (
        "import sys\n"
        "from kenmotsu import cli\n"
        "status = cli.main(['--json', '--points', '2'])\n"
        "print(status, 'numpy.random' in sys.modules, file=sys.stderr)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )
    assert proc.stderr.split() == ["0", "False"], proc.stderr


def test_tolerance_override_lands_in_report(capsys):
    code = main(
        ["--manifold", "h3", "--suite", "kenmotsu", "--points", "3",
         "--json", "--tol", "kenmotsu-condition=2e-5"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["tolerances"] == {"kenmotsu-condition": 2e-5}
    (row,) = doc["manifolds"][0]["suites"][0]["identities"]
    assert row["tolerance"] == 2e-5


def test_axiom_failure_skips_downstream_suites(monkeypatch):
    base = by_name("euclidean3")
    dim = base.manifold.dim
    broken = NamedExample(
        name="broken",
        manifold=base.manifold,
        structure=AlmostContactStructure(
            phi=lambda p: np.zeros((dim, dim)),
            xi=base.structure.xi,
            eta=base.structure.eta,
        ),
        expected_kenmotsu=False,
        expected_einstein=True,
        expected_weyl_flat=True,
        sample_box=base.sample_box,
        notes="axiom control",
    )
    real_by_name = cli.by_name
    monkeypatch.setattr(
        cli, "by_name", lambda name: broken if name == "broken" else real_by_name(name)
    )
    report = run(RunConfig(manifolds=("broken",), suites=("all",), num_points=3))
    assert report.exit_status == 1
    (outcome,) = report.manifolds
    axioms = outcome.suites[0]
    assert axioms.name == "axioms" and axioms.status == "ran"
    assert not axioms.matched
    for suite in outcome.suites[1:]:
        assert suite.status == "skipped"
        assert "structure axioms" in suite.note
        assert suite.matched  # skipped suites do not add extra failures


def test_kenmotsu_verdict_requires_the_structure_axioms(monkeypatch):
    # h3's Kenmotsu condition reads only xi and eta, so it still holds with
    # phi = 0; without an almost contact metric structure the chart is not
    # Kenmotsu, whatever that condition says
    base = by_name("h3")
    broken = dataclasses.replace(
        base, structure=dataclasses.replace(base.structure, phi=lambda p: np.zeros((3, 3)))
    )
    monkeypatch.setattr(cli, "by_name", lambda name: broken)
    report = run(RunConfig(manifolds=("h3",), suites=("all",), num_points=3))
    (outcome,) = report.manifolds
    assert outcome.suites[0].rows[0].max_residual > 1.0
    assert outcome.suites[1].status == "skipped"
    assert outcome.verdicts["kenmotsu"] is False
    assert "    kenmotsu: no\n" in cli.render_text(report)


def _skewed_h3(monkeypatch, skew: float) -> None:
    """Register ``skewed``: h3 with g_01 raised by ``skew`` (g_10 unchanged)."""
    base = by_name("h3")
    offset = np.zeros((3, 3))
    offset[0, 1] = skew
    example = NamedExample(
        name="skewed",
        manifold=k.ChartManifold(
            dim=3, metric=lambda p: base.manifold.metric(p) + offset, domain=base.manifold.domain
        ),
        structure=base.structure,
        expected_kenmotsu=True,
        expected_einstein=True,
        expected_weyl_flat=True,
        sample_box=base.sample_box,
        notes=f"h3 with a metric asymmetry of {skew}",
    )
    real_by_name = cli.by_name
    monkeypatch.setattr(
        cli, "by_name", lambda name: example if name == "skewed" else real_by_name(name)
    )


class _SkewedPartials(k.ChartManifold):
    """A chart whose d_0 g_01 is raised by 1e-3 after the jets (d_0 g_10 unchanged)."""

    def metric_partials_at(self, points, order=1):
        parts = [np.array(part) for part in super().metric_partials_at(points, order)]
        parts[1][..., 0, 0, 1] += 1e-3
        return parts


def test_partials_not_symmetric_in_the_metric_slots_fail_the_torsion_row(monkeypatch):
    # metric partials d_a g_ij that are not symmetric in (i, j) make the
    # Christoffel symbols asymmetric; the torsion-form row catches that and
    # the run exits 1 with a report
    base = by_name("h3")
    example = NamedExample(
        name="skewed-partials",
        manifold=_SkewedPartials(
            dim=3, metric=base.manifold.metric, domain=base.manifold.domain
        ),
        structure=base.structure,
        expected_kenmotsu=True,
        expected_einstein=True,
        expected_weyl_flat=True,
        sample_box=base.sample_box,
        notes="h3 with d_0 g_01 raised by 1e-3 (d_0 g_10 unchanged)",
    )
    monkeypatch.setattr(cli, "by_name", lambda name: example)
    report = run(RunConfig(manifolds=("skewed-partials",), suites=("all",), num_points=3))
    assert report.exit_status == 1
    (outcome,) = report.manifolds
    assert [s.status for s in outcome.suites] == ["ran"] * len(SUITE_ORDER)
    rows = {r.identity: r for s in outcome.suites for r in s.rows}
    torsion = rows["torsion-form"]
    assert not torsion.matched
    assert torsion.max_residual > 1e-4


def test_slightly_asymmetric_chart_runs_every_suite(monkeypatch):
    # an asymmetry the chart accepts is accepted everywhere downstream: the
    # run ends in a report, not in an exception from the metric pair
    _skewed_h3(monkeypatch, 1e-11)
    report = run(RunConfig(manifolds=("skewed",), suites=("all",), num_points=2))
    (outcome,) = report.manifolds
    assert [s.status for s in outcome.suites] == ["ran"] * len(SUITE_ORDER)


def test_chart_rejected_at_sample_points_gives_error_rows(monkeypatch, capsys):
    # an asymmetry above the gate is rejected while the runner computes the
    # axioms: every suite becomes an error row and the run exits 1 with a
    # report, not with a traceback
    _skewed_h3(monkeypatch, 1e-9)
    report = run(RunConfig(manifolds=("skewed", "h3"), suites=("all",), num_points=2))
    skewed, h3 = report.manifolds
    assert [s.status for s in skewed.suites] == ["error"] * len(SUITE_ORDER)
    assert all("not symmetric" in s.note for s in skewed.suites)
    assert skewed.verdicts["kenmotsu"] is None
    assert [s.status for s in h3.suites] == ["ran"] * len(SUITE_ORDER)
    assert report.exit_status == 1
    assert main(["--manifold", "skewed", "--json", "--points", "2"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["manifolds"][0]["suites"][0]["status"] == "error"
    assert main(["--manifold", "skewed", "--points", "2"]) == 1
    assert "kenmotsu: not evaluated" in capsys.readouterr().out


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "kenmotsu", "--list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "h5" in proc.stdout


def test_console_script_smoke():
    exe = shutil.which("kenmotsu")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "--manifold", "euclidean3", "--suite", "axioms", "--points", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "structure-axioms" in proc.stdout


@pytest.mark.parametrize("chart", ["h3", "h5", "ne5"])
def test_library_defaults_equal_cli_gates(chart):
    # on a Kenmotsu chart the CLI turns no row into INFO: the library's
    # rows at the CLI's sample points are the CLI's rows
    ex = by_name(chart)
    geometry = k.curvature_bundle(
        k.NonMetricConnection(ex.manifold, ex.structure),
        ex.sample_points(2, seed=0),
    )
    library = [
        k.check_almost_contact(geometry),
        k.check_kenmotsu(geometry),
        *k.check_curvature_identities(geometry),
        *(f(geometry) for f in (
            k.check_torsion, k.check_nonmetricity, k.check_reeb_transport,
            k.check_deformation_form,
        )),
        *k.check_curvature_relation(geometry),
        k.check_reeb_curvature_degeneracy(geometry),
        k.check_derivation_identity(geometry),
        *k.check_semisymmetry_condition(geometry),
        *k.check_weyl(geometry),
        k.check_weyl_commutation(geometry),
    ]
    report = run(RunConfig(manifolds=(chart,), suites=("all",), num_points=2))
    cli_rows = [r for suite in report.manifolds[0].suites for r in suite.rows]
    assert [r.identity for r in library] == [r.identity for r in cli_rows]
    for row, cli_row in zip(library, cli_rows):
        # the library leaves a row's expectation unset; the CLI sets it from
        # the table's flags on every row it gates
        assert row.expected is None
        if row.status == "ok":
            flags = IDENTITIES[row.identity].expect
            row.expected = all(getattr(ex, f"expected_{flag}") for flag in flags)
        assert row == cli_row, row.identity


def test_opposite_sign_extra_exactly_where_the_table_asks_for_it():
    names = tuple(ex.name for ex in k.catalog())
    report = run(RunConfig(manifolds=names, suites=("all",), num_points=3))
    rows = [r for m in report.manifolds for s in m.suites for r in s.rows]
    assert {r.identity for r in rows} == set(IDENTITIES)
    for r in rows:
        flagged = IDENTITIES[r.identity].opposite_sign
        assert ("opposite-sign-residual" in r.extras) == flagged, r.identity


def test_rows_come_in_identity_table_order():
    report = run(RunConfig(manifolds=("h5",), suites=("all",), num_points=1))
    rows = [
        (suite.name, r.identity)
        for suite in report.manifolds[0].suites
        for r in suite.rows
    ]
    assert rows == [(i.suite, name) for name, i in IDENTITIES.items()]
