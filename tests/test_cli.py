import json
import shutil
import subprocess
import sys

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


@pytest.mark.parametrize("step", ["0", "-1e-4", "nan", "inf"])
def test_bad_step_is_usage_error(step, capsys):
    assert main(["--manifold", "h3", "--suite", "kenmotsu", f"--step={step}"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("seed", ["-1", "-1000"])
def test_negative_seed_is_usage_error(seed, capsys):
    assert main(["--manifold", "h3", "--suite", "axioms", f"--seed={seed}"]) == 2
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer\n"


def test_nonpositive_points_rejected(capsys):
    assert main(["--manifold", "h3", "--points", "0"]) == 2
    capsys.readouterr()


def test_resolve_suites_order():
    assert resolve_suites(["weyl", "axioms"]) == ("axioms", "weyl")
    assert resolve_suites(["all"]) == SUITE_ORDER
    with pytest.raises(UsageError):
        resolve_suites(["bogus"])


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


def test_ne5_semisymmetry_identity_holds_condition_fails():
    report = run(
        RunConfig(manifolds=("ne5",), suites=("semisymmetry",), num_points=6)
    )
    assert report.exit_status == 0
    (outcome,) = report.manifolds
    (suite,) = outcome.suites
    rows = {e.report.identity: e for e in suite.entries}
    derivation = rows["derivation-identity"]
    assert derivation.report.passed and derivation.expected is True
    condition = rows["semisymmetry-condition"]
    assert not condition.report.passed
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
        "manifolds", "suites", "num_points", "seed", "step",
        "richardson", "tolerances", "output_format",
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


def test_json_output_is_deterministic(capsys):
    argv = ["--manifold", "h3", "--points", "5", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["exit_status"] == 0


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


def test_fd_tolerance_scale_widens_ne5_rows():
    report = run(RunConfig(manifolds=("ne5",), suites=("kenmotsu",), num_points=3))
    (row,) = report.manifolds[0].suites[0].entries
    assert row.report.tolerance == pytest.approx(1e-4)
    report = run(RunConfig(manifolds=("h3",), suites=("kenmotsu",), num_points=3))
    (row,) = report.manifolds[0].suites[0].entries
    assert row.report.tolerance == pytest.approx(1e-5)


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


def _skewed_h3(monkeypatch, skew: float) -> None:
    """Register ``skewed``: h3 with g_01 raised by ``skew`` (g_10 unchanged)."""
    base = by_name("h3")

    def skewed(p):
        g = base.manifold.metric(p)
        g[0, 1] += skew
        return g

    example = NamedExample(
        name="skewed",
        manifold=k.ChartManifold(
            dim=3,
            metric=skewed,
            metric_partials=base.manifold.metric_partials,
            domain=base.manifold.domain,
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


def test_library_defaults_equal_cli_gates():
    # h3 has fd_tolerance_scale 1, so every CLI gate is the base tolerance,
    # and as a Kenmotsu chart no row is turned into INFO: the library's
    # rows at the CLI's sample points are the CLI's rows
    ex = by_name("h3")
    geometry = k.curvature_bundle(
        k.NonMetricConnection(ex.manifold, ex.structure),
        ex.sample_points(2, seed=0),
        k.DifferentiationConfig(),
    )
    verdict = k.check_semisymmetry_condition(geometry)
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
        verdict.condition,
        *verdict.companions,
        *k.check_weyl(geometry),
        k.check_weyl_commutation(geometry),
    ]
    report = run(RunConfig(manifolds=("h3",), suites=("all",), num_points=2))
    cli_rows = [e.report for suite in report.manifolds[0].suites for e in suite.entries]
    assert [r.identity for r in library] == [r.identity for r in cli_rows]
    for row, cli_row in zip(library, cli_rows):
        assert row == cli_row, row.identity


def test_rows_come_in_identity_table_order():
    report = run(RunConfig(manifolds=("h5",), suites=("all",), num_points=1))
    rows = [
        (suite.name, e.report.identity)
        for suite in report.manifolds[0].suites
        for e in suite.entries
    ]
    assert rows == [(i.suite, name) for name, i in IDENTITIES.items()]
