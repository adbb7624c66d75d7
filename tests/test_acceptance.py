"""End-to-end acceptance gate.

Each test covers one headline criterion, evaluates it over 20 seeded
sample points per example chart at its pinned tolerance, and prints a
single verdict line.  Run ``pytest tests/test_acceptance.py -v -s`` to
see the lines as they print; without ``-s`` pytest shows them only for
failing criteria.
"""

import json

import numpy as np
import pytest

from kenmotsu import (
    CurvatureBundle,
    DifferentiationConfig,
    catalog,
    check_almost_contact,
    check_curvature_identities,
    check_curvature_relation,
    check_deformation_form,
    check_derivation_identity,
    check_kenmotsu,
    check_nonmetricity,
    check_reeb_curvature_degeneracy,
    check_reeb_transport,
    check_semisymmetry_condition,
    check_torsion,
    check_weyl,
    check_weyl_commutation,
)
from kenmotsu.cli import main

CFG = DifferentiationConfig()
N_POINTS = 20
SEED = 0
KENMOTSU_NAMES = ("h3", "h5", "ne5")
# double finite-difference passes on the curved-coefficient chart ne5 get
# one extra decade of slack; the warped charts hold the tight tolerance
FD_TOL = {"h3": 1e-5, "h5": 1e-5, "ne5": 1e-4}


def _verdict(label: str, ok: bool, detail: str) -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance] {label:<28} {tag}  {detail}")
    return ok


@pytest.fixture(scope="module")
def records():
    """Each catalog chart's geometry record at its sample points."""
    return {
        ex.name: CurvatureBundle(ex.manifold, ex.structure, ex.sample_points(N_POINTS, SEED), CFG)
        for ex in catalog()
    }


@pytest.fixture(scope="module")
def cross_reports(records):
    out = {}
    for name in KENMOTSU_NAMES:
        reports = check_curvature_relation(records[name])
        out[name] = {r.identity: r for r in reports}
    return out


@pytest.fixture(scope="module")
def semisymmetry(records):
    return {
        name: {row.identity: row for row in check_semisymmetry_condition(records[name])}
        for name in KENMOTSU_NAMES
    }


def test_01_structure_axioms(records):
    worst = 0.0
    for name in KENMOTSU_NAMES:
        rep = check_almost_contact(records[name])
        worst = max(worst, rep.max_residual)
    ok = worst < 1e-10
    assert _verdict("structure axioms", ok, f"worst {worst:.2e}, tol 1e-10")


def test_02_kenmotsu_condition(records):
    ok = True
    parts = []
    for name in KENMOTSU_NAMES:
        rep = check_kenmotsu(records[name])
        ok = ok and rep.max_residual < FD_TOL[name]
        parts.append(f"{name} {rep.max_residual:.1e}")
    control = check_kenmotsu(records["euclidean3"])
    ok = ok and control.max_residual >= 0.5
    parts.append(f"control {control.max_residual:.2f} (>= 0.5)")
    assert _verdict("kenmotsu condition", ok, ", ".join(parts))


def test_03_curvature_identities(records):
    ok = True
    parts = []
    for name in KENMOTSU_NAMES:
        reports = check_curvature_identities(records[name])
        worst = max(r.max_residual for r in reports)
        ok = ok and worst < FD_TOL[name]
        parts.append(f"{name} {worst:.1e}")
    assert _verdict("curvature identities", ok, ", ".join(parts))


def test_04_curvature_cross_check(cross_reports):
    ok = True
    parts = []
    for name in KENMOTSU_NAMES:
        riem = cross_reports[name]["riemann-cross-check"].max_residual
        ric = cross_reports[name]["ricci-cross-check"].max_residual
        worst = max(riem, ric)
        ok = ok and worst < FD_TOL[name]
        parts.append(f"{name} {worst:.1e}")
    assert _verdict("curvature cross-check", ok, ", ".join(parts))


def test_05_connection_invariants(records):
    ok = True
    worst_torsion = 0.0
    worst_rest = 0.0
    for record in records.values():
        rep = check_torsion(record)
        worst_torsion = max(worst_torsion, rep.max_residual)
    ok = ok and worst_torsion < 1e-10
    for name in KENMOTSU_NAMES:
        for check in (check_nonmetricity, check_reeb_transport, check_deformation_form):
            rep = check(records[name])
            worst_rest = max(worst_rest, rep.max_residual)
    ok = ok and worst_rest < 1e-5
    assert _verdict(
        "connection invariants",
        ok,
        f"torsion {worst_torsion:.1e} (tol 1e-10), "
        f"non-metricity/transport/deformation {worst_rest:.1e} (tol 1e-5)",
    )


def test_06_contraction_consistency(cross_reports, semisymmetry, records):
    ok = True
    parts = []
    for name in KENMOTSU_NAMES:
        scalar = cross_reports[name]["scalar-cross-check"]
        symmetry = cross_reports[name]["ricci-symmetry"]
        worst = max(scalar.max_residual, symmetry.max_residual)
        ok = ok and worst < 1e-5
        means = semisymmetry[name]["semisymmetry-condition"].extras
        shift = means["mean-modified-scalar"] - means["mean-lc-scalar"]
        want = records[name].manifold.n
        want = 2 * want * (2 * want + 3)
        parts.append(f"{name} shift {shift:.4f} (expect {want})")
    assert _verdict("scalar shift", ok, ", ".join(parts))


def test_07_reeb_curvature_degeneracy(records):
    ok = True
    parts = []
    for name in KENMOTSU_NAMES:
        rep = check_reeb_curvature_degeneracy(records[name])
        contrast = rep.extras["levi-civita-contrast"]
        ok = ok and rep.max_residual < FD_TOL[name] and contrast > 0.5
        parts.append(f"{name} {rep.max_residual:.1e} (contrast {contrast:.2f})")
    assert _verdict("reeb degeneracy", ok, ", ".join(parts))


def test_08_derivation_identity(records):
    ok = True
    parts = []
    for name in KENMOTSU_NAMES:
        rep = check_derivation_identity(records[name])
        ok = ok and rep.max_residual < 1e-4
        parts.append(f"{name} {rep.max_residual:.1e}")
    assert _verdict("derivation identity", ok, ", ".join(parts) + ", tol 1e-4")


def test_09_semisymmetry_forces_einstein(semisymmetry, records):
    ok = True
    parts = []
    for name in ("h3", "h5"):
        n = records[name].manifold.n
        rows = semisymmetry[name]
        condition = rows["semisymmetry-condition"]
        fit, modified = rows["einstein-ricci-fit"].extras, rows["eta-einstein-fit"].extras
        scalar = condition.extras["mean-lc-scalar"]
        modified_scalar = condition.extras["mean-modified-scalar"]
        checks = (
            condition.max_residual < 1e-5,
            abs(fit["joint-a"] + 2 * n) < 1e-4 and fit["joint-residual"] < 1e-4,
            abs(modified["joint-a"] - 2) < 1e-4
            and abs(modified["joint-b"] + 2) < 1e-4
            and modified["joint-residual"] < 1e-4,
            abs(scalar + 2 * n * (2 * n + 1)) < 1e-4,
            abs(modified_scalar - 4 * n) < 1e-4,
        )
        ok = ok and all(checks)
        parts.append(
            f"{name}: cond {condition.max_residual:.1e}, a {fit['joint-a']:.4f},"
            f" r {scalar:.4f}, r~ {modified_scalar:.4f}"
        )
    assert _verdict("semisymmetry chain", ok, "; ".join(parts))


def test_10_condition_fails_off_einstein(semisymmetry):
    rows = semisymmetry["ne5"]
    condition = rows["semisymmetry-condition"]
    hits = int(np.sum(condition.residuals > 0.1))
    residual = rows["einstein-ricci-fit"].extras["joint-residual"]
    ok = hits >= 15 and residual > 1e-2
    assert _verdict(
        "ne5 non-einstein control",
        ok,
        f"condition > 0.1 at {hits}/{len(condition.residuals)} points,"
        f" fit residual {residual:.2f}",
    )


def test_11_weyl_behaviour(records):
    ok = True
    parts = []
    worst_flat = 0.0
    for name in ("h3", "h5"):
        _, vanishing, _ = check_weyl(records[name])
        worst_flat = max(worst_flat, vanishing.max_residual)
    ok = ok and worst_flat < 1e-5
    parts.append(f"h3/h5 flat {worst_flat:.1e}")
    traceless, vanishing, metric_q = check_weyl(records["ne5"])
    ok = ok and traceless.max_residual < 1e-5 and metric_q.max_residual < 1e-12
    parts.append(
        f"ne5 traceless {traceless.max_residual:.1e}"
        f" (weyl magnitude {vanishing.max_residual:.2f})"
    )
    comm = check_weyl_commutation(records["h5"])
    degenerate = max(
        comm.extras["commutator"],
        comm.extras["tachibana-riemann"],
        comm.extras["tachibana-weyl"],
    )
    ok = ok and degenerate < 1e-5
    parts.append(f"h5 commutation {degenerate:.1e}")
    assert _verdict("weyl behaviour", ok, ", ".join(parts))


def test_12_cli_determinism(capsys):
    argv = ["--manifold", "h3", "--manifold", "ne5", "--points", "6",
            "--seed", "1", "--json"]
    code_a = main(argv)
    first = capsys.readouterr().out
    code_b = main(argv)
    second = capsys.readouterr().out
    ok = code_a == 0 and code_b == 0 and first == second and first
    ok = bool(ok) and json.loads(first)["exit_status"] == 0
    assert _verdict(
        "cli determinism",
        ok,
        f"{len(first)} bytes, identical across runs, exit 0",
    )
