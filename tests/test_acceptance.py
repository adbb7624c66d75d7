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
from kenmotsu.report import IDENTITIES

N_POINTS = 20
SEED = 0
KENMOTSU_NAMES = ("h3", "h5", "ne5")


def _gate(row) -> float:
    """The gate of the row's identity, as the identity table sets it."""
    return IDENTITIES[row.identity].tolerance


def _verdict(label: str, ok: bool, detail: str) -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance] {label:<28} {tag}  {detail}")
    return ok


@pytest.fixture(scope="module")
def records():
    """Each catalog chart's geometry record at its sample points."""
    return {
        ex.name: CurvatureBundle(ex.manifold, ex.structure, ex.sample_points(N_POINTS, SEED))
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
    reps = [check_almost_contact(records[name]) for name in KENMOTSU_NAMES]
    worst = max(rep.max_residual for rep in reps)
    ok = all(rep.max_residual < _gate(rep) for rep in reps)
    assert _verdict("structure axioms", ok, f"worst {worst:.2e}")


def test_02_kenmotsu_condition(records):
    ok = True
    parts = []
    for name in KENMOTSU_NAMES:
        rep = check_kenmotsu(records[name])
        ok = ok and rep.max_residual < _gate(rep)
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
        ok = ok and all(r.max_residual < _gate(r) for r in reports)
        parts.append(f"{name} {worst:.1e}")
    assert _verdict("curvature identities", ok, ", ".join(parts))


def test_04_curvature_cross_check(cross_reports):
    ok = True
    parts = []
    for name in KENMOTSU_NAMES:
        reports = [cross_reports[name][key] for key in ("riemann-cross-check", "ricci-cross-check")]
        worst = max(r.max_residual for r in reports)
        ok = ok and all(r.max_residual < _gate(r) for r in reports)
        parts.append(f"{name} {worst:.1e}")
    assert _verdict("curvature cross-check", ok, ", ".join(parts))


def test_05_connection_invariants(records):
    ok = True
    worst_torsion = 0.0
    worst_rest = 0.0
    for record in records.values():
        rep = check_torsion(record)
        worst_torsion = max(worst_torsion, rep.max_residual)
        ok = ok and rep.max_residual < _gate(rep)
    for name in KENMOTSU_NAMES:
        for check in (check_nonmetricity, check_reeb_transport, check_deformation_form):
            rep = check(records[name])
            worst_rest = max(worst_rest, rep.max_residual)
            ok = ok and rep.max_residual < _gate(rep)
    assert _verdict(
        "connection invariants",
        ok,
        f"torsion {worst_torsion:.1e}, "
        f"non-metricity/transport/deformation {worst_rest:.1e}",
    )


def test_06_contraction_consistency(cross_reports, semisymmetry, records):
    ok = True
    parts = []
    for name in KENMOTSU_NAMES:
        scalar = cross_reports[name]["scalar-cross-check"]
        symmetry = cross_reports[name]["ricci-symmetry"]
        ok = ok and all(r.max_residual < _gate(r) for r in (scalar, symmetry))
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
        ok = ok and rep.max_residual < _gate(rep) and contrast > 0.5
        parts.append(f"{name} {rep.max_residual:.1e} (contrast {contrast:.2f})")
    assert _verdict("reeb degeneracy", ok, ", ".join(parts))


def test_08_derivation_identity(records):
    ok = True
    parts = []
    for name in KENMOTSU_NAMES:
        rep = check_derivation_identity(records[name])
        ok = ok and rep.max_residual < _gate(rep)
        parts.append(f"{name} {rep.max_residual:.1e}")
    assert _verdict("derivation identity", ok, ", ".join(parts))


def test_09_semisymmetry_forces_einstein(semisymmetry, records):
    ok = True
    parts = []
    for name in ("h3", "h5"):
        n = records[name].manifold.n
        rows = semisymmetry[name]
        condition = rows["semisymmetry-condition"]
        fit, modified = rows["einstein-ricci-fit"].extras, rows["eta-einstein-fit"].extras
        fit_tol = _gate(rows["einstein-ricci-fit"])
        modified_tol = _gate(rows["eta-einstein-fit"])
        scalar = condition.extras["mean-lc-scalar"]
        modified_scalar = condition.extras["mean-modified-scalar"]
        checks = (
            condition.max_residual < _gate(condition),
            abs(fit["joint-a"] + 2 * n) < fit_tol and fit["joint-residual"] < fit_tol,
            abs(modified["joint-a"] - 2) < modified_tol
            and abs(modified["joint-b"] + 2) < modified_tol
            and modified["joint-residual"] < modified_tol,
            abs(scalar + 2 * n * (2 * n + 1)) < _gate(rows["scalar-curvature-constant"]),
            abs(modified_scalar - 4 * n) < _gate(rows["modified-scalar-constant"]),
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
        ok = ok and vanishing.max_residual < _gate(vanishing)
    parts.append(f"h3/h5 flat {worst_flat:.1e}")
    traceless, vanishing, metric_q = check_weyl(records["ne5"])
    ok = ok and all(r.max_residual < _gate(r) for r in (traceless, metric_q))
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
    ok = ok and degenerate < _gate(comm)
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
