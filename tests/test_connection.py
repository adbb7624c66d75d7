import math

import numpy as np
import pytest
from helpers import heis3

from kenmotsu import (
    NonMetricConnection,
    by_name,
    catalog,
    check_curvature_relation,
    check_deformation_form,
    check_nonmetricity,
    check_reeb_curvature_degeneracy,
    check_reeb_transport,
    check_semisymmetry_condition,
    check_torsion,
    curvature_bundle,
)
from kenmotsu.cli import SUITE_ORDER, RunConfig, _ManifoldRunner
from kenmotsu.structure import _kenmotsu_residuals


def connection_for(name):
    ex = by_name(name)
    return ex, NonMetricConnection(ex.manifold, ex.structure)


def record(name, count, seed):
    """The geometry record of a catalog chart at its sample points."""
    ex, conn = connection_for(name)
    return curvature_bundle(conn, ex.sample_points(count, seed=seed))


def test_coefficients_oracle_h3():
    # hand-built expectation: start from the closed-form Christoffels of the
    # warped chart and subtract eta_j delta^k_i + g_ij xi^k
    ex, conn = connection_for("h3")
    p = np.array([0.1, 0.2, 0.3])
    w = math.exp(0.6)
    lc = np.zeros((3, 3, 3))
    lc[0, 0, 2] = lc[0, 2, 0] = 1.0
    lc[1, 1, 2] = lc[1, 2, 1] = 1.0
    lc[2, 0, 0] = lc[2, 1, 1] = -w
    eta = np.array([0.0, 0.0, 1.0])
    xi = eta
    g = np.diag([w, w, 1.0])
    expected = (
        lc
        - np.einsum("j,ki->kij", eta, np.eye(3))
        - np.einsum("ij,k->kij", g, xi)
    )
    gamma = conn.coefficients_at(p)
    assert np.max(np.abs(gamma - expected)) < 1e-12
    # spot values: the t-derivative direction loses its fiber coefficient,
    # the fiber-fiber coefficient doubles, and the reeb-reeb entry is -2
    assert abs(gamma[0, 0, 2] - 0.0) < 1e-12
    assert abs(gamma[0, 2, 0] - 1.0) < 1e-12
    assert abs(gamma[2, 0, 0] + 2.0 * w) < 1e-12
    assert abs(gamma[2, 2, 2] + 2.0) < 1e-12


@pytest.mark.parametrize("name", ["euclidean3", "h3", "h5", "ne5"])
def test_torsion_form_everywhere(name):
    # torsion is pure coefficient algebra; it holds on the control too
    report = check_torsion(record(name, 6, seed=1))
    assert report.passed
    assert report.max_residual < 1e-12


@pytest.mark.parametrize("name", ["euclidean3", "h3", "h5", "ne5"])
def test_nonmetricity_form_everywhere(name):
    # the metric gradient formula only uses metric compatibility of the
    # Levi-Civita part and g(xi, .) = eta, so the control passes as well;
    # with the jets' exact dg the residual is roundoff
    report = check_nonmetricity(record(name, 6, seed=2))
    assert report.passed
    assert report.max_residual < 1e-14
    assert report.extras["opposite-sign-residual"] > 1.0


@pytest.mark.parametrize("name,holds", [("h3", True), ("h5", True), ("ne5", True), ("euclidean3", False)])
def test_reeb_transport(name, holds):
    report = check_reeb_transport(record(name, 6, seed=3))
    assert report.passed == holds
    if not holds:
        assert report.max_residual >= 1.0


@pytest.mark.parametrize("name,holds", [("h3", True), ("h5", True), ("ne5", True), ("euclidean3", False)])
def test_deformation_form(name, holds):
    report = check_deformation_form(record(name, 6, seed=4))
    assert report.passed == holds
    if not holds:
        assert report.max_residual >= 1.0


@pytest.mark.parametrize("name", [ex.name for ex in catalog()])
def test_deformation_form_restates_the_eta_gradient(name):
    # beta - 2g and nabla eta - (g - eta (x) eta) are one tensor, computed
    # once: the row reads the eta-gradient residual of the Kenmotsu condition
    geometry = record(name, 6, seed=4)
    eta_gradient = _kenmotsu_residuals(geometry)["eta-gradient"]
    residuals = check_deformation_form(geometry).residuals
    np.testing.assert_array_equal(residuals, eta_gradient)


def test_curvature_bundle_h3_values():
    ex, conn = connection_for("h3")
    p = ex.sample_points(1, seed=5)[0]
    bundle = curvature_bundle(conn, p)  # one point is a batch of one
    for report in check_curvature_relation(bundle):
        assert report.residuals.shape == (1,)
        assert report.residuals[0] < 1e-9, report.identity
    # closed-form targets on a constant-curvature chart
    g = bundle.metric.matrix[0]
    eta = ex.structure.eta(p)
    xi = ex.structure.xi(p)
    assert np.max(np.abs(bundle.ricci[0] - (2.0 * g - 2.0 * np.outer(eta, eta)))) < 1e-9
    assert abs(bundle.scalar[0] - 4.0) < 1e-9
    assert abs(bundle.lc_scalar[0] + 6.0) < 1e-9
    operator_target = 2.0 * np.eye(3) - 2.0 * np.outer(xi, eta)
    operator = bundle.metric.inverse @ bundle.ricci
    assert np.max(np.abs(operator[0] - operator_target)) < 1e-9


def _agashe_chafle(lc_gamma, g, eta, xi):
    """G^k_ij = Gamma^k_ij + eta_j delta^k_i, the member (a, b) = (1, 0) of the family

    D = nabla + a eta(Y) X + b g(X, Y) xi, whose (-1, -1) is the paper's.
    """
    return lc_gamma + np.eye(g.shape[-1])[:, :, None] * eta[..., None, None, :]


@pytest.mark.parametrize("name", ["h3", "h5", "ne5"])
def test_another_member_of_the_family_fails_torsion_and_nonmetricity(name, monkeypatch):
    # the semi-symmetric non-metric connection (1, 0) of Agashe and Chafle
    # has torsion -(eta(X) Y - eta(Y) X) and (D_X g)(Y, Z) = -[eta(Y) g(X, Z)
    # + eta(Z) g(X, Y)]; both rows state the paper's (-1, -1) forms
    from kenmotsu import connection

    monkeypatch.setattr(connection, "_modified_coefficients", _agashe_chafle)
    geometry = record(name, 20, seed=2)
    torsion, nonmetricity = check_torsion(geometry), check_nonmetricity(geometry)
    assert not torsion.passed and torsion.max_residual == pytest.approx(2.0)
    assert not nonmetricity.passed and nonmetricity.max_residual > 5.0


@pytest.mark.parametrize("name", ["h3", "h5", "ne5"])
def test_curvature_relation_reports(name):
    geometry = record(name, 6, seed=6)
    reports = check_curvature_relation(geometry)
    by_id = {r.identity: r for r in reports}
    assert set(by_id) == {
        "riemann-cross-check",
        "ricci-cross-check",
        "scalar-cross-check",
        "ricci-symmetry",
    }
    for r in reports:
        assert r.passed, r.identity
        assert r.max_residual < 1e-9
    assert all(not r.extras for r in reports)
    # the scalar means are reported on the semisymmetry condition row
    n = by_name(name).n
    means = check_semisymmetry_condition(geometry)[0].extras
    assert means["mean-modified-scalar"] - means["mean-lc-scalar"] == pytest.approx(
        2 * n * (2 * n + 3), abs=1e-9
    )


def test_curvature_relation_fails_on_control():
    reports = check_curvature_relation(record("euclidean3", 4, seed=6))
    by_id = {r.identity: r for r in reports}
    assert not by_id["riemann-cross-check"].passed
    assert by_id["riemann-cross-check"].max_residual >= 1.0
    assert not by_id["ricci-cross-check"].passed
    assert by_id["ricci-cross-check"].max_residual >= 1.0
    # the scalar shift cancels exactly on a flat chart with a unit reeb
    # field: trace of (3 eta eta - g) vanishes, so this one happens to agree
    assert by_id["scalar-cross-check"].max_residual < 1e-9
    # the direct modified ricci is symmetric here as well
    assert by_id["ricci-symmetry"].max_residual < 1e-9


def test_ricci_symmetry_fails_off_closed_eta():
    # d eta != 0 on the Sasakian heis3, and there the Ricci tensor of D is
    # not symmetric; every catalog chart has d eta = 0
    ex = heis3()
    geometry = curvature_bundle(NonMetricConnection(ex.manifold, ex.structure),
                                ex.sample_points(20, seed=0))
    by_id = {r.identity: r for r in check_curvature_relation(geometry)}
    assert by_id["ricci-symmetry"].max_residual >= 1.0


@pytest.mark.parametrize("name", ["h3", "h5", "ne5"])
def test_reeb_curvature_degeneracy(name):
    report = check_reeb_curvature_degeneracy(record(name, 6, seed=7))
    assert report.passed
    assert report.max_residual < 1e-9
    # the analogous Levi-Civita contraction stays order one
    assert report.extras["levi-civita-contrast"] > 0.9


def test_reeb_curvature_degeneracy_fails_on_control():
    report = check_reeb_curvature_degeneracy(record("euclidean3", 4, seed=7))
    assert not report.passed
    assert report.max_residual >= 1.9


def test_the_record_keeps_only_the_shared_rank4_tensors():
    # after every suite on h5, the record holds the two curvature passes and
    # the two rank-4 tensors that several rows read; a closed form that one
    # row alone compares against is that row's local
    config = RunConfig(manifolds=("h5",), suites=SUITE_ORDER, num_points=4)
    runner = _ManifoldRunner(by_name("h5"), config)
    assert runner.outcome(SUITE_ORDER).matched
    parts = dict(vars(runner.geometry))
    parts.update(parts.pop("_curvature"))
    rank4 = {name for name, part in parts.items() if getattr(part, "ndim", 0) == 5}
    assert rank4 == {"lc_riemann", "riemann", "weyl", "g_wedge_g"}
