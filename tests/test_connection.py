import dataclasses
import math

import numpy as np
import pytest

from kenmotsu import (
    DifferentiationConfig,
    DomainError,
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
from kenmotsu.structure import _kenmotsu_residuals

CFG = DifferentiationConfig()


def connection_for(name):
    ex = by_name(name)
    return ex, NonMetricConnection(ex.manifold, ex.structure)


def record(name, count, seed):
    """The geometry record of a catalog chart at its sample points."""
    ex, conn = connection_for(name)
    return curvature_bundle(conn, ex.sample_points(count, seed=seed), CFG)


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
    gamma = conn.coefficients_at(p, CFG)
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
    # Levi-Civita part and g(xi, .) = eta, so the control passes as well
    report = check_nonmetricity(record(name, 6, seed=2))
    assert report.passed
    assert report.max_residual < 1e-9
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
    # beta - 2g and nabla eta - (g - eta (x) eta) are one tensor, summed in
    # another order
    geometry = record(name, 6, seed=4)
    eta_gradient = _kenmotsu_residuals(geometry)["eta-gradient"]
    residuals = check_deformation_form(geometry).residuals
    np.testing.assert_allclose(residuals, eta_gradient, rtol=0, atol=1e-15)


def test_curvature_bundle_h3_values():
    ex, conn = connection_for("h3")
    p = ex.sample_points(1, seed=5)[0]
    bundle = curvature_bundle(conn, p, CFG)  # one point is a batch of one
    for key in ("riemann", "ricci", "scalar", "ricci-symmetry"):
        assert bundle.cross[key].shape == (1,)
        assert bundle.cross[key][0] < 1e-9, key
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


@pytest.mark.parametrize("partials", ["second", "first", "none"])
def test_curvature_pass_needs_a_second_step_only_without_partials(partials):
    # 1.5 steps inside the chart: every stencil reaches one step out, and
    # only a chart without metric partials differences its metric a second
    # step further
    ex = by_name("h3")
    manifold = dataclasses.replace(ex.manifold, metric_second_partials=None)
    if partials == "second":
        manifold = ex.manifold
    elif partials == "none":
        manifold = dataclasses.replace(manifold, metric_partials=None)
    conn = NonMetricConnection(manifold, ex.structure)
    bundle = curvature_bundle(conn, [0.0, 0.0, 1.0 - 1.5 * CFG.step], CFG)
    assert bundle.deta.shape == (1, 3, 3)
    if partials == "none":
        with pytest.raises(DomainError, match=r"margin 0\.0002"):
            bundle.lc_riemann
    else:
        assert abs(bundle.lc_scalar[0] + 6.0) < 1e-6


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
