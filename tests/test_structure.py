import numpy as np
import pytest

from kenmotsu import (
    AlmostContactStructure,
    CurvatureBundle,
    StructureError,
    by_name,
    check_almost_contact,
    check_curvature_identities,
    check_kenmotsu,
    check_torsion,
    check_weyl,
    jets,
)


def record(ex, points, structure=None):
    """The geometry record of a catalog chart, with its own structure or ``structure``."""
    return CurvatureBundle(ex.manifold, structure or ex.structure, points)


@pytest.mark.parametrize("name", ["euclidean3", "h3", "h5", "ne5"])
def test_axioms_hold_on_catalog(name):
    ex = by_name(name)
    points = ex.sample_points(10, seed=1)
    report = check_almost_contact(record(ex, points))
    assert report.passed
    assert report.max_residual < 1e-12
    # consequences come along for free
    assert report.extras["reeb-flat"] < 1e-12
    assert report.extras["phi-kills-reeb"] < 1e-12
    assert report.extras["eta-kills-phi"] < 1e-12


def test_axioms_fail_for_broken_phi():
    ex = by_name("h3")
    broken = AlmostContactStructure(
        phi=lambda p: np.zeros((3, 3)), xi=ex.structure.xi, eta=ex.structure.eta
    )
    report = check_almost_contact(record(ex, ex.sample_points(3, seed=2), broken))
    assert not report.passed
    res = check_almost_contact(record(ex, np.array([0.1, 0.2, 0.0]), broken)).extras
    assert res["phi-square"] >= 1.0  # phi^2 + I - xi eta = I - xi eta off the reeb axis
    assert res["reeb-pairing"] < 1e-15  # xi and eta untouched


def test_structure_field_shape_errors():
    ex = by_name("h3")
    bad = AlmostContactStructure(
        phi=lambda p: np.zeros((2, 2)), xi=ex.structure.xi, eta=ex.structure.eta
    )
    with pytest.raises(StructureError):
        bad.phi_at(3, np.zeros(3))
    with pytest.raises(StructureError):
        ex.structure.xi_at(5, np.zeros(3))


@pytest.mark.parametrize("name", ["h3", "h5", "ne5"])
def test_kenmotsu_condition_holds(name):
    ex = by_name(name)
    report = check_kenmotsu(record(ex, ex.sample_points(8, seed=3)))
    assert report.passed
    assert report.max_residual < 1e-9
    assert report.extras["reeb-gradient"] < 1e-9
    assert report.extras["eta-gradient"] < 1e-9


def test_kenmotsu_condition_fails_on_flat_control():
    ex = by_name("euclidean3")
    report = check_kenmotsu(record(ex, ex.sample_points(8, seed=3)))
    assert not report.passed
    # gradient of the reeb field is zero on flat space, the target is
    # I - eta (x) xi whose largest entry is 1
    assert report.max_residual >= 0.5
    res = check_kenmotsu(record(ex, np.zeros(3))).extras
    assert abs(res["reeb-gradient"] - 1.0) < 1e-12


@pytest.mark.parametrize("name", ["h3", "h5", "ne5"])
def test_curvature_identities_hold(name):
    ex = by_name(name)
    reports = check_curvature_identities(record(ex, ex.sample_points(6, seed=4)))
    names = [r.identity for r in reports]
    assert names == [
        "curvature-eta-component",
        "curvature-on-reeb",
        "curvature-from-reeb",
        "ricci-on-reeb",
    ]
    for report in reports:
        assert report.passed, report.identity
        assert report.max_residual < 1e-9
        # a flipped sign convention would drive this near zero instead
        assert report.extras["opposite-sign-residual"] > 0.5


def test_curvature_identities_fail_on_flat_control():
    ex = by_name("euclidean3")
    reports = check_curvature_identities(record(ex, ex.sample_points(4, seed=4)))
    for report in reports:
        assert not report.passed, report.identity
        assert report.max_residual >= 1.0


def test_reports_carry_per_point_residuals():
    ex = by_name("h3")
    points = ex.sample_points(5, seed=6)
    report = check_kenmotsu(record(ex, points))
    assert report.residuals.shape == (5,)
    assert np.all(report.residuals >= 0.0)


def test_a_nan_residual_fails_its_row():
    # xi is NaN at one of the six points only, not the first: the row's
    # worst residual is NaN and the row fails
    ex = by_name("h3")
    xi = ex.structure.xi

    def broken_xi(p):
        value = np.where(p.value[:, :1] > 0.8, np.nan, xi(p))
        return jets.Jet(value, np.zeros(value.shape + (3,)))

    broken = AlmostContactStructure(ex.structure.phi, broken_xi, ex.structure.eta)
    points = ex.sample_points(6, 0)
    assert [i for i, p in enumerate(points) if p[0] > 0.8] == [1]
    for report in (
        check_almost_contact(record(ex, points, broken)),
        check_kenmotsu(record(ex, points, broken)),
    ):
        assert np.isnan(report.residuals[1]), report.identity
        assert np.isnan(report.max_residual), report.identity
        assert not report.passed, report.identity


@pytest.mark.parametrize(
    "check", [check_torsion, check_kenmotsu, check_almost_contact, check_curvature_identities]
)
def test_record_without_structure_names_what_it_lacks(check):
    ex = by_name("h3")
    bare = CurvatureBundle(ex.manifold, None, ex.sample_points(2, seed=1))
    with pytest.raises(StructureError, match=r"no (phi|eta|xi)\b.*record has no structure"):
        check(bare)
    # the Levi-Civita parts need no structure
    assert all(r.passed for r in check_weyl(bare))


@pytest.mark.parametrize("part", ["phi", "eta", "xi", "dxi", "deta", "riemann"])
def test_every_structure_part_of_a_bare_record_raises(part):
    ex = by_name("h3")
    bare = CurvatureBundle(ex.manifold, None, ex.sample_points(2, seed=1))
    with pytest.raises(StructureError, match="record has no structure"):
        getattr(bare, part)
