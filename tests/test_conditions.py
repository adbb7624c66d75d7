import tracemalloc

import numpy as np
import pytest
from helpers import (
    _action_on_all_pairs, _semisymmetry_defect, _weyl_trace, generic_chart, ne7, s2s3,
    s2s3_points,
)

from kenmotsu import (
    AlmostContactStructure,
    CurvatureBundle,
    NonMetricConnection,
    by_name,
    check_derivation_identity,
    check_semisymmetry_condition,
    check_weyl,
    check_weyl_commutation,
)
from kenmotsu import EinsteinFit, connection
from kenmotsu.conditions import EINSTEIN_FIT_THRESHOLD, _pair_action, _two_form_tables
from kenmotsu.connection import (
    CHUNK_BYTES,
    _chunk_ranges,
    _derivation,
    _fit_operators,
    _slot_pairs,
    _wedge,
    curvature_bundle,
)
from kenmotsu.report import per_point


def lc_record(name, count, seed):
    """The Levi-Civita geometry of a catalog chart at its sample points."""
    ex = by_name(name)
    return CurvatureBundle(ex.manifold, None, ex.sample_points(count, seed=seed))


def record(name, count, seed):
    """The geometry record of a catalog chart and its structure at its sample points."""
    ex = by_name(name)
    return CurvatureBundle(ex.manifold, ex.structure, ex.sample_points(count, seed=seed))


def test_metric_wedge_spot_values():
    pair = by_name("euclidean3").manifold.metric_pair_at(np.zeros(3))
    wedge = _wedge(pair.matrix)
    # (e_i wedge e_j) e_z = d_jz e_i - d_iz e_j on the flat chart
    assert wedge[0, 0, 1, 1] == 1.0
    assert wedge[1, 0, 1, 0] == -1.0
    assert wedge[2, 0, 1, 2] == 0.0


def test_curvature_acts_trivially_on_its_metric():
    # Levi-Civita curvature endomorphisms are g-skew, so R . g = 0
    b = lc_record("h3", 1, seed=1)
    acted = _action_on_all_pairs(b.lc_riemann, b.metric.matrix, 2)
    assert acted.shape == (1, 3, 3, 3, 3)
    assert np.max(np.abs(acted)) < 1e-6


def test_curvature_annihilates_proportional_ricci_on_h3():
    b = lc_record("h3", 1, seed=2)
    acted = _action_on_all_pairs(b.lc_riemann, b.lc_ricci, 2)
    assert np.max(np.abs(acted)) < 1e-5


def test_curvature_action_on_ricci_nonzero_on_ne5():
    b = lc_record("ne5", 1, seed=3)
    acted = _action_on_all_pairs(b.lc_riemann, b.lc_ricci, 2)
    assert np.max(np.abs(acted)) > 0.01


def test_action_antisymmetric_in_trailing_pair():
    b = lc_record("ne5", 1, seed=4)
    acted = _action_on_all_pairs(b.lc_riemann, b.lc_ricci, 2)[0]
    assert np.max(np.abs(acted + acted.swapaxes(-1, -2))) < 1e-12
    # equal trailing arguments give exact zero by that antisymmetry
    for i in range(5):
        assert np.max(np.abs(acted[:, :, i, i])) == 0.0


def test_tachibana_of_metric_vanishes():
    for name in ("euclidean3", "h3", "h5", "ne5"):
        ex = by_name(name)
        p = ex.sample_points(1, seed=5)[0]
        g = ex.manifold.metric_pair_at(p).matrix[None]
        q = _action_on_all_pairs(_wedge(g), g, 2)
        assert np.max(np.abs(q)) < 1e-12, name


def test_tachibana_annihilates_space_form_curvature():
    b = lc_record("h3", 1, seed=6)
    g = b.metric.matrix
    riem4 = np.einsum("...al,...lijk->...aijk", g, b.lc_riemann)
    q = _action_on_all_pairs(_wedge(g), riem4, 4)
    assert np.max(np.abs(q)) < 1e-5


def test_tachibana_nonzero_on_anisotropic_ricci():
    b = lc_record("ne5", 1, seed=7)
    q = _action_on_all_pairs(_wedge(b.metric.matrix), b.lc_ricci, 2)
    assert np.max(np.abs(q)) > 0.01


@pytest.mark.parametrize("m", [3, 5, 7])
def test_point_independent_tables_are_built_once_and_read_only(m):
    bounds = by_name("h5").manifold._bounds
    for table in (*_slot_pairs(m), *_two_form_tables(m), bounds):
        with pytest.raises(ValueError):
            table[0] = 1
    assert _slot_pairs(m) is _slot_pairs(m)
    assert _two_form_tables(m) is _two_form_tables(m)
    # the cached tables are the ones each call would build
    x, y = np.triu_indices(m, k=1)
    assert np.array_equal(_slot_pairs(m)[0], x) and np.array_equal(_slot_pairs(m)[1], y)
    assert np.array_equal(_two_form_tables(m)[0], x) and np.array_equal(_two_form_tables(m)[1], y)
    assert np.array_equal(bounds, np.array(by_name("h5").manifold.domain).T)


@pytest.mark.parametrize("name", ["generic", "ne5", "ne7"])
def test_pair_action_equals_the_all_pairs_reference(name):
    # derivation-identity and tachibana-metric act at the pairs X < Y only,
    # through one -(A t + t A^t); the reference acts slot by slot at every
    # (X,Y).  The non-symmetric target tells t from its transpose.
    if name == "generic":
        manifold = generic_chart()
        points = np.random.default_rng(23).uniform(-0.5, 0.5, size=(3, 5))
    else:
        ex = ne7() if name == "ne7" else by_name(name)
        manifold, points = ex.manifold, ex.sample_points(3, seed=23)
    b = CurvatureBundle(manifold, None, points)
    g = b.metric.matrix
    skew = np.random.default_rng(29).normal(size=g.shape)
    x, y = np.triu_indices(manifold.dim, k=1)
    for curv in (b.lc_riemann, _wedge(g)):
        for target in (b.lc_ricci, skew):
            want = np.moveaxis(_action_on_all_pairs(curv, target, 2)[..., x, y], -1, 1)
            got = _pair_action(curv, target)
            assert got.shape == (3, len(x), manifold.dim, manifold.dim)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_one_matmul_derivation_equals_two_matmuls_on_a_symmetric_target():
    # for a symmetric t, t A^t is the transpose of A t; the family here is
    # not antisymmetric, so a derivation without the transposed product, or
    # with t in its place, is off by far more than roundoff
    rng = np.random.default_rng(31)
    rows = rng.normal(size=(4, 6 * 10, 10))
    t = rng.normal(size=(4, 10, 10))
    t = t + np.swapaxes(t, 1, 2)
    two = _derivation(rows, t)
    one = _derivation(rows, t, symmetric=True)
    family = rows.reshape(4, 6, 10, 10)
    want = -(family @ t[:, None] + t[:, None] @ np.swapaxes(family, 2, 3))
    assert one.shape == two.shape == (4, 6, 10, 10)
    assert np.max(np.abs(two - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(one - two)) <= 1e-13 * np.max(np.abs(want))


def _generic_record(count: int, seed: int) -> CurvatureBundle:
    """The generic chart with a constant structure: xi = eta = e_4, phi = 0."""
    e = np.eye(5)[4]
    structure = AlmostContactStructure(lambda x: np.zeros((5, 5)), lambda x: e, lambda x: e)
    points = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(count, 5))
    return CurvatureBundle(generic_chart(), structure, points)


@pytest.mark.parametrize("name", ["h5", "ne5", "generic"])
def test_semisymmetry_condition_equals_the_rank4_bracket(name):
    # the row applies g^-1 to the Z slot of the record's Q(g,S) at the pairs
    # X < Y; the reference builds the four-term bracket at every (X,Y)
    b = _generic_record(4, 37) if name == "generic" else record(name, 4, seed=37)
    defect = _semisymmetry_defect(b.metric.matrix, b.lc_ricci)
    want = per_point(np.einsum("...az,...zuij->...auij", b.metric.inverse, defect))
    got = check_semisymmetry_condition(b)[0].residuals
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
    if name != "h5":
        assert np.min(want) > 1e-3


def _three_term_weyl(b: CurvatureBundle) -> np.ndarray:
    """C = R - [S wedge I + g wedge Q]/(m-2) + r (g wedge g)/((m-1)(m-2)), Q = g^-1 S."""
    m, g, s = b.manifold.dim, b.metric.matrix, b.lc_ricci
    term_s = _wedge(s) + _wedge(g, b.metric.inverse @ s)
    scale = b.lc_scalar[:, None, None, None, None]
    return b.lc_riemann - term_s / (m - 2) + scale * _wedge(g) / ((m - 1) * (m - 2))


@pytest.mark.parametrize("name", ["ne5", "ne7", "generic"])
def test_weyl_equals_the_three_term_formula(name):
    if name == "generic":
        manifold = generic_chart()
        points = np.random.default_rng(41).uniform(-0.5, 0.5, size=(4, 5))
    else:
        ex = ne7() if name == "ne7" else by_name(name)
        manifold, points = ex.manifold, ex.sample_points(4, seed=41)
    b = CurvatureBundle(manifold, None, points)
    want = _three_term_weyl(b)
    scale = np.max(np.abs(b.lc_riemann))
    assert np.max(np.abs(want)) > 1e-2 * scale
    assert np.max(np.abs(b.weyl - want)) <= 1e-13 * scale
    # the row's one trace of C and all six of its single traces stay at roundoff
    assert np.max(check_weyl(b)[0].residuals) <= 1e-13 * scale
    assert np.max(_weyl_trace(b.weyl, b.metric.matrix, b.metric.inverse)) <= 1e-13 * scale


@pytest.mark.parametrize("name,tol", [("h3", 1e-5), ("h5", 1e-5), ("ne5", 1e-4)])
def test_derivation_identity(name, tol):
    report = check_derivation_identity(record(name, 5, seed=8))
    report.tolerance = tol
    assert report.passed
    assert report.max_residual < tol


def test_einstein_fit_recovers_exact_combinations():
    ex = by_name("h3")
    p = ex.sample_points(1, seed=9)[0]
    pair = ex.manifold.metric_pair_at(p)
    xi = ex.structure.xi(p)
    eta = ex.structure.eta(p)
    fit = _fit_operators((pair.inverse @ pair.matrix)[None])
    assert fit.a == pytest.approx(1.0, abs=1e-12)
    assert fit.b == 0.0
    assert fit.residual.shape == (1,) and fit.residual[0] < 1e-12
    # a made-up eta-einstein tensor is recovered exactly
    target = 1.5 * pair.matrix - 0.25 * np.outer(eta, eta)
    fit2 = _fit_operators((pair.inverse @ target)[None], xi[None], eta[None])
    assert fit2.a == pytest.approx(1.5, abs=1e-10)
    assert fit2.b == pytest.approx(-0.25, abs=1e-10)
    assert fit2.residual[0] < 1e-10


def _lstsq_fit(ops, xi, eta):
    """The reference: one least-squares solve over all the points, and each point's misfit."""
    columns = [np.concatenate([np.eye(op.shape[0]).ravel() for op in ops])]
    if xi is not None:
        columns.append(np.concatenate([np.outer(x, e).ravel() for x, e in zip(xi, eta)]))
    design, y = np.stack(columns, axis=1), np.concatenate([op.ravel() for op in ops])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef, np.max(np.abs(y - design @ coef).reshape(len(ops), -1), axis=1)


@pytest.mark.parametrize("fit_eta", [False, True], ids=["plain", "eta"])
def test_closed_form_fits_equal_least_squares(fit_eta):
    # the one fit solves the normal equations summed over the points: it is
    # the least-squares fit of all the stacked operators, and each point is
    # measured against it
    rng = np.random.default_rng(4)
    ops = rng.normal(size=(7, 5, 5))
    xi, eta = rng.normal(size=(7, 5)), rng.normal(size=(7, 5))
    xi[3] = 0.0  # a point without outer product still counts in the fit
    args = (xi, eta) if fit_eta else (None, None)
    fit = _fit_operators(ops, *args)
    coef, want_residual = _lstsq_fit(ops, *args)
    assert isinstance(fit.a, float) and isinstance(fit.b, float)
    assert fit.a == pytest.approx(coef[0], rel=1e-12, abs=1e-12)
    assert fit.b == pytest.approx(coef[1] if fit_eta else 0.0, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(fit.residual, want_residual, rtol=1e-12)
    if fit_eta:
        # no outer product at any point: b is 0, the minimum-norm solve's, and
        # a is the plain fit's
        singular = _fit_operators(ops, np.zeros_like(xi), eta)
        assert singular.b == 0.0 and singular.a == _fit_operators(ops).a


@pytest.mark.parametrize("name,n", [("h3", 1), ("h5", 2)])
def test_semisymmetry_chain_on_space_forms(name, n):
    condition, *companions = check_semisymmetry_condition(record(name, 6, seed=10))
    assert condition.identity == "semisymmetry-condition"
    assert condition.passed
    assert condition.max_residual < 1e-9
    ricci_fit, modified_fit = (row.extras for row in companions[:2])
    assert ricci_fit["joint-a"] == pytest.approx(-2.0 * n, abs=1e-9)
    assert ricci_fit["joint-residual"] < 1e-9
    assert modified_fit["joint-a"] == pytest.approx(2.0, abs=1e-9)
    assert modified_fit["joint-b"] == pytest.approx(-2.0, abs=1e-9)
    means = condition.extras
    assert means["mean-lc-scalar"] == pytest.approx(-2 * n * (2 * n + 1), abs=1e-9)
    assert means["mean-modified-scalar"] == pytest.approx(4.0 * n, abs=1e-9)
    assert companions[2].max_residual < 1e-9
    assert companions[3].max_residual < 1e-9
    names = [r.identity for r in companions]
    assert names == [
        "einstein-ricci-fit",
        "eta-einstein-fit",
        "scalar-curvature-constant",
        "modified-scalar-constant",
    ]
    for row in companions:
        assert row.passed, row.identity


def test_semisymmetry_condition_fails_on_ne5():
    condition, *companions = check_semisymmetry_condition(record("ne5", 6, seed=11))
    assert not condition.passed
    assert condition.max_residual > 0.1
    assert companions[0].extras["joint-residual"] > 1e-2
    for row in companions:
        assert not row.passed, row.identity


def test_weyl_vanishes_in_dimension_three():
    for name in ("euclidean3", "h3"):
        c = lc_record(name, 1, seed=12).weyl
        assert np.max(np.abs(c)) < 1e-9, name


def test_weyl_vanishes_on_space_form_h5():
    c = lc_record("h5", 3, seed=13).weyl
    assert np.max(np.abs(c)) < 1e-9


def test_weyl_traceless_but_nonzero_on_ne5():
    b = lc_record("ne5", 3, seed=14)
    assert np.all(check_weyl(b)[0].residuals < 1e-9)
    assert np.all(per_point(b.weyl) > 0.01)


def test_check_weyl_report_names():
    traceless, vanishing, metric_q = check_weyl(lc_record("h5", 3, seed=15))
    assert traceless.identity == "weyl-traceless"
    assert vanishing.identity == "weyl-vanishing"
    assert metric_q.identity == "tachibana-metric"
    assert traceless.passed and vanishing.passed and metric_q.passed


def _weyl_without_ricci_terms(b: CurvatureBundle, monkeypatch) -> None:
    """The record's C made R + r/((m-1)(m-2)) g wedge g, the Weyl formula without Ricci terms."""
    m = b.manifold.dim
    scale = (b.lc_scalar / ((m - 1) * (m - 2)))[:, None, None, None, None]
    b.__dict__["weyl"] = b.lc_riemann + scale * b.g_wedge_g


def _derivation_without_its_transpose(b: CurvatureBundle, monkeypatch) -> None:
    """Every derivation made -A t, without its t A^t term."""
    def half(rows, t, symmetric=False):
        k, d = t.shape[:2]
        return -(rows @ t).reshape(k, -1, d, d)

    monkeypatch.setattr(connection, "_derivation", half)


@pytest.mark.parametrize("name", ["h5", "ne5"])
@pytest.mark.parametrize(
    "identity, mutate",
    [("weyl-traceless", _weyl_without_ricci_terms),
     ("tachibana-metric", _derivation_without_its_transpose)],
    ids=["weyl-traceless", "tachibana-metric"],
)
def test_a_row_that_holds_on_every_metric_fails_its_mutant(identity, mutate, name, monkeypatch):
    # the table expects these rows to pass on every chart, so no control
    # chart can fail them: each fails a test-only mutant of what it reads
    b = lc_record(name, 4, seed=1)
    assert {r.identity: r for r in check_weyl(b)}[identity].passed
    mutate(b, monkeypatch)
    mutated = {r.identity: r for r in check_weyl(b)}[identity]
    assert not mutated.passed and mutated.max_residual > 1.0


def test_weyl_commutation_not_applicable_in_dim3():
    report = check_weyl_commutation(lc_record("h3", 2, seed=16))
    assert report.status == "not-applicable"
    assert report.passed
    assert len(report.residuals) == 0


def test_weyl_commutation_degenerate_on_h5():
    report = check_weyl_commutation(lc_record("h5", 4, seed=17))
    assert report.status == "ok"
    assert report.passed
    for key in ("commutator", "tachibana-riemann", "tachibana-weyl"):
        assert report.extras[key] < 1e-5, key


@pytest.mark.parametrize("name,status", [("h5", "ok"), ("ne5", "info"), ("h3", "not-applicable")])
def test_weyl_commutation_takes_the_einstein_hypothesis_from_the_record(name, status):
    # gated where the record's joint Einstein fit holds, informational where
    # it fails, vacuous in dimension 3
    assert check_weyl_commutation(record(name, 3, seed=20)).status == status


def test_weyl_commutation_gates_on_the_joint_einstein_fit():
    # the one a*I fits two of the points but not the third: the gate reads
    # the fit's largest residual, the number the einstein verdict reads
    geometry = lc_record("h5", 3, seed=20)
    assert geometry.lc_einstein_fit.residual.max() < EINSTEIN_FIT_THRESHOLD
    assert check_weyl_commutation(geometry).status == "ok"
    geometry.lc_einstein_fit = EinsteinFit(a=-4.0, b=0.0, residual=np.array([0.0, 1.0, 0.0]))
    report = check_weyl_commutation(geometry)
    assert report.status == "info"
    assert "Einstein hypothesis fails" in report.note


def test_weyl_commutation_informational_off_einstein():
    report = check_weyl_commutation(lc_record("ne5", 3, seed=18))
    assert report.status == "info"
    assert report.passed  # informational rows never gate
    assert report.max_residual > 0.01
    assert report.extras["relation-total-dim"] == report.max_residual
    assert report.extras["tachibana-riemann"] > 0.01


def _full_weyl_actions(b: CurvatureBundle, scale: int) -> dict[str, np.ndarray]:
    """The rank-6 reference of the Weyl row, with the scaled relation under r / ``scale``.

    The actions run on every (X,Y) and every slot of the (0,4) forms of R
    and C, antisymmetrized in their outer slots.
    """
    g, riem, weyl = b.metric.matrix, b.lc_riemann, b.weyl
    r = b.lc_scalar.reshape((-1,) + (1,) * 6)
    raw = [np.einsum("...al,...lijk->...aijk", g, t) for t in (riem, weyl)]
    # the computed forms are antisymmetric in their outer slots to roundoff,
    # so a form lowered on the wrong slot fails here
    for t in raw:
        assert np.max(np.abs(t + np.swapaxes(t, 1, 4))) <= 1e-10 * np.max(np.abs(raw[0]))
    riem4, weyl4 = (0.5 * (t - np.swapaxes(t, 1, 4)) for t in raw)
    commutator = _action_on_all_pairs(weyl, riem4, 4) - _action_on_all_pairs(riem, weyl4, 4)
    q_riem = _action_on_all_pairs(_wedge(g), riem4, 4)
    return {
        "commutator": commutator,
        "tachibana-riemann": q_riem,
        "tachibana-weyl": _action_on_all_pairs(_wedge(g), weyl4, 4),
        "relation-total-dim": commutator + r / scale * q_riem,
    }


@pytest.mark.parametrize("name", ["h5", "ne5", "ne7", "s2s3", "generic", "generic-chunks"])
def test_weyl_commutation_on_pairs_equals_full_actions(name):
    # the check takes the actions on the pairs X < Y of the endomorphisms
    # and on the curvature operators of the forms, antisymmetrized in their
    # outer slots; the reference takes the rank-6 actions on every (X,Y)
    # and every slot.  The catalog's curvatures vanish on many pairs; the
    # generic chart's on none; on s2s3 the relation holds while its terms
    # do not vanish.  "generic-chunks" spans several chunks of points, so a
    # chunk boundary that misaligns points and residuals fails it.
    if name.startswith("generic"):
        manifold = generic_chart()
        count = 4 if name == "generic" else 25
        points = list(np.random.default_rng(19).uniform(-0.5, 0.5, size=(count, 5)))
    elif name == "s2s3":
        manifold, points = s2s3(), s2s3_points(4, seed=19)
    else:
        ex = ne7() if name == "ne7" else by_name(name)
        manifold = ex.manifold
        points = ex.sample_points(3 if name == "ne7" else 4, seed=19)
    m = manifold.dim
    if name == "generic-chunks":
        # the induced actions of 3 * 10 endomorphisms on 10 pairs take
        # 3 * 10**3 values per point in dim 5
        assert len(_chunk_ranges(len(points), 8 * 3 * 10**3)) >= 3
    b = CurvatureBundle(manifold, None, points)
    report = check_weyl_commutation(b)
    values = _full_weyl_actions(b, m * (m - 1))
    assert values.keys() == report.extras.keys()
    # each entry of an action sums products of an R, C or g wedge g entry, g
    # and a second curvature entry; where the actions cancel to roundoff (on
    # h5 every one does) only that product's scale says what roundoff is
    largest = np.max(np.abs(b.metric.matrix)) * max(
        np.max(np.abs(t)) for t in (b.lc_riemann, b.weyl, b.g_wedge_g)) ** 2
    atol = 1e-12 * largest
    full = {}
    for key, value in values.items():
        assert value.shape == (len(points),) + (m,) * 6
        full[key] = per_point(value)
        np.testing.assert_allclose(
            report.extras[key], max(full[key]), rtol=1e-12, atol=atol, err_msg=key)
    np.testing.assert_allclose(
        report.residuals, full["relation-total-dim"], rtol=1e-12, atol=atol)


def test_weyl_commutation_gates_the_relation_on_a_non_space_form_einstein_chart():
    # S^2(1) x S^3(sqrt 2) is Einstein (S = g, r = 5) with C != 0: the
    # relation holds to roundoff while each of its terms is of order one,
    # so a check that gates the terms themselves, or the relation under
    # another scale or sign, fails here
    b = CurvatureBundle(s2s3(), None, s2s3_points(20, seed=0))
    fit = b.lc_einstein_fit
    assert fit.residual.max() < 1e-12 and abs(fit.a - 1.0) < 1e-12
    report = check_weyl_commutation(b)
    assert report.status == "ok" and report.passed
    assert report.extras["relation-total-dim"] <= 1e-12
    for key in ("commutator", "tachibana-riemann", "tachibana-weyl"):
        assert report.extras[key] >= 0.1, key
    # the contact half-dimension n = 2 in place of the dimension m = 5
    contact_n = _full_weyl_actions(b, 2 * (2 - 1))["relation-total-dim"]
    assert np.max(per_point(contact_n)) >= 1.0
    rows = {r.identity: r for r in check_weyl(b)}
    np.testing.assert_allclose(rows["weyl-vanishing"].max_residual, 0.75, rtol=1e-6)
    assert not rows["weyl-vanishing"].passed
    assert rows["weyl-traceless"].passed and rows["tachibana-metric"].passed


def _weyl_commutation_peak(count: int) -> int:
    ex = by_name("ne5")
    conn = NonMetricConnection(ex.manifold, ex.structure)
    geometry = curvature_bundle(conn, ex.sample_points(count, seed=5))
    # build what the check reads
    geometry.metric, geometry.g_wedge_g, geometry.weyl, geometry.lc_scalar
    geometry.lc_einstein_fit
    tracemalloc.start()
    try:
        check_weyl_commutation(geometry)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_weyl_commutation_memory_is_bounded_by_its_chunks():
    # the actions on the curvature operators run over chunks sized from
    # CHUNK_BYTES, so the peak of the check on a prebuilt record does not
    # grow with the points.  It reads 3.7 CHUNK_BYTES; chunks sized from two
    # families instead of the three stacked read 5.3 and fail the bound.
    small, large = _weyl_commutation_peak(20), _weyl_commutation_peak(200)
    assert large <= 4.5 * CHUNK_BYTES
    assert large < 1.1 * small
