"""The report writer against ``json.dumps(obj, indent=2)``, kept here as the reference."""

import json
import math
from decimal import Decimal

import numpy as np
import pytest

from kenmotsu import catalog
from kenmotsu.cli import IdentityEntry, ManifoldOutcome, RunConfig, RunReport, SuiteOutcome, run
from kenmotsu.report import IdentityResidualReport, new_report, to_json


def _same(obj) -> None:
    assert to_json(obj) == json.dumps(obj, indent=2)


def test_every_catalog_chart_with_all_suites():
    names = tuple(ex.name for ex in catalog())
    report = run(RunConfig(manifolds=names, suites=("all",), num_points=3, seed=4))
    _same(report.to_dict())
    assert report.to_json() == json.dumps(report.to_dict(), indent=2)


def test_rows_with_odd_values():
    rows = [
        IdentityResidualReport("empty", 1e-5),
        IdentityResidualReport(
            "non-finite", 1e-5, extras={"nan": math.nan, "inf": math.inf, "ninf": -math.inf}
        ),
        IdentityResidualReport(
            "noted",
            1e-5,
            status="info",
            note='a "quoted" back\\slash, été ∇ξ and a\ttab',
        ),
    ]
    rows[1].add_points(
        [[0.5, -0.0], [math.inf, 1.0], [-math.inf, math.nan], [1e-300, 2.5e16]],
        [math.nan, math.inf, -math.inf, 0.0],
    )
    rows[2].add_points([[1.0]], [1e-12])
    suites = [
        SuiteOutcome("ran", entries=[IdentityEntry(rows[0], expected=None)]),
        SuiteOutcome(
            "mixed",
            entries=[
                IdentityEntry(rows[1], expected=True),
                IdentityEntry(rows[2], expected=False),
            ],
        ),
        SuiteOutcome("failed", status="error", note="metric is not symmetric at [0.1]"),
    ]
    manifold = ManifoldOutcome(
        "odd",
        3,
        suites=suites,
        verdicts={"kenmotsu": None, "einstein": False, "einstein_fit": {"a": -2.0}, "x": True},
    )
    config = RunConfig(manifolds=("odd",), suites=("all",))
    text = RunReport(config, [manifold]).to_json()
    assert text == json.dumps(RunReport(config, [manifold]).to_dict(), indent=2)
    for piece in ("NaN", "-Infinity", '"extras": {}', '"points": []', "null", "\\u00e9"):
        assert piece in text


def _shared_points_report() -> RunReport:
    """One chart whose rows share its points, beside a row with its own points."""
    shared = np.array(
        [[0.5, -0.0, math.nan], [math.inf, 1e-300, 2.5e16], [-math.inf, 1.0, -2.0]]
    )
    shared.setflags(write=False)
    first, second = new_report("torsion-form"), new_report("nonmetricity")
    second.tolerance = 1e-3
    first.add_points(shared, [0.0, 1e-12, math.nan])
    second.add_points(shared, [math.inf, 2.0, -0.0])
    # as many points as the chart, of another dimension, in the same chart
    library = IdentityResidualReport("library", 1e-5)
    library.add_points([[0.25, -1.5], [1.0, 2.0], [-0.0, 7.0]], [3e-7, 0.0, 1e-3])
    empty = IdentityResidualReport("empty", 1e-5)
    entries = [IdentityEntry(r, expected=True) for r in (first, second, library, empty)]
    suites = [SuiteOutcome("a", entries=entries[:2]), SuiteOutcome("b", entries=entries[2:])]
    config = RunConfig(manifolds=("odd",), suites=("all",))
    return RunReport(config, [ManifoldOutcome("odd", 3, suites=suites, verdicts={})])


def test_rows_share_points_and_keep_their_own():
    report = _shared_points_report()
    text = report.to_json()
    assert text == json.dumps(report.to_dict(), indent=2)
    suites = json.loads(text)["manifolds"][0]["suites"]
    rows = [row for suite in suites for row in suite["identities"]]
    assert [len(row["points"]) for row in rows] == [3, 3, 3, 0]
    assert rows[2]["points"][0]["point"] == [0.25, -1.5]
    assert math.isnan(rows[0]["max_residual"]) and not rows[0]["passed"]


def test_rows_of_one_points_object_at_two_indents():
    row = _shared_points_report().manifolds[0].suites[0].entries[0].report
    assert to_json([row.to_json_tree(), {"x": row.to_json_tree()}]) == json.dumps(
        [row.to_dict(), {"x": row.to_dict()}], indent=2
    )


def test_records_compare_by_value():
    def row(residual):
        r = IdentityResidualReport("x", 1e-5, extras={"a": 1.0})
        r.add_points(np.array([[0.5, 1.0], [2.0, -1.0]]), [0.0, residual])
        return r

    built = IdentityResidualReport("x", 1e-5, extras={"a": 1.0})
    built.add_points([[0.5, 1.0]], [0.0])
    built.add_points([[2.0, -1.0]], [1e-9])
    assert row(1e-9) == built
    assert row(2e-9) != built
    assert IdentityResidualReport("x", 1e-5) != IdentityResidualReport("x", 1e-5, status="info")


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        [[]],
        {"a": {}},
        (1.5, 2.5),
        [1, 2.0, True, None, "s"],
        [math.nan, math.inf, -math.inf],
        [1.0, "mixed"],
        {"points": [{"point": [], "residual": 1.0}]},
        {"points": [{"point": [1.0], "residual": 1}]},
        {"points": [{"point": [1], "residual": 1.0}]},
        {"points": [{"point": "ab", "residual": 1.0}]},
        {"points": [{"point": "", "residual": 1.0}]},
        {"points": [{"point": {}, "residual": 1.0}]},
        {"points": [{"residual": 1.0, "point": [1.0]}]},
        [{"point": [1.0, 2.0], "residual": 3.0}, {"point": [1.0], "residual": 1.0, "x": 0}],
        "∇ \"\\\n",
        -0.0,
        10**20,
    ],
)
def test_edge_values(obj):
    _same(obj)


def test_unserializable_values_raise():
    with pytest.raises(TypeError):
        to_json({"a": object()})
    with pytest.raises(TypeError):
        to_json([{"point": [1.0], "residual": Decimal("NaN")}])
    with pytest.raises(TypeError):
        to_json({1: "int key"})
