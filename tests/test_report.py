"""The report writer against ``json.dumps(obj, indent=2)``, kept here as the reference.

A report's tree holds each row's points as one block of arrays; the
reference writes that block out as ``{"point", "residual"}`` records of
Python floats, built here from the arrays, not by the package.
"""

import json
import math
from decimal import Decimal

import numpy as np
import pytest

from kenmotsu import catalog
from kenmotsu.cli import ManifoldOutcome, RunConfig, RunReport, SuiteOutcome, run
from kenmotsu.report import IdentityResidualReport, _PointsBlock, row, to_json


def _same(obj) -> None:
    assert to_json(obj) == json.dumps(obj, indent=2)


def _records(block):
    """A points block as the list of records it stands for."""
    if not isinstance(block, _PointsBlock):
        raise TypeError(f"Object of type {type(block).__name__} is not JSON serializable")
    return [
        {"point": [float(x) for x in point], "residual": float(residual)}
        for point, residual in zip(block.coords, block.residuals)
    ]


def _reference(tree) -> str:
    return json.dumps(tree, indent=2, default=_records)


def test_every_catalog_chart_with_all_suites():
    names = tuple(ex.name for ex in catalog())
    report = run(RunConfig(manifolds=names, suites=("all",), num_points=3, seed=4))
    assert report.to_json() == _reference(report.tree())


def test_rows_with_odd_values():
    rows = [
        IdentityResidualReport("empty", 1e-5, np.empty((0, 2)), []),
        IdentityResidualReport(
            "non-finite",
            1e-5,
            [[0.5, -0.0], [math.inf, 1.0], [-math.inf, math.nan], [1e-300, 2.5e16]],
            [math.nan, math.inf, -math.inf, 0.0],
            extras={"nan": math.nan, "inf": math.inf, "ninf": -math.inf},
            expected=True,
        ),
        IdentityResidualReport(
            "noted",
            1e-5,
            [[1.0]],
            [1e-12],
            status="info",
            note='a "quoted" back\\slash, été ∇ξ and a\ttab',
            expected=False,
        ),
    ]
    suites = [
        SuiteOutcome("ran", rows=rows[:1]),
        SuiteOutcome("mixed", rows=rows[1:]),
        SuiteOutcome("failed", status="error", note="metric is not symmetric at [0.1]"),
    ]
    manifold = ManifoldOutcome(
        "odd",
        3,
        suites=suites,
        verdicts={"kenmotsu": None, "einstein": False, "einstein_fit": {"a": -2.0}, "x": True},
    )
    config = RunConfig(manifolds=("odd",), suites=("all",))
    report = RunReport(config, [manifold])
    text = report.to_json()
    assert text == _reference(report.tree())
    for piece in ("NaN", "-Infinity", '"extras": {}', '"points": []', "null", "\\u00e9"):
        assert piece in text


def _shared_points_report() -> RunReport:
    """One chart whose rows share its points, beside a row with its own points."""
    shared = np.array(
        [[0.5, -0.0, math.nan], [math.inf, 1e-300, 2.5e16], [-math.inf, 1.0, -2.0]]
    )
    shared.setflags(write=False)
    first = row("torsion-form", shared, [0.0, 1e-12, math.nan])
    second = row("nonmetricity", shared, [math.inf, 2.0, -0.0])
    second.tolerance = 1e-3
    first.expected = second.expected = True
    # as many points as the chart, of another dimension, in the same chart
    library = IdentityResidualReport(
        "library", 1e-5, [[0.25, -1.5], [1.0, 2.0], [-0.0, 7.0]], [3e-7, 0.0, 1e-3],
        expected=True,
    )
    empty = IdentityResidualReport("empty", 1e-5, np.empty((0, 3)), [], expected=True)
    suites = [SuiteOutcome("a", rows=[first, second]), SuiteOutcome("b", rows=[library, empty])]
    config = RunConfig(manifolds=("odd",), suites=("all",))
    return RunReport(config, [ManifoldOutcome("odd", 3, suites=suites, verdicts={})])


def test_rows_share_points_and_keep_their_own():
    report = _shared_points_report()
    text = report.to_json()
    assert text == _reference(report.tree())
    suites = json.loads(text)["manifolds"][0]["suites"]
    rows = [row for suite in suites for row in suite["identities"]]
    assert [len(row["points"]) for row in rows] == [3, 3, 3, 0]
    assert rows[2]["points"][0]["point"] == [0.25, -1.5]
    assert math.isnan(rows[0]["max_residual"]) and not rows[0]["passed"]


def test_rows_of_one_points_object_at_two_indents():
    row = _shared_points_report().manifolds[0].suites[0].rows[0]
    tree = [row.tree(), {"x": row.tree()}]
    assert to_json(tree) == _reference(tree)


def test_a_row_gates_its_worst_residual():
    points = np.array([[float(i), 1.0] for i in range(4)])

    def worst(residuals):
        return IdentityResidualReport("x", 1e-5, points[: len(residuals)], residuals)

    assert worst([]).max_residual == 0.0 and worst([]).passed
    assert worst([2e-6, 0.0]).max_residual == 2e-6 and worst([2e-6, 0.0]).passed
    assert worst([0.0, 3e-5, 1e-7]).max_residual == 3e-5 and not worst([0.0, 3e-5, 1e-7]).passed
    # a NaN that is not first fails the row, whatever follows it
    nan = worst([0.0, math.nan, 1.0, 0.0])
    assert math.isnan(nan.max_residual) and not nan.passed


@pytest.mark.parametrize(
    "points, residuals",
    [([[0.0, 1.0], [1.0, 1.0]], [0.0]), ([[0.0, 1.0]], [0.0, 1.0]), ([0.0, 1.0], [0.0, 1.0])],
    ids=["fewer-residuals", "more-residuals", "flat-points"],
)
def test_a_row_takes_one_residual_per_point(points, residuals):
    with pytest.raises(ValueError, match="points of shape"):
        IdentityResidualReport("x", 1e-5, points, residuals)


def test_records_compare_by_value():
    def built(residual, status="ok"):
        points = np.array([[0.5, 1.0], [2.0, -1.0]])
        return IdentityResidualReport("x", 1e-5, points, [0.0, residual], {"a": 1.0}, status)

    assert built(1e-9) == IdentityResidualReport(
        "x", 1e-5, [[0.5, 1.0], [2.0, -1.0]], [0.0, 1e-9], extras={"a": 1.0}
    )
    assert built(2e-9) != built(1e-9)
    assert built(1e-9) != built(1e-9, status="info")


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
