"""The report writer against ``json.dumps(obj, indent=2)``, kept here as the reference."""

import json
import math
from decimal import Decimal

import pytest

from kenmotsu import catalog
from kenmotsu.cli import IdentityEntry, ManifoldOutcome, RunConfig, RunReport, SuiteOutcome, run
from kenmotsu.report import IdentityResidualReport, PointResidual, to_json


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
            "non-finite",
            1e-5,
            points=[
                PointResidual((0.5, -0.0), math.nan),
                PointResidual((math.inf, 1.0), math.inf),
                PointResidual((-math.inf, math.nan), -math.inf),
                PointResidual((1e-300, 2.5e16), 0.0),
            ],
            extras={"nan": math.nan, "inf": math.inf, "ninf": -math.inf},
        ),
        IdentityResidualReport(
            "noted",
            1e-5,
            points=[PointResidual((1.0,), 1e-12)],
            status="info",
            note='a "quoted" back\\slash, été ∇ξ and a\ttab',
        ),
    ]
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
