"""Result records for pointwise identity checks, and the identity table.

Every check in this package evaluates some tensor identity at a list of
sample points and reports the worst absolute residual per point.  The
record keeps enough structure for the CLI to render text and JSON views
without recomputing anything.  :data:`IDENTITIES` is the one place that
says, per identity, which suite runs it, how tight its gate is and what a
chart is expected to make of it; the checks and the CLI both read it.
:func:`to_json` renders a report exactly as ``json.dumps(report, indent=2)``
does, in a fraction of its time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

import numpy as np


@dataclass(frozen=True)
class PointResidual:
    """Max-abs residual of one identity at one sample point."""

    point: tuple[float, ...]
    residual: float

    def to_dict(self) -> dict:
        return {"point": list(self.point), "residual": float(self.residual)}


# status values:
#   "ok"             residual is compared against the tolerance
#   "info"           recorded for inspection only, never counts as a failure
#   "not-applicable" check is vacuous here (e.g. Weyl in dimension 3)
_STATUSES = ("ok", "info", "not-applicable")


@dataclass
class IdentityResidualReport:
    """Outcome of checking one identity over a set of sample points.

    ``extras`` carries named scalar diagnostics (signed residuals,
    contrast values, fitted coefficients) that accompany the headline
    max-abs residual.
    """

    identity: str
    tolerance: float
    points: list[PointResidual] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)
    status: str = "ok"
    note: str = ""

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def max_residual(self) -> float:
        if not self.points:
            return 0.0
        return max(p.residual for p in self.points)

    @property
    def passed(self) -> bool:
        """True when the worst residual is within tolerance.

        Informational and not-applicable reports never fail.
        """
        if self.status != "ok":
            return True
        return self.max_residual <= self.tolerance

    def add_points(self, points: list[tuple[float, ...]], residuals: np.ndarray) -> None:
        """Append one residual per point, in point order."""
        self.points.extend(PointResidual(p, float(r)) for p, r in zip(points, residuals))

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "tolerance": float(self.tolerance),
            "max_residual": float(self.max_residual),
            "passed": self.passed,
            "status": self.status,
            "note": self.note,
            "extras": {k: float(v) for k, v in sorted(self.extras.items())},
            "points": [p.to_dict() for p in self.points],
        }


@dataclass(frozen=True)
class Identity:
    """How one identity is gated.

    ``tolerance`` is the base gate, the default of every ``check_*``
    function.  ``fd_scaled`` identities stack two finite-difference
    curvature passes, so the CLI multiplies their gate by the chart's
    ``fd_tolerance_scale``.  ``expect`` names the catalog flags
    (``kenmotsu``, ``einstein``, ``weyl_flat``) whose conjunction the row is
    expected to match; an empty tuple means the identity holds on every
    chart.  A ``kenmotsu_only`` row compares closed forms that assume the
    defining condition, so off the Kenmotsu class it is recorded as INFO.
    """

    suite: str
    tolerance: float
    fd_scaled: bool = False
    expect: tuple[str, ...] = ()
    kenmotsu_only: bool = False


_KENMOTSU = ("kenmotsu",)
_EINSTEIN_KENMOTSU = ("einstein", "kenmotsu")

# in suite order, and in row order within each suite
IDENTITIES: dict[str, Identity] = {
    "structure-axioms": Identity("axioms", 1e-10),
    "kenmotsu-condition": Identity("kenmotsu", 1e-5, fd_scaled=True, expect=_KENMOTSU),
    "curvature-eta-component": Identity("curvature", 1e-5, fd_scaled=True, expect=_KENMOTSU),
    "curvature-on-reeb": Identity("curvature", 1e-5, fd_scaled=True, expect=_KENMOTSU),
    "curvature-from-reeb": Identity("curvature", 1e-5, fd_scaled=True, expect=_KENMOTSU),
    "ricci-on-reeb": Identity("curvature", 1e-5, fd_scaled=True, expect=_KENMOTSU),
    "torsion-form": Identity("connection", 1e-10),
    "nonmetricity": Identity("connection", 1e-5),
    "reeb-transport": Identity("connection", 1e-5, expect=_KENMOTSU),
    "deformation-form": Identity("connection", 1e-5, expect=_KENMOTSU),
    "riemann-cross-check": Identity("connection", 1e-5, fd_scaled=True, expect=_KENMOTSU),
    "ricci-cross-check": Identity("connection", 1e-5, expect=_KENMOTSU),
    "scalar-cross-check": Identity("connection", 1e-5, kenmotsu_only=True),
    "ricci-symmetry": Identity("connection", 1e-5, kenmotsu_only=True),
    "irregularity": Identity("irregularity", 1e-5, fd_scaled=True, expect=_KENMOTSU),
    "derivation-identity": Identity("semisymmetry", 1e-4, expect=_KENMOTSU),
    "semisymmetry-condition": Identity("semisymmetry", 1e-5, expect=("einstein",)),
    "einstein-ricci-fit": Identity("semisymmetry", 1e-4, expect=_EINSTEIN_KENMOTSU),
    "eta-einstein-fit": Identity("semisymmetry", 1e-4, expect=_EINSTEIN_KENMOTSU),
    "scalar-curvature-constant": Identity("semisymmetry", 1e-4, expect=_EINSTEIN_KENMOTSU),
    "modified-scalar-constant": Identity("semisymmetry", 1e-4, expect=_EINSTEIN_KENMOTSU),
    "weyl-traceless": Identity("weyl", 1e-5),
    "weyl-vanishing": Identity("weyl", 1e-5, expect=("weyl_flat",)),
    "tachibana-metric": Identity("weyl", 1e-12),
    "weyl-tachibana": Identity("weyl", 1e-5),
}


def per_point(residual: np.ndarray) -> np.ndarray:
    """Max-abs over every axis but the leading point axis: one residual per point."""
    return np.max(np.abs(residual), axis=tuple(range(1, residual.ndim)))


def new_report(identity: str, tol: float | None = None) -> IdentityResidualReport:
    """An empty report gated at ``tol``, or at the table's base tolerance."""
    return IdentityResidualReport(
        identity, IDENTITIES[identity].tolerance if tol is None else tol
    )


def to_json(obj) -> str:
    """``obj`` as the bytes of ``json.dumps(obj, indent=2)``.

    ``obj`` is built from dicts with string keys, lists, tuples, strings,
    ints, floats, bools and None; anything else raises ``TypeError``.
    ``json.dumps`` with an indent runs Python's pure-Python encoder, one
    generator frame per value.  This writer renders each list of floats
    with one ``str.join`` and each list of point residuals (the
    ``{"point": [...], "residual": r}`` records of :class:`PointResidual`)
    as one block, so a report's many points cost little more than their
    ``float.__repr__``.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _float(value: float) -> str:
    """One float as ``json.dumps`` writes it."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _floats(values, nl: str) -> str:
    """A list of floats at the indent ``nl``; ``TypeError`` if any item is no float."""
    if not values:
        return "[]"
    inner = nl + "  "
    sep = "," + inner
    # the separators hold no "n"; among float reprs only nan and inf do
    body = sep.join(map(float.__repr__, values))
    if "n" in body:
        body = sep.join(map(_float, values))
    return "[" + inner + body + nl + "]"


_POINT_KEYS = ("point", "residual")


def _point_rows(rows: list, nl: str) -> str:
    """A non-empty list of point-residual records at the indent ``nl``.

    ``TypeError`` if any row is not such a record.
    """
    inner = nl + "  "
    field_nl = inner + "  "
    head = "{" + field_nl + '"point": '
    mid = "," + field_nl + '"residual": '
    parts = []
    for row in rows:
        if type(row) is not dict or tuple(row) != _POINT_KEYS:
            raise TypeError("not a point record")
        point, residual = row["point"], row["residual"]
        if not isinstance(point, (list, tuple)) or not isinstance(residual, float):
            raise TypeError("not a point record")
        parts.append(head + _floats(point, field_nl) + mid + _float(residual) + inner + "}")
    return "[" + inner + ("," + inner).join(parts) + nl + "]"


def _write(value, nl: str, out: list[str]) -> None:
    """Append ``value`` rendered at the indent ``nl`` (a newline and the current indent)."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float(value))
    elif isinstance(value, (list, tuple)):
        _write_list(value, nl, out)
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            sep = "," + inner
            _write(item, inner, out)
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_list(values, nl: str, out: list[str]) -> None:
    if not values:
        out.append("[]")
        return
    fast = _point_rows if type(values[0]) is dict else _floats
    try:
        out.append(fast(values, nl))
        return
    except TypeError:
        pass
    inner = nl + "  "
    sep = "[" + inner
    for item in values:
        out.append(sep)
        sep = "," + inner
        _write(item, inner, out)
    out.append(nl + "]")
