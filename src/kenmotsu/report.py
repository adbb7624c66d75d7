"""Result records for pointwise identity checks, and the identity table.

Every check in this package evaluates some tensor identity at a list of
sample points and reports the worst absolute residual per point.  The
record keeps enough structure for the CLI to render text and JSON views
without recomputing anything.  :data:`IDENTITIES` is the one place that
says, per identity, which suite runs it, how tight its gate is and what a
chart is expected to make of it; the checks and the CLI both read it.
Every check builds each of its rows in one call, :func:`row` or, for an
identity lhs = rhs, :func:`sides_row`; the CLI reports the same records,
with each row's expectation set.  A row holds residuals only: the sample
points belong to the chart, and the report tree pairs them with each row
(:meth:`IdentityResidualReport.tree`), kept as arrays.  :func:`to_json`
renders that tree with the bytes ``json.dumps(indent=2)`` writes once
those points are written out as records, in a fraction of its time;
:func:`write_json` hands the same text to a stream piece by piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

import numpy as np


# status values:
#   "ok"             residual is compared against the tolerance
#   "info"           recorded for inspection only, never counts as a failure
#   "not-applicable" check is vacuous here (e.g. Weyl in dimension 3)
_STATUSES = ("ok", "info", "not-applicable")


class IdentityResidualReport:
    """Outcome of checking one identity over a chart's sample points.

    A row is built whole: ``residuals`` holds the N max-abs residuals, one
    per point in the order of the chart's (N, dim) sample array, and is kept
    read-only.  The points themselves belong to the chart, not the row: the
    CLI's ``ManifoldOutcome`` holds them once and pairs them with each row's
    residuals when the report is written (:meth:`tree`).  The record is a
    plain class, not a dataclass; two records are equal when their fields
    and residuals are.  ``max_residual`` is NaN when any residual is NaN, so
    such a row fails its gate.

    ``extras`` carries named scalar diagnostics (signed residuals,
    contrast values, fitted coefficients) that accompany the headline
    max-abs residual.  ``expected`` says whether a chart is expected to pass
    the row: ``None`` (the default) leaves the row out of the exit status.
    """

    def __init__(
        self,
        identity: str,
        tolerance: float,
        residuals,
        extras: dict[str, float] | None = None,
        status: str = "ok",
        note: str = "",
        expected: bool | None = None,
    ):
        if status not in _STATUSES:
            raise ValueError(f"unknown status {status!r}")
        self.identity = identity
        self.tolerance = tolerance
        self.residuals = residuals = _read_only(np.array(residuals, dtype=float))
        # np.max propagates NaN, where Python's max skips one that is not first
        self.max_residual = float(np.max(residuals)) if residuals.size else 0.0
        self.extras = {} if extras is None else extras
        self.status = status
        self.note = note
        self.expected = expected

    def __repr__(self) -> str:
        return (
            f"IdentityResidualReport({self.identity!r}, {self.tolerance!r},"
            f" max_residual={self.max_residual!r}, points={self.residuals.size},"
            f" status={self.status!r})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdentityResidualReport):
            return NotImplemented
        return (
            (self.identity, self.tolerance, self.extras, self.status, self.note, self.expected)
            == (other.identity, other.tolerance, other.extras, other.status, other.note,
                other.expected)
            and np.array_equal(self.residuals, other.residuals)
        )

    @property
    def passed(self) -> bool:
        """True when the worst residual is within tolerance.

        Informational and not-applicable reports never fail.
        """
        if self.status != "ok":
            return True
        return self.max_residual <= self.tolerance

    @property
    def gated(self) -> bool:
        """True when the row counts toward the exit status."""
        return self.expected is not None and self.status == "ok"

    @property
    def matched(self) -> bool:
        """True unless the row is gated and passed where it should fail, or failed where not."""
        return not self.gated or self.passed == self.expected

    def tree(self, points: np.ndarray) -> dict:
        """The row as :func:`to_json` writes it, paired with its chart's (N, dim) ``points``."""
        return {
            "identity": self.identity,
            "tolerance": float(self.tolerance),
            "max_residual": self.max_residual,
            "passed": self.passed,
            "status": self.status,
            "note": self.note,
            "extras": {k: float(v) for k, v in sorted(self.extras.items())},
            "points": _PointsBlock(points, self.residuals),
            "expected": self.expected,
            "matched": self.matched,
        }


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, a fresh array that nothing else writes, made read-only in place."""
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class _PointsBlock:
    """A chart's points and one row's residuals, written by :func:`to_json` as one list."""

    coords: np.ndarray
    residuals: np.ndarray


@dataclass(frozen=True)
class Identity:
    """How one identity is gated.

    ``tolerance`` is the gate, the one every ``check_*`` function sets
    and the CLI keeps unless ``--tol`` overrides it; to gate a row
    otherwise, set its ``tolerance``.  ``expect`` names the catalog flags
    (``kenmotsu``, ``einstein``, ``weyl_flat``) whose conjunction the row is
    expected to match; an empty tuple means the identity holds on every
    chart.  A ``kenmotsu_only`` row compares closed forms that assume the
    defining condition, so off the Kenmotsu class it is recorded as INFO.
    An ``opposite_sign`` row also records, as its ``opposite-sign-residual``
    extra, the residual against the sign-flipped right-hand side: a sign
    convention mismatch shows up as the row's residual exploding while the
    flipped one collapses.
    """

    suite: str
    tolerance: float
    expect: tuple[str, ...] = ()
    kenmotsu_only: bool = False
    opposite_sign: bool = False


_KENMOTSU = ("kenmotsu",)
_EINSTEIN_KENMOTSU = ("einstein", "kenmotsu")
# the four curvature identities of the Kenmotsu class share one gate
_CURVATURE = Identity("curvature", 1e-5, expect=_KENMOTSU, opposite_sign=True)

# in suite order, and in row order within each suite
IDENTITIES: dict[str, Identity] = {
    "structure-axioms": Identity("axioms", 1e-10),
    "kenmotsu-condition": Identity("kenmotsu", 1e-5, expect=_KENMOTSU),
    "curvature-eta-component": _CURVATURE,
    "curvature-on-reeb": _CURVATURE,
    "curvature-from-reeb": _CURVATURE,
    "ricci-on-reeb": _CURVATURE,
    "torsion-form": Identity("connection", 1e-10),
    "nonmetricity": Identity("connection", 1e-5, opposite_sign=True),
    "reeb-transport": Identity("connection", 1e-5, expect=_KENMOTSU),
    "deformation-form": Identity("connection", 1e-5, expect=_KENMOTSU),
    "riemann-cross-check": Identity("connection", 1e-5, expect=_KENMOTSU),
    "ricci-cross-check": Identity("connection", 1e-5, expect=_KENMOTSU),
    "scalar-cross-check": Identity("connection", 1e-5, kenmotsu_only=True),
    "ricci-symmetry": Identity("connection", 1e-5, kenmotsu_only=True),
    "irregularity": Identity("irregularity", 1e-5, expect=_KENMOTSU),
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


def row(
    identity: str,
    residuals,
    extras: dict[str, float] | None = None,
    *,
    status: str = "ok",
    note: str = "",
) -> IdentityResidualReport:
    """The row of ``identity`` with these per-point residuals, gated at the table's tolerance."""
    tolerance = IDENTITIES[identity].tolerance
    return IdentityResidualReport(identity, tolerance, residuals, extras, status, note)


def sides_row(identity: str, lhs: np.ndarray, rhs: np.ndarray) -> IdentityResidualReport:
    """The row of the identity lhs = rhs: per point, the largest entry of |lhs - rhs|.

    Where the table sets ``opposite_sign``, the extras also hold the
    largest entry of |lhs + rhs| over all points.
    """
    extras = {}
    if IDENTITIES[identity].opposite_sign:
        extras["opposite-sign-residual"] = float(np.max(per_point(lhs + rhs)))
    return row(identity, per_point(lhs - rhs), extras)


def to_json(obj) -> str:
    """``obj`` as the bytes of ``json.dumps(obj, indent=2)``.

    ``obj`` is built from dicts with string keys, lists, tuples, strings,
    ints, floats, bools, None and the points blocks of
    :meth:`IdentityResidualReport.tree`; anything else raises
    ``TypeError``.  A points block is written as ``json.dumps`` writes its
    list of ``{"point": [...], "residual": r}`` records.  ``json.dumps``
    with an indent runs Python's pure-Python encoder, one generator frame
    per value.  This writer renders a block once per points object and
    indent, as a template with one ``%s`` per residual, and each row fills
    in only its residuals.  The templates live for one call, so rows that
    share a chart's points share one rendering of its coordinates.
    """
    out: list[str] = []
    write_json(obj, out.append)
    return "".join(out)


def write_json(obj, write) -> None:
    """Pass the text of :func:`to_json` to ``write`` piece by piece, as it is rendered.

    ``write`` is a callable such as a stream's ``write``, which then receives
    the report without it ever being held whole; the largest piece is one
    row's points block.
    """
    _write(obj, "\n", write, {})


def _float(value: float) -> str:
    """One float as ``json.dumps`` writes it."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _reprs(values: np.ndarray) -> tuple:
    """The floats of ``values`` for ``%s``, which writes them as ``json.dumps`` does.

    ``%s`` writes a finite float as its repr; non-finite ones are replaced
    by their JSON text.
    """
    flat = values.ravel().tolist()
    return tuple(flat) if np.isfinite(values).all() else tuple(map(_float, flat))


def _points_template(coords: np.ndarray, nl: str) -> str:
    """The points block of ``coords`` at the indent ``nl``, one ``%s`` per residual."""
    count, dim = coords.shape
    inner = nl + "  "
    field_nl = inner + "  "
    coord_nl = field_nl + "  "
    point = "[" + coord_nl + ("," + coord_nl).join(["%s"] * dim) + field_nl + "]" if dim else "[]"
    record = "{" + field_nl + '"point": ' + point + "," + field_nl + '"residual": %%s' + inner + "}"
    # one format over every coordinate; "%%s" comes out as the residual's "%s"
    body = ("," + inner).join([record] * count) % _reprs(coords)
    return "[" + inner + body + nl + "]"


def _write_points(block: _PointsBlock, nl: str, put, templates: dict) -> None:
    """Put a row's points block; refuse one whose residual count is neither 0 nor the chart's."""
    residuals = block.residuals
    if not residuals.size:
        put("[]")
        return
    if block.coords.ndim != 2 or residuals.shape != (len(block.coords),):
        raise ValueError(
            f"points of shape {block.coords.shape} but residuals of shape {residuals.shape}"
        )
    # the points object is alive for the whole render, so its id is stable
    key = (id(block.coords), nl)
    if key not in templates:
        templates[key] = _points_template(block.coords, nl)
    put(templates[key] % _reprs(residuals))


def _write(value, nl: str, put, templates: dict) -> None:
    """Put ``value`` rendered at the indent ``nl`` (a newline and the current indent)."""
    if isinstance(value, str):
        put(_quote(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, float):
        put(_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            sep = "," + inner
            _write(item, inner, put, templates)
        put(nl + "]")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(sep + _quote(key) + ": ")
            sep = "," + inner
            _write(item, inner, put, templates)
        put(nl + "}")
    elif type(value) is _PointsBlock:
        _write_points(value, nl, put, templates)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
