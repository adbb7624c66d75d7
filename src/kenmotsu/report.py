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
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

import numpy as np


# status values:
#   "ok"             residual is compared against the tolerance
#   "info"           recorded for inspection only, never counts as a failure
#   "not-applicable" check is vacuous here (e.g. Weyl in dimension 3)
_STATUSES = ("ok", "info", "not-applicable")


class IdentityResidualReport:
    """Outcome of checking one identity over a set of sample points.

    ``residuals`` is one float array with the max-abs residual at each
    point, and ``coords`` the (N, dim) float array of the points, both
    read-only; :meth:`add_points` is the way to add points.  The checks of
    this package pass a chart's shared sample array (``CurvatureBundle.p``),
    so every row of a chart holds the same object and :func:`to_json`
    renders its coordinates once per report.  The record is a plain class,
    not a dataclass; two records are equal when their fields and arrays
    are.  ``max_residual`` is NaN when any residual is NaN, so such a row
    fails its gate.

    ``extras`` carries named scalar diagnostics (signed residuals,
    contrast values, fitted coefficients) that accompany the headline
    max-abs residual.
    """

    def __init__(
        self,
        identity: str,
        tolerance: float,
        extras: dict[str, float] | None = None,
        status: str = "ok",
        note: str = "",
    ):
        if status not in _STATUSES:
            raise ValueError(f"unknown status {status!r}")
        self.identity = identity
        self.tolerance = tolerance
        self.coords = _read_only(np.empty((0, 0)))
        self.residuals = _read_only(np.empty(0))
        self.extras = {} if extras is None else extras
        self.status = status
        self.note = note

    def __repr__(self) -> str:
        return (
            f"IdentityResidualReport({self.identity!r}, {self.tolerance!r},"
            f" max_residual={self.max_residual!r}, points={len(self.residuals)},"
            f" status={self.status!r})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdentityResidualReport):
            return NotImplemented
        return (
            (self.identity, self.tolerance, self.extras, self.status, self.note)
            == (other.identity, other.tolerance, other.extras, other.status, other.note)
            and np.array_equal(self.coords, other.coords)
            and np.array_equal(self.residuals, other.residuals)
        )

    @property
    def max_residual(self) -> float:
        if not len(self.residuals):
            return 0.0
        # np.max propagates NaN, where Python's max skips one that is not first
        return float(np.max(self.residuals))

    @property
    def passed(self) -> bool:
        """True when the worst residual is within tolerance.

        Informational and not-applicable reports never fail.
        """
        if self.status != "ok":
            return True
        return self.max_residual <= self.tolerance

    def add_points(self, points, residuals: np.ndarray) -> None:
        """Append one residual per point, in point order.

        ``points`` is an (N, dim) array or a list of N points.  A read-only
        float array is kept as is, not copied, so the rows of one batch
        share it.
        """
        residuals = np.array(residuals, dtype=float)
        if not len(residuals):
            return
        coords = np.asarray(points, dtype=float)
        if coords.ndim != 2 or residuals.shape != (len(coords),):
            raise ValueError(
                f"points of shape {coords.shape} but residuals of shape {residuals.shape}"
            )
        if len(self.residuals):
            coords = np.concatenate([self.coords, coords])
            residuals = np.concatenate([self.residuals, residuals])
        elif coords.flags.writeable:
            coords = coords.copy()
        self.coords, self.residuals = _read_only(coords), _read_only(residuals)

    def to_dict(self) -> dict:
        return self._tree(
            [
                {"point": p, "residual": r}
                for p, r in zip(self.coords.tolist(), self.residuals.tolist())
            ]
        )

    def to_json_tree(self) -> dict:
        """:meth:`to_dict` with the points left as arrays for :func:`to_json`.

        Only :func:`to_json` can write the result; it renders the same bytes
        as for :meth:`to_dict` without a Python object per point.
        """
        return self._tree(_PointsBlock(self.coords, self.residuals))

    def _tree(self, points) -> dict:
        return {
            "identity": self.identity,
            "tolerance": float(self.tolerance),
            "max_residual": self.max_residual,
            "passed": self.passed,
            "status": self.status,
            "note": self.note,
            "extras": {k: float(v) for k, v in sorted(self.extras.items())},
            "points": points,
        }


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class _PointsBlock:
    """A row's points and residuals, written by :func:`to_json` as one list."""

    __slots__ = ("coords", "residuals")

    def __init__(self, coords: np.ndarray, residuals: np.ndarray):
        self.coords = coords
        self.residuals = residuals


@dataclass(frozen=True)
class Identity:
    """How one identity is gated.

    ``tolerance`` is the base gate, the one every ``check_*`` function
    sets; to gate a row otherwise, set its ``tolerance``.  ``fd_scaled``
    identities stack two finite-difference curvature passes, so the CLI
    multiplies their gate by the chart's ``fd_tolerance_scale``.  ``expect`` names the catalog flags
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


def new_report(identity: str) -> IdentityResidualReport:
    """An empty report gated at the table's base tolerance."""
    return IdentityResidualReport(identity, IDENTITIES[identity].tolerance)


def to_json(obj) -> str:
    """``obj`` as the bytes of ``json.dumps(obj, indent=2)``.

    ``obj`` is built from dicts with string keys, lists, tuples, strings,
    ints, floats, bools and None; anything else raises ``TypeError``.
    ``json.dumps`` with an indent runs Python's pure-Python encoder, one
    generator frame per value.  This writer renders each list of floats
    with one ``str.join``.  A row of
    :meth:`IdentityResidualReport.to_json_tree` also holds its points as
    arrays: their block (the ``{"point": [...], "residual": r}`` records)
    is rendered once per points object and indent, as a template with one
    ``%s`` per residual, and each row fills in only its residuals.  The
    templates live for one call, so rows that share a chart's points share
    one rendering of its coordinates.
    """
    out: list[str] = []
    _write(obj, "\n", out, {})
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


def _write_points(block: _PointsBlock, nl: str, out: list[str], templates: dict) -> None:
    """Append a row's points block, its coordinates taken from ``templates``."""
    residuals = block.residuals
    if not len(residuals):
        out.append("[]")
        return
    # the points object is alive for the whole render, so its id is stable
    key = (id(block.coords), nl)
    if key not in templates:
        templates[key] = _points_template(block.coords, nl)
    out.append(templates[key] % _reprs(residuals))


def _write(value, nl: str, out: list[str], templates: dict) -> None:
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
        _write_list(value, nl, out, templates)
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
            _write(item, inner, out, templates)
        out.append(nl + "}")
    elif type(value) is _PointsBlock:
        _write_points(value, nl, out, templates)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_list(values, nl: str, out: list[str], templates: dict) -> None:
    if not values:
        out.append("[]")
        return
    try:
        out.append(_floats(values, nl))
        return
    except TypeError:
        pass
    inner = nl + "  "
    sep = "[" + inner
    for item in values:
        out.append(sep)
        sep = "," + inner
        _write(item, inner, out, templates)
    out.append(nl + "]")
