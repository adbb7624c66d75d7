"""Dense variance-tracked tensors on a single coordinate chart.

Components live in row-major numpy arrays, one axis per slot, every axis
of length ``dim``.  Variance is data: a tuple of ``"up"`` / ``"down"``
markers parallel to the axes.  There is no index gymnastics DSL here;
contraction and raising/lowering are explicit operations and everything
else is plain numpy on ``.components``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UP = "up"
DOWN = "down"

_SLOT_CODES = {"u": UP, "d": DOWN}


def slots(code: str) -> tuple[str, ...]:
    """Expand a compact variance code, e.g. ``"udd"`` -> (up, down, down)."""
    try:
        return tuple(_SLOT_CODES[c] for c in code)
    except KeyError as exc:
        raise ValueError(f"variance code may only contain 'u'/'d': {code!r}") from exc


@dataclass(frozen=True)
class MultiTensor:
    """A tensor of fixed variance at a point, stored densely.

    Invariants: ``components.shape == (dim,) * len(variance)``, entries are
    finite float64, and the array is frozen (callers get views, not owners).
    A rank-0 tensor is a scalar; use :meth:`item` to read it.
    """

    dim: int
    variance: tuple[str, ...]
    components: np.ndarray

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be positive")
        for v in self.variance:
            if v not in (UP, DOWN):
                raise ValueError(f"bad variance marker {v!r}")
        arr = np.asarray(self.components, dtype=float)
        if arr.shape != (self.dim,) * len(self.variance):
            raise ValueError(
                f"components shape {arr.shape} does not match "
                f"dim={self.dim}, rank={len(self.variance)}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("components must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "components", arr)
        object.__setattr__(self, "variance", tuple(self.variance))

    @property
    def rank(self) -> int:
        return len(self.variance)

    def item(self) -> float:
        if self.rank != 0:
            raise ValueError("item() is only defined for rank-0 tensors")
        return float(self.components)

    def __add__(self, other: "MultiTensor") -> "MultiTensor":
        self._check_compatible(other)
        return MultiTensor(self.dim, self.variance, self.components + other.components)

    def __sub__(self, other: "MultiTensor") -> "MultiTensor":
        self._check_compatible(other)
        return MultiTensor(self.dim, self.variance, self.components - other.components)

    def __mul__(self, scalar: float) -> "MultiTensor":
        return MultiTensor(self.dim, self.variance, self.components * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "MultiTensor":
        return MultiTensor(self.dim, self.variance, -self.components)

    def _check_compatible(self, other: "MultiTensor") -> None:
        if not isinstance(other, MultiTensor):
            raise TypeError("expected a MultiTensor")
        if self.dim != other.dim or self.variance != other.variance:
            raise ValueError(
                f"incompatible tensors: dim/variance ({self.dim}, {self.variance}) "
                f"vs ({other.dim}, {other.variance})"
            )


def max_abs(t: MultiTensor) -> float:
    """Largest absolute component; 0.0 for an empty view never occurs here."""
    if t.rank == 0:
        return abs(t.item())
    return float(np.max(np.abs(t.components)))


def contract(t: MultiTensor, up_slot: int, down_slot: int) -> MultiTensor:
    """Trace one contravariant slot against one covariant slot.

    Remaining slots keep their relative order.
    """
    if up_slot == down_slot:
        raise ValueError("cannot contract a slot with itself")
    if not (0 <= up_slot < t.rank and 0 <= down_slot < t.rank):
        raise ValueError("slot index out of range")
    if t.variance[up_slot] != UP or t.variance[down_slot] != DOWN:
        raise ValueError(
            f"contract needs (up, down) slots, got "
            f"({t.variance[up_slot]}, {t.variance[down_slot]})"
        )
    comps = np.trace(t.components, axis1=up_slot, axis2=down_slot)
    variance = tuple(v for i, v in enumerate(t.variance) if i not in (up_slot, down_slot))
    return MultiTensor(t.dim, variance, comps)


class MetricError(ValueError):
    """A metric is unusable: non-finite, not symmetric, not positive definite or badly inverted."""


# the one symmetry gate of the package: largest |g_ab - g_ba| a metric may have
SYMMETRY_TOL = 1e-10
# largest entry of |g g^-1 - I| an inverse may leave
INVERSE_TOL = 1e-10


def _defect(matrix: np.ndarray, inverse: np.ndarray | None) -> str | None:
    """Why a stack of (dim, dim) matrices is no metric, judged over the whole stack."""
    if not np.all(np.isfinite(matrix)):
        return "has non-finite entries"
    if np.max(np.abs(matrix - np.swapaxes(matrix, -1, -2))) > SYMMETRY_TOL:
        return "is not symmetric"
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return "is not positive definite"
    if inverse is None:
        return None
    if np.max(np.abs(matrix @ inverse - np.eye(matrix.shape[-1]))) > INVERSE_TOL:
        return "inverse does not invert the metric"
    return None


def metric_defect(
    matrix: np.ndarray, inverse: np.ndarray | None = None
) -> tuple[int, str] | None:
    """The first metric of a batch that fails validation, and why.

    ``matrix`` is g_ab at one point, (dim, dim), or at a batch of points,
    (..., dim, dim); ``inverse`` optionally carries g^ab in the same shape.
    The checks run in order: finite entries, symmetry to
    :data:`SYMMETRY_TOL`, positive-definiteness (Cholesky) and, with an
    inverse, g g^-1 = I to :data:`INVERSE_TOL`.  Returns ``None`` when every
    point passes, else the flat index of the first failing point and the
    reason.
    """
    dim = matrix.shape[-1]
    flat = matrix.reshape(-1, dim, dim)
    flat_inv = None if inverse is None else inverse.reshape(-1, dim, dim)
    if _defect(flat, flat_inv) is None:
        return None
    for i in range(len(flat)):
        why = _defect(flat[i : i + 1], None if flat_inv is None else flat_inv[i : i + 1])
        if why is not None:
            return i, why
    return None


@dataclass(frozen=True)
class MetricPair:
    """A positive-definite metric and its inverse, validated together.

    ``matrix`` is g_ab and ``inverse`` is g^ab, at one point (dim, dim) or
    at a batch of points with leading axes (..., dim, dim).  Construction
    checks every point with :func:`metric_defect` and keeps frozen copies.
    """

    matrix: np.ndarray
    inverse: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.matrix, dtype=float)
        b = np.asarray(self.inverse, dtype=float)
        if a.ndim < 2 or a.shape[-1] != a.shape[-2] or b.shape != a.shape:
            raise MetricError("metric and inverse need matching (..., dim, dim) shapes")
        defect = metric_defect(a, b)
        if defect is not None:
            raise MetricError(f"metric {defect[1]}")
        for name, arr in (("matrix", a), ("inverse", b)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "MetricPair":
        m = np.asarray(matrix, dtype=float)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise MetricError("metric matrix must be square")
        try:
            inv = np.linalg.inv(m)
        except np.linalg.LinAlgError as exc:
            raise MetricError("metric is not positive definite") from exc
        # inversion of a symmetric matrix, keep it exact
        inv = (inv + np.swapaxes(inv, -1, -2)) / 2.0
        return cls(m, inv)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def lower(self) -> MultiTensor:
        """g_ab as a (0,2) tensor; a pair at one point only."""
        return MultiTensor(self.dim, slots("dd"), self.matrix)

    @property
    def upper(self) -> MultiTensor:
        """g^ab as a (2,0) tensor; a pair at one point only."""
        return MultiTensor(self.dim, slots("uu"), self.inverse)


def _tensordot_each(
    a: np.ndarray, b: np.ndarray, axes_a: tuple[int, ...], axes_b: tuple[int, ...]
) -> np.ndarray:
    """``np.tensordot(a[n], b[n], (axes_a, axes_b))`` for every n of the leading axis.

    Axes are numbered within one point's array.  The operands are laid out
    as ``np.tensordot`` lays them out and multiplied with one batched
    ``matmul``, so every point's result equals the per-point call exactly.
    """
    n = a.shape[0]
    free_a = [i for i in range(1, a.ndim) if i - 1 not in axes_a]
    free_b = [i for i in range(1, b.ndim) if i - 1 not in axes_b]
    k = int(np.prod([a.shape[i + 1] for i in axes_a]))
    at = a.transpose([0, *free_a, *(i + 1 for i in axes_a)]).reshape(n, -1, k)
    bt = b.transpose([0, *(i + 1 for i in axes_b), *free_b]).reshape(n, k, -1)
    shape = [a.shape[i] for i in free_a] + [b.shape[i] for i in free_b]
    return np.matmul(at, bt).reshape(n, *shape)


def _swap_slot_components(matrix: np.ndarray, comps: np.ndarray, slot: int) -> np.ndarray:
    """Contract ``matrix[n, a, b]`` with slot ``slot`` of ``comps[n, ...]`` at every point n."""
    return np.moveaxis(_tensordot_each(matrix, comps, (1,), (slot,)), 1, slot + 1)


def _swap_slot(t: MultiTensor, slot: int, matrix: np.ndarray, new_variance: str) -> MultiTensor:
    comps = _swap_slot_components(matrix[None], t.components[None], slot)[0]
    variance = tuple(
        new_variance if i == slot else v for i, v in enumerate(t.variance)
    )
    return MultiTensor(t.dim, variance, comps)


def raise_slot(t: MultiTensor, slot: int, metric: MetricPair) -> MultiTensor:
    """Convert a covariant slot to contravariant with g^ab."""
    if not 0 <= slot < t.rank:
        raise ValueError("slot index out of range")
    if t.variance[slot] != DOWN:
        raise ValueError("raise_slot expects a covariant slot")
    if t.dim != metric.dim:
        raise ValueError("tensor/metric dimension mismatch")
    return _swap_slot(t, slot, metric.inverse, UP)


def lower_slot(t: MultiTensor, slot: int, metric: MetricPair) -> MultiTensor:
    """Convert a contravariant slot to covariant with g_ab."""
    if not 0 <= slot < t.rank:
        raise ValueError("slot index out of range")
    if t.variance[slot] != UP:
        raise ValueError("lower_slot expects a contravariant slot")
    if t.dim != metric.dim:
        raise ValueError("tensor/metric dimension mismatch")
    return _swap_slot(t, slot, metric.matrix, DOWN)
