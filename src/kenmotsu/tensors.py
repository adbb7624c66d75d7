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


@dataclass(frozen=True)
class MetricPair:
    """A positive-definite metric and its inverse, validated together.

    ``lower`` is g_ab, ``upper`` is g^ab.  Construction checks symmetry,
    positive-definiteness (Cholesky) and that the product is the identity
    to 1e-10 per component.
    """

    lower: MultiTensor
    upper: MultiTensor

    def __post_init__(self) -> None:
        g = self.lower
        ginv = self.upper
        if g.variance != (DOWN, DOWN) or ginv.variance != (UP, UP):
            raise ValueError("MetricPair needs a (0,2) lower and (2,0) upper tensor")
        if g.dim != ginv.dim:
            raise ValueError("metric and inverse dimension mismatch")
        a, b = g.components, ginv.components
        if np.max(np.abs(a - a.T)) > 1e-12:
            raise ValueError("metric is not symmetric")
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise ValueError("metric is not positive definite") from exc
        if np.max(np.abs(a @ b - np.eye(g.dim))) > 1e-10:
            raise ValueError("metric inverse does not invert the metric")

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "MetricPair":
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("metric matrix must be square")
        dim = m.shape[0]
        inv = np.linalg.inv(m)
        inv = (inv + inv.T) / 2.0  # inversion of a symmetric matrix, keep it exact
        return cls(
            lower=MultiTensor(dim, slots("dd"), m),
            upper=MultiTensor(dim, slots("uu"), inv),
        )

    @property
    def dim(self) -> int:
        return self.lower.dim

    @property
    def matrix(self) -> np.ndarray:
        return self.lower.components

    @property
    def inverse(self) -> np.ndarray:
        return self.upper.components


def _swap_slot(t: MultiTensor, slot: int, matrix: np.ndarray, new_variance: str) -> MultiTensor:
    comps = np.tensordot(matrix, t.components, axes=(1, slot))
    comps = np.moveaxis(comps, 0, slot)
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
