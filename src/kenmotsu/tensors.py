"""Dense tensor components on a single coordinate chart, and metric validation.

Components live in row-major numpy arrays, one axis per slot, every axis
of length ``dim``, after any leading point axes.  Variance is not data:
each array's docstring names its slots, as in gamma[..., k, i, j] =
Gamma^k_ij, and each rank has its own covariant derivative in
:mod:`kenmotsu.charts`.  Everything is plain numpy on the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the variance markers of a MultiTensor, one per slot
UP = "up"
DOWN = "down"


# nothing in the package builds one; the benchmark's tracer
# (``perfbench/tracing.py``) still counts calls to this constructor by name,
# so the class goes together with that counter
@dataclass(frozen=True)
class MultiTensor:
    """A tensor of fixed variance at a point, stored densely.

    Invariants: ``components.shape == (dim,) * len(variance)``, entries are
    finite float64, and the array is frozen (callers get views, not owners).
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


class MetricError(ValueError):
    """A metric is unusable: non-finite, not symmetric, not positive definite or badly inverted.

    ``index``, when validation raised the error, is the flat index of the
    first failing point of the batch.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


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
    defect = np.max(np.abs(matrix @ inverse - np.eye(matrix.shape[-1])))
    # a non-finite inverse leaves a NaN defect, which no comparison passes
    if not defect <= INVERSE_TOL:
        return "inverse does not invert the metric"
    return None


def require_metric(matrix: np.ndarray, inverse: np.ndarray | None = None) -> None:
    """Raise a :class:`MetricError` for the first metric of a batch that fails validation.

    ``matrix`` is g_ab at one point, (dim, dim), or at a batch of points,
    (..., dim, dim); ``inverse`` optionally carries g^ab in the same shape.
    The checks run in order: finite entries, symmetry to
    :data:`SYMMETRY_TOL`, positive-definiteness (Cholesky) and, with an
    inverse, g g^-1 = I to :data:`INVERSE_TOL`.  The error gives the reason
    and, as its ``index``, the flat index of the first failing point.
    """
    dim = matrix.shape[-1]
    flat = matrix.reshape(-1, dim, dim)
    flat_inv = None if inverse is None else inverse.reshape(-1, dim, dim)
    if _defect(flat, flat_inv) is None:
        return
    for i in range(len(flat)):
        why = _defect(flat[i : i + 1], None if flat_inv is None else flat_inv[i : i + 1])
        if why is not None:
            raise MetricError(f"metric {why}", i)


@dataclass(frozen=True)
class MetricPair:
    """A positive-definite metric and its inverse, validated together.

    ``matrix`` is g_ab and ``inverse`` is g^ab, at one point (dim, dim) or
    at a batch of points with leading axes (..., dim, dim).  Construction
    checks every point with :func:`require_metric` and keeps frozen copies.
    """

    matrix: np.ndarray
    inverse: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.matrix, dtype=float)
        b = np.asarray(self.inverse, dtype=float)
        if a.ndim < 2 or a.shape[-1] != a.shape[-2] or b.shape != a.shape:
            raise MetricError("metric and inverse need matching (..., dim, dim) shapes")
        require_metric(a, b)
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
            # a NaN would reach the inverse and fail there as a singular matrix
            inv = np.linalg.inv(m) if np.all(np.isfinite(m)) else None
        except np.linalg.LinAlgError:
            inv = None
        if inv is None:
            # with no inverse to check, the metric alone names the point at fault
            require_metric(m)
            raise MetricError("metric is not positive definite")
        # inversion of a symmetric matrix, keep it exact
        inv = (inv + np.swapaxes(inv, -1, -2)) / 2.0
        return cls(m, inv)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

