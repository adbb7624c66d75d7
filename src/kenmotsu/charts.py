"""Coordinate charts, finite differencing, and Levi-Civita curvature.

A manifold here is a single chart: a box domain in R^dim with a smooth
positive-definite metric given by a callable.  All differentiation is
numerical (central differences, optionally one Richardson extrapolation
level) unless the chart supplies analytic metric partials.

Sign conventions, used consistently everywhere downstream:

    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    riem[l,i,j,k] = dx^l(R(d_i, d_j) d_k)
                  = d_i Gamma^l_jk - d_j Gamma^l_ik
                    + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    S(Y,Z) = trace(X -> R(X,Y)Z)        (contract slots 0 and 1)

Under these, a space of constant curvature -1 has S = -(dim-1) g.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensors import (
    UP,
    MetricError,
    MetricPair,
    metric_defect,
    _tensordot_each,
)


class DomainError(ValueError):
    """A point (or a finite-difference stencil around it) leaves the chart."""


@dataclass(frozen=True)
class DifferentiationConfig:
    """Finite-difference settings.

    ``step`` is the central-difference half-width h; with ``richardson``
    the derivative is (4 D_{h/2} - D_h) / 3, one extrapolation level.
    """

    step: float = 1e-4
    richardson: bool = True

    def __post_init__(self) -> None:
        if not (self.step > 0.0 and np.isfinite(self.step)):
            raise ValueError("step must be a positive finite number")


def batched(f: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Mark a chart or structure callable as taking a batch of points.

    A marked callable takes points of shape (..., dim) and returns values of
    shape (..., *shape); it must also accept a single point (dim,).  It is
    then called once per batch instead of once per point.  The mark is an
    attribute of the callable itself, so one structure may mix marked and
    per-point callables.  Returns ``f``.
    """
    f.takes_batch = True
    return f


def _at_each(
    f: Callable[[np.ndarray], np.ndarray],
    points: np.ndarray,
    shape: tuple[int, ...] | None,
    what: str,
    error: type[Exception],
) -> np.ndarray:
    """Evaluate a chart or structure callable on a (..., dim) batch.

    A callable marked by :func:`batched` is called once, with the batch
    flattened to (N, dim); any other is called at each point and the values
    are stacked.  Every value must have ``shape`` (``None``: the first
    value's shape); otherwise ``error`` names the callable and the point or
    batch shape.  The callable gets read-only points, and the result is a
    fresh array, so a broadcast or aliased return does not leak.
    """
    flat = np.asarray(points, dtype=float).reshape(-1, points.shape[-1]).view()
    flat.setflags(write=False)
    if getattr(f, "takes_batch", False):
        out = np.array(f(flat), dtype=float)
        want = flat.shape[:1] + (out.shape[1:] if shape is None else shape)
        if out.shape != want:
            raise error(f"{what} returned shape {out.shape} for a batch of shape {flat.shape}")
        return out.reshape(points.shape[:-1] + out.shape[1:])
    out = None
    for i, q in enumerate(flat):
        value = np.asarray(f(q), dtype=float)
        if out is None:
            shape = value.shape if shape is None else shape
            out = np.empty((len(flat),) + shape)
        if value.shape != shape:
            raise error(f"{what} returned shape {value.shape} at {q.tolist()}")
        out[i] = value
    return out.reshape(points.shape[:-1] + shape)


@dataclass(frozen=True)
class ChartManifold:
    """One coordinate chart with a metric.

    ``metric(p)`` returns the (dim, dim) matrix g_ij at p.
    ``metric_partials(p)``, when provided, returns dg[a, i, j] = d_a g_ij;
    otherwise partials are taken by finite differences.
    ``domain`` is a box: a (lo, hi) pair per coordinate.

    Each callable takes one point, or, when marked by :func:`batched`, a
    batch (..., dim).  The ``*_at`` methods take one point, shape (dim,), or
    a batch, shape (..., dim), call a marked callable once for the whole
    batch and any other at each point, and return arrays with the batch's
    leading axes.
    """

    dim: int
    metric: Callable[[np.ndarray], np.ndarray]
    domain: tuple[tuple[float, float], ...]
    metric_partials: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.dim < 3 or self.dim % 2 == 0:
            raise ValueError("dim must be odd and at least 3")
        if len(self.domain) != self.dim:
            raise ValueError("domain needs one (lo, hi) pair per coordinate")
        for lo, hi in self.domain:
            if not lo < hi:
                raise ValueError(f"empty domain interval ({lo}, {hi})")
        object.__setattr__(
            self, "domain", tuple((float(lo), float(hi)) for lo, hi in self.domain)
        )

    @property
    def n(self) -> int:
        """The contact half-dimension: dim = 2n + 1."""
        return (self.dim - 1) // 2

    def _inside(self, p: np.ndarray, margin: float) -> np.ndarray:
        lo = np.array([lo for lo, _ in self.domain])
        hi = np.array([hi for _, hi in self.domain])
        return np.all((lo + margin <= p) & (p <= hi - margin), axis=-1)

    def contains(self, point: np.ndarray, margin: float = 0.0) -> bool:
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dim,):
            return False
        return bool(self._inside(p, margin))

    def require_inside(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """The points as a float array, if every one sits ``margin`` inside the box."""
        p = np.asarray(points, dtype=float)
        if p.ndim == 0 or p.shape[-1] != self.dim:
            raise DomainError(f"point has shape {p.shape}, expected ({self.dim},)")
        outside = ~self._inside(p, margin)
        if np.any(outside):
            first = p.reshape(-1, self.dim)[np.argmax(outside.ravel())]
            raise DomainError(
                f"point {first.tolist()} leaves the chart domain (margin {margin})"
            )
        return p

    def metric_at(self, points: np.ndarray) -> np.ndarray:
        """g_ij at each point, validated by :func:`~kenmotsu.tensors.metric_defect`."""
        p = self.require_inside(points)
        m = _at_each(self.metric, p, (self.dim, self.dim), "metric", MetricError)
        defect = metric_defect(m)
        if defect is not None:
            index, why = defect
            raise MetricError(f"metric {why} at {p.reshape(-1, self.dim)[index].tolist()}")
        return m

    def metric_pair_at(self, points: np.ndarray) -> MetricPair:
        return MetricPair.from_matrix(self.metric_at(points))

    def metric_partials_at(
        self, points: np.ndarray, cfg: DifferentiationConfig
    ) -> np.ndarray:
        """dg[..., a, i, j] = d_a g_ij, analytic when the chart provides it."""
        if self.metric_partials is not None:
            p = self.require_inside(points)
            return _at_each(
                self.metric_partials, p, (self.dim,) * 3, "metric_partials", MetricError
            )
        p = self.require_inside(points, margin=cfg.step)
        return array_field_partials(self.metric, p, cfg)


def stencil(points: np.ndarray, cfg: DifferentiationConfig) -> np.ndarray:
    """The central-difference stencil of each point, shape (..., S, dim).

    Entry 0 is the point itself; then, per axis a, the offsets +h and -h
    along a and, with Richardson, +h/2 and -h/2.  S = 1 + 4 dim with
    Richardson and 1 + 2 dim without.
    """
    p = np.asarray(points, dtype=float)
    dim = p.shape[-1]
    steps = (cfg.step, -cfg.step, cfg.step / 2.0, -cfg.step / 2.0)
    steps = steps if cfg.richardson else steps[:2]
    offsets = np.zeros((1 + dim * len(steps), dim))
    for a in range(dim):
        for s, h in enumerate(steps):
            offsets[1 + a * len(steps) + s, a] = h
    return p[..., None, :] + offsets


def stencil_partials(
    values: np.ndarray, cfg: DifferentiationConfig, axis: int
) -> np.ndarray:
    """Partials of a field from its values on :func:`stencil`.

    ``axis`` is the stencil axis of ``values``; the derivative axis (length
    dim) takes its place.  Central differences of width ``cfg.step``, with
    one Richardson level when enabled.
    """
    per_axis = 4 if cfg.richardson else 2
    v = np.moveaxis(values, axis, 0)
    v = v[1:].reshape(((v.shape[0] - 1) // per_axis, per_axis) + v.shape[1:])
    out = (v[:, 0] - v[:, 1]) / (2.0 * cfg.step)
    if cfg.richardson:
        d_half = (v[:, 2] - v[:, 3]) / (2.0 * (cfg.step / 2.0))
        out = (4.0 * d_half - out) / 3.0
    return np.moveaxis(out, 0, axis)


def array_field_partials(
    f: Callable[[np.ndarray], np.ndarray],
    points: np.ndarray,
    cfg: DifferentiationConfig,
) -> np.ndarray:
    """Partials of an array-valued field; the derivative axis comes first.

    out[..., a, ...] = d_a f(point)[...] for one point (dim,) or a batch
    (..., dim): ``f`` is called at every stencil point (see
    :func:`stencil`).  Domain checking is the caller's job; this function
    only evaluates f where it is told to.
    """
    p = np.asarray(points, dtype=float)
    values = _at_each(f, stencil(p, cfg), None, "field", ValueError)
    return stencil_partials(values, cfg, axis=p.ndim - 1)


@dataclass(frozen=True)
class ConnectionCoefficients:
    """Coefficients Gamma^k_ij of a linear connection at one point or a batch.

    Storage: gamma[..., k, i, j] with nabla_{d_i} d_j = Gamma^k_ij d_k; the
    leading axes, if any, index points.  ``symmetric=True`` asserts
    torsion-freeness (Levi-Civita case) and is validated on construction.
    """

    dim: int
    gamma: np.ndarray
    symmetric: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.gamma, dtype=float)
        if arr.ndim < 3 or arr.shape[-3:] != (self.dim,) * 3:
            raise ValueError(f"gamma shape {arr.shape}, expected (..., {(self.dim,) * 3})")
        if not np.all(np.isfinite(arr)):
            raise ValueError("gamma has non-finite entries")
        if self.symmetric and np.max(np.abs(arr - np.swapaxes(arr, -1, -2))) > 1e-8:
            raise ValueError("coefficients marked symmetric are not")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "gamma", arr)


def _christoffel(metric_inverse: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^k_ij = (1/2) g^kl (d_i g_lj + d_j g_li - d_l g_ij), with leading point axes."""
    term = (
        np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg) - dg
    )
    return 0.5 * np.einsum("...kl,...lij->...kij", metric_inverse, term)


def levi_civita(
    manifold: ChartManifold, points: np.ndarray, cfg: DifferentiationConfig
) -> ConnectionCoefficients:
    """Christoffel symbols of the metric at one point (dim,) or a batch (..., dim)."""
    p = manifold.require_inside(points)
    gpair = manifold.metric_pair_at(p)
    gamma = _christoffel(gpair.inverse, manifold.metric_partials_at(p, cfg))
    return ConnectionCoefficients(manifold.dim, gamma, symmetric=True)


def riemann_of_connection(
    manifold: ChartManifold,
    gamma_field: Callable[[np.ndarray], ConnectionCoefficients],
    points: np.ndarray,
    cfg: DifferentiationConfig,
) -> np.ndarray:
    """Curvature of an arbitrary connection.

    ``gamma_field`` is called once, with the :func:`stencil` of every
    point, shape (..., S, dim); its coefficients may also be one constant
    (dim, dim, dim) array.  Differentiating the coefficient field may nest a
    second stencil inside the first, so each point must sit at least 2h
    inside the domain.  Returns riem[..., l, i, j, k] with the leading
    axes of ``points``: (dim,) * 4 for one point (dim,) and
    (N, dim, dim, dim, dim) for a batch (N, dim).
    """
    p = manifold.require_inside(points, margin=2.0 * cfg.step)
    q = stencil(p, cfg)
    gamma = np.broadcast_to(gamma_field(q).gamma, q.shape[:-1] + (manifold.dim,) * 3)
    dgamma = stencil_partials(gamma, cfg, axis=p.ndim - 1)
    return _curvature_components(gamma[..., 0, :, :, :], dgamma)


def _curvature_components(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """riem[..., l, i, j, k] from Gamma^l_jk and dgamma[..., i, l, j, k] = d_i Gamma^l_jk."""
    t1 = np.swapaxes(dgamma, -4, -3)  # t1[l,i,j,k] = d_i Gamma^l_jk
    t2 = np.swapaxes(t1, -3, -2)
    q1 = np.einsum("...lim,...mjk->...lijk", gamma, gamma)
    q2 = np.swapaxes(q1, -3, -2)
    return t1 - t2 + q1 - q2


def _add_connection_terms(
    partials: np.ndarray, base: np.ndarray, variance: tuple[str, ...], gamma: np.ndarray
) -> np.ndarray:
    """Turn coordinate partials of a tensor field into its covariant derivative.

    Every array has a leading point axis: ``partials[n, a, ...]``,
    ``base[n, ...]`` with one axis per entry of ``variance``, and
    ``gamma[n, k, i, j]``.
    """
    comps = partials
    for s, var in enumerate(variance):
        if var == UP:
            # +Gamma^k_am T[.. m at s ..]; the product leaves axes (k, a, rest)
            corr = _tensordot_each(gamma, base, (2,), (s,))
            comps = comps + np.moveaxis(corr, (1, 2), (s + 2, 1))
        else:
            # -Gamma^m_ab T[.. m at s ..]; the product leaves axes (a, b, rest)
            corr = _tensordot_each(gamma, base, (0,), (s,))
            comps = comps - np.moveaxis(corr, (1, 2), (1, s + 2))
    return comps
