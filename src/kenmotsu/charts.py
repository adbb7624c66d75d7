"""Coordinate charts, finite differencing, and Levi-Civita curvature.

A manifold here is a single chart: a box domain in R^dim with a smooth
positive-definite metric given by a callable.  Differentiation is numerical
(central differences, optionally one Richardson level) where the chart gives
no analytic metric partials, first or second.

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

from .tensors import UP, MetricError, MetricPair, require_metric


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
    ``metric_second_partials(p)``, optional and only with ``metric_partials``,
    returns ddg[a, b, i, j] = d_a d_b g_ij.
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
    metric_second_partials: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.metric_second_partials is not None and self.metric_partials is None:
            raise ValueError("metric_second_partials needs metric_partials")
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
        """g_ij at each point, validated by :func:`~kenmotsu.tensors.require_metric`."""
        p = self.require_inside(points)
        m = _at_each(self.metric, p, (self.dim, self.dim), "metric", MetricError)
        try:
            require_metric(m)
        except MetricError as exc:
            raise _at_point(p, exc) from None
        return m

    def metric_pair_at(self, points: np.ndarray) -> MetricPair:
        """g_ij and g^ij at each point: one evaluation, one inverse, one validation."""
        p = self.require_inside(points)
        m = _at_each(self.metric, p, (self.dim, self.dim), "metric", MetricError)
        try:
            return MetricPair.from_matrix(m)
        except MetricError as exc:
            raise _at_point(p, exc) from None

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


def _at_point(points: np.ndarray, error: MetricError) -> MetricError:
    """``error`` naming the point at fault, when validation gave its index."""
    if error.index is None:
        return error
    where = points.reshape(-1, points.shape[-1])[error.index].tolist()
    return MetricError(f"{error} at {where}")


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


def levi_civita(pair: MetricPair, dg: np.ndarray) -> np.ndarray:
    """Christoffel symbols of a metric at one point or a batch of points.

    ``pair`` holds g and its inverse, (..., dim, dim), and
    ``dg[..., a, i, j] = d_a g_ij`` the metric partials at the same points.
    Returns gamma[..., k, i, j] = Gamma^k_ij with nabla_{d_i} d_j =
    Gamma^k_ij d_k, where Gamma^k_ij = (1/2) g^kl (d_i g_lj + d_j g_li -
    d_l g_ij), contracted as one batched matmul.
    """
    m = pair.dim
    term = np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1) - dg
    return 0.5 * (pair.inverse @ term.reshape(dg.shape[:-3] + (m, m * m))).reshape(dg.shape)


def _christoffel_partials(
    inverse: np.ndarray, dg: np.ndarray, ddg: np.ndarray, gamma: np.ndarray
) -> np.ndarray:
    """d_a Gamma^k_ij = g^kl d_a Gamma_l,ij - (g^-1 d_a g)^k_m Gamma^m_ij, as [n, a, k, i, j].

    From g^-1, ``dg[n, a]``, ``ddg[n, a, b]`` and Gamma at the points.
    """
    n, m = gamma.shape[:2]
    lowered = 0.5 * (np.swapaxes(ddg, -3, -2) + np.moveaxis(ddg, -3, -1) - ddg)
    lowered = lowered.reshape(n, m, m, m * m) - dg @ gamma.reshape(n, 1, m, m * m)
    return (inverse[:, None] @ lowered).reshape(ddg.shape)


def riemann_of_connection(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """Curvature of an arbitrary connection from its coefficients and their partials.

    ``gamma[..., l, j, k]`` = Gamma^l_jk and ``dgamma[..., i, l, j, k]`` =
    d_i Gamma^l_jk, exact or the :func:`stencil_partials` of the
    coefficients on the stencils.  Returns riem[..., l, i, j, k].
    """
    t1 = np.swapaxes(dgamma, -4, -3)  # t1[l,i,j,k] = d_i Gamma^l_jk
    t2 = np.swapaxes(t1, -3, -2)
    lead, m = gamma.shape[:-3], gamma.shape[-1]
    q1 = (gamma.reshape(lead + (m * m, m)) @ gamma.reshape(lead + (m, m * m))).reshape(t1.shape)
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
    n, m = gamma.shape[:2]
    comps = partials
    for s, var in enumerate(variance):
        # slot s first, the other slots flattened behind it
        moved = np.moveaxis(base, s + 1, 1)
        flat = moved.reshape(n, m, -1)
        shape = (n, m, m, *moved.shape[2:])
        if var == UP:
            # +Gamma^k_am T[.. m at s ..]; the product leaves axes (k, a, rest)
            corr = (gamma.reshape(n, m * m, m) @ flat).reshape(shape)
            comps = comps + np.moveaxis(corr, (1, 2), (s + 2, 1))
        else:
            # -Gamma^m_ab T[.. m at s ..]; the product leaves axes (a, b, rest)
            corr = (np.moveaxis(gamma, 1, -1).reshape(n, m * m, m) @ flat).reshape(shape)
            comps = comps - np.moveaxis(corr, (1, 2), (1, s + 2))
    return comps
