"""Coordinate charts and Levi-Civita curvature.

A manifold here is a single chart: a box domain in R^dim with a smooth
positive-definite metric written over jets (:mod:`kenmotsu.jets`), so one
evaluation of the metric gives its exact first and second partials.

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

from .jets import Jet, variables
from .tensors import MetricError, MetricPair, require_metric


class DomainError(ValueError):
    """A point leaves the chart."""


def _partials_at(
    f: Callable,
    points: np.ndarray,
    shape: tuple[int, ...],
    order: int,
    what: str,
    error: type[Exception],
) -> list[np.ndarray]:
    """[value, partials] of a field at one point (dim,) or a batch (..., dim), from one call.

    ``f`` runs once, on the coordinate jets of ``order`` 1 or 2 of the points
    flattened to (N, dim).  value[..., *shape], partials[..., a, *shape] and
    at order 2 second[..., a, b, *shape] are fresh read-only arrays.  A plain
    array of the field's own ``shape`` is a constant, with zero partials; any
    other plain array, or a jet of another shape, raises ``error`` naming ``what``.
    """
    p = np.asarray(points, dtype=float)
    flat = p.reshape(-1, p.shape[-1]).view()
    flat.setflags(write=False)
    n, dim = flat.shape
    out = f(variables(flat, order))
    if isinstance(out, Jet):
        if out.shape != (n,) + shape:
            raise error(f"{what} returned shape {out.shape} for a batch of shape {flat.shape}")
        parts = [out.value, np.moveaxis(out.grad, -1, 1)]
        if order == 2:
            parts.append(np.moveaxis(out.hess, (-2, -1), (1, 2)))
        parts = [np.array(part, dtype=float) for part in parts]
    else:
        value = np.asarray(out, dtype=float)
        if value.shape != shape:
            raise error(f"{what} returned a plain array of shape {value.shape}: neither a jet"
                        f" nor a constant of shape {shape}")
        parts = [np.array(np.broadcast_to(value, (n,) + shape))]
        parts += [np.zeros((n,) + (dim,) * k + shape) for k in range(1, order + 1)]
    for part in parts:
        part.setflags(write=False)
    return [part.reshape(p.shape[:-1] + part.shape[1:]) for part in parts]


@dataclass(frozen=True)
class ChartManifold:
    """One coordinate chart with a metric, on a box ``domain`` of one (lo, hi) pair per coordinate.

    ``metric(x)`` takes the coordinate jets x of a batch of points (see
    :func:`~kenmotsu.jets.variables`) and returns g_ij there as a jet of
    shape (N, dim, dim), or a plain (dim, dim) array for a constant metric.
    The ``*_at`` methods take one point, shape (dim,), or a batch, shape
    (..., dim), call ``metric`` once for the whole batch, and return arrays
    with the batch's leading axes.
    """

    dim: int
    metric: Callable
    domain: tuple[tuple[float, float], ...]

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
        bounds = np.array(self.domain).T  # lows and highs, read-only, for require_inside
        bounds.setflags(write=False)
        object.__setattr__(self, "_bounds", bounds)

    @property
    def n(self) -> int:
        """The contact half-dimension: dim = 2n + 1."""
        return (self.dim - 1) // 2

    def require_inside(self, points: np.ndarray) -> np.ndarray:
        """The points as a float array, if there is at least one and every one lies in the box."""
        p = np.asarray(points, dtype=float)
        if p.ndim == 0 or p.shape[-1] != self.dim:
            raise DomainError(f"point has shape {p.shape}, expected ({self.dim},)")
        if p.size == 0:
            raise DomainError(f"no points: the batch has shape {p.shape}")
        lo, hi = self._bounds
        outside = ~np.all((lo <= p) & (p <= hi), axis=-1)
        if np.any(outside):
            first = p.reshape(-1, self.dim)[np.argmax(outside.ravel())]
            raise DomainError(f"point {first.tolist()} leaves the chart domain")
        return p

    # nothing in the package calls this; the benchmark's tracer
    # (``perfbench/tracing.py``) still binds it by name, so it stays with that
    def metric_at(self, points: np.ndarray) -> np.ndarray:
        """g_ij at each point, validated by :func:`~kenmotsu.tensors.require_metric`."""
        p = self.require_inside(points)
        m = self.metric_partials_at(p)[0]
        try:
            require_metric(m)
        except MetricError as exc:
            raise _at_point(p, exc) from None
        return m

    def metric_pair_at(self, points: np.ndarray, g: np.ndarray | None = None) -> MetricPair:
        """g_ij and g^ij at each point: one inverse, one validation.

        ``g`` is the metric at the points, when the caller has it already
        from :meth:`metric_partials_at`: a ``g`` of another batch shape raises.
        """
        p = self.require_inside(points)
        if g is None:
            g = self.metric_partials_at(p)[0]
        elif np.shape(g) != p.shape[:-1] + (self.dim, self.dim):
            raise MetricError(f"metric of shape {np.shape(g)} handed for points of shape {p.shape}")
        try:
            return MetricPair.from_matrix(g)
        except MetricError as exc:
            raise _at_point(p, exc) from None

    def metric_partials_at(self, points: np.ndarray, order: int = 1) -> list[np.ndarray]:
        """[g, dg] at each point and, at ``order`` 2, ddg, from one evaluation of the metric.

        g[..., i, j] = g_ij, dg[..., a, i, j] = d_a g_ij and ddg[..., a, b,
        i, j] = d_a d_b g_ij, exact: the metric runs on coordinate jets.
        """
        p = self.require_inside(points)
        return _partials_at(self.metric, p, (self.dim, self.dim), order, "metric", MetricError)


def _at_point(points: np.ndarray, error: MetricError) -> MetricError:
    """``error`` naming the point at fault, when validation gave its index."""
    if error.index is None:
        return error
    where = points.reshape(-1, points.shape[-1])[error.index].tolist()
    return MetricError(f"{error} at {where}")


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
    d_i Gamma^l_jk.  Returns riem[..., l, i, j, k].
    """
    lead, m = gamma.shape[:-3], gamma.shape[-1]
    # half[l,i,j,k] = d_i Gamma^l_jk + Gamma^l_im Gamma^m_jk; riem is half minus its (i,j) swap
    half = gamma.reshape(lead + (m * m, m)) @ gamma.reshape(lead + (m, m * m))
    half = half.reshape(dgamma.shape)
    half += np.swapaxes(dgamma, -4, -3)
    return half - np.swapaxes(half, -3, -2)


def _nabla_vector(dv: np.ndarray, v: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(nabla_a V)^k = d_a V^k + Gamma^k_am V^m, as [n, a, k].

    Each covariant derivative takes the partials d[n, a, ...] = d_a and the
    values of a field at N points, and gamma[n, k, i, j] = Gamma^k_ij.
    """
    n, m = gamma.shape[:2]
    return dv + np.swapaxes((gamma.reshape(n, m * m, m) @ v[..., None]).reshape(n, m, m), 1, 2)


def _nabla_form(domega: np.ndarray | float, omega: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(nabla_a omega)_j = d_a omega_j - Gamma^m_aj omega_m, as [n, a, j].

    Further slots of omega[n, j, ...] ride along: only the first gets its term.
    """
    n, m = gamma.shape[:2]
    lowered = np.moveaxis(gamma, 1, -1).reshape(n, m * m, m)
    return domega - (lowered @ omega.reshape(n, m, -1)).reshape(n, m, *omega.shape[1:])


def _nabla_bilinear(dw: np.ndarray, w: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(nabla_a w)_ij = d_a w_ij - Gamma^m_ai w_mj - Gamma^m_aj w_im, as [n, a, i, j]."""
    # one 1-form term per slot, the other slot riding along
    second = _nabla_form(0.0, np.swapaxes(w, 1, 2), gamma)
    return _nabla_form(dw, w, gamma) + np.swapaxes(second, 2, 3)
