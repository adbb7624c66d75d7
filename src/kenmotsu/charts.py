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

from .tensors import DOWN, UP, MetricPair, MultiTensor, contract, slots


class DomainError(ValueError):
    """A point (or a finite-difference stencil around it) leaves the chart."""


class MetricError(ValueError):
    """The metric callable returned something unusable at a point."""


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


@dataclass(frozen=True)
class ChartManifold:
    """One coordinate chart with a metric.

    ``metric(p)`` returns the (dim, dim) matrix g_ij at p.
    ``metric_partials(p)``, when provided, returns dg[a, i, j] = d_a g_ij;
    otherwise partials are taken by finite differences.
    ``domain`` is a box: a (lo, hi) pair per coordinate.
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

    def contains(self, point: np.ndarray, margin: float = 0.0) -> bool:
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dim,):
            return False
        return all(
            lo + margin <= x <= hi - margin for x, (lo, hi) in zip(p, self.domain)
        )

    def require_inside(self, point: np.ndarray, margin: float = 0.0) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dim,):
            raise DomainError(f"point has shape {p.shape}, expected ({self.dim},)")
        if not self.contains(p, margin):
            raise DomainError(
                f"point {p.tolist()} leaves the chart domain (margin {margin})"
            )
        return p

    def metric_at(self, point: np.ndarray) -> np.ndarray:
        p = self.require_inside(point)
        m = np.asarray(self.metric(p), dtype=float)
        if m.shape != (self.dim, self.dim):
            raise MetricError(f"metric returned shape {m.shape} at {p.tolist()}")
        if not np.all(np.isfinite(m)):
            raise MetricError(f"metric has non-finite entries at {p.tolist()}")
        if np.max(np.abs(m - m.T)) > 1e-10:
            raise MetricError(f"metric is not symmetric at {p.tolist()}")
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise MetricError(f"metric not positive definite at {p.tolist()}") from exc
        return m

    def metric_pair_at(self, point: np.ndarray) -> MetricPair:
        return MetricPair.from_matrix(self.metric_at(point))

    def metric_partials_at(
        self, point: np.ndarray, cfg: DifferentiationConfig
    ) -> np.ndarray:
        """dg[a, i, j] = d_a g_ij, analytic when the chart provides it."""
        if self.metric_partials is not None:
            p = self.require_inside(point)
            dg = np.asarray(self.metric_partials(p), dtype=float)
            if dg.shape != (self.dim,) * 3:
                raise MetricError(
                    f"metric_partials returned shape {dg.shape} at {p.tolist()}"
                )
            return dg
        p = self.require_inside(point, margin=cfg.step)
        return array_field_partials(self.metric, p, cfg)


def array_field_partials(
    f: Callable[[np.ndarray], np.ndarray],
    point: np.ndarray,
    cfg: DifferentiationConfig,
) -> np.ndarray:
    """Partials of an array-valued field; the derivative axis comes first.

    out[a, ...] = d_a f(point)[...], central differences of width ``cfg.step``
    with one Richardson level when enabled.  Domain checking is the caller's
    job; this function only evaluates f where it is told to.
    """
    p = np.asarray(point, dtype=float)
    base = np.asarray(f(p), dtype=float)
    dim = p.shape[0]
    out = np.empty((dim,) + base.shape)

    def central(h: float, axis: int) -> np.ndarray:
        q_plus = p.copy()
        q_minus = p.copy()
        q_plus[axis] += h
        q_minus[axis] -= h
        return (np.asarray(f(q_plus), float) - np.asarray(f(q_minus), float)) / (2.0 * h)

    for a in range(dim):
        d_h = central(cfg.step, a)
        if cfg.richardson:
            d_half = central(cfg.step / 2.0, a)
            out[a] = (4.0 * d_half - d_h) / 3.0
        else:
            out[a] = d_h
    return out


@dataclass(frozen=True)
class ConnectionCoefficients:
    """Coefficients Gamma^k_ij of a linear connection at one point.

    Storage: gamma[k, i, j] with nabla_{d_i} d_j = Gamma^k_ij d_k.
    ``symmetric=True`` asserts torsion-freeness (Levi-Civita case) and is
    validated on construction.
    """

    dim: int
    gamma: np.ndarray
    symmetric: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.gamma, dtype=float)
        if arr.shape != (self.dim,) * 3:
            raise ValueError(f"gamma shape {arr.shape}, expected {(self.dim,) * 3}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("gamma has non-finite entries")
        if self.symmetric and np.max(np.abs(arr - arr.transpose(0, 2, 1))) > 1e-8:
            raise ValueError("coefficients marked symmetric are not")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "gamma", arr)


def levi_civita(
    manifold: ChartManifold, point: np.ndarray, cfg: DifferentiationConfig
) -> ConnectionCoefficients:
    """Christoffel symbols of the metric at a point.

    Gamma^k_ij = (1/2) g^kl (d_i g_lj + d_j g_li - d_l g_ij)
    """
    p = manifold.require_inside(point)
    gpair = manifold.metric_pair_at(p)
    dg = manifold.metric_partials_at(p, cfg)
    term = (
        np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg
    )
    gamma = 0.5 * np.einsum("kl,lij->kij", gpair.inverse, term)
    return ConnectionCoefficients(manifold.dim, gamma, symmetric=True)


GammaField = Callable[[np.ndarray], ConnectionCoefficients]


def levi_civita_field(manifold: ChartManifold, cfg: DifferentiationConfig) -> GammaField:
    return lambda p: levi_civita(manifold, p, cfg)


def riemann_of_connection(
    manifold: ChartManifold,
    gamma_field: GammaField,
    point: np.ndarray,
    cfg: DifferentiationConfig,
) -> MultiTensor:
    """Curvature of an arbitrary connection, as a (1,3) tensor.

    Differentiating the coefficient field may nest a second stencil inside
    the first, so the point must sit at least 2h inside the domain.
    """
    p = manifold.require_inside(point, margin=2.0 * cfg.step)
    dgamma = array_field_partials(lambda q: gamma_field(q).gamma, p, cfg)
    gamma = gamma_field(p).gamma
    t1 = np.moveaxis(dgamma, 0, 1)  # t1[l,i,j,k] = d_i Gamma^l_jk
    t2 = t1.transpose(0, 2, 1, 3)
    q1 = np.einsum("lim,mjk->lijk", gamma, gamma)
    q2 = q1.transpose(0, 2, 1, 3)
    riem = t1 - t2 + q1 - q2
    return MultiTensor(manifold.dim, slots("uddd"), riem)


def riemann(
    manifold: ChartManifold, point: np.ndarray, cfg: DifferentiationConfig
) -> MultiTensor:
    """Levi-Civita curvature tensor at a point."""
    return riemann_of_connection(manifold, levi_civita_field(manifold, cfg), point, cfg)


def ricci_from_riemann(riem: MultiTensor) -> MultiTensor:
    """S(Y,Z) = trace(X -> R(X,Y)Z); contracts the upper slot with slot 1."""
    if riem.variance != slots("uddd"):
        raise ValueError("expected a (1,3) curvature tensor")
    return contract(riem, 0, 1)


def ricci(
    manifold: ChartManifold, point: np.ndarray, cfg: DifferentiationConfig
) -> MultiTensor:
    return ricci_from_riemann(riemann(manifold, point, cfg))


def scalar_curvature_of(ric: MultiTensor, gpair: MetricPair) -> float:
    if ric.variance != (DOWN, DOWN):
        raise ValueError("expected a (0,2) Ricci tensor")
    return float(np.einsum("jk,jk->", gpair.inverse, ric.components))


def scalar_curvature(
    manifold: ChartManifold, point: np.ndarray, cfg: DifferentiationConfig
) -> float:
    return scalar_curvature_of(
        ricci(manifold, point, cfg), manifold.metric_pair_at(point)
    )


def covariant_derivative(
    manifold: ChartManifold,
    field: Callable[[np.ndarray], MultiTensor],
    gamma_field: GammaField,
    point: np.ndarray,
    cfg: DifferentiationConfig,
) -> MultiTensor:
    """Covariant derivative of a tensor field; the new slot comes first.

    out[a, ...] = (nabla_{d_a} T)[...], with +Gamma corrections on
    contravariant slots and -Gamma on covariant ones.
    """
    p = manifold.require_inside(point, margin=cfg.step)
    base = field(p)
    gamma = gamma_field(p).gamma
    comps = array_field_partials(lambda q: field(q).components, p, cfg)
    comps = _add_connection_terms(comps, base.components, base.variance, gamma)
    return MultiTensor(manifold.dim, (DOWN,) + base.variance, comps)


def _add_connection_terms(
    partials: np.ndarray, base: np.ndarray, variance: tuple[str, ...], gamma: np.ndarray
) -> np.ndarray:
    """Turn coordinate partials of a tensor field into its covariant derivative."""
    comps = partials
    for s, var in enumerate(variance):
        if var == UP:
            # +Gamma^k_am T[.. m at s ..]; tensordot leaves axes (k, a, rest)
            corr = np.tensordot(gamma, base, axes=(2, s))
            comps = comps + np.moveaxis(corr, (0, 1), (s + 1, 0))
        else:
            # -Gamma^m_ab T[.. m at s ..]; tensordot leaves axes (a, b, rest)
            corr = np.tensordot(gamma, base, axes=(0, s))
            comps = comps - np.moveaxis(corr, (0, 1), (0, s + 1))
    return comps
