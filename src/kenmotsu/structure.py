"""Almost contact metric structures and the Kenmotsu tests.

A structure is a triple of callables (phi, xi, eta) over a chart: a (1,1)
field, a vector field and a 1-form.  The axioms checked here:

    phi^2 X = -X + eta(X) xi
    eta(xi) = 1
    g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y)

and the defining condition for the Kenmotsu class:

    nabla_X xi = X - eta(X) xi
    (nabla_X eta)(Y) = g(X, Y) - eta(X) eta(Y)

plus the curvature identities these force, all evaluated numerically at
sample points.  Axiom checks are pure pointwise algebra; the Kenmotsu and
curvature checks differentiate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import (
    ChartManifold,
    DifferentiationConfig,
    covariant_derivative,
    levi_civita_field,
)
from .report import IdentityResidualReport, PointResidual, new_report
from .tensors import MultiTensor, slots


class StructureError(ValueError):
    """A structure field is malformed or fails its axioms where required."""


@dataclass(frozen=True)
class AlmostContactStructure:
    """Candidate almost contact data on a chart.

    ``phi(p)`` returns the matrix phi[k, j] (column j is phi applied to the
    j-th coordinate frame vector), ``xi(p)`` the vector components,
    ``eta(p)`` the covector components.  Nothing is validated on
    construction; run :func:`check_almost_contact`.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    xi: Callable[[np.ndarray], np.ndarray]
    eta: Callable[[np.ndarray], np.ndarray]

    def phi_at(self, dim: int, point: np.ndarray) -> np.ndarray:
        m = np.asarray(self.phi(point), dtype=float)
        if m.shape != (dim, dim):
            raise StructureError(f"phi returned shape {m.shape}")
        return m

    def xi_at(self, dim: int, point: np.ndarray) -> np.ndarray:
        v = np.asarray(self.xi(point), dtype=float)
        if v.shape != (dim,):
            raise StructureError(f"xi returned shape {v.shape}")
        return v

    def eta_at(self, dim: int, point: np.ndarray) -> np.ndarray:
        w = np.asarray(self.eta(point), dtype=float)
        if w.shape != (dim,):
            raise StructureError(f"eta returned shape {w.shape}")
        return w

    def xi_field(self, dim: int) -> Callable[[np.ndarray], MultiTensor]:
        return lambda p: MultiTensor(dim, slots("u"), self.xi_at(dim, p))

    def eta_field(self, dim: int) -> Callable[[np.ndarray], MultiTensor]:
        return lambda p: MultiTensor(dim, slots("d"), self.eta_at(dim, p))


def axiom_residuals(
    manifold: ChartManifold, structure: AlmostContactStructure, point: np.ndarray
) -> dict[str, float]:
    """Pointwise residuals of the structure axioms and their consequences."""
    p = manifold.require_inside(point)
    g = manifold.metric_at(p)
    dim = manifold.dim
    phi = structure.phi_at(dim, p)
    xi = structure.xi_at(dim, p)
    eta = structure.eta_at(dim, p)
    eye = np.eye(dim)

    phi_square = phi @ phi + eye - np.outer(xi, eta)
    pairing = eta @ xi - 1.0
    compat = phi.T @ g @ phi - g + np.outer(eta, eta)
    return {
        "phi-square": float(np.max(np.abs(phi_square))),
        "reeb-pairing": float(abs(pairing)),
        "compatibility": float(np.max(np.abs(compat))),
        # consequences, recorded for diagnosis
        "reeb-flat": float(np.max(np.abs(g @ xi - eta))),
        "phi-kills-reeb": float(np.max(np.abs(phi @ xi))),
        "eta-kills-phi": float(np.max(np.abs(eta @ phi))),
    }


_AXIOM_KEYS = ("phi-square", "reeb-pairing", "compatibility")


def check_almost_contact(
    manifold: ChartManifold,
    structure: AlmostContactStructure,
    points: list[np.ndarray],
    cfg: DifferentiationConfig | None = None,
    tol: float | None = None,
) -> IdentityResidualReport:
    """Check the three structure axioms at each point.

    ``cfg`` is accepted for signature uniformity with the other checks but
    unused: the axioms are algebraic.
    """
    del cfg
    report = new_report("structure-axioms", tol)
    worst: dict[str, float] = {}
    for point in points:
        res = axiom_residuals(manifold, structure, point)
        headline = max(res[k] for k in _AXIOM_KEYS)
        report.points.append(PointResidual(tuple(np.asarray(point, float)), headline))
        for k, v in res.items():
            worst[k] = max(worst.get(k, 0.0), v)
    report.extras.update(worst)
    return report


def kenmotsu_residuals(
    manifold: ChartManifold,
    structure: AlmostContactStructure,
    point: np.ndarray,
    cfg: DifferentiationConfig,
) -> dict[str, float]:
    """Residuals of the two equivalent forms of the defining condition."""
    p = manifold.require_inside(point, margin=cfg.step)
    dim = manifold.dim
    g = manifold.metric_at(p)
    eta = structure.eta_at(dim, p)
    xi = structure.xi_at(dim, p)
    lc = levi_civita_field(manifold, cfg)

    grad_xi = covariant_derivative(manifold, structure.xi_field(dim), lc, p, cfg)
    # (nabla_{d_a} xi)^k = delta^k_a - eta_a xi^k
    want_xi = np.eye(dim) - np.outer(eta, xi)
    res_xi = float(np.max(np.abs(grad_xi.components - want_xi)))

    grad_eta = covariant_derivative(manifold, structure.eta_field(dim), lc, p, cfg)
    want_eta = g - np.outer(eta, eta)
    res_eta = float(np.max(np.abs(grad_eta.components - want_eta)))
    return {"reeb-gradient": res_xi, "eta-gradient": res_eta}


def check_kenmotsu(
    manifold: ChartManifold,
    structure: AlmostContactStructure,
    points: list[np.ndarray],
    cfg: DifferentiationConfig,
    tol: float | None = None,
) -> IdentityResidualReport:
    """Check the defining covariant-derivative condition at each point."""
    report = new_report("kenmotsu-condition", tol)
    worst = {"reeb-gradient": 0.0, "eta-gradient": 0.0}
    for point in points:
        res = kenmotsu_residuals(manifold, structure, point, cfg)
        report.points.append(
            PointResidual(tuple(np.asarray(point, float)), max(res.values()))
        )
        for k, v in res.items():
            worst[k] = max(worst[k], v)
    report.extras.update(worst)
    return report


def check_curvature_identities(
    manifold: ChartManifold,
    structure: AlmostContactStructure,
    points: list[np.ndarray],
    cfg: DifferentiationConfig,
    tol: float | None = None,
) -> list[IdentityResidualReport]:
    """Check the four curvature identities of the Kenmotsu class.

        eta(R(X,Y)Z) = eta(Y) g(X,Z) - eta(X) g(Y,Z)
        R(X,Y) xi    = eta(X) Y - eta(Y) X
        R(xi,X) Y    = eta(Y) X - g(X,Y) xi
        S(X, xi)     = -2n eta(X)

    Each identity gets its own report.  For the orientation-sensitive ones
    the extras record the residual against the sign-flipped right-hand side:
    a curvature sign-convention mismatch shows up as the primary residual
    exploding while the flipped one collapses.
    """
    from .connection import _bundles  # connection imports this module

    n = manifold.n
    eye = np.eye(manifold.dim)
    names = ("curvature-eta-component", "curvature-on-reeb",
             "curvature-from-reeb", "ricci-on-reeb")
    reports = {name: new_report(name, tol) for name in names}
    flipped = {name: 0.0 for name in names}

    for b in _bundles(manifold, structure, points, cfg):
        g, eta, xi = b.metric.matrix, b.eta, b.xi
        riem = b.lc_riemann.components
        ric = b.lc_ricci.components

        lhs = np.einsum("l,lijk->ijk", eta, riem)
        rhs = np.einsum("j,ik->ijk", eta, g) - np.einsum("i,jk->ijk", eta, g)
        _record(reports, flipped, "curvature-eta-component", b.point, lhs, rhs)

        lhs = np.einsum("lijk,k->lij", riem, xi)
        rhs = np.einsum("i,lj->lij", eta, eye) - np.einsum("j,li->lij", eta, eye)
        _record(reports, flipped, "curvature-on-reeb", b.point, lhs, rhs)

        lhs = np.einsum("i,lijk->ljk", xi, riem)
        rhs = np.einsum("k,lj->ljk", eta, eye) - np.einsum("jk,l->ljk", g, xi)
        _record(reports, flipped, "curvature-from-reeb", b.point, lhs, rhs)

        lhs = ric @ xi
        rhs = -2.0 * n * eta
        _record(reports, flipped, "ricci-on-reeb", b.point, lhs, rhs)

    for name in names:
        reports[name].extras["opposite-sign-residual"] = flipped[name]
    return [reports[name] for name in names]


def _record(reports, flipped, name, ptuple, lhs, rhs) -> None:
    reports[name].points.append(
        PointResidual(ptuple, float(np.max(np.abs(lhs - rhs))))
    )
    flipped[name] = max(flipped[name], float(np.max(np.abs(lhs + rhs))))
