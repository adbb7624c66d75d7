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
sample points.  Each check reads the chart's geometry record
(:class:`~kenmotsu.connection.CurvatureBundle`).  Axiom checks are pure
pointwise algebra; the Kenmotsu and curvature checks differentiate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .charts import (
    _add_connection_terms,
    _at_each,
)
from .report import IdentityResidualReport, new_report, per_point
from .tensors import slots

if TYPE_CHECKING:
    from .connection import CurvatureBundle


class StructureError(ValueError):
    """A structure field is malformed or fails its axioms where required."""


@dataclass(frozen=True)
class AlmostContactStructure:
    """Candidate almost contact data on a chart.

    ``phi(p)`` returns the matrix phi[k, j] (column j is phi applied to the
    j-th coordinate frame vector), ``xi(p)`` the vector components,
    ``eta(p)`` the covector components.  Each callable takes one point, or,
    when marked by :func:`~kenmotsu.charts.batched`, a batch (..., dim);
    the mark is per callable, so marked and per-point callables mix.  The
    ``*_at`` methods take one point (dim,) or a batch (..., dim) and return
    the values stacked along the batch's axes.  Nothing is validated on
    construction; run :func:`check_almost_contact`.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    xi: Callable[[np.ndarray], np.ndarray]
    eta: Callable[[np.ndarray], np.ndarray]

    def phi_at(self, dim: int, points: np.ndarray) -> np.ndarray:
        return _at_each(self.phi, np.asarray(points, float), (dim, dim), "phi", StructureError)

    def xi_at(self, dim: int, points: np.ndarray) -> np.ndarray:
        return _at_each(self.xi, np.asarray(points, float), (dim,), "xi", StructureError)

    def eta_at(self, dim: int, points: np.ndarray) -> np.ndarray:
        return _at_each(self.eta, np.asarray(points, float), (dim,), "eta", StructureError)


def _axiom_residuals(b) -> dict[str, np.ndarray]:
    """Per-point residuals of the structure axioms and their consequences."""
    g, phi, xi, eta = b.metric.matrix, b.phi, b.xi, b.eta
    eye = np.eye(b.manifold.dim)
    outer = np.einsum("...i,...j->...ij", xi, eta)
    phi_square = phi @ phi + eye - outer
    pairing = (eta[..., None, :] @ xi[..., :, None])[..., 0, 0] - 1.0
    compat = np.swapaxes(phi, -1, -2) @ g @ phi - g + np.einsum("...i,...j->...ij", eta, eta)
    return {
        "phi-square": per_point(phi_square),
        "reeb-pairing": np.abs(pairing),
        "compatibility": per_point(compat),
        # consequences, recorded for diagnosis
        "reeb-flat": per_point((g @ xi[..., None])[..., 0] - eta),
        "phi-kills-reeb": per_point((phi @ xi[..., None])[..., 0]),
        "eta-kills-phi": per_point((eta[..., None, :] @ phi)[..., 0, :]),
    }


_AXIOM_KEYS = ("phi-square", "reeb-pairing", "compatibility")


def check_almost_contact(geometry: CurvatureBundle) -> IdentityResidualReport:
    """Check the three structure axioms at each point."""
    res = _axiom_residuals(geometry)
    headline = np.max([res[k] for k in _AXIOM_KEYS], axis=0)
    report = new_report("structure-axioms")
    report.add_points(geometry.p, headline)
    report.extras.update({k: float(np.max(v)) for k, v in res.items()})
    return report


def _kenmotsu_residuals(b) -> dict[str, np.ndarray]:
    """Per-point residuals of the two equivalent forms of the defining condition."""
    dim = b.manifold.dim
    eta, xi = b.eta, b.xi
    grad_xi = _add_connection_terms(b.dxi, xi, slots("u"), b.lc_gamma)
    # (nabla_{d_a} xi)^k = delta^k_a - eta_a xi^k
    want_xi = np.eye(dim) - np.einsum("...i,...j->...ij", eta, xi)
    grad_eta = _add_connection_terms(b.deta, eta, slots("d"), b.lc_gamma)
    want_eta = b.metric.matrix - np.einsum("...i,...j->...ij", eta, eta)
    return {
        "reeb-gradient": per_point(grad_xi - want_xi),
        "eta-gradient": per_point(grad_eta - want_eta),
    }


def check_kenmotsu(geometry: CurvatureBundle) -> IdentityResidualReport:
    """Check the defining covariant-derivative condition at each point."""
    res = _kenmotsu_residuals(geometry)
    report = new_report("kenmotsu-condition")
    report.add_points(geometry.p, np.maximum(res["reeb-gradient"], res["eta-gradient"]))
    report.extras.update({k: float(np.max(v)) for k, v in res.items()})
    return report


def check_curvature_identities(geometry: CurvatureBundle) -> list[IdentityResidualReport]:
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
    n = geometry.manifold.n
    eye = np.eye(geometry.manifold.dim)
    g, eta, xi = geometry.metric.matrix, geometry.eta, geometry.xi
    riem, ric = geometry.lc_riemann, geometry.lc_ricci
    sides = {
        "curvature-eta-component": (
            np.einsum("...l,...lijk->...ijk", eta, riem),
            np.einsum("...j,...ik->...ijk", eta, g) - np.einsum("...i,...jk->...ijk", eta, g),
        ),
        "curvature-on-reeb": (
            np.einsum("...lijk,...k->...lij", riem, xi),
            np.einsum("...i,lj->...lij", eta, eye) - np.einsum("...j,li->...lij", eta, eye),
        ),
        "curvature-from-reeb": (
            np.einsum("...i,...lijk->...ljk", xi, riem),
            np.einsum("...k,lj->...ljk", eta, eye) - np.einsum("...jk,...l->...ljk", g, xi),
        ),
        "ricci-on-reeb": ((ric @ xi[..., None])[..., 0], -2.0 * n * eta),
    }
    reports = []
    for name, (lhs, rhs) in sides.items():
        report = new_report(name)
        report.add_points(geometry.p, per_point(lhs - rhs))
        report.extras["opposite-sign-residual"] = float(np.max(per_point(lhs + rhs)))
        reports.append(report)
    return reports
