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
pointwise algebra; the Kenmotsu and curvature checks read partials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .charts import _nabla_vector, _partials_at
from .report import IdentityResidualReport, per_point, row, sides_row

if TYPE_CHECKING:
    from .connection import CurvatureBundle


class StructureError(ValueError):
    """A structure field is malformed or fails its axioms where required."""


@dataclass(frozen=True)
class AlmostContactStructure:
    """Candidate almost contact data on a chart.

    ``phi`` gives the matrix phi[k, j] (column j is phi applied to the j-th
    coordinate frame vector), ``xi`` the vector components, ``eta`` the
    covector components.  Each takes the coordinate jets of a batch of
    points (see :func:`~kenmotsu.jets.variables`) and returns a jet with the
    batch axis, or a plain array of the field's own shape for a constant
    field.  The ``*_at`` methods take one point (dim,) or a batch (..., dim)
    and return [value, partials] with the batch's axes, partials[..., a, ...]
    = d_a value, from one call of the field.  Nothing is validated on
    construction; run :func:`check_almost_contact`.
    """

    phi: Callable
    xi: Callable
    eta: Callable

    def phi_at(self, dim: int, points: np.ndarray) -> list[np.ndarray]:
        return _partials_at(self.phi, points, (dim, dim), 1, "phi", StructureError)

    def xi_at(self, dim: int, points: np.ndarray) -> list[np.ndarray]:
        return _partials_at(self.xi, points, (dim,), 1, "xi", StructureError)

    def eta_at(self, dim: int, points: np.ndarray) -> list[np.ndarray]:
        return _partials_at(self.eta, points, (dim,), 1, "eta", StructureError)


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
    extras = {k: float(np.max(v)) for k, v in res.items()}
    return row("structure-axioms", headline, extras)


def _kenmotsu_residuals(b) -> dict[str, np.ndarray]:
    """Per-point residuals of the two equivalent forms of the defining condition."""
    dim = b.manifold.dim
    eta, xi = b.eta, b.xi
    grad_xi = _nabla_vector(b.dxi, xi, b.lc_gamma)
    # (nabla_{d_a} xi)^k = delta^k_a - eta_a xi^k
    want_xi = np.eye(dim) - np.einsum("...i,...j->...ij", eta, xi)
    want_eta = b.metric.matrix - np.einsum("...i,...j->...ij", eta, eta)
    return {
        "reeb-gradient": per_point(grad_xi - want_xi),
        "eta-gradient": per_point(b.lc_nabla_eta - want_eta),
    }


def check_kenmotsu(geometry: CurvatureBundle) -> IdentityResidualReport:
    """Check the defining covariant-derivative condition at each point."""
    res = _kenmotsu_residuals(geometry)
    headline = np.maximum(res["reeb-gradient"], res["eta-gradient"])
    extras = {k: float(np.max(v)) for k, v in res.items()}
    return row("kenmotsu-condition", headline, extras)


def check_curvature_identities(geometry: CurvatureBundle) -> list[IdentityResidualReport]:
    """Check the four curvature identities of the Kenmotsu class.

        eta(R(X,Y)Z) = eta(Y) g(X,Z) - eta(X) g(Y,Z)
        R(X,Y) xi    = eta(X) Y - eta(Y) X
        R(xi,X) Y    = eta(Y) X - g(X,Y) xi
        S(X, xi)     = -2n eta(X)

    Each identity gets its own report.  Each is orientation-sensitive, so
    the table sets ``opposite_sign`` for it and the extras record the
    residual against the sign-flipped right-hand side.  Each of the first
    three right sides is its left side's contraction with -(g wedge g) in
    place of R, (X wedge_g Y) Z = g(Y,Z) X - g(X,Z) Y, with eta = g(., xi).
    """
    n = geometry.manifold.n
    eta, xi = geometry.eta, geometry.xi
    riem, ric, wedge = geometry.lc_riemann, geometry.lc_ricci, geometry.g_wedge_g
    contractions = {
        "curvature-eta-component": lambda t: np.einsum("...l,...lijk->...ijk", eta, t),
        "curvature-on-reeb": lambda t: np.einsum("...lijk,...k->...lij", t, xi),
        "curvature-from-reeb": lambda t: np.einsum("...i,...lijk->...ljk", xi, t),
    }
    sides = {name: (f(riem), -f(wedge)) for name, f in contractions.items()}
    sides["ricci-on-reeb"] = ((ric @ xi[..., None])[..., 0], -2.0 * n * eta)
    return [sides_row(name, lhs, rhs) for name, (lhs, rhs) in sides.items()]
