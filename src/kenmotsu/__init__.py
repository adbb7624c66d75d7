"""Numerical verification of a non-symmetric non-metric connection.

The package builds coordinate-chart Kenmotsu manifolds, attaches the
modified connection D_X Y = nabla_X Y - eta(Y) X - g(X,Y) xi, and checks
the tensor identities that connection satisfies: torsion and non-metricity
forms, the closed-form curvature relation, degeneracy of the curvature on
the Reeb field, the Ricci semi-symmetry chain with its Einstein
consequences, and the Weyl/Tachibana commutation facts.  See the ``cli``
module or the ``kenmotsu`` console script for the runner.
"""

from .catalog import NamedExample, by_name, catalog
from .charts import (
    ChartManifold,
    ConnectionCoefficients,
    DifferentiationConfig,
    DomainError,
    MetricError,
    batched,
    covariant_derivative,
    levi_civita,
    ricci,
    riemann,
    scalar_curvature,
)
from .conditions import (
    EinsteinFit,
    SemisymmetryVerdict,
    check_derivation_identity,
    check_semisymmetry_condition,
    check_weyl,
    check_weyl_commutation,
    derivation_action,
    einstein_fit,
    metric_wedge,
    tachibana,
    weyl_tensor,
    weyl_trace_residual,
)
from .connection import (
    CurvatureBundle,
    NonMetricConnection,
    build_connection,
    check_curvature_relation,
    check_deformation_form,
    check_nonmetricity,
    check_reeb_curvature_degeneracy,
    check_reeb_transport,
    check_torsion,
    curvature_bundle,
)
from .report import IdentityResidualReport, PointResidual
from .structure import (
    AlmostContactStructure,
    StructureError,
    axiom_residuals,
    check_almost_contact,
    check_curvature_identities,
    check_kenmotsu,
    kenmotsu_residuals,
)
from .tensors import (
    DOWN,
    UP,
    MetricPair,
    MultiTensor,
    contract,
    lower_slot,
    max_abs,
    raise_slot,
    slots,
)

__version__ = "0.1.0"

__all__ = [
    "AlmostContactStructure",
    "ChartManifold",
    "ConnectionCoefficients",
    "CurvatureBundle",
    "DifferentiationConfig",
    "DomainError",
    "DOWN",
    "EinsteinFit",
    "IdentityResidualReport",
    "MetricError",
    "MetricPair",
    "MultiTensor",
    "NamedExample",
    "NonMetricConnection",
    "PointResidual",
    "SemisymmetryVerdict",
    "StructureError",
    "UP",
    "axiom_residuals",
    "batched",
    "build_connection",
    "by_name",
    "catalog",
    "check_almost_contact",
    "check_curvature_identities",
    "check_curvature_relation",
    "check_deformation_form",
    "check_derivation_identity",
    "check_kenmotsu",
    "check_nonmetricity",
    "check_reeb_curvature_degeneracy",
    "check_reeb_transport",
    "check_semisymmetry_condition",
    "check_torsion",
    "check_weyl",
    "check_weyl_commutation",
    "contract",
    "covariant_derivative",
    "curvature_bundle",
    "derivation_action",
    "einstein_fit",
    "kenmotsu_residuals",
    "levi_civita",
    "lower_slot",
    "max_abs",
    "metric_wedge",
    "raise_slot",
    "ricci",
    "riemann",
    "scalar_curvature",
    "slots",
    "tachibana",
    "weyl_tensor",
    "weyl_trace_residual",
]
