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
    DifferentiationConfig,
    DomainError,
    MetricError,
    batched,
    levi_civita,
)
from .conditions import (
    check_derivation_identity,
    check_semisymmetry_condition,
    check_weyl,
    check_weyl_commutation,
)
from .connection import (
    CurvatureBundle,
    EinsteinFit,
    NonMetricConnection,
    check_curvature_relation,
    check_deformation_form,
    check_nonmetricity,
    check_reeb_curvature_degeneracy,
    check_reeb_transport,
    check_torsion,
    curvature_bundle,
)
from .report import IdentityResidualReport
from .structure import (
    AlmostContactStructure,
    StructureError,
    check_almost_contact,
    check_curvature_identities,
    check_kenmotsu,
)
from .tensors import MetricPair

__version__ = "0.1.0"

__all__ = [
    "AlmostContactStructure",
    "ChartManifold",
    "CurvatureBundle",
    "DifferentiationConfig",
    "DomainError",
    "EinsteinFit",
    "IdentityResidualReport",
    "MetricError",
    "MetricPair",
    "NamedExample",
    "NonMetricConnection",
    "StructureError",
    "batched",
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
    "curvature_bundle",
    "levi_civita",
]
