import inspect

import pytest

import kenmotsu

# the per-point layer over the curvature record and the variance markers of
# its MultiTensor returns, the connection constructor that gated on the axioms,
# the per-point report record, the wrapper of the semisymmetry rows, the
# coefficient record that copied and re-checked every Christoffel array, and
# the finite-difference settings and batch mark that jets replaced, which the
# package no longer exports
REMOVED = (
    "DOWN", "UP", "slots", "MultiTensor", "contract", "raise_slot", "lower_slot", "max_abs",
    "riemann", "ricci", "scalar_curvature", "covariant_derivative",
    "derivation_action", "metric_wedge", "tachibana", "einstein_fit", "weyl_tensor",
    "weyl_trace_residual", "axiom_residuals", "kenmotsu_residuals",
    "build_connection", "PointResidual", "SemisymmetryVerdict", "ConnectionCoefficients",
    "DifferentiationConfig", "batched",
)


def test_every_exported_name_resolves_once():
    names = kenmotsu.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(kenmotsu, name), name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_cannot_be_imported(name):
    assert name not in kenmotsu.__all__
    with pytest.raises(ImportError):
        exec(f"from kenmotsu import {name}", {})


@pytest.mark.parametrize("name", [n for n in kenmotsu.__all__ if n.startswith("check_")])
def test_every_check_takes_the_geometry_record_and_nothing_else(name):
    assert list(inspect.signature(getattr(kenmotsu, name)).parameters) == ["geometry"]
