"""Each jet operation against its closed-form first and second derivatives.

The operations run on the coordinate jets of a few points (x, y); each
closed form gives the value, the gradient over (x, y) and the Hessian.
A wrong derivative rule, applied with ``monkeypatch``, must fail both the
closed-form check and the central differences of a chart built with it.
"""

import numpy as np
import pytest
from helpers import central_difference, generic_chart

from kenmotsu import jets

POINTS = np.array([[0.3, 1.7], [-1.1, 0.6], [0.9, -2.3]])


def _unit(a, b):
    return np.stack([a, b], axis=-1)


def _hessian(xx, xy, yy):
    return np.stack([np.stack([xx, xy], axis=-1), np.stack([xy, yy], axis=-1)], axis=-2)


def _exp_closed_form(x, y):
    e = np.exp(x * y)
    return e, _unit(y * e, x * e), _hessian(y * y * e, (1 + x * y) * e, x * x * e)


def _sin_closed_form(x, y):
    s, c = np.sin(x * y), np.cos(x * y)
    return s, _unit(y * c, x * c), _hessian(-y * y * s, c - x * y * s, -x * x * s)


def _cos_closed_form(x, y):
    s, c = np.sin(x + 2 * y), np.cos(x + 2 * y)
    return c, _unit(-s, -2 * s), _hessian(-c, -2 * c, -4 * c)


zero, one = np.zeros(3), np.ones(3)
# name: (the expression over the coordinate jets, its closed form at (x, y))
CASES = {
    "add": (lambda x, y: x + y + 2.0,
            lambda x, y: (x + y + 2, _unit(one, one), _hessian(zero, zero, zero))),
    "sub": (lambda x, y: x - y,
            lambda x, y: (x - y, _unit(one, -one), _hessian(zero, zero, zero))),
    "rsub-neg": (lambda x, y: 2.0 - x + -y,
                 lambda x, y: (2 - x - y, _unit(-one, -one), _hessian(zero, zero, zero))),
    "mul": (lambda x, y: x * y * 3.0,
            lambda x, y: (3 * x * y, _unit(3 * y, 3 * x), _hessian(zero, 3 * one, zero))),
    "div": (lambda x, y: x / y,
            lambda x, y: (x / y, _unit(1 / y, -x / y**2),
                          _hessian(zero, -1 / y**2, 2 * x / y**3))),
    "rdiv": (lambda x, y: 3.0 / (x * y),
             lambda x, y: (3 / (x * y), _unit(-3 / (x * x * y), -3 / (x * y * y)),
                           _hessian(6 / (x**3 * y), 3 / (x * y) ** 2, 6 / (x * y**3)))),
    "div-plain": (lambda x, y: x / 4.0,
                  lambda x, y: (x / 4, _unit(one / 4, zero), _hessian(zero, zero, zero))),
    "pow": (lambda x, y: x**3 * y**-2,
            lambda x, y: (x**3 / y**2, _unit(3 * x**2 / y**2, -2 * x**3 / y**3),
                          _hessian(6 * x / y**2, -6 * x**2 / y**3, 6 * x**3 / y**4))),
    "pow-0-1": (lambda x, y: x**1 + y**0,
                lambda x, y: (x + 1, _unit(one, zero), _hessian(zero, zero, zero))),
    "exp": (lambda x, y: jets.exp(x * y), _exp_closed_form),
    "sin": (lambda x, y: jets.sin(x * y), _sin_closed_form),
    "cos": (lambda x, y: jets.cos(x + 2.0 * y), _cos_closed_form),
}


def _closed_form_error(name: str) -> float:
    """The largest disagreement of a case's jet with its closed form, relative to 1 + |closed form|."""
    expression, closed_form = CASES[name]
    p = jets.variables(POINTS, 2)
    got = expression(p[..., 0], p[..., 1])
    want = closed_form(POINTS[:, 0], POINTS[:, 1])
    return max(
        np.max(np.abs(a - b) / (1.0 + np.abs(b)))
        for a, b in zip((got.value, got.grad, got.hess), want, strict=True)
    )


@pytest.mark.parametrize("name", CASES)
def test_each_operation_meets_its_closed_form(name):
    assert _closed_form_error(name) < 1e-14


@pytest.mark.parametrize("name", CASES)
def test_hessians_are_symmetric_and_first_order_jets_carry_none(name):
    expression, _ = CASES[name]
    p = jets.variables(POINTS, 2)
    hess = expression(p[..., 0], p[..., 1]).hess
    assert np.max(np.abs(hess - np.swapaxes(hess, -1, -2))) <= 1e-15 * np.max(np.abs(hess))
    q = jets.variables(POINTS, 1)
    first = expression(q[..., 0], q[..., 1])
    assert first.hess is None
    assert np.array_equal(first.grad, expression(p[..., 0], p[..., 1]).grad)


def test_matrix_places_jets_and_numbers():
    p = jets.variables(POINTS, 2)
    x, y = p[..., 0], p[..., 1]
    g = jets.matrix([[x, 1.0], [0.0, x * y]])
    assert g.shape == (3, 2, 2)
    assert np.array_equal(g.value[:, 0, 1], one) and np.array_equal(g.value[:, 1, 0], zero)
    assert np.array_equal(g.grad[:, 1, 1], _unit(POINTS[:, 1], POINTS[:, 0]))
    assert np.array_equal(g.hess[:, 1, 1], _hessian(zero, one, zero))
    assert np.array_equal(g.grad[:, 0, 1], np.zeros((3, 2)))
    assert np.array_equal(jets.matrix([[1.0, 2.0]]), np.array([[1.0, 2.0]]))


def test_a_plain_operand_that_widens_the_value_widens_the_partials():
    p = jets.variables(POINTS, 2)
    for widened in (p[..., 0] + np.ones((2, 3)), p[..., 0] * np.ones((2, 3))):
        assert widened.value.shape == (2, 3)
        assert widened.grad.shape == (2, 3, 2) and widened.hess.shape == (2, 3, 2, 2)
        assert np.array_equal(widened.grad[1], p[..., 0].grad)


def test_numpy_defers_to_the_jet():
    # a numpy ufunc would drop the partials; it raises instead
    p = jets.variables(POINTS, 1)
    with pytest.raises(TypeError):
        np.sin(p)
    assert isinstance(np.ones(3) * p[..., 0], jets.Jet)
    with pytest.raises(TypeError):
        p[..., 0] ** 0.5


def _sin_with_a_flipped_derivative(u):
    s = np.sin(u.value)
    return jets._chain(u, s, -np.cos(u.value), -s)


def test_a_wrong_derivative_rule_fails(monkeypatch):
    chart, p = generic_chart(), np.array([0.1, -0.2, 0.3, 0.0, 0.2])

    def central_error():
        fd = central_difference(lambda q: chart.metric_partials_at(q)[0], p)
        return np.max(np.abs(fd - chart.metric_partials_at(p)[1]))

    assert _closed_form_error("sin") < 1e-14 and central_error() < 1e-9
    monkeypatch.setattr(jets, "sin", _sin_with_a_flipped_derivative)
    assert _closed_form_error("sin") > 0.1
    assert central_error() > 1e-3
