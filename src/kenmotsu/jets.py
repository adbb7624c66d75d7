"""Forward-mode jets: a field's values at a batch of points with its exact partials.

A :class:`Jet` carries a field through the expression that defines it:
``value``, ``grad[..., a]`` = d_a value and, at second order, ``hess[...,
a, b]`` = d_a d_b value (A. Griewank and A. Walther, *Evaluating
Derivatives*, SIAM 2008; truncated at second order as hyper-dual numbers
are, J. A. Fike and J. J. Alonso, AIAA 2011-886).  The derivative axes come
last, so a jet broadcasts against plain arrays as its value does.  Numpy
defers to the jet's operators (``__array_ufunc__ = None``), so a numpy
function applied to a jet raises instead of dropping its partials.
"""

from __future__ import annotations

import operator

import numpy as np


class Jet:
    """A field's value, gradient and, at second order, Hessian (``hess`` None at first order)."""

    __array_ufunc__ = None
    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: np.ndarray, grad: np.ndarray, hess: np.ndarray | None = None):
        self.value, self.grad, self.hess = value, grad, hess

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __getitem__(self, key) -> Jet:
        key = key if isinstance(key, tuple) else (key,)
        if not any(k is Ellipsis for k in key):
            key = key + (Ellipsis,)
        hess = None if self.hess is None else self.hess[key + (slice(None),) * 2]
        return Jet(self.value[key], self.grad[key + (slice(None),)], hess)

    def __neg__(self) -> Jet:
        return Jet(-self.value, -self.grad, None if self.hess is None else -self.hess)

    def __add__(self, other) -> Jet:
        if isinstance(other, Jet):
            hess = None if self.hess is None else self.hess + other.hess
            return Jet(self.value + other.value, self.grad + other.grad, hess)
        # a plain array may widen the value; the partials widen with it
        value = self.value + other
        grad = np.broadcast_to(self.grad, value.shape + self.grad.shape[-1:])
        hess = self.hess
        if hess is not None:
            hess = np.broadcast_to(hess, grad.shape + grad.shape[-1:])
        return Jet(value, grad, hess)

    __radd__ = __add__

    def __sub__(self, other) -> Jet:
        return self + -other

    def __rsub__(self, other) -> Jet:
        return -self + other

    def __mul__(self, other) -> Jet:
        if not isinstance(other, Jet):
            c = np.asarray(other, dtype=float)
            hess = None if self.hess is None else self.hess * c[..., None, None]
            return Jet(self.value * c, self.grad * c[..., None], hess)
        u, v = self, other
        grad = u.grad * v.value[..., None] + u.value[..., None] * v.grad
        hess = None
        if u.hess is not None:
            cross = u.grad[..., :, None] * v.grad[..., None, :]
            hess = (u.hess * v.value[..., None, None] + u.value[..., None, None] * v.hess
                    + cross + np.swapaxes(cross, -1, -2))
        return Jet(u.value * v.value, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Jet:
        return self * (1.0 / (other if isinstance(other, Jet) else np.asarray(other, dtype=float)))

    def __rtruediv__(self, other) -> Jet:
        # f(v) = c / v: f' = -f / v and f'' = -2 f' / v
        value = other / self.value
        d1 = -value / self.value
        return _chain(self, value, d1, None if self.hess is None else -2.0 * d1 / self.value)

    def __pow__(self, n: int) -> Jet:
        n = operator.index(n)
        if n in (0, 1):
            return self * float(n) + float(1 - n)
        v = self.value
        d2 = None if self.hess is None else n * (n - 1) * v ** (n - 2)
        return _chain(self, v**n, n * v ** (n - 1), d2)


def _chain(u: Jet, value: np.ndarray, d1: np.ndarray, d2: np.ndarray | None) -> Jet:
    """f(u) from f, f' and, at second order, f'' at the values of u."""
    grad = d1[..., None] * u.grad
    if u.hess is None:
        return Jet(value, grad)
    outer = u.grad[..., :, None] * u.grad[..., None, :]
    return Jet(value, grad, d1[..., None, None] * u.hess + d2[..., None, None] * outer)


def exp(u: Jet) -> Jet:
    e = np.exp(u.value)
    return _chain(u, e, e, e)


def sin(u: Jet) -> Jet:
    s = np.sin(u.value)
    return _chain(u, s, np.cos(u.value), -s)


def cos(u: Jet) -> Jet:
    c = np.cos(u.value)
    return _chain(u, c, -np.sin(u.value), -c)


def matrix(rows: list[list]) -> Jet | np.ndarray:
    """The matrix field with entry (i, j) ``rows[i][j]``, a jet of the batch's shape or a number.

    The result has the batch's shape followed by (rows, columns); rows of
    numbers only give a plain array, a constant field.
    """
    entries = [(i, j, e) for i, row in enumerate(rows) for j, e in enumerate(row)]
    first = next((e for _, _, e in entries if isinstance(e, Jet)), None)
    if first is None:
        return np.array(rows, dtype=float)
    shape, dim = first.shape + (len(rows), len(rows[0])), first.grad.shape[-1]
    out = Jet(np.zeros(shape), np.zeros(shape + (dim,)),
              None if first.hess is None else np.zeros(shape + (dim, dim)))
    for i, j, e in entries:
        if not isinstance(e, Jet):
            if e != 0.0:  # the arrays start zero-filled
                out.value[..., i, j] = e
            continue
        out.value[..., i, j], out.grad[..., i, j, :] = e.value, e.grad
        if out.hess is not None:
            out.hess[..., i, j, :, :] = e.hess
    return out


def variables(points: np.ndarray, order: int) -> Jet:
    """The coordinate jets x_k at a batch of points (..., dim), d_a x_k = delta_ak, of order 1 or 2.

    The partials are read-only broadcast views; every operation makes new arrays.
    """
    if order not in (1, 2):
        raise ValueError(f"jet order must be 1 or 2, got {order!r}")
    dim = points.shape[-1]
    hess = np.broadcast_to(0.0, points.shape + (dim, dim)) if order == 2 else None
    return Jet(points, np.broadcast_to(np.eye(dim), points.shape + (dim,)), hess)
