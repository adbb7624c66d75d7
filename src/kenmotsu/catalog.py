"""Built-in example charts with almost contact structures.

Every chart is a warped product R x_{e^{beta t}} N made by :func:`warped`,
with the fibre N on the first coordinates and t the last.  Over a Kaehler
fibre beta = 1 gives a Kenmotsu chart and beta = 0 a cosymplectic one.
Four charts make up the corpus:

- ``euclidean3``: the flat fibre R^2 at beta = 0, flat R^3.  Almost contact
  metric but not Kenmotsu; the control case.
- ``h3``, ``h5``: the flat fibres R^2 and R^4 at beta = 1.  Constant
  curvature -1, Kenmotsu, Einstein.
- ``ne5``: at beta = 1, the fibre is the Kaehler product of a hyperbolic
  plane (half plane coordinates, metric (dx1^2 + dy1^2)/y1^2) with a flat
  plane.  Kenmotsu but not Einstein, with a nonzero conformal tensor;
  exists so the Einstein-only consequences have a falsifier.

Every chart carries analytic first and second metric partials, so its
curvature is closed-form and the stencil's metric partials have an exact
competitor, and a sample box on which metric entries stay within a few
orders of magnitude of 1 (absolute tolerances stay meaningful).  Sampling
shrinks the box by 10 * step so no stencil ever leaves it.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import ChartManifold, batched
from .structure import AlmostContactStructure


@dataclass(frozen=True)
class NamedExample:
    """A chart, its structure, and what the checks are expected to say."""

    name: str
    manifold: ChartManifold
    structure: AlmostContactStructure
    expected_kenmotsu: bool
    expected_einstein: bool
    expected_weyl_flat: bool
    sample_box: tuple[tuple[float, float], ...]
    notes: str = ""

    def __post_init__(self) -> None:
        if len(self.sample_box) != self.manifold.dim:
            raise ValueError("sample box rank must match the chart dimension")
        for (lo, hi), (dlo, dhi) in zip(self.sample_box, self.manifold.domain):
            if not (dlo <= lo < hi <= dhi):
                raise ValueError("sample box must sit inside the chart domain")

    @property
    def n(self) -> int:
        return self.manifold.n

    def sample_points(self, count: int, seed: int, step: float = 1e-4) -> np.ndarray:
        """(count, dim) deterministic uniform draws from the sample box, shrunk by 10*step.

        The per-example stream is ``random.Random`` keyed by (seed,
        crc32(name)), so reports are reproducible across runs and machines
        regardless of catalog order.  One ``getrandbits`` call gives 64 bits
        per coordinate; the top 53 of each make a uniform in [0, 1).  That
        call takes a C int, so count * dim may be at most (2^31 - 1) // 64.
        """
        size, limit = count * self.manifold.dim, (2**31 - 1) // 64
        if not 1 <= size <= limit:
            raise ValueError(
                f"count * dim must be in [1, {limit}], got {count} * {self.manifold.dim}")
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        margin = 10.0 * step
        lows = np.array([lo + margin for lo, _ in self.sample_box])
        highs = np.array([hi - margin for _, hi in self.sample_box])
        if np.any(lows >= highs):
            raise ValueError("step too large for the sample box")
        # crc32 fits in 32 bits, so each (seed, name) pair is its own key
        rng = random.Random(seed << 32 | zlib.crc32(self.name.encode()))
        words = rng.getrandbits(64 * size).to_bytes(8 * size, "little")
        unit = (np.frombuffer(words, dtype="<u8") >> 11) * 2.0**-53
        return lows + (highs - lows) * unit.reshape(count, self.manifold.dim)


def _planar_phi(dim: int) -> np.ndarray:
    """Rotation by 90 degrees on each fiber pair, zero on the last axis."""
    phi = np.zeros((dim, dim))
    for k in range(0, dim - 1, 2):
        phi[k + 1, k] = 1.0
        phi[k, k + 1] = -1.0
    return phi


def _constant(value: np.ndarray):
    """A batch-form field equal to ``value`` at every point (a read-only view)."""
    return batched(lambda p: np.broadcast_to(value, p.shape[:-1] + value.shape))


def _diagonal(entries: list) -> np.ndarray:
    """Diagonal matrices, shape (..., k, k), from k entries broadcast over a batch."""
    values = np.broadcast_arrays(*entries)
    out = np.zeros(values[0].shape + (len(values),) * 2)
    for k, value in enumerate(values):
        out[..., k, k] = value
    return out


def warped(name: str, beta: float, fiber: Callable, fiber_partials: Callable,
           domain: tuple, sample_box: tuple, fiber_second_partials: Callable | None = None,
           **expectations) -> NamedExample:
    """The chart R x_{e^{beta t}} N: metric e^{2 beta t} g_N + dt^2, t the last coordinate.

    ``fiber(x)`` gives g_N, ``fiber_partials(x)`` dg_N[a, i, j] = d_a g_N,ij
    and the optional ``fiber_second_partials(x)`` ddg_N[a, b, i, j], in batch
    form over the fibre coordinates x = p[..., :-1].  With w = e^{2 beta t},
    the fibre block has d_t g = 2 beta w g_N, d_a g = w d_a g_N, d_t d_t g =
    4 beta^2 w g_N, d_t d_a g = 2 beta w d_a g_N and d_a d_b g = w d_a d_b g_N.
    The structure is xi = d_t, eta = dt and phi rotating each fibre
    coordinate pair.  ``expectations`` are the other NamedExample fields.
    """
    dim = len(domain)
    k = dim - 1

    @batched
    def metric(p: np.ndarray) -> np.ndarray:
        g = np.zeros(p.shape[:-1] + (dim, dim))
        g[..., :k, :k] = np.exp(2.0 * beta * p[..., -1])[..., None, None] * fiber(p[..., :k])
        g[..., k, k] = 1.0
        return g

    @batched
    def partials(p: np.ndarray) -> np.ndarray:
        w = np.exp(2.0 * beta * p[..., -1])[..., None, None]
        dg = np.zeros(p.shape[:-1] + (dim,) * 3)
        dg[..., :k, :k, :k] = w[..., None] * fiber_partials(p[..., :k])
        dg[..., k, :k, :k] = 2.0 * beta * w * fiber(p[..., :k])
        return dg

    @batched
    def second_partials(p: np.ndarray) -> np.ndarray:
        w, x = np.exp(2.0 * beta * p[..., -1])[..., None, None], p[..., :k]
        ddg = np.zeros(p.shape[:-1] + (dim,) * 4)
        ddg[..., :k, :k, :k, :k] = w[..., None, None] * fiber_second_partials(x)
        ddg[..., k, :k, :k, :k] = 2.0 * beta * w[..., None] * fiber_partials(x)
        ddg[..., :k, k, :k, :k] = ddg[..., k, :k, :k, :k]
        ddg[..., k, k, :k, :k] = 4.0 * beta**2 * w * fiber(x)
        return ddg

    xi = np.eye(dim)[-1]
    return NamedExample(
        name=name,
        manifold=ChartManifold(dim, metric, domain, partials,
                               second_partials if fiber_second_partials else None),
        structure=AlmostContactStructure(
            phi=_constant(_planar_phi(dim)), xi=_constant(xi), eta=_constant(xi)
        ),
        sample_box=sample_box,
        **expectations,
    )


def _flat(x: np.ndarray) -> np.ndarray:
    """The flat fibre metric: the identity at every point."""
    return np.broadcast_to(np.eye(x.shape[-1]), x.shape + x.shape[-1:])


def _flat_partials(x: np.ndarray) -> np.ndarray:
    return np.zeros(x.shape + x.shape[-1:] * 2)


def _flat_second_partials(x: np.ndarray) -> np.ndarray:
    return np.zeros(x.shape + x.shape[-1:] * 3)


def _hyperbolic_times_flat(x: np.ndarray) -> np.ndarray:
    """The hyperbolic plane times a flat factor: (dx1^2 + dy1^2) / y1^2 + the flat rest."""
    return _diagonal([1.0 / x[..., 1] ** 2] * 2 + [1.0] * (x.shape[-1] - 2))


def _hyperbolic_times_flat_partials(x: np.ndarray) -> np.ndarray:
    dg = np.zeros(x.shape + x.shape[-1:] * 2)
    # only y1 moves the fibre metric, and only its hyperbolic block
    dg[..., 1, :2, :2] = _diagonal([-2.0 / x[..., 1] ** 3] * 2)
    return dg


def _hyperbolic_times_flat_second_partials(x: np.ndarray) -> np.ndarray:
    ddg = np.zeros(x.shape + x.shape[-1:] * 3)
    ddg[..., 1, 1, :2, :2] = _diagonal([6.0 / x[..., 1] ** 4] * 2)
    return ddg


def catalog() -> list[NamedExample]:
    space_form = dict(
        expected_kenmotsu=True, expected_einstein=True, expected_weyl_flat=True,
        notes="constant curvature -1 warped chart; Einstein with S = -(dim-1) g",
    )
    return [
        warped(
            "euclidean3", 0.0, _flat, _flat_partials,
            fiber_second_partials=_flat_second_partials,
            domain=((-2.0, 2.0),) * 3,
            sample_box=((-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5)),
            expected_kenmotsu=False, expected_einstein=True, expected_weyl_flat=True,
            notes="flat control: almost contact metric, fails the defining condition",
        ),
        warped(
            "h3", 1.0, _flat, _flat_partials,
            fiber_second_partials=_flat_second_partials,
            domain=((-2.0, 2.0),) * 2 + ((-1.0, 1.0),),
            sample_box=((-1.0, 1.0),) * 2 + ((-0.5, 0.5),),
            **space_form,
        ),
        warped(
            "h5", 1.0, _flat, _flat_partials,
            fiber_second_partials=_flat_second_partials,
            domain=((-2.0, 2.0),) * 4 + ((-1.0, 1.0),),
            sample_box=((-1.0, 1.0),) * 4 + ((-0.5, 0.5),),
            **space_form,
        ),
        warped(
            "ne5", 1.0, _hyperbolic_times_flat, _hyperbolic_times_flat_partials,
            fiber_second_partials=_hyperbolic_times_flat_second_partials,
            domain=((-2.0, 2.0), (0.5, 3.0), (-2.0, 2.0), (-2.0, 2.0), (-1.0, 1.0)),
            sample_box=((-1.0, 1.0), (0.7, 2.5), (-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5)),
            expected_kenmotsu=True, expected_einstein=False, expected_weyl_flat=False,
            notes="hyperbolic-times-flat Kaehler fiber; Kenmotsu but not Einstein",
        ),
    ]


def by_name(name: str) -> NamedExample:
    for example in catalog():
        if example.name == name:
            return example
    known = ", ".join(e.name for e in catalog())
    raise KeyError(f"no example named {name!r}; known: {known}")
