"""Built-in example charts with almost contact structures.

Four charts make up the corpus:

- ``euclidean3``: flat R^3 with the obvious structure.  Almost contact
  metric but not Kenmotsu; the control case.
- ``h3``, ``h5``: warped charts g = e^{2t} (sum of fiber squares) + dt^2 in
  dimensions 3 and 5.  Constant curvature -1, Kenmotsu, Einstein.
- ``ne5``: the fiber is the Kaehler product of a hyperbolic plane (half
  plane coordinates, metric (dx1^2 + dy1^2)/y1^2) with a flat plane, warped
  the same way.  Kenmotsu but not Einstein, with a nonzero conformal
  tensor; exists so the Einstein-only consequences have a falsifier.

Every chart carries analytic metric partials so the finite-difference path
always has an exact competitor, and a sample box on which metric entries
stay within a few orders of magnitude of 1 (absolute tolerances stay
meaningful).  Sampling shrinks the box further by 10 * step so no stencil
ever leaves it.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

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
    # multiplier for tolerances of checks dominated by nested finite
    # differencing; > 1 only where the metric has strong coordinate
    # dependence (steeper higher derivatives than the space forms)
    fd_tolerance_scale: float = 1.0

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
        per coordinate; the top 53 of each make a uniform in [0, 1).
        """
        if count < 1:
            raise ValueError("count must be positive")
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        margin = 10.0 * step
        lows = np.array([lo + margin for lo, _ in self.sample_box])
        highs = np.array([hi - margin for _, hi in self.sample_box])
        if np.any(lows >= highs):
            raise ValueError("step too large for the sample box")
        size = count * self.manifold.dim
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


def _standard_structure(dim: int) -> AlmostContactStructure:
    xi = np.zeros(dim)
    xi[-1] = 1.0
    return AlmostContactStructure(
        phi=_constant(_planar_phi(dim)), xi=_constant(xi), eta=_constant(xi)
    )


def _euclidean3() -> NamedExample:
    dim = 3

    manifold = ChartManifold(
        dim=dim,
        metric=_constant(np.eye(dim)),
        metric_partials=_constant(np.zeros((dim, dim, dim))),
        domain=((-2.0, 2.0),) * 3,
    )
    return NamedExample(
        name="euclidean3",
        manifold=manifold,
        structure=_standard_structure(dim),
        expected_kenmotsu=False,
        expected_einstein=True,
        expected_weyl_flat=True,
        sample_box=((-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5)),
        notes="flat control: almost contact metric, fails the defining condition",
    )


def _warped_space_form(name: str, dim: int) -> NamedExample:
    fiber = dim - 1

    @batched
    def metric(p: np.ndarray) -> np.ndarray:
        w = np.exp(2.0 * p[..., -1])
        return _diagonal([w] * fiber + [1.0])

    @batched
    def partials(p: np.ndarray) -> np.ndarray:
        dg = np.zeros(p.shape[:-1] + (dim, dim, dim))
        dg[..., -1, :fiber, :fiber] = _diagonal([2.0 * np.exp(2.0 * p[..., -1])] * fiber)
        return dg

    manifold = ChartManifold(
        dim=dim,
        metric=metric,
        metric_partials=partials,
        domain=((-2.0, 2.0),) * fiber + ((-1.0, 1.0),),
    )
    return NamedExample(
        name=name,
        manifold=manifold,
        structure=_standard_structure(dim),
        expected_kenmotsu=True,
        expected_einstein=True,
        expected_weyl_flat=True,
        sample_box=((-1.0, 1.0),) * fiber + ((-0.5, 0.5),),
        notes="constant curvature -1 warped chart; Einstein with S = -(dim-1) g",
    )


def _ne5() -> NamedExample:
    dim = 5

    @batched
    def metric(p: np.ndarray) -> np.ndarray:
        w = np.exp(2.0 * p[..., 4])
        y1 = p[..., 1]
        return _diagonal([w / y1**2, w / y1**2, w, w, 1.0])

    @batched
    def partials(p: np.ndarray) -> np.ndarray:
        dg = np.zeros(p.shape[:-1] + (dim, dim, dim))
        w = np.exp(2.0 * p[..., 4])
        y1 = p[..., 1]
        # t-derivative doubles every warped entry
        dg[..., 4, :4, :4] = _diagonal([2.0 * w / y1**2] * 2 + [2.0 * w] * 2)
        # y1-derivative acts on the hyperbolic block only
        dg[..., 1, :2, :2] = _diagonal([-2.0 * w / y1**3] * 2)
        return dg

    manifold = ChartManifold(
        dim=dim,
        metric=metric,
        metric_partials=partials,
        domain=((-2.0, 2.0), (0.5, 3.0), (-2.0, 2.0), (-2.0, 2.0), (-1.0, 1.0)),
    )
    return NamedExample(
        name="ne5",
        manifold=manifold,
        structure=_standard_structure(dim),
        expected_kenmotsu=True,
        expected_einstein=False,
        expected_weyl_flat=False,
        sample_box=((-1.0, 1.0), (0.7, 2.5), (-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5)),
        notes="hyperbolic-times-flat Kaehler fiber; Kenmotsu but not Einstein",
        fd_tolerance_scale=10.0,
    )


def catalog() -> list[NamedExample]:
    return [
        _euclidean3(),
        _warped_space_form("h3", 3),
        _warped_space_form("h5", 5),
        _ne5(),
    ]


def by_name(name: str) -> NamedExample:
    for example in catalog():
        if example.name == name:
            return example
    known = ", ".join(e.name for e in catalog())
    raise KeyError(f"no example named {name!r}; known: {known}")
