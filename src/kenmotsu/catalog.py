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

Every metric is one expression over jets (:mod:`kenmotsu.jets`), which
gives its exact first and second partials, and every chart has a sample
box on which metric entries stay within a few orders of magnitude of 1
(absolute tolerances stay meaningful).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .charts import ChartManifold
from .structure import AlmostContactStructure

# sampling shrinks the sample box by this much on each side: ten times the
# old default finite-difference step, kept so that seeded points stay where
# earlier reports put them
SAMPLE_MARGIN = 1e-3


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

    def sample_points(self, count: int, seed: int) -> np.ndarray:
        """(count, dim) deterministic uniform draws from the sample box, shrunk by SAMPLE_MARGIN.

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
        lows = np.array([lo + SAMPLE_MARGIN for lo, _ in self.sample_box])
        highs = np.array([hi - SAMPLE_MARGIN for _, hi in self.sample_box])
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
    """A field equal to ``value`` at every point: a plain array of its own shape, zero partials."""
    return lambda p: value


def _diagonal(entries: list) -> list[list]:
    """The rows of the diagonal matrix with these entries, for :func:`~kenmotsu.jets.matrix`."""
    return [[e if i == j else 0.0 for j in range(len(entries))] for i, e in enumerate(entries)]


def warped(name: str, beta: float, fiber: Callable, domain: tuple, sample_box: tuple,
           **expectations) -> NamedExample:
    """The chart R x_{e^{beta t}} N: metric e^{2 beta t} g_N + dt^2, t the last coordinate.

    ``fiber(x)`` gives the rows of g_N over the coordinate jets of the fibre,
    x = p[..., :-1]; the chart's partials come from the same expression.
    The structure is xi = d_t, eta = dt and phi rotating each fibre
    coordinate pair.  ``expectations`` are the other NamedExample fields.
    """
    dim = len(domain)
    k = dim - 1

    def metric(p: jets.Jet) -> jets.Jet:
        w = jets.exp(2.0 * beta * p[..., -1])
        rows = [[w * e for e in row] + [0.0] for row in fiber(p[..., :k])]
        return jets.matrix(rows + [[0.0] * k + [1.0]])

    xi = np.eye(dim)[-1]
    return NamedExample(
        name=name,
        manifold=ChartManifold(dim, metric, domain),
        structure=AlmostContactStructure(
            phi=_constant(_planar_phi(dim)), xi=_constant(xi), eta=_constant(xi)
        ),
        sample_box=sample_box,
        **expectations,
    )


def _flat(x: jets.Jet) -> list[list]:
    """The flat fibre metric: the identity at every point."""
    return _diagonal([1.0] * x.shape[-1])


def _hyperbolic_times_flat(x: jets.Jet) -> list[list]:
    """The hyperbolic plane times a flat factor: (dx1^2 + dy1^2) / y1^2 + the flat rest."""
    h = 1.0 / x[..., 1] ** 2
    return _diagonal([h, h] + [1.0] * (x.shape[-1] - 2))


def catalog() -> list[NamedExample]:
    space_form = dict(
        expected_kenmotsu=True, expected_einstein=True, expected_weyl_flat=True,
        notes="constant curvature -1 warped chart; Einstein with S = -(dim-1) g",
    )
    return [
        warped(
            "euclidean3", 0.0, _flat,
            domain=((-2.0, 2.0),) * 3,
            sample_box=((-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5)),
            expected_kenmotsu=False, expected_einstein=True, expected_weyl_flat=True,
            notes="flat control: almost contact metric, fails the defining condition",
        ),
        warped(
            "h3", 1.0, _flat,
            domain=((-2.0, 2.0),) * 2 + ((-1.0, 1.0),),
            sample_box=((-1.0, 1.0),) * 2 + ((-0.5, 0.5),),
            **space_form,
        ),
        warped(
            "h5", 1.0, _flat,
            domain=((-2.0, 2.0),) * 4 + ((-1.0, 1.0),),
            sample_box=((-1.0, 1.0),) * 4 + ((-0.5, 0.5),),
            **space_form,
        ),
        warped(
            "ne5", 1.0, _hyperbolic_times_flat,
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
