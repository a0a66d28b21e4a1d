"""Points, sampling grids, and the compact-open pseudo-metric.

Sup norms over compact sub-polydisks are approximated by maxima over
tensor-product grids: per coordinate the rings rho in {0, r/2, r} sampled
at Q equispaced angles. A grid is held one axis per coordinate
(``PointAxes``), so Blaschke factors and automorphisms evaluate on
n * (2Q+1) coordinate values rather than on all (2Q+1)**n points. The
pseudo-metric is a weighted, truncated sum of such grid sups over the
exhaustion radii r_m = m/(m+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, EvaluationOutsideDomain, ValidityError

#: tolerance for "on the closed polydisk" membership checks
CLOSURE_TOL = 1e-12

#: tolerance for unimodularity of torus-point coordinates
TORUS_TOL = 1e-12


def default_points_per_dim(dimension: int) -> int:
    """Grid resolution per coordinate, shrinking with dimension.

    Bounded holomorphic functions vary slowly well inside the polydisk, so
    modest angular resolution suffices; the tensor grid grows like Q**n.
    """
    return {1: 64, 2: 24, 3: 12}.get(dimension, 8)


@dataclass(frozen=True)
class CPoint:
    """A point of complex n-space, usually inside the closed polydisk."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(complex(c) for c in self.coords))
        if not self.coords:
            raise ValidityError("a point needs at least one coordinate")

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def is_interior(self) -> bool:
        return all(abs(c) < 1.0 for c in self.coords)

    @property
    def is_closure(self) -> bool:
        return all(abs(c) <= 1.0 + CLOSURE_TOL for c in self.coords)


@dataclass(frozen=True)
class TorusPoint:
    """A point of the distinguished boundary: every coordinate unimodular."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(complex(c) for c in self.coords)
        if not coords:
            raise ValidityError("a torus point needs at least one coordinate")
        for c in coords:
            if abs(abs(c) - 1.0) > TORUS_TOL:
                raise ValidityError(
                    f"torus coordinate has modulus {abs(c):.17g}, expected 1"
                )
        object.__setattr__(self, "coords", coords)

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def as_cpoint(self) -> CPoint:
        return CPoint(self.coords)


@dataclass(frozen=True, eq=False)
class PointAxes:
    """A point set held as one complex array per coordinate.

    The arrays broadcast together, and point i is element i of the
    broadcast in C order. A tensor grid lays coordinate j along array
    dimension j; a point cloud lays every coordinate along its one
    dimension. Tree nodes and automorphisms work on the arrays elementwise,
    so each point goes through the same floating-point operations as in the
    (m, n) form, and the max of a broadcast array is the max over the set.
    """

    coords: tuple

    @classmethod
    def of_array(cls, pts: np.ndarray) -> "PointAxes":
        """The point-cloud form of an (m, n) array (views, no copies)."""
        return cls(tuple(pts[:, j] for j in range(pts.shape[1])))

    @property
    def layout(self) -> tuple:
        """Shape of the broadcast of the coordinate arrays."""
        return np.broadcast_shapes(*(c.shape for c in self.coords))

    @property
    def shape(self) -> tuple:
        """(points, dimension), as for the (m, n) form."""
        return (math.prod(self.layout), len(self.coords))

    def expand(self, values) -> np.ndarray:
        """Values on this set, broadcast and raveled: shape (points,)."""
        values = np.asarray(values)
        # broadcast_to gives a read-only view, so a result already of full
        # layout is raveled as it is and stays writable
        if values.shape != self.layout:
            values = np.broadcast_to(values, self.layout)
        return values.ravel()

    def to_array(self) -> np.ndarray:
        """The (m, n) form."""
        return np.stack([self.expand(c) for c in self.coords], axis=-1)


@lru_cache(maxsize=256)
def _axes_cached(radius: float, points_per_dim: int, dimension: int) -> PointAxes:
    angles = 2.0 * np.pi * np.arange(points_per_dim) / points_per_dim
    circle = np.exp(1j * angles)
    axis = np.concatenate(
        [np.zeros(1, dtype=complex), 0.5 * radius * circle, radius * circle]
    )
    axis.setflags(write=False)
    return PointAxes(
        tuple(
            axis.reshape((1,) * j + (-1,) + (1,) * (dimension - j - 1))
            for j in range(dimension)
        )
    )


@dataclass(frozen=True)
class CompactProbe:
    """A closed sub-polydisk of given radius with its sampling grid."""

    radius: float
    points_per_dim: int
    dimension: int

    def __post_init__(self):
        if not (0.0 < self.radius < 1.0):
            raise ValidityError(f"probe radius {self.radius} not in (0, 1)")
        if self.points_per_dim < 1:
            raise ValidityError("points_per_dim must be positive")
        if self.dimension < 1:
            raise ValidityError("dimension must be positive")

    @classmethod
    def create(cls, radius: float, dimension: int, points_per_dim: int | None = None):
        if points_per_dim is None:
            points_per_dim = default_points_per_dim(dimension)
        return cls(radius=radius, points_per_dim=points_per_dim, dimension=dimension)

    def axes(self) -> PointAxes:
        """The sampling grid one axis per coordinate; all points interior."""
        a = _axes_cached(float(self.radius), int(self.points_per_dim), self.dimension)
        if np.max(np.abs(a.coords[0])) >= 1.0:
            raise EvaluationOutsideDomain("probe grid leaves the open polydisk")
        return a

    def grid(self) -> np.ndarray:
        """Sample points, shape (m, dimension), all interior; the points of
        ``axes()`` in the same order."""
        return self.axes().to_array()


def probe_sup(f, g, probe: CompactProbe) -> float:
    """Grid approximation of sup |f - g| over the probe.

    Deterministic for a fixed probe; an under-approximation of the true
    sup norm by construction.
    """
    if f.dimension != probe.dimension or g.dimension != probe.dimension:
        raise DimensionMismatch(
            f"function dims ({f.dimension}, {g.dimension}) vs probe dim "
            f"{probe.dimension}"
        )
    axes = probe.axes()
    return float(np.max(np.abs(f._eval(axes) - g._eval(axes))))


@dataclass(frozen=True)
class COMetric:
    """Truncated compact-open pseudo-metric.

    d(f, g) = sum_{m=1..M} 2^-m * min(1, sup over probe_m of |f-g|),
    with probe radii r_m = m/(m+1). Values lie in [0, 1 - 2^-M]; the
    truncation error of the untruncated metric is at most 2^-M.
    """

    levels: int
    probes: tuple

    @classmethod
    def create(cls, levels: int, dimension: int, points_per_dim: int | None = None):
        if levels < 1:
            raise ValidityError("metric needs at least one level")
        probes = tuple(
            CompactProbe.create(m / (m + 1.0), dimension, points_per_dim)
            for m in range(1, levels + 1)
        )
        return cls(levels=levels, probes=probes)

    @property
    def dimension(self) -> int:
        return self.probes[0].dimension


def metric_distance(f, g, metric: COMetric) -> float:
    """Weighted truncated sum of probe sups; symmetric, zero on the diagonal."""
    total = 0.0
    for m, probe in enumerate(metric.probes, start=1):
        total += math.ldexp(min(1.0, probe_sup(f, g, probe)), -m)
    return total
