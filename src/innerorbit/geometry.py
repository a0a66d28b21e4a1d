"""Points and sampling grids.

Sup norms over r D^n are approximated by maxima over the torus grid r T^n
at Q equispaced angles per coordinate (``torus_axis``): by the maximum
principle a bounded holomorphic function's sup over r D^n is attained on
r T^n. A grid is held one axis per coordinate (``PointAxes``), so Blaschke
factors and automorphisms evaluate on n * Q values, not on all Q**n points.
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

#: refuse tensor grids beyond this many points (roughly 400 MB at n = 3)
_MAX_GRID = 1 << 23


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


@dataclass(frozen=True, eq=False)
class PointAxes:
    """A point set held as one complex array per coordinate.

    The arrays broadcast together, and point i is element i of the
    broadcast in C order. A tensor grid lays coordinate j along array
    dimension j; a point cloud lays every coordinate along its one
    dimension. Tree nodes and automorphisms work on the arrays elementwise,
    taking the operands of every product in a fixed order, so each point
    goes through the same floating-point operations as in the (m, n) form,
    whatever the layout and the array size, and the max of a broadcast
    array is the max over the set. Probe grids and torus shells are tensor
    grids (``tensor``).
    """

    coords: tuple

    @classmethod
    def of_array(cls, pts: np.ndarray) -> "PointAxes":
        """The point-cloud form of an (m, n) array (views, no copies)."""
        return cls(tuple(pts[:, j] for j in range(pts.shape[1])))

    @classmethod
    def tensor(cls, axis: np.ndarray, dimension: int) -> "PointAxes":
        """The tensor grid axis^dimension: coordinate j is ``axis`` laid
        along array dimension j (views, no copies)."""
        return cls(
            tuple(
                axis.reshape((1,) * j + (-1,) + (1,) * (dimension - j - 1))
                for j in range(dimension)
            )
        )

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


def torus_axis(radius: float, q: int, dimension: int) -> np.ndarray:
    """The axis of the torus grid r T^n at q angles per coordinate, from
    angle 0; refused, before any array exists, past _MAX_GRID points."""
    if q < 1:
        raise ValidityError(f"a torus grid needs at least one angle, got {q}")
    if q**dimension > _MAX_GRID:
        raise ValidityError(
            f"tensor grid of {q}^{dimension} points is beyond desk scale; "
            "lower the per-dimension resolution"
        )
    angles = 2.0 * np.pi * np.arange(q) / q
    return radius * np.exp(1j * angles)


@lru_cache(maxsize=256)
def _axes_cached(radius: float, points_per_dim: int, dimension: int) -> PointAxes:
    axis = torus_axis(radius, points_per_dim, dimension)
    axis.setflags(write=False)
    return PointAxes.tensor(axis, dimension)


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
        """The torus grid r T^n at ``points_per_dim`` angles per coordinate,
        one axis per coordinate; all points interior."""
        a = _axes_cached(float(self.radius), int(self.points_per_dim), self.dimension)
        if np.max(np.abs(a.coords[0])) >= 1.0:
            raise EvaluationOutsideDomain("probe grid leaves the open polydisk")
        return a

    def grid(self) -> np.ndarray:
        """Sample points, shape (m, dimension), all interior; the points of
        ``axes()`` in the same order."""
        return self.axes().to_array()

    def outer_ring(self, angles: int) -> PointAxes:
        """The points of ``axes()`` at every ceil(Q / angles)-th angle from
        angle 0: at most angles**dimension of them, each coordinate the
        grid's own value."""
        axis = self.axes().coords[0].ravel()
        step = math.ceil(self.points_per_dim / angles)
        return PointAxes.tensor(axis[::step], self.dimension)


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
