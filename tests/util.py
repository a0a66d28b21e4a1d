"""Shared random generators for the test suite (all seeded by callers)."""

import cmath
import math

import numpy as np

from innerorbit import (
    BlaschkeFactor,
    Constant,
    MobiusFactor,
    PointAxes,
    PolydiskAutomorphism,
    Product,
    TorusPoint,
)


def three_ring_axes(probe):
    """The probe grid of the rings {0, r/2, r} at Q angles per coordinate,
    which the torus grid of ``probe.axes()`` replaced: the centre first,
    then the r/2 ring, then the r ring, each ring from angle 0."""
    q = probe.points_per_dim
    angles = 2.0 * np.pi * np.arange(q) / q
    circle = np.exp(1j * angles)
    axis = np.concatenate(
        [np.zeros(1, dtype=complex), 0.5 * probe.radius * circle, probe.radius * circle]
    )
    return PointAxes.tensor(axis, probe.dimension)


def random_mobius(rng, max_alpha=0.8):
    r = rng.uniform(0.0, max_alpha)
    return MobiusFactor(
        alpha=r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)),
        theta=rng.uniform(-math.pi, math.pi),
    )


def random_automorphism(rng, dimension, max_alpha=0.8):
    perm = tuple(int(p) for p in rng.permutation(dimension))
    factors = tuple(random_mobius(rng, max_alpha) for _ in range(dimension))
    return PolydiskAutomorphism(factors=factors, perm=perm)


def random_blaschke_tree(rng, dimension, max_factors=4, max_alpha=0.8,
                         with_constant=False):
    count = int(rng.integers(1, max_factors + 1))
    nodes = []
    if with_constant:
        u = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        nodes.append(Constant(u, dimension))
    for _ in range(count):
        coord = int(rng.integers(1, dimension + 1))
        nodes.append(BlaschkeFactor(random_mobius(rng, max_alpha), coord, dimension))
    if len(nodes) == 1:
        return nodes[0]
    return Product(tuple(nodes))


def random_interior_points(rng, count, dimension, radius=0.95):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=(count, dimension)))
    ang = rng.uniform(-math.pi, math.pi, size=(count, dimension))
    return r * np.exp(1j * ang)


def random_boundary_points(rng, count, dimension):
    ang = rng.uniform(-math.pi, math.pi, size=(count, dimension))
    return np.exp(1j * ang)


def random_torus_point(rng, dimension, exact_first=False):
    coords = [cmath.exp(1j * rng.uniform(-math.pi, math.pi))
              for _ in range(dimension)]
    if exact_first:
        coords[0] = complex(rng.choice([1.0 + 0j, -1.0 + 0j, 1j, -1j]))
    return TorusPoint(tuple(coords))
