"""Axis-wise evaluation on probe grids against pointwise evaluation.

Trees and automorphisms evaluate on a ``PointAxes`` (one array per
coordinate, broadcasting together). The claim is that this changes no bit:
every point goes through the floating-point operations of pointwise
evaluation. The reference below is that pointwise evaluation on the
expanded (m, n) grid, column by column, so every comparison is exact.
"""

import math

import numpy as np
import pytest

from innerorbit import (
    BlaschkeFactor,
    Composed,
    CompactProbe,
    Constant,
    Coordinate,
    PolydiskAutomorphism,
    Power,
    Product,
)

from util import random_mobius


def reference_transform(phi, pts):
    out = np.empty_like(pts)
    for j in range(phi.dimension):
        out[:, j] = phi.factors[j](pts[:, phi.perm[j]])
    return out


def reference_eval(f, pts):
    if isinstance(f, Constant):
        return np.full(pts.shape[0], f.value, dtype=complex)
    if isinstance(f, Coordinate):
        return pts[:, f.index - 1]
    if isinstance(f, BlaschkeFactor):
        return f.factor(pts[:, f.coord - 1])
    if isinstance(f, Product):
        out = reference_eval(f.children[0], pts)
        for c in f.children[1:]:
            out = out * reference_eval(c, pts)
        return out
    if isinstance(f, Power):
        return reference_eval(f.child, pts) ** f.exponent
    if isinstance(f, Composed):
        return reference_eval(f.outer, reference_transform(f.auto, pts))
    raise TypeError(type(f).__name__)


def shuffled_automorphism(rng, n):
    """Random automorphism whose permutation moves a coordinate when n > 1."""
    perm = tuple(range(n))
    while n > 1 and perm == tuple(range(n)):
        perm = tuple(int(p) for p in rng.permutation(n))
    factors = tuple(random_mobius(rng) for _ in range(n))
    return PolydiskAutomorphism(factors=factors, perm=perm)


def random_tree(rng, n, depth=3):
    kinds = ["constant", "coordinate", "blaschke"]
    if depth > 0:
        kinds += ["product", "product", "power", "composed"]
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "constant":
        r = rng.uniform(0.0, 1.0)
        return Constant(r * complex(math.cos(r * 7.0), math.sin(r * 7.0)), n)
    if kind == "coordinate":
        return Coordinate(int(rng.integers(1, n + 1)), n)
    if kind == "blaschke":
        return BlaschkeFactor(random_mobius(rng), int(rng.integers(1, n + 1)), n)
    if kind == "product":
        count = int(rng.integers(2, 5))
        return Product(tuple(random_tree(rng, n, depth - 1) for _ in range(count)))
    if kind == "power":
        return Power(random_tree(rng, n, depth - 1), int(rng.integers(1, 5)))
    return Composed(shuffled_automorphism(rng, n), random_tree(rng, n, depth - 1))


PROBES = [
    CompactProbe.create(0.3, 1),
    CompactProbe.create(0.45, 2, points_per_dim=8),
    CompactProbe.create(0.25, 3, points_per_dim=5),
    CompactProbe.create(0.25, 3),
]


@pytest.mark.parametrize("probe", PROBES, ids=lambda p: f"n{p.dimension}q{p.points_per_dim}")
def test_tree_on_axes_equals_pointwise(probe):
    rng = np.random.default_rng(1000 + 10 * probe.dimension + probe.points_per_dim)
    axes, grid = probe.axes(), probe.grid()
    layout = (2 * probe.points_per_dim + 1,) * probe.dimension
    assert axes.shape == grid.shape
    for _ in range(40):
        f = random_tree(rng, probe.dimension)
        expected = reference_eval(f, grid)
        broadcast = np.broadcast_to(f._eval(axes), layout).ravel(order="C")
        assert np.array_equal(broadcast, expected)
        assert np.array_equal(f.eval_grid(grid), expected)


@pytest.mark.parametrize("probe", PROBES, ids=lambda p: f"n{p.dimension}q{p.points_per_dim}")
def test_transform_on_axes_equals_pointwise(probe):
    rng = np.random.default_rng(2000 + 10 * probe.dimension + probe.points_per_dim)
    axes, grid = probe.axes(), probe.grid()
    for _ in range(10):
        phi = shuffled_automorphism(rng, probe.dimension)
        psi = shuffled_automorphism(rng, probe.dimension)
        expected = reference_transform(psi, reference_transform(phi, grid))
        image = psi.transform(phi.transform(axes))
        assert image.shape == grid.shape
        assert np.array_equal(image.to_array(), expected)
        assert np.array_equal(psi.transform(phi.transform(grid)), expected)


def test_axes_lay_each_coordinate_on_its_own_dimension():
    probe = CompactProbe.create(0.5, 3, points_per_dim=4)
    axes = probe.axes()
    assert [c.shape for c in axes.coords] == [(9, 1, 1), (1, 9, 1), (1, 1, 9)]
    assert axes.layout == (9, 9, 9)
    assert np.array_equal(axes.to_array(), probe.grid())
    # a permutation moves coordinates between array dimensions, not values
    swap = PolydiskAutomorphism.identity(3)
    swap = PolydiskAutomorphism(swap.factors, (2, 0, 1))
    assert [c.shape for c in swap.transform(axes).coords] == [
        (1, 1, 9), (9, 1, 1), (1, 9, 1)
    ]


def test_eval_grid_returns_one_value_per_point():
    pts = np.array([[0.1 + 0.2j, -0.3j], [0.5, 0.25], [0.0, 0.9]])
    for f in (Constant(0.5j, 2), Coordinate(2, 2), Product((Constant(0.5, 2),))):
        values = f.eval_grid(pts)
        assert values.shape == (3,)
        assert np.array_equal(values, reference_eval(f, pts))
