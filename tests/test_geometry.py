import math
import tracemalloc

import numpy as np
import pytest

from innerorbit import (
    CompactProbe,
    Constant,
    Coordinate,
    CPoint,
    Power,
    Product,
    TorusPoint,
    probe_sup,
)
from innerorbit.errors import DimensionMismatch, ValidityError

from util import random_blaschke_tree, three_ring_axes


def test_cpoint_interior_flag():
    assert CPoint((0.3, 0.4j)).is_interior
    assert not CPoint((1.0, 0.0)).is_interior
    assert CPoint((1.0, 0.5)).is_closure


def test_torus_point_validation():
    TorusPoint((1.0, -1j))
    with pytest.raises(ValidityError):
        TorusPoint((0.999,))


def test_probe_grid_shape_and_interior():
    probe = CompactProbe.create(0.5, 2, points_per_dim=8)
    grid = probe.grid()
    assert grid.shape == (8**2, 2)
    assert np.all(np.abs(np.abs(grid) - 0.5) <= 1e-15)


@pytest.mark.parametrize(
    "radius,n,q", [(0.3, 1, 64), (0.25, 2, 24), (0.25, 3, 12), (0.5, 2, 5)]
)
def test_probe_grid_is_the_outer_ring_of_the_three_ring_grid(radius, n, q):
    # bit for bit: the r ring of {0, r/2, r} is the torus grid, and the
    # ring bound's stride of it is the three-ring grid's stride from angle 0
    probe = CompactProbe.create(radius, n, points_per_dim=q)
    old = three_ring_axes(probe).coords[0].ravel()
    axis = probe.axes().coords[0].ravel()
    assert axis.tobytes() == old[q + 1 :].tobytes()
    step = math.ceil(q / 8)
    assert probe.outer_ring(8).coords[0].ravel().tobytes() == old[q + 1 :: step].tobytes()
    assert probe.outer_ring(8).layout == (len(range(0, q, step)),) * n


def test_oversized_probe_grid_is_refused_before_any_array_exists():
    # 204^3 > 2^23 points, 136 MB per complex array
    probe = CompactProbe.create(0.3, 3, points_per_dim=204)
    tracemalloc.start()
    try:
        with pytest.raises(ValidityError, match="204\\^3 points is beyond desk scale"):
            probe.axes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    # the largest grid allowed still builds
    assert CompactProbe.create(0.3, 3, points_per_dim=203).axes().layout == (203,) * 3


def test_probe_sup_identity_is_zero():
    f = Product((Coordinate(1, 2), Coordinate(2, 2)))
    probe = CompactProbe.create(0.5, 2, points_per_dim=8)
    assert probe_sup(f, f, probe) == 0.0


def test_probe_sup_coordinate_reaches_radius():
    probe = CompactProbe.create(0.5, 1)
    assert probe_sup(Coordinate(1, 1), Constant(0.0, 1), probe) == pytest.approx(
        0.5, abs=1e-15
    )


def test_probe_sup_product_of_radii():
    probe = CompactProbe.create(0.5, 2)
    f = Product((Coordinate(1, 2), Coordinate(2, 2)))
    assert probe_sup(f, Constant(0.0, 2), probe) == pytest.approx(0.25, abs=1e-15)


def test_probe_sup_dimension_mismatch():
    probe = CompactProbe.create(0.5, 2)
    with pytest.raises(DimensionMismatch):
        probe_sup(Coordinate(1, 1), Constant(0.0, 1), probe)


def test_probe_sup_monotone_in_radius_for_powers():
    # |z^2| attains its max at the outer ring, so the grid sup is exactly r^2
    for q in (16, 32):
        sups = [
            probe_sup(
                Power(Coordinate(1, 1), 2),
                Constant(0.0, 1),
                CompactProbe.create(r, 1, points_per_dim=q),
            )
            for r in (0.25, 0.5, 0.75)
        ]
        assert sups == sorted(sups)
        assert sups[1] == pytest.approx(0.25, abs=1e-15)


def test_doubling_points_never_decreases_sup():
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = random_blaschke_tree(rng, 1)
        g = random_blaschke_tree(rng, 1)
        coarse = probe_sup(f, g, CompactProbe.create(0.6, 1, points_per_dim=16))
        fine = probe_sup(f, g, CompactProbe.create(0.6, 1, points_per_dim=32))
        assert fine >= coarse - 1e-15
