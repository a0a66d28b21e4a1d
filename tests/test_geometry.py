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

from util import random_blaschke_tree


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
    assert grid.shape == ((2 * 8 + 1) ** 2, 2)
    assert np.max(np.abs(grid)) <= 0.5 + 1e-15


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
