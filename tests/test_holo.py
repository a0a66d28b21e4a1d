import math

import numpy as np
import pytest

from innerorbit import (
    BlaschkeFactor,
    Composed,
    Constant,
    Coordinate,
    MobiusFactor,
    PolydiskAutomorphism,
    Power,
    Product,
    auto_eval,
    auto_inverse,
    flatten,
    is_blaschke_type,
    probe_sup,
    pullback,
    taylor_coeffs,
    CompactProbe,
)
from innerorbit.errors import (
    DimensionMismatch,
    EvaluationOutsideDomain,
    ValidityError,
)

from util import (
    random_automorphism,
    random_blaschke_tree,
    random_interior_points,
)


def test_constant_eval():
    assert Constant(0.5, 2).eval((0.1, 0.2)) == 0.5


def test_constant_rejects_large_modulus():
    with pytest.raises(ValidityError):
        Constant(1.5, 1)


def test_product_of_coordinates():
    f = Product((Coordinate(1, 2), Coordinate(2, 2)))
    assert f.eval((0.3, 0.4)) == pytest.approx(0.12, abs=1e-15)


def test_blaschke_eval_matches_rational_oracle():
    f = BlaschkeFactor(MobiusFactor(0.5, 0.0), 1, 1)
    assert f.eval((0.25,)) == pytest.approx(2.0 / 7.0, abs=1e-15)


def test_eval_outside_closure_raises():
    with pytest.raises(EvaluationOutsideDomain):
        Coordinate(1, 1).eval((1.5,))


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Coordinate(1, 2).eval_grid(np.zeros((3, 1), dtype=complex))


def test_ball_membership_on_random_points():
    rng = np.random.default_rng(41)
    pts1 = random_interior_points(rng, 500, 1)
    pts2 = random_interior_points(rng, 500, 2)
    for _ in range(10):
        f1 = random_blaschke_tree(rng, 1, with_constant=True)
        f2 = random_blaschke_tree(rng, 2, with_constant=True)
        assert np.max(np.abs(f1.eval_grid(pts1))) <= 1 + 1e-12
        assert np.max(np.abs(f2.eval_grid(pts2))) <= 1 + 1e-12


def test_apply_operator_identity_symbol():
    f = Product((Coordinate(1, 2), Constant(0.5, 2)))
    g = Composed(PolydiskAutomorphism.identity(2), f)
    probe = CompactProbe.create(0.5, 2, points_per_dim=8)
    assert probe_sup(g, f, probe) < 1e-12


def test_apply_operator_bitwise_exactness():
    rng = np.random.default_rng(43)
    phi = random_automorphism(rng, 2)
    f = random_blaschke_tree(rng, 2)
    g = Composed(phi, f)
    for pt in random_interior_points(rng, 20, 2):
        assert g.eval(tuple(pt)) == f.eval(auto_eval(phi, tuple(pt)))


def test_right_inverse_law():
    rng = np.random.default_rng(47)
    probe = CompactProbe.create(0.3, 2, points_per_dim=12)
    for _ in range(20):
        phi = random_automorphism(rng, 2)
        f = random_blaschke_tree(rng, 2)
        inv = auto_inverse(phi)
        assert probe_sup(Composed(phi, Composed(inv, f)), f, probe) < 1e-10
        assert probe_sup(Composed(inv, Composed(phi, f)), f, probe) < 1e-10


def test_operator_is_multiplicative():
    rng = np.random.default_rng(53)
    probe = CompactProbe.create(0.4, 2, points_per_dim=10)
    for _ in range(10):
        phi = random_automorphism(rng, 2)
        f = random_blaschke_tree(rng, 2)
        g = random_blaschke_tree(rng, 2)
        lhs = Composed(phi, Product((f, g)))
        rhs = Product((Composed(phi, f), Composed(phi, g)))
        assert probe_sup(lhs, rhs, probe) < 1e-12


# ---------------------------------------------------------------------------
# Taylor coefficients

def test_taylor_constant():
    c = taylor_coeffs(Constant(0.25 + 0.5j, 1), 6)
    assert c[0] == pytest.approx(0.25 + 0.5j, abs=1e-13)
    assert np.max(np.abs(c[1:])) < 1e-13


def test_taylor_coordinate():
    c = taylor_coeffs(Coordinate(1, 1), 6)
    assert c[1] == pytest.approx(1.0, abs=1e-13)
    assert abs(c[0]) < 1e-13
    assert np.max(np.abs(c[2:])) < 1e-13


def test_taylor_blaschke_geometric_series_oracle():
    # (0.5 + z)/(1 + 0.5 z) expanded independently via the series
    # (0.5 + z) * sum_k (-0.5 z)^k: c_0 = 0.5, c_k = 0.75 * (-0.5)^(k-1)
    f = BlaschkeFactor(MobiusFactor(-0.5, math.pi), 1, 1)
    coeffs = taylor_coeffs(f, 8)
    expected = [0.5] + [0.75 * (-0.5) ** (k - 1) for k in range(1, 9)]
    assert coeffs[1] == pytest.approx(0.75, abs=1e-12)
    assert coeffs[2] == pytest.approx(-0.375, abs=1e-12)
    assert coeffs[3] == pytest.approx(0.1875, abs=1e-12)
    assert np.max(np.abs(coeffs - np.array(expected))) < 1e-12


def test_taylor_round_trip_reconstruction():
    rng = np.random.default_rng(59)
    for _ in range(5):
        f = random_blaschke_tree(rng, 1, max_factors=3)
        n = 24
        coeffs = taylor_coeffs(f, n)
        zs = random_interior_points(rng, 200, 1, radius=0.25)
        series = np.polyval(coeffs[::-1], zs.ravel())
        direct = f.eval_grid(zs)
        bound = 2 * 0.25 ** (n + 1) / (1 - 0.25) + 1e-10
        assert np.max(np.abs(series - direct)) < bound


def test_taylor_requires_one_variable():
    with pytest.raises(DimensionMismatch):
        taylor_coeffs(Coordinate(1, 2), 4)


# ---------------------------------------------------------------------------
# flattening and pullbacks

def test_flatten_removes_composed_nodes():
    rng = np.random.default_rng(61)
    phi = random_automorphism(rng, 2)
    f = Composed(phi, random_blaschke_tree(rng, 2))
    flat = flatten(f)
    assert "Composed" not in repr(type(flat))
    pts = random_interior_points(rng, 100, 2)
    assert np.max(np.abs(flat.eval_grid(pts) - f.eval_grid(pts))) < 1e-13


def test_pullback_agrees_with_lazy_composition():
    rng = np.random.default_rng(67)
    for n in (1, 2):
        phi = random_automorphism(rng, n)
        f = random_blaschke_tree(rng, n, with_constant=True)
        lazy = Composed(phi, f)
        flat = pullback(f, phi)
        pts = random_interior_points(rng, 200, n)
        assert np.max(np.abs(flat.eval_grid(pts) - lazy.eval_grid(pts))) < 1e-12
        assert is_blaschke_type(flat)


def test_is_blaschke_type():
    assert is_blaschke_type(Coordinate(1, 1))
    assert is_blaschke_type(Constant(1j, 1))
    assert not is_blaschke_type(Constant(0.5, 1))
    assert is_blaschke_type(Power(Coordinate(1, 1), 3))
    assert not is_blaschke_type(
        Product((Constant(0.5, 1), Coordinate(1, 1)))
    )
