import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerorbit import (
    BlaschkeFactor,
    CompactProbe,
    Constant,
    Coordinate,
    MobiusFactor,
    Power,
    Product,
    TorusPoint,
    Composed,
    good_inner_integral_detail,
    good_inner_trend,
    jensen_oracle,
    make_corrector,
    make_generating_element,
    probe_sup,
    radial_modulus_report,
    schur_parameters,
    schur_project_adaptive,
    taylor_coeffs,
)
from innerorbit.errors import (
    PinNotUnimodular,
    RadiusOnZeroModulus,
    ValidityError,
)
from innerorbit.inner_tools import _corrector_boundary_value, _solve_corrector_phase

from util import random_automorphism, random_torus_point


# ---------------------------------------------------------------------------
# radial modulus

def test_radial_coordinate_deviation_is_one_minus_r():
    rep = radial_modulus_report(Coordinate(1, 1), (0.5, 0.9), 32)
    assert rep.deviations[0] == pytest.approx(0.5, abs=1e-12)
    assert rep.deviations[1] == pytest.approx(0.1, abs=1e-12)


def test_radial_constant_flags_non_inner():
    rep = radial_modulus_report(Constant(0.5, 1), (0.5, 0.9, 0.99), 16)
    assert all(d == pytest.approx(0.5, abs=1e-12) for d in rep.deviations)


def test_radial_blaschke_near_boundary():
    f = BlaschkeFactor(MobiusFactor(0.5, 0.0), 1, 1)
    rep = radial_modulus_report(f, (0.999,), 256)
    assert rep.deviations[0] < 0.005


@pytest.mark.parametrize("angles", [0, -3])
def test_radial_rejects_an_empty_shell(angles):
    # no angles would mean no points, and a deviation of 0 that reads as
    # perfectly inner for the constant 0.1 (true deviation 0.9)
    with pytest.raises(ValidityError, match="at least one angle"):
        radial_modulus_report(Constant(0.1, 2), (0.5,), angles)


# ---------------------------------------------------------------------------
# torus quadrature and the Jensen oracle

def test_integral_coordinate_exact():
    for r in (0.3, 0.9):
        assert good_inner_integral_detail(Coordinate(1, 1), r, 64, 40.0)[0] == pytest.approx(
            math.log(r), abs=1e-12
        )


def test_integral_bidisk_product():
    f = Product((Coordinate(1, 2), Coordinate(2, 2)))
    assert good_inner_integral_detail(f, 0.7, 64, 40.0)[0] == pytest.approx(
        2 * math.log(0.7), abs=1e-12
    )


def test_integral_blaschke_against_jensen():
    g = BlaschkeFactor(MobiusFactor(0.5, 0.0), 1, 1)
    val = good_inner_integral_detail(g, 0.9, 512, 40.0)[0]
    assert val == pytest.approx(math.log(0.9), abs=1e-6)
    assert val == pytest.approx(jensen_oracle([0.5], 0.5, 0.9), abs=1e-6)


def test_jensen_closed_forms():
    assert jensen_oracle([0.5], 0.5, 0.9) == pytest.approx(
        math.log(0.9), abs=1e-15
    )
    assert jensen_oracle([], 1.0, 0.7) == 0.0
    assert jensen_oracle([0.5], 0.5, 0.3) == pytest.approx(
        math.log(0.5), abs=1e-15
    )


def test_jensen_radius_on_zero_modulus():
    with pytest.raises(RadiusOnZeroModulus):
        jensen_oracle([0.5], 0.5, 0.5 + 1e-9)


def test_jensen_consistency_check():
    with pytest.raises(ValidityError):
        jensen_oracle([0.5], 0.7, 0.9)


def test_jensen_handles_zero_at_origin():
    # z * (0.5 - z)/(1 - 0.5 z): mean at r = 0.9 is log 0.9 + log 0.9
    assert jensen_oracle([0.0, 0.5], 0.0, 0.9) == pytest.approx(
        2 * math.log(0.9), abs=1e-15
    )


def test_integral_negative_value_for_ball_members():
    value, clamped = good_inner_integral_detail(Constant(0.5, 1), 0.9, 64, 40.0)
    assert value == pytest.approx(math.log(0.5), abs=1e-12)
    assert clamped == 0


def test_trend_power_passes():
    rep = good_inner_trend(Power(Coordinate(1, 1), 5), quad_points=64)
    assert rep.passed
    assert rep.values[-1] == pytest.approx(5 * math.log(0.999), abs=1e-9)


def test_trend_composition_invariance():
    rng = np.random.default_rng(71)
    g = BlaschkeFactor(MobiusFactor(0.5, 0.0), 1, 1)
    base = good_inner_trend(g)
    assert base.passed
    for _ in range(3):
        phi = random_automorphism(rng, 1, max_alpha=0.5)
        rep = good_inner_trend(Composed(phi, g))
        assert rep.passed


def test_trend_constant_fails():
    rep = good_inner_trend(Constant(0.5, 1), quad_points=64)
    assert not rep.passed
    for v in rep.values:
        assert v == pytest.approx(math.log(0.5), abs=1e-10)


# ---------------------------------------------------------------------------
# Schur projector

def test_schur_depth_one_of_half():
    coeffs = taylor_coeffs(Constant(0.5, 1), 4)
    b, depth = schur_project_adaptive(coeffs, 1)
    assert depth == 1
    # one reconstruction step: (0.5 + z)/(1 + 0.5 z), hand-checked
    for z in (0.0, 0.3, -0.5j):
        expected = (0.5 + z) / (1 + 0.5 * z)
        assert b.eval((z,)) == pytest.approx(expected, abs=1e-12)


def test_schur_depth_one_of_zero():
    coeffs = np.zeros(4, dtype=complex)
    b, _ = schur_project_adaptive(coeffs, 1)
    assert isinstance(b, BlaschkeFactor)
    assert b.factor.alpha == pytest.approx(0.0, abs=1e-15)
    for z in (0.2, -0.4, 0.1j):
        assert b.eval((z,)) == pytest.approx(z, abs=1e-14)


def test_schur_depth_four_error_bound():
    coeffs = taylor_coeffs(Constant(0.5, 1), 8)
    b, _ = schur_project_adaptive(coeffs, 4)
    zs = (0.25 * np.exp(2j * np.pi * np.arange(256) / 256)).reshape(-1, 1)
    err = np.max(np.abs(b.eval_grid(zs) - 0.5))
    assert err <= 2 * 0.25**4 / 0.75


def test_schur_stops_on_a_unimodular_constant():
    coeffs = taylor_coeffs(Constant(1j, 1), 4)
    gammas = schur_parameters(coeffs, 2)
    assert len(gammas) == 1 and gammas[0] == pytest.approx(1j, abs=1e-14)
    eta = gammas[0] / abs(gammas[0])
    assert schur_project_adaptive(coeffs, 2) == (Constant(eta, 1), 0)


def test_schur_adaptive_terminates_on_blaschke_input():
    f = BlaschkeFactor(MobiusFactor(0.5, 0.0), 1, 1)
    coeffs = taylor_coeffs(f, 32)
    b, depth = schur_project_adaptive(coeffs, 16)
    assert depth == 1
    zs = (0.5 * np.exp(2j * np.pi * np.arange(128) / 128)).reshape(-1, 1)
    assert np.max(np.abs(b.eval_grid(zs) - f.eval_grid(zs))) < 1e-10


def test_schur_fidelity_on_random_ball_functions():
    rng = np.random.default_rng(73)
    depth = 8
    for _ in range(5):
        c = 0.6 * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        zero = 0.5 * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        f = Product(
            (Constant(c, 1), BlaschkeFactor(MobiusFactor(zero, 0.3), 1, 1))
        )
        coeffs = taylor_coeffs(f, 2 * depth)
        b, used = schur_project_adaptive(coeffs, depth)
        assert used == depth
        back = taylor_coeffs(b, depth - 1)
        assert np.max(np.abs(back - coeffs[:depth])) < 1e-8


angles = st.floats(-math.pi, math.pi)


def constant_times_blaschke(c, zeros):
    """c times one Blaschke factor per (modulus, angle, theta) in ``zeros``."""
    return Product(
        (Constant(c, 1),)
        + tuple(
            BlaschkeFactor(MobiusFactor(cmath.rect(r, t), theta), 1, 1)
            for r, t, theta in zeros
        )
    )


@settings(max_examples=200, deadline=None)
@given(
    depth=st.integers(1, 12),
    modulus=st.floats(0.0, 0.9),
    angle=angles,
    zeros=st.lists(st.tuples(st.floats(0.0, 0.6), angles, angles), max_size=3),
)
def test_schur_matches_coefficients_and_stops_on_its_tail(depth, modulus, angle, zeros):
    # the projection of c * (up to 3 Blaschke factors) at depth d has the
    # input's first d coefficients, so its Schur parameters up to d - 1 are
    # the input's, and its parameter d is the tail 1, on the circle: projected
    # again at a greater depth, it stops there and comes back
    f = constant_times_blaschke(cmath.rect(modulus, angle), zeros)
    coeffs = taylor_coeffs(f, depth)
    b, used = schur_project_adaptive(coeffs, depth)
    assert used == depth
    assert np.max(np.abs(taylor_coeffs(b, depth - 1) - coeffs[:depth])) < 1e-12
    gammas = schur_parameters(taylor_coeffs(b, depth + 1), depth + 1)
    assert len(gammas) == depth + 1 and abs(gammas[-1] - 1.0) < 1e-12
    again, used = schur_project_adaptive(taylor_coeffs(b, depth + 4), depth + 4)
    assert used == depth
    zs = (0.5 * np.exp(2j * np.pi * np.arange(64) / 64)).reshape(-1, 1)
    assert np.max(np.abs(again.eval_grid(zs) - b.eval_grid(zs))) < 1e-10


@settings(max_examples=200, deadline=None)
@given(
    extra=st.integers(1, 12),
    angle=angles,
    zeros=st.lists(st.tuples(st.floats(0.0, 0.6), angles, angles), max_size=3),
)
def test_schur_stops_at_the_degree_of_a_blaschke_input(extra, angle, zeros):
    # u * (m <= 3 Blaschke factors) has Schur parameter m on the circle; with
    # every |a| <= 0.6 it lands within 1e-13 of it in binary64, so the
    # projector stops there, at depth m < depth, and reproduces the input
    # (m = 0 is the constant u)
    f = constant_times_blaschke(cmath.exp(1j * angle), zeros)
    depth = len(zeros) + extra
    b, used = schur_project_adaptive(taylor_coeffs(f, depth), depth)
    assert used == len(zeros)
    zs = (0.5 * np.exp(2j * np.pi * np.arange(64) / 64)).reshape(-1, 1)
    assert np.max(np.abs(b.eval_grid(zs) - f.eval_grid(zs))) < 1e-10


@settings(max_examples=200, deadline=None)
@given(
    depth=st.integers(1, 12),
    modulus=st.floats(0.0, 0.9),
    angle=angles,
    zeros=st.lists(st.tuples(st.floats(0.0, 0.6), angles, angles), max_size=3),
    zeta=angles,
    w=angles,
)
def test_schur_pin_sets_the_value_and_keeps_the_coefficients(
        depth, modulus, angle, zeros, zeta, w):
    # the tail eta is the truncation's one free parameter: pinned, the
    # projection takes the value w at zeta, and its first d coefficients,
    # with them its Schur parameters up to d - 1, are the unpinned
    # projection's; its parameter d is its tail, on the circle
    f = constant_times_blaschke(cmath.rect(modulus, angle), zeros)
    coeffs = taylor_coeffs(f, depth)
    zeta, w = cmath.exp(1j * zeta), cmath.exp(1j * w)
    b, used = schur_project_adaptive(coeffs, depth, (zeta, w))
    assert used == depth
    assert abs(b.eval((zeta,)) - w) < 1e-11
    free, _ = schur_project_adaptive(coeffs, depth)
    assert np.max(np.abs(taylor_coeffs(b, depth - 1)
                         - taylor_coeffs(free, depth - 1))) < 1e-12
    gammas = schur_parameters(taylor_coeffs(b, depth + 1), depth + 1)
    assert len(gammas) == depth + 1 and abs(abs(gammas[-1]) - 1.0) < 1e-12


def test_schur_pin_leaves_a_blaschke_input_as_it_is():
    # the recursion stops on the circle: the input fixes the tail, not the pin
    f = BlaschkeFactor(MobiusFactor(0.5, 0.3), 1, 1)
    coeffs = taylor_coeffs(f, 32)
    assert (schur_project_adaptive(coeffs, 16, (1j, -1.0))
            == schur_project_adaptive(coeffs, 16))


def test_schur_parameters_of_constant():
    gammas = schur_parameters(taylor_coeffs(Constant(0.5, 1), 8), 4)
    assert gammas[0] == pytest.approx(0.5, abs=1e-13)
    assert max(abs(g) for g in gammas[1:]) < 1e-12


def exact_schur_parameters(coeffs, depth):
    """The Schur parameters of the binary64 coefficients, exactly: the
    two-series recursion on complex numbers held as pairs of Fractions.
    q_k[0] stays real, so gamma_k = p_k[0] / q_k[0] divides by a rational."""
    p = [(Fraction(c.real), Fraction(c.imag)) for c in coeffs[: depth + 1]]
    q = [(Fraction(1), Fraction(0))] + [(Fraction(0), Fraction(0))] * depth
    gammas = []
    for _ in range(depth):
        assert q[0][1] == 0
        gr, gi = p[0][0] / q[0][0], p[0][1] / q[0][0]
        gammas.append((gr, gi))
        p, q = (
            [
                (a[0] - gr * b[0] + gi * b[1], a[1] - gr * b[1] - gi * b[0])
                for a, b in zip(p[1:], q[1:])
            ],
            [
                (b[0] - gr * a[0] - gi * a[1], b[1] - gr * a[1] + gi * a[0])
                for a, b in zip(p[:-1], q[:-1])
            ],
        )
    return gammas


#: unit roundoff of binary64
UNIT_ROUNDOFF = 2.0**-53


@settings(max_examples=150, deadline=None)
@given(
    depth=st.integers(1, 16),
    log_gap=st.none() | st.floats(-9.0, -0.01),
    angle=angles,
    data=st.data(),
)
def test_schur_parameters_match_exact_recursion(depth, log_gap, angle, data):
    # each step rounds a few times, and dividing by q_k[0] carries the
    # growth prod 1/(1 - |gamma_i|^2) of earlier errors: 2 000 seeded draws
    # of this family reached 1.82 of the bound's 4. The zeros' and the
    # constant's phases make the parameters complex, so a q update that
    # drops the conjugate of gamma_k fails here. A log_gap of None makes the
    # constant unimodular: f is then a finite Blaschke product of degree m,
    # the number of zeros, and the recursion stops on parameter m, which
    # with every |a| <= 0.6 lands within 1e-13 of the circle
    lowest = -6.0 if log_gap is not None else math.log10(0.4)
    zeros = data.draw(st.lists(
        st.tuples(st.floats(lowest, -0.01), angles, angles), min_size=1, max_size=3
    ))
    modulus = 1.0 if log_gap is None else 1.0 - 10.0**log_gap
    f = constant_times_blaschke(
        cmath.rect(modulus, angle), [(1.0 - 10.0**g, t, theta) for g, t, theta in zeros]
    )
    coeffs = taylor_coeffs(f, depth)
    got = schur_parameters(coeffs, depth)
    stop = len(zeros) if log_gap is None and len(zeros) < depth else None
    assert len(got) == (depth if stop is None else stop + 1)
    assert all(abs(g) < 1.0 - 1e-12 for g in got[:stop])
    if stop is not None:
        assert abs(got[stop]) >= 1.0 - 1e-12
    exact = exact_schur_parameters(coeffs, len(got))
    growth = 1.0
    for k, (g, (er, ei)) in enumerate(zip(got, exact)):
        error = math.hypot(Fraction(g.real) - er, Fraction(g.imag) - ei)
        assert error <= 4.0 * UNIT_ROUNDOFF * (k + 1) * growth
        growth /= float(1 - er * er - ei * ei)


# ---------------------------------------------------------------------------
# correctors

def test_corrector_hand_case_target_one():
    psi = make_corrector(1, 1.0, 1.0, 1)
    # phase equation solved by hand: (0.5 + z)/(1 + 0.5 z)
    for z in (0.0, 1.0, 0.3, -0.2j):
        expected = (0.5 + z) / (1 + 0.5 * z)
        assert psi.eval((z,)) == pytest.approx(expected, abs=1e-12)


def test_corrector_hand_case_target_minus_one():
    psi = make_corrector(1, 1.0, -1.0, 1)
    for z in (0.0, 1.0, 0.3, -0.2j):
        expected = (0.5 - z) / (1 - 0.5 * z)
        assert psi.eval((z,)) == pytest.approx(expected, abs=1e-12)


def test_corrector_pins_and_origin_value():
    rng = np.random.default_rng(79)
    for _ in range(40):
        j = int(rng.integers(1, 25))
        w = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        xi = complex(rng.choice([1.0 + 0j, -1.0 + 0j, 1j, -1j]))
        psi = make_corrector(j, xi, w, 1)
        assert abs(psi.eval((xi,)) - w) < 1e-9
        assert abs(psi.eval((0.0,)) - (1 - 2.0**-j)) < 1e-12


def test_corrector_proximity_monotone_in_index():
    probe = CompactProbe.create(0.5, 1)
    one = Constant(1.0, 1)
    for w in (1.0, -1.0, 1j, cmath.exp(0.3j), cmath.exp(-2.5j)):
        sups = [
            probe_sup(make_corrector(j, 1.0, w, 1), one, probe)
            for j in range(4, 25)
        ]
        for a, b in zip(sups, sups[1:]):
            assert b <= a + 1e-15
        for j, s in zip(range(4, 25), sups):
            assert s <= 8 * 2.0**-j


#: four units in the last place of 1
FOUR_ULP = 4 * 2.0**-52


@st.composite
def corrector_targets(draw):
    """w = e^{i psi} with psi uniform, or within 1e-18 to 1e-1 of 0 or of
    +-pi: w next to 1, where phi is near +-pi, or next to -1, where phi is
    tiny and 1 + Re w cancels."""
    if draw(st.booleans()):
        return cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    offset = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-18.0, -1.0))
    return draw(st.sampled_from((-1.0, 1.0))) * cmath.exp(1j * offset)


@settings(max_examples=400, deadline=None)
@given(j=st.integers(1, 52), w=corrector_targets())
def test_corrector_phase_hits_its_target_to_four_ulp(j, w):
    t = 1.0 - math.ldexp(1.0, -j)
    phi = _solve_corrector_phase(t, w)
    assert abs(_corrector_boundary_value(t, phi) - w) <= FOUR_ULP
    psi = make_corrector(j, 1.0, w, 1)
    assert abs(psi.eval((0.0,)) - t) <= FOUR_ULP


@settings(max_examples=400, deadline=None)
@given(j=st.integers(1, 48), depth=st.floats(-12.0, -0.001), angle=st.floats(-4.0, 4.0),
       w=corrector_targets(), xi=st.sampled_from((1.0, -1.0, 1j, cmath.exp(0.3j))))
def test_corrector_near_one_on_compacts(j, depth, angle, w, xi):
    # |psi(z) - 1| <= 2^-j (1 + |z|)/(1 - |z|), the bound the engine's
    # retroactive condition puts on the lambda-corrector, at depths
    # 1 - |z| down to 1e-12; the second point is where psi takes the circle
    # |z| = r farthest from 1, the bound's limit as j grows. The slack is
    # that of psi(0), 1 - 2^-j within four ulp
    psi = make_corrector(j, xi, w, 1)
    r, t = 1.0 - 10.0**depth, 1.0 - 2.0**-j
    farthest = psi.factor.inverse()((t - r) / (1.0 - t * r))
    for z in (r * cmath.exp(1j * angle), farthest):
        m = abs(z)
        bound = (2.0**-j + FOUR_ULP) * (1.0 + m) / (1.0 - m)
        assert abs(psi.eval((z,)) - 1.0) <= bound


# ---------------------------------------------------------------------------
# generating elements

def test_generating_element_unimodular_constant():
    u = cmath.exp(1.3j)
    pin = TorusPoint((cmath.exp(0.4j),))
    g = make_generating_element(8, pin, Constant(u, 1))
    assert abs(g.product.eval(pin) - 1.0) < 1e-9


def test_generating_element_blaschke_pin():
    a = BlaschkeFactor(MobiusFactor(0.5, 0.0), 1, 1)
    pin = TorusPoint((1.0,))
    g = make_generating_element(10, pin, a)
    assert abs(g.product.eval(pin) - 1.0) < 1e-9
    assert abs(g.corrector.eval((0.0,)) - (1 - 2.0**-10)) < 1e-12


def test_generating_element_corrector_nearly_invisible():
    a = BlaschkeFactor(MobiusFactor(0.5, 0.0), 1, 1)
    pin = TorusPoint((1.0,))
    g = make_generating_element(20, pin, a)
    probe = CompactProbe.create(0.5, 1)
    assert probe_sup(g.product, a, probe) <= 4 * 2.0**-20 + 1e-12


def test_generating_element_rejects_non_unimodular_pin_value():
    with pytest.raises(PinNotUnimodular):
        make_generating_element(8, TorusPoint((1.0,)), Constant(0.5, 1))


def test_generating_element_random_pins():
    rng = np.random.default_rng(83)
    for _ in range(30):
        n = int(rng.integers(1, 3))
        pin = random_torus_point(rng, n, exact_first=True)
        facs = tuple(
            BlaschkeFactor(
                MobiusFactor(
                    0.7 * cmath.exp(1j * rng.uniform(-math.pi, math.pi)),
                    rng.uniform(-math.pi, math.pi),
                ),
                int(rng.integers(1, n + 1)),
                n,
            )
            for _ in range(int(rng.integers(1, 4)))
        )
        a = facs[0] if len(facs) == 1 else Product(facs)
        j = int(rng.integers(12, 25))
        g = make_generating_element(j, pin, a)
        assert abs(g.product.eval(pin) - 1.0) <= 1e-9
