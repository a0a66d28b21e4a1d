"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures. Tolerances are pinned here, not configurable."""

import cmath
import math
import time

import numpy as np
import pytest

from innerorbit import (
    BlaschkeFactor,
    CompactProbe,
    Composed,
    Constant,
    Coordinate,
    EngineConfig,
    GeneratedSequence,
    MobiusFactor,
    Product,
    auto_compose,
    auto_inverse,
    good_inner_integral_detail,
    good_inner_trend,
    jensen_oracle,
    make_generating_element,
    probe_sup,
    run_universality,
    schur_project_adaptive,
    taylor_coeffs,
    verify_orbit,
)
from innerorbit.cli import run_cli
from innerorbit.errors import (
    NoBoundaryConvergence,
    SequenceExhausted,
    ValidityError,
)

from util import (
    random_automorphism,
    random_blaschke_tree,
    random_boundary_points,
    random_interior_points,
    random_torus_point,
)


def _report(label, elapsed, limit, detail=""):
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s < {limit}s) {detail}")


# ---------------------------------------------------------------------------
# 1. automorphism algebra

def test_criterion_1_automorphism_algebra():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    for i in range(500):
        n = (i % 3) + 1
        phi = random_automorphism(rng, n)
        psi = random_automorphism(rng, n)
        chi = random_automorphism(rng, n)
        pts = random_interior_points(rng, 100, n)
        inv = auto_inverse(phi)
        assert np.max(np.abs(phi.transform(inv.transform(pts)) - pts)) < 1e-12
        a = auto_compose(auto_compose(phi, psi), chi).transform(pts)
        b = auto_compose(phi, auto_compose(psi, chi)).transform(pts)
        assert np.max(np.abs(a - b)) < 1e-12
        bd = random_boundary_points(rng, 4, n)
        assert np.max(np.abs(np.abs(phi.transform(bd)) - 1.0)) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(1, elapsed, 5, "500 automorphisms, n in {1,2,3}")


# ---------------------------------------------------------------------------
# 2. right-inverse law

def test_criterion_2_right_inverse_law():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for i in range(100):
        n = (i % 2) + 1
        probe = CompactProbe.create(0.3, n, points_per_dim=16)
        phi = random_automorphism(rng, n)
        f = random_blaschke_tree(rng, n, with_constant=True)
        # C_phi applied to its exact right inverse C_{phi^-1}
        err = probe_sup(Composed(phi, Composed(auto_inverse(phi), f)), f, probe)
        worst = max(worst, err)
        assert err <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(2, elapsed, 5, f"worst roundtrip {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. quadrature vs Jensen

def _random_blaschke_with_zeros(rng, max_degree=6):
    # keep zero moduli clear of the sampled radii: trapezoid aliasing decays
    # like (m/r)^Q, so Q=512 reaches 1e-6 only with a real gap
    degree = int(rng.integers(1, max_degree + 1))
    zeros = []
    while len(zeros) < degree:
        m = rng.uniform(0.05, 0.85)
        if 0.28 < m < 0.32:
            continue
        zeros.append(m * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
    factors = tuple(
        BlaschkeFactor(MobiusFactor(z, 0.0), 1, 1) for z in zeros
    )
    tree = factors[0] if degree == 1 else Product(factors)
    return tree, zeros


def test_criterion_3_quadrature_vs_jensen():
    started = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(50):
        tree, zeros = _random_blaschke_with_zeros(rng)
        value_at_0 = 1.0
        for z in zeros:
            value_at_0 *= abs(z)
        for r in (0.3, 0.9, 0.99):
            quad = good_inner_integral_detail(tree, r, quad_points=512, clamp=40.0)[0]
            oracle = jensen_oracle(zeros, value_at_0, r)
            worst = max(worst, abs(quad - oracle))
            assert abs(quad - oracle) <= 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(3, elapsed, 30, f"worst |quad - jensen| {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. composition preserves the good-inner trend

def test_criterion_4_composition_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(1004)
    for i in range(25):
        n = 1 if i % 5 else 2
        g = random_blaschke_tree(rng, n, max_factors=3, max_alpha=0.8)
        phi = random_automorphism(rng, n, max_alpha=0.5)
        report = good_inner_trend(
            Composed(phi, g), radii=(0.9, 0.99, 0.999), quad_points=512
        )
        tail = [abs(v) for v in report.values]
        assert abs(report.values[-1]) < 0.02
        assert tail[0] + 1e-9 >= tail[1] >= tail[2] - 1e-9
        assert report.passed
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(4, elapsed, 60, "25 composed pairs, n in {1,2}")


# ---------------------------------------------------------------------------
# 5. Schur projector

def test_criterion_5_schur_projector():
    started = time.perf_counter()
    targets = (
        Constant(0.5, 1),
        Constant(0.3 - 0.4j, 1),
        BlaschkeFactor(MobiusFactor(0.5, 0.0), 1, 1),
    )
    depth = 16
    zs = (0.25 * np.exp(2j * np.pi * np.arange(512) / 512)).reshape(-1, 1)
    for f in targets:
        coeffs = taylor_coeffs(f, 2 * depth)
        b, _ = schur_project_adaptive(coeffs, depth)
        sup = np.max(np.abs(b.eval_grid(zs) - f.eval_grid(zs)))
        assert sup <= 1e-3
        back = taylor_coeffs(b, depth - 1)
        assert np.max(np.abs(back - coeffs[:depth])) <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(5, elapsed, 10, "3 targets at depth 16")


# ---------------------------------------------------------------------------
# 6. generating family pins

def test_criterion_6_generating_family_pins():
    started = time.perf_counter()
    rng = np.random.default_rng(1006)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        j = int(rng.integers(12, 25))
        pin = random_torus_point(rng, n, exact_first=True)
        a = random_blaschke_tree(rng, n, max_factors=3, with_constant=True)
        g = make_generating_element(j, pin, a)
        assert abs(g.product.eval(pin) - 1.0) <= 1e-9
        assert abs(g.corrector.eval((0.0,) * n) - (1 - 2.0**-j)) <= 1e-12
    probe = CompactProbe.create(0.5, 1)
    one = Constant(1.0, 1)
    for j in range(12, 25):
        pin = random_torus_point(rng, 1, exact_first=True)
        a = random_blaschke_tree(rng, 1, max_factors=2)
        g = make_generating_element(j, pin, a)
        assert probe_sup(g.corrector, one, probe) <= 8 * 2.0**-j
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(6, elapsed, 10, "100 elements, pins exact on the torus")


# ---------------------------------------------------------------------------
# 7. end-to-end universality, n = 1

def _n1_config():
    seq = GeneratedSequence((1.0 + 0j,), 1.0, ((0.0,),), ((0,),))
    return EngineConfig(
        sequence=seq,
        targets=(Constant(0.5, 1), Coordinate(1, 1)),
        probe=CompactProbe.create(0.3, 1, points_per_dim=64),
        k_max=10**9,
    )


def test_criterion_7_universality_n1():
    started = time.perf_counter()
    cfg = _n1_config()
    run = run_universality(cfg)
    assert run.failure is None
    values = [row["value"] for row in run.verification]
    for v in values:
        assert v <= 0.06
    rows = verify_orbit(
        run.product, cfg.sequence, cfg.targets, cfg.probe,
        max(run.recorded_indices()), run.recorded_indices(),
    )
    for row, expected in zip(rows, run.verification):
        assert abs(row["value"] - expected["value"]) <= 1e-12
        assert row["best_index"] == expected["best_index"]
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(7, elapsed, 120,
            f"values {values[0]:.2e}, {values[1]:.2e} <= 0.06")


# ---------------------------------------------------------------------------
# 8. end-to-end universality, n = 2 with a swap

def _n2_config():
    seq = GeneratedSequence(
        (1.0 + 0j, 1.0 + 0j), 1.0, ((0.0, 0.0),), ((1, 0),)
    )
    targets = (
        Constant(0.5, 2),
        Product((Coordinate(1, 2), Coordinate(2, 2))),
    )
    return EngineConfig(
        sequence=seq,
        targets=targets,
        probe=CompactProbe.create(0.25, 2, points_per_dim=24),
        k_max=10**9,
    )


def test_criterion_8_universality_n2_swap():
    started = time.perf_counter()
    cfg = _n2_config()
    run = run_universality(cfg)
    assert run.failure is None
    values = [row["value"] for row in run.verification]
    for v in values:
        assert v <= 0.1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(8, elapsed, 300,
            f"values {values[0]:.2e}, {values[1]:.2e} <= 0.1")


# ---------------------------------------------------------------------------
# 9. negative controls

def test_criterion_9_negative_controls():
    started = time.perf_counter()
    stalled = GeneratedSequence((1.0 + 0j,), 1.0, ((0.0,),), ((0,),))
    frozen = [stalled.at(1)] * 64  # constant alpha = 0.5 forever
    from innerorbit import ExplicitSequence

    with pytest.raises((NoBoundaryConvergence, SequenceExhausted)):
        cfg = EngineConfig(
            sequence=ExplicitSequence(frozen),
            targets=(Constant(0.5, 1),),
            probe=CompactProbe.create(0.3, 1),
        )
        run_universality(cfg)

    assert not good_inner_trend(Constant(0.5, 1), quad_points=64).passed

    with pytest.raises(ValidityError):
        Constant(1.2, 1)
    from innerorbit import parse_function_dsl

    with pytest.raises(ValidityError):
        parse_function_dsl("const 1.5+0i", 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(9, elapsed, 5, "stalled sequence, non-inner trend, fat constant")


# ---------------------------------------------------------------------------
# 10. determinism of reports

_N1_INI = """\
[run]
mode = construct-universal
dimension = 1
seed = 0

[sequence]
kind = generated
lambda = 1+0i
rate = 1.0
theta = 0.0
perm = 1

[targets]
f1 = const 0.5+0i
f2 = z[1]

[probe]
radius = 0.3
points_per_dim = 64

[engine]
k_max = 1000000000

[output]
report = report.json
tables = tables
"""

_N2_INI = """\
[run]
mode = construct-universal
dimension = 2
seed = 0

[sequence]
kind = generated
lambda = 1+0i,1+0i
rate = 1.0
theta = 0.0,0.0
perm = 2,1

[targets]
f1 = const 0.5+0i
f2 = z[1] * z[2]

[probe]
radius = 0.25
points_per_dim = 24

[engine]
k_max = 1000000000

[output]
report = report.json
tables = tables
"""


def test_criterion_10_byte_identical_reports(tmp_path):
    started = time.perf_counter()
    for name, text in (("n1", _N1_INI), ("n2", _N2_INI)):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text, encoding="utf-8")
        outs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}"
            assert run_cli(
                ["--config", str(cfg), "--out", str(out), "--quiet"]
            ) == 0
            outs.append(out)
        first, second = outs
        assert (first / "report.json").read_bytes() == (
            second / "report.json"
        ).read_bytes()
        for table in ("stages.csv", "verification.csv"):
            assert (first / "tables" / table).read_bytes() == (
                second / "tables" / table
            ).read_bytes()
    elapsed = time.perf_counter() - started
    _report(10, elapsed, 600, "n1 and n2 reports byte-identical")
