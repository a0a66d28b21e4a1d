import cmath
import functools
import math
import tracemalloc
from collections import Counter
from pathlib import Path

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
    PolydiskAutomorphism,
    Product,
    ExplicitSequence,
    Power,
    TorusPoint,
    auto_inverse,
    choose_stage_index,
    parse_function_dsl,
    probe_sup,
    project_to_family,
    run_universality,
    select_subsequence,
    verify_orbit,
)
from innerorbit import cli, engine
from innerorbit.engine import _corrector_index_for, stage_condition_values
from innerorbit.errors import (
    InterferenceBudgetExceeded,
    NoBoundaryConvergence,
    PoleHit,
    PrecisionExhausted,
    SequenceExhausted,
    UnsupportedTargetShape,
    ValidityError,
)

from test_kernel import random_tree, unstacked_eval
from util import random_automorphism, three_ring_axes

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def constant_sequence(n=1):
    return GeneratedSequence(
        direction=(1.0 + 0j,) * n,
        rate=1.0,
        theta_cycle=((0.0,) * n,),
        perm_cycle=(tuple(range(n)),),
    )


def swap_sequence():
    return GeneratedSequence(
        direction=(1.0 + 0j, 1.0 + 0j),
        rate=1.0,
        theta_cycle=((0.0, 0.0),),
        perm_cycle=((1, 0),),
    )


# ---------------------------------------------------------------------------
# projection

def test_project_constant_half():
    probe = CompactProbe.create(0.25, 1)
    pin = TorusPoint((1.0,))
    a, achieved = project_to_family(
        Constant(0.5, 1), pin, 0.02, probe, EngineConfig.schur_depth
    )
    assert achieved == probe_sup(a, Constant(0.5, 1), probe)
    assert achieved <= 0.02
    assert abs(a.eval(pin) - 1.0) < 1e-9


def test_project_coordinate_is_exact():
    # z is 1 at the pin already: it is its own pinned approximant
    probe = CompactProbe.create(0.25, 1)
    pin = TorusPoint((1.0,))
    a, achieved = project_to_family(
        Coordinate(1, 1), pin, 1e-6, probe, EngineConfig.schur_depth
    )
    assert (a, achieved) == (Coordinate(1, 1), 0.0)


def test_project_unimodular_constant():
    # a unimodular constant leaves no tail to set: it is shrunk by 1 - tol/2
    # first, and pinned within 1e-9 at the engine's tolerances
    probe = CompactProbe.create(0.25, 1)
    pin = TorusPoint((1j,))
    u = Constant(complex(math.cos(0.8), math.sin(0.8)), 1)
    a, achieved = project_to_family(u, pin, 0.0125, probe, EngineConfig.schur_depth)
    assert achieved <= 0.0125
    assert abs(a.eval(pin) - 1.0) < 1e-9


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
def test_unimodular_constant_pins_to_its_conditioning(tol):
    # shrunk by 1 - tol/2, a unimodular constant's approximant has its zeros
    # a gap of about tol/32 inside the circle (3e-8 at tol = 1e-6). Each
    # zero is stored to an ulp, so its gap carries a relative error of about
    # ulp / gap, which the pinned value inherits: the pin holds to a few
    # ulp / gap (at most 11 over these pins, phases and tolerances), not to
    # 1e-9
    probe = CompactProbe.create(0.25, 1)
    for pin in (1.0, -1.0, 1j, cmath.exp(2j)):
        pin = TorusPoint((pin,))
        for phase in (0.8, 2.5, -1.3):
            u = Constant(cmath.exp(1j * phase), 1)
            a, achieved = project_to_family(u, pin, tol, probe,
                                            EngineConfig.schur_depth)
            assert achieved <= tol
            gap = min(1.0 - abs(leaf.factor.alpha) for leaf in a.children)
            assert tol / 64 < gap < tol / 16
            assert abs(a.eval(pin) - 1.0) <= 16 * 2.0**-52 / gap


def test_project_bivariate_product_form():
    probe = CompactProbe.create(0.25, 2)
    pin = TorusPoint((1.0, 1.0))
    f = Product((Constant(0.5, 2), Coordinate(1, 2), Coordinate(2, 2)))
    a, achieved = project_to_family(f, pin, 0.01, probe, EngineConfig.schur_depth)
    assert achieved == probe_sup(a, f, probe) <= 0.01
    assert abs(a.eval(pin) - 1.0) < 1e-9


@pytest.mark.parametrize("power, constant", [
    ("(const 0.5+0i)^2 * z[1]", "const 0.25+0i * z[1]"),
    ("(const 0.5+0i)^2", "const 0.25+0i"),
])
def test_project_power_of_a_constant_at_n2(power, constant):
    # a factor on no coordinate is multiplied into the constant
    probe = CompactProbe.create(0.25, 2)
    pin = TorusPoint((1.0, 1.0))
    got, _ = project_to_family(parse_function_dsl(power, 2), pin, 0.01, probe,
                               EngineConfig.schur_depth)
    want, _ = project_to_family(parse_function_dsl(constant, 2), pin, 0.01,
                                probe, EngineConfig.schur_depth)
    assert got == want


@pytest.mark.parametrize("text, dimension", [
    ("const 0.3-0.6i", 1),
    ("blaschke(0.4+0.3i, 1.1)[1]", 1),
    ("const 0.6+0.2i * z[1]^2", 1),
    ("const 0.5+0.1i * blaschke(0.2-0.5i, 0.7)[2] * z[1]", 2),
    ("blaschke(0.3+0i, 2.0)[2] * (const 0.7+0.2i * z[1])^2", 2),
    ("blaschke(0.2-0.5i, 0.7)[2] * z[1]", 2),
    ("const -0.2+0.4i", 2),
])
def test_project_meets_the_pin_within_tol(text, dimension):
    # a phased constant, a Blaschke factor with B(gamma) != 1, which is
    # shrunk, a power, at n = 2 a Blaschke part off the carrier, a carrier of
    # two factors, a Blaschke carrier, and a pure constant
    probe = CompactProbe.create(0.3, dimension)
    f = parse_function_dsl(text, dimension)
    for angle in (0.0, 2.0, -2.7):
        pin = TorusPoint((cmath.exp(1j * angle),) + (cmath.exp(0.5j),) * (dimension - 1))
        assert abs(f.eval(pin) - 1.0) > 0.01
        a, achieved = project_to_family(f, pin, 0.0125, probe,
                                        EngineConfig.schur_depth)
        assert achieved == probe_sup(a, f, probe) <= 0.0125
        assert abs(a.eval(pin) - 1.0) < 1e-9


def test_project_rejects_an_entangled_blaschke_target_off_one_at_the_pin():
    # (z1 z2)^2 is inner, but its value at the pin is not 1, and no
    # per-variable split of it exists to pin
    probe = CompactProbe.create(0.25, 2)
    knot = Power(Product((Coordinate(1, 2), Coordinate(2, 2))), 2)
    pin = TorusPoint((1.0, 1j))
    with pytest.raises(UnsupportedTargetShape):
        project_to_family(knot, pin, 0.01, probe, EngineConfig.schur_depth)
    # at a pin where it is 1, it is its own pinned approximant
    assert project_to_family(knot, TorusPoint((1.0, 1.0)), 0.01, probe,
                             EngineConfig.schur_depth) == (knot, 0.0)


def test_project_rejects_entangled_target():
    probe = CompactProbe.create(0.25, 2)
    pin = TorusPoint((1.0, 1.0))
    # a Power of a two-variable product is a single multiplicative factor
    # touching both coordinates, so no per-variable split exists once the
    # constant 0.5 spoils innerness
    knot = Power(Product((Coordinate(1, 2), Coordinate(2, 2))), 2)
    f = Product((Constant(0.5, 2), knot))
    with pytest.raises(UnsupportedTargetShape):
        project_to_family(f, pin, 0.01, probe, EngineConfig.schur_depth)


# ---------------------------------------------------------------------------
# stage index choice

def test_choose_stage_index_trivial_target():
    seq = constant_sequence()
    sel = select_subsequence(seq, 64, math.pi / 16, 0.05)
    axes = CompactProbe.create(0.3, 1).axes()
    chosen = choose_stage_index(
        sel, axes, [], Constant(1.0, 1), j=1, floor=0, delta=0.01, k_max=10**6
    )
    assert chosen == (1, (), 0.0)
    assert stage_condition_values(seq, axes, [], Constant(1.0, 1), 1) == ((), 0.0)


def test_choose_stage_index_returns_the_values_of_its_index():
    # the stage-2 search of a two-target run, replayed: the values it
    # returns are the probe's at the chosen index, bit for bit, and they are
    # the ones the stage record reports
    seq = constant_sequence()
    probe = CompactProbe.create(0.3, 1)
    cfg = EngineConfig(
        sequence=seq,
        targets=(Constant(0.5, 1), Coordinate(1, 1)),
        probe=probe,
        k_max=10**9,
    )
    run = run_universality(cfg)
    first, second = run.stages
    factors = [first.factor.product]
    k, conds_a, cond_b = choose_stage_index(
        run.selection, probe.axes(), factors, second.projected, j=2,
        floor=first.chosen_index, delta=cfg.delta, k_max=cfg.k_max,
    )
    assert k == second.chosen_index
    assert len(conds_a) == 1
    assert (conds_a, cond_b) == stage_condition_values(
        seq, probe.axes(), factors, second.projected, k
    )
    assert (conds_a, cond_b) == (second.condition_a, second.condition_b)


def test_re_search_lands_just_above_the_first_passing_index():
    # z^3 after z^2: the factor built at the first stage-2 index fails the
    # retroactive check, and the one search more, with bounds that imply
    # the check among its conditions, lands at or just above the smallest
    # index where build_factor passes, found here by bisection
    seq = constant_sequence()
    probe = CompactProbe.create(0.3, 1, 64)
    targets = (Power(Coordinate(1, 1), 2), Power(Coordinate(1, 1), 3))
    cfg = EngineConfig(sequence=seq, targets=targets, probe=probe, k_max=10**9)
    run = run_universality(cfg)
    first, second = run.stages
    axes = probe.axes()
    images = [seq.at(first.chosen_index).transform(axes)]
    lo, _, _ = choose_stage_index(
        run.selection, axes, [first.factor.product], second.projected, j=2,
        floor=first.chosen_index, delta=cfg.delta, k_max=cfg.k_max,
    )

    def passes(k):
        try:
            engine.build_factor(cfg, run.selection.lam, 2, k, second.projected, images)
        except InterferenceBudgetExceeded:
            return False
        return True

    hi = second.chosen_index
    assert not passes(lo) and passes(hi)
    while hi - lo > 1:  # every index is a member
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    assert hi <= second.chosen_index <= 1.001 * hi


def test_a_re_search_probe_builds_its_automorphism_once(monkeypatch):
    # the retroactive bounds of a re-search probe reuse the probe's phi_k,
    # its image of the grid and its inverse, and give what they give alone
    seq = constant_sequence()
    probe = CompactProbe.create(0.3, 1, 64)
    axes = probe.axes()
    first = seq.at(400).transform(axes)
    projected, _ = project_to_family(Power(Coordinate(1, 1), 3), TorusPoint((1.0,)),
                                     0.0125, probe, EngineConfig.schur_depth)
    bounds = functools.partial(engine.retro_condition_values, [first],
                               projected, 0.0125)
    phi = seq.at(5_000)
    alone = bounds(phi.transform(axes), auto_inverse(phi))
    calls = []
    monkeypatch.setattr(seq, "at", lambda k, at=seq.at: calls.append("at") or at(k))
    monkeypatch.setattr(engine, "auto_inverse",
                        lambda phi, inv=auto_inverse: calls.append("inverse") or inv(phi))
    factors = [Coordinate(1, 1)]
    values, b = stage_condition_values(seq, axes, factors, projected, 5_000,
                                       bounds)
    assert calls == ["at", "inverse"]
    plain, cond_b = stage_condition_values(seq, axes, factors, projected, 5_000)
    assert (values, b) == (plain + alone, cond_b)


def test_condition_b_contracts_with_index():
    seq = constant_sequence()
    probe = CompactProbe.create(0.3, 1)
    pin = TorusPoint((1.0,))
    projected, _ = project_to_family(
        Constant(0.5, 1), pin, 0.0125, probe, EngineConfig.schur_depth
    )
    values = [
        stage_condition_values(seq, probe.axes(), [], projected, k)[1]
        for k in (10, 100, 1000)
    ]
    assert values[0] > values[1] > values[2]
    # the axis-wise values are the pointwise ones on the expanded grid, bit
    # for bit
    for k, value in zip((10, 100, 1000), values):
        pre = auto_inverse(seq.at(k)).transform(probe.grid())
        pointwise = np.max(np.abs(projected.eval_grid(pre) - 1.0))
        assert value == float(pointwise)


def test_sequence_exhausted_for_stalled_moduli():
    autos = [
        PolydiskAutomorphism((MobiusFactor(0.5, 0.0),), (0,)) for _ in range(64)
    ]
    seq = ExplicitSequence(autos)
    sel = select_subsequence(seq, 64, math.pi / 16, boundary_tol=0.75)
    probe = CompactProbe.create(0.3, 1)
    pin = TorusPoint((1.0,))
    projected, _ = project_to_family(
        Constant(0.5, 1), pin, 0.0125, probe, EngineConfig.schur_depth
    )
    with pytest.raises(SequenceExhausted) as excinfo:
        choose_stage_index(
            sel, probe.axes(), [], projected, j=1, floor=0,
            delta=0.01, k_max=64,
        )
    best = excinfo.value.best
    assert 1 <= best["index"] <= 64
    assert best["condition_b"] > 0.01 * 2.0**-1


# ---------------------------------------------------------------------------
# full runs

def test_run_single_unimodular_target():
    seq = constant_sequence()
    probe = CompactProbe.create(0.3, 1)
    cfg = EngineConfig(
        sequence=seq, targets=(Constant(1.0, 1),), probe=probe, k_max=10**6
    )
    run = run_universality(cfg)
    assert run.failure is None
    assert len(run.stages) == 1
    # the factor is corrector-only: its approximant is the constant 1
    assert run.stages[0].factor.approximant == Constant(1.0, 1)
    assert run.verification[0]["value"] <= cfg.stage_tolerance(1) + cfg.delta


def test_run_two_targets_n1():
    seq = constant_sequence()
    probe = CompactProbe.create(0.3, 1)
    cfg = EngineConfig(
        sequence=seq,
        targets=(Constant(0.5, 1), Coordinate(1, 1)),
        probe=probe,
        k_max=10**9,
    )
    run = run_universality(cfg)
    assert run.failure is None
    n = run.recorded_indices()
    assert n[0] < n[1]
    for row in run.verification:
        assert row["value"] <= 0.06
    # error decomposition reported separately and within budget; the
    # inverse-then-forward evaluation path amplifies rounding by about
    # chosen_index * eps, so the roundtrip check scales with the index
    for s in run.stages:
        assert s.fidelity <= cfg.stage_tolerance(s.stage)
        assert s.roundtrip_error <= max(1e-10, 1e-14 * s.chosen_index)
        for v in s.retro_interference:
            assert v <= cfg.delta * 2.0**-s.stage
        for v in s.condition_a:
            assert v <= cfg.delta * 2.0**-s.stage


def test_run_independent_random_point_check():
    # fresh random interior points, far denser than the probe grid
    seq = constant_sequence()
    probe = CompactProbe.create(0.3, 1)
    cfg = EngineConfig(
        sequence=seq,
        targets=(Constant(0.5, 1), Coordinate(1, 1)),
        probe=probe,
        k_max=10**9,
    )
    run = run_universality(cfg)
    rng = np.random.default_rng(97)
    r = 0.3 * np.sqrt(rng.uniform(0, 1, size=(10**4, 1)))
    pts = r * np.exp(1j * rng.uniform(-math.pi, math.pi, size=(10**4, 1)))
    for stage, target in zip(run.stages, cfg.targets):
        phi = seq.at(stage.chosen_index)
        vals = run.product.eval_grid(phi.transform(pts))
        err = np.max(np.abs(vals - target.eval_grid(pts)))
        assert err <= 0.06 + 0.01


def test_run_with_rotated_angles():
    # nonzero angles: lambda picks up the phase, gamma does not (the inverse
    # maps collapse onto the bare direction), and near-boundary pullback
    # factors meet the pin checks through the measurement-noise allowance
    seq = GeneratedSequence((1.0 + 0j,), 1.0, ((0.3,),), ((0,),))
    probe = CompactProbe.create(0.3, 1)
    cfg = EngineConfig(
        sequence=seq,
        targets=(Constant(0.5, 1), Coordinate(1, 1)),
        probe=probe,
        k_max=10**9,
    )
    run = run_universality(cfg)
    assert run.failure is None
    lam = run.selection.lam.coords[0]
    assert lam == pytest.approx(complex(math.cos(0.3), math.sin(0.3)), abs=1e-12)
    assert run.selection.gamma.coords[0] == pytest.approx(1.0, abs=1e-12)
    for row in run.verification:
        assert row["value"] <= 0.06


def test_run_with_cycling_angle_schedule():
    # two angle cells; the selection keeps one and the index search must
    # skip non-members
    seq = GeneratedSequence((1.0 + 0j,), 1.0, ((0.0,), (1.0,)), ((0,),))
    probe = CompactProbe.create(0.3, 1)
    cfg = EngineConfig(
        sequence=seq, targets=(Constant(0.5, 1),), probe=probe, k_max=10**9
    )
    run = run_universality(cfg)
    assert run.failure is None
    parities = {k % 2 for k in run.selection.indices}
    assert len(parities) == 1
    n1 = run.recorded_indices()[0]
    assert run.selection.contains(n1)
    assert run.verification[0]["value"] <= 0.06


def test_run_determinism():
    seq = constant_sequence()
    probe = CompactProbe.create(0.3, 1)

    def go():
        cfg = EngineConfig(
            sequence=seq,
            targets=(Constant(0.5, 1), Coordinate(1, 1)),
            probe=probe,
            k_max=10**9,
        )
        return run_universality(cfg)

    a, b = go(), go()
    assert a.recorded_indices() == b.recorded_indices()
    assert [s.fidelity for s in a.stages] == [s.fidelity for s in b.stages]
    assert [r["value"] for r in a.verification] == [
        r["value"] for r in b.verification
    ]


def test_run_raises_without_boundary_convergence():
    autos = [
        PolydiskAutomorphism((MobiusFactor(0.5, 0.0),), (0,)) for _ in range(64)
    ]
    cfg = EngineConfig(
        sequence=ExplicitSequence(autos),
        targets=(Constant(0.5, 1),),
        probe=CompactProbe.create(0.3, 1),
    )
    with pytest.raises(NoBoundaryConvergence):
        run_universality(cfg)


def test_final_product_radial_deviation_bounded_by_factor_sum():
    from innerorbit import radial_modulus_report

    seq = constant_sequence()
    probe = CompactProbe.create(0.3, 1)
    cfg = EngineConfig(
        sequence=seq,
        targets=(Constant(0.5, 1), Coordinate(1, 1)),
        probe=probe,
        k_max=10**9,
    )
    run = run_universality(cfg)
    total = radial_modulus_report(run.product, (0.999,), 128).deviations[0]
    per_factor = sum(
        radial_modulus_report(s.factor.product, (0.999,), 128).deviations[0]
        for s in run.stages
    )
    assert total <= per_factor + 1e-12


def test_last_factor_does_work():
    seq = constant_sequence()
    probe = CompactProbe.create(0.3, 1)
    cfg = EngineConfig(
        sequence=seq,
        targets=(Constant(0.5, 1), Coordinate(1, 1)),
        probe=probe,
        k_max=10**9,
    )
    run = run_universality(cfg)
    grid = probe.grid()
    k_last = run.stages[-1].chosen_index
    image = seq.at(k_last).transform(grid)
    target = cfg.targets[-1].eval_grid(grid)
    full = float(np.max(np.abs(run.product.eval_grid(image) - target)))
    truncated = run.stages[0].factor.product
    partial = float(np.max(np.abs(truncated.eval_grid(image) - target)))
    assert partial - full > cfg.delta


# ---------------------------------------------------------------------------
# verify_orbit

def test_verify_orbit_trivial_identity():
    seq = constant_sequence()
    probe = CompactProbe.create(0.3, 1)
    rows = verify_orbit(
        Constant(1.0, 1), seq, (Constant(1.0, 1),), probe, 5
    )
    assert rows[0]["best_index"] == 1
    assert rows[0]["value"] == 0.0


def test_verify_orbit_constant_never_reaches_zero():
    seq = constant_sequence()
    probe = CompactProbe.create(0.3, 1)
    rows = verify_orbit(Constant(1.0, 1), seq, (Constant(0.0, 1),), probe, 50)
    assert rows[0]["value"] == pytest.approx(1.0, abs=1e-15)


def test_verify_orbit_reproduces_run_table():
    seq = constant_sequence()
    probe = CompactProbe.create(0.3, 1)
    cfg = EngineConfig(
        sequence=seq,
        targets=(Constant(0.5, 1), Coordinate(1, 1)),
        probe=probe,
        k_max=10**9,
    )
    run = run_universality(cfg)
    rows = verify_orbit(
        run.product, seq, cfg.targets, probe,
        max(run.recorded_indices()), run.recorded_indices(),
    )
    for row, expected in zip(rows, run.verification):
        assert row["best_index"] == expected["best_index"]
        assert abs(row["value"] - expected["value"]) <= 1e-12


def reference_sweep(x, seq, targets, probe, indices):
    """verify_orbit one index at a time: the first smallest sup wins."""
    axes = probe.axes()
    grids = [t._eval(axes) for t in targets]
    best = [{"target": i + 1, "best_index": None, "value": math.inf}
            for i in range(len(targets))]
    for k in indices:
        xv = x._eval(seq.at(k).transform(axes))
        for i, grid in enumerate(grids):
            err = float(np.max(np.abs(xv - grid)))
            if err < best[i]["value"]:
                best[i] = {"target": i + 1, "best_index": k, "value": err}
    return best


def cycle_sequence():
    return GeneratedSequence(
        direction=(1.0 + 0j, 1j),
        rate=0.9,
        theta_cycle=((0.0, 0.3),),
        perm_cycle=((0, 1), (1, 0)),
    )


def explicit_sequence(rng, n, count):
    return ExplicitSequence(random_automorphism(rng, n) for _ in range(count))


def fitted_product():
    seq = constant_sequence()
    probe = CompactProbe.create(0.3, 1)
    targets = (Constant(0.5, 1), Coordinate(1, 1))
    run = run_universality(
        EngineConfig(sequence=seq, targets=targets, probe=probe, k_max=10**9)
    )
    return run.product, seq, targets, probe


#: probes of the pruned-sweep checks: the default grid at n = 1, small grids
#: at n = 2 and 3 so that the index-at-a-time reference stays fast
PRUNE_PROBES = {1: CompactProbe.create(0.3, 1), 2: CompactProbe.create(0.3, 2, 6),
                3: CompactProbe.create(0.25, 3, 3)}


def random_sequence(rng, n):
    """A generated sequence with a random direction, rate, angle cycle and
    permutation cycle."""
    return GeneratedSequence(
        direction=tuple(complex(np.exp(1j * rng.uniform(-math.pi, math.pi)))
                        for _ in range(n)),
        rate=rng.uniform(0.3, 1.0),
        theta_cycle=tuple(tuple(rng.uniform(-0.5, 0.5, n)) for _ in range(2)),
        perm_cycle=tuple(tuple(int(p) for p in rng.permutation(n)) for _ in range(2)),
    )


def sweep_cases():
    """(x, sequence, targets, probe, indices) for the batched sweep."""
    rng = np.random.default_rng(7000)
    x, seq, targets, probe = fitted_product()
    cases = [(x, seq, targets, probe, range(1, 251))]
    probe2 = CompactProbe.create(0.3, 2, points_per_dim=6)
    for _ in range(3):
        x2 = random_tree(rng, 2)
        targets2 = (random_tree(rng, 2), random_tree(rng, 2))
        cases.append((x2, cycle_sequence(), targets2, probe2, range(1, 100)))
        cases.append((x2, explicit_sequence(rng, 2, 40), targets2, probe2,
                      range(1, 41)))
        cases.append((x2, cycle_sequence(), targets2, probe2,
                      [40, 3, 17, 3, 200, 2, 999, 18, 2, 40]))
    probe3 = CompactProbe.create(0.25, 3, points_per_dim=3)
    x3 = random_tree(rng, 3)
    cases.append((x3, explicit_sequence(rng, 3, 30), (random_tree(rng, 3),),
                  probe3, [30, 1, 29, 1, 15]))
    # sweeps of many chunks, which the ring bounds prune: random products
    # on random sequences; unsorted indices with duplicates on the 1,2|2,1
    # permutation cycle; an explicit sequence, whose values do not settle
    for n, probe in PRUNE_PROBES.items():
        xn = random_tree(rng, n)
        targets_n = (random_tree(rng, n), random_tree(rng, n))
        cases.append((xn, random_sequence(rng, n), targets_n, probe, range(1, 2_001)))
    x2 = random_tree(rng, 2)
    targets2 = (random_tree(rng, 2), random_tree(rng, 2))
    cases.append((x2, cycle_sequence(), targets2, PRUNE_PROBES[2],
                  [int(k) for k in rng.integers(1, 2_001, size=2_000)]))
    cases.append((x2, explicit_sequence(rng, 2, 500), targets2, PRUNE_PROBES[2],
                  [int(k) for k in rng.integers(1, 501, size=500)]))
    return cases


@pytest.mark.parametrize("batch", ["default", "below_one_index", "not_dividing"])
def test_verify_orbit_equals_one_index_at_a_time(monkeypatch, batch):
    for x, seq, targets, probe, indices in sweep_cases():
        points = probe.axes().shape[0]
        if batch == "below_one_index":
            monkeypatch.setattr(engine, "_BATCH_POINTS", points - 1)
        elif batch == "not_dividing":
            # grid batches of 7 indices: no sweep here is a multiple of 7
            monkeypatch.setattr(engine, "_BATCH_POINTS", 7 * points + 3)
            assert len(indices) % 7
        expected = reference_sweep(x, seq, targets, probe, list(indices))
        horizon = max(indices)
        got = verify_orbit(x, seq, targets, probe, horizon, list(indices))
        assert got == expected
        if indices == range(1, horizon + 1):
            assert verify_orbit(x, seq, targets, probe, horizon) == expected


def test_verify_orbit_constant_reports_the_first_index():
    probe = CompactProbe.create(0.3, 2, points_per_dim=4)
    x, targets = Constant(0.5, 2), (Constant(0.2, 2), Coordinate(1, 2))
    rows = verify_orbit(x, cycle_sequence(), targets, probe, 0, [7, 3, 9, 3, 1])
    assert rows[0] == {"target": 1, "best_index": 7, "value": 0.3}
    rows = verify_orbit(x, cycle_sequence(), targets, probe, 60)
    assert rows[0]["best_index"] == 1
    # every index ties on every target, in chunks the ring bounds prune
    indices = [int(k) for k in np.random.default_rng(7300).permutation(2_000) + 1]
    rows = verify_orbit(x, cycle_sequence(), targets, probe, 0, indices)
    assert [row["best_index"] for row in rows] == [indices[0], indices[0]]


@pytest.mark.parametrize("indices", [[0], [-5, 3], [1, 2, 3, 0]])
def test_verify_orbit_rejects_indices_below_one(indices):
    probe = CompactProbe.create(0.3, 1)
    with pytest.raises(ValidityError, match="start at 1"):
        verify_orbit(Coordinate(1, 1), constant_sequence(), (Constant(0.5, 1),),
                     probe, 0, indices)


@pytest.mark.parametrize("indices", [[0], [3], [1, 2, 3]])
def test_verify_orbit_rejects_indices_outside_an_explicit_sequence(indices):
    rng = np.random.default_rng(7100)
    probe = CompactProbe.create(0.3, 1)
    with pytest.raises(ValidityError, match="start at 1|past the sequence length 2"):
        verify_orbit(Coordinate(1, 1), explicit_sequence(rng, 1, 2),
                     (Constant(0.5, 1),), probe, 0, indices)


def test_verify_orbit_memory_does_not_grow_with_the_horizon():
    # 9 probe points: chunks of 1 365 indices, so both sweeps hold full
    # chunks; a list of the whole sweep would add about 36 bytes per index,
    # and two chunks of automorphisms alive at once about 0.4 MiB
    probe = CompactProbe.create(0.3, 1, points_per_dim=4)
    x, targets = Product((Coordinate(1, 1), Constant(0.5, 1))), (Constant(0.5, 1),)
    peaks, rows = [], []
    for horizon in (2_000, 20_000):
        tracemalloc.start()
        try:
            rows.append(verify_orbit(x, constant_sequence(), targets, probe, horizon))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 0.25 * 2**20
    assert rows[0] == reference_sweep(x, constant_sequence(), targets, probe,
                                      range(1, 2_001))
    assert rows[1][0]["value"] <= rows[0][0]["value"]
    with pytest.raises(ValidityError, match="no orbit indices"):
        verify_orbit(x, constant_sequence(), targets, probe, 0)


def factor_keys(groups):
    """One key per automorphism of ``groups``, in the form of ``seq.batch``:
    its permutation and the bytes of its alphas and phases."""
    return [(perm, a.tobytes(), p.tobytes())
            for perm, _, alphas, phases in groups for a, p in zip(alphas, phases)]


def at_key(phi):
    """``factor_keys``' key of the automorphism ``phi``."""
    return (phi.perm, np.array([f.alpha for f in phi.factors]).tobytes(),
            np.array([f.phase for f in phi.factors]).tobytes())


def traced_sweep(monkeypatch, probe):
    """The chunks ``verify_orbit`` sweeps, as (indices, groups of
    ``seq.batch``) in the order swept, and per chunk a Counter of the
    ``factor_keys`` it evaluates on the whole grid of ``probe``."""
    chunks, evaluated = [], []
    sweep_chunk, errors = engine._sweep_chunk, engine._orbit_errors

    def traced_chunk(x, chunk, start, groups, *rest):
        chunks.append((list(chunk), groups))
        evaluated.append(Counter())
        return sweep_chunk(x, chunk, start, groups, *rest)

    def counted(x, groups, axes, target_grids):
        if axes is probe.axes():
            evaluated[-1].update(factor_keys(groups))
        return errors(x, groups, axes, target_grids)

    monkeypatch.setattr(engine, "_sweep_chunk", traced_chunk)
    monkeypatch.setattr(engine, "_orbit_errors", counted)
    return chunks, evaluated


def test_sweep_builds_each_index_once_and_evaluates_it_at_most_once(monkeypatch):
    for x, seq, targets, probe, indices in sweep_cases():
        at, called = seq.at, []
        monkeypatch.setattr(seq, "at", lambda k: called.append(k) or at(k))
        chunks, evaluated = traced_sweep(monkeypatch, probe)
        verify_orbit(x, seq, targets, probe, 0, list(indices))
        assert called == []
        # the chunks, the last one swept first, hold every index once
        assert [k for chunk, _ in chunks[1:] + chunks[:1] for k in chunk] == list(indices)
        keys = {k: at_key(at(k)) for k in indices}
        assert len(set(keys.values())) == len(keys)
        for (chunk, groups), on_grid in zip(chunks, evaluated):
            positions = np.concatenate([g[1] for g in groups]).tolist()
            assert sorted(positions) == list(range(len(chunk)))
            batched = dict(zip(positions, factor_keys(groups)))
            assert [batched[pos] for pos in range(len(chunk))] == [keys[k] for k in chunk]
            # a repeated index may be evaluated once per place it holds
            assert on_grid <= Counter(batched.values())


def test_pruned_sweep_when_the_sup_lies_off_the_outer_ring():
    # phi_k(z) = e^{i t_k} (a - z)/(1 - conj(a) z), with a the grid point at
    # angle 2 pi / 16, which the ring's stride of 2 skips: phi_k(a) = 0, so
    # |x o phi_k - c| = |c| at a for every k, bit for bit. phi_k maps the
    # circle r T onto the circle with diameter [0, 2 a e^{i t_k} / (1 + r^2)],
    # which for t_k = 0 lies in the disk |w - c| <= |c|, c = 1.2 a, touching
    # its edge at 0 only. Where |t_k| is small the other grid points stay
    # inside, so the grid sup is |c|, at a, and the ring bound is loose;
    # those indices tie, and the first wins
    probe = CompactProbe.create(0.5, 1, 16)
    a = complex(probe.axes().coords[0].ravel()[1])
    angles = [0.7, 0.05, 0.6, 0.0, 0.1, 0.75, 0.02]
    seq = ExplicitSequence(
        PolydiskAutomorphism((MobiusFactor(a, t),), (0,)) for t in angles
    )
    x, c = Coordinate(1, 1), 1.2 * a
    targets = (Constant(c, 1),)
    rows = verify_orbit(x, seq, targets, probe, len(angles))
    assert rows == reference_sweep(x, seq, targets, probe, range(1, len(angles) + 1))
    assert rows[0] == {"target": 1, "best_index": 2, "value": np.abs(c)}
    ties = {reference_sweep(x, seq, targets, probe, [k])[0]["value"] for k in (4, 5, 7)}
    assert ties == {np.abs(c)}
    ring = probe.outer_ring(engine._RING_ANGLES)
    bound = float(np.max(np.abs(seq.at(2).transform(ring).coords[0] - c)))
    assert bound < rows[0]["value"]


def test_pruned_sweep_keeps_an_earlier_index_whose_bound_ties():
    # phi_k sends ring point z_k to 0 and the probe into the disk of radius
    # 1/2 about 1/2, so |x o phi_k - 1/2| reaches 1/2, exactly, at z_k
    # only. z_1 is a ring point the bound samples, z_2 is not: index 2 has
    # the least bound and sets U = 1/2, and index 1, whose bound is U
    # itself, must still be evaluated, as it comes first
    probe = CompactProbe.create(0.5, 1, 16)
    axis = probe.axes().coords[0].ravel()
    seq = ExplicitSequence(
        PolydiskAutomorphism((MobiusFactor(z, -cmath.phase(z)),), (0,))
        for z in map(complex, axis[0:2])
    )
    x, targets = Coordinate(1, 1), (Constant(0.5, 1),)
    ring = probe.outer_ring(engine._RING_ANGLES)
    bounds = [float(np.max(np.abs(seq.at(k).transform(ring).coords[0] - 0.5)))
              for k in (1, 2)]
    assert bounds[1] < bounds[0] == 0.5
    rows = verify_orbit(x, seq, targets, probe, 2)
    assert rows == reference_sweep(x, seq, targets, probe, [1, 2])
    assert rows == [{"target": 1, "best_index": 1, "value": 0.5}]


def test_monotone_sweep_evaluates_few_indices_on_the_grid(monkeypatch):
    # the fitted product's sup falls at every index up to 250, so only
    # each target's least bound is evaluated on the whole grid
    x, seq, targets, probe = fitted_product()
    _, evaluated = traced_sweep(monkeypatch, probe)
    rows = verify_orbit(x, seq, targets, probe, 250)
    assert rows == reference_sweep(x, seq, targets, probe, range(1, 251))
    assert [row["best_index"] for row in rows] == [250, 250]
    assert 1 <= sum(evaluated[0].values()) <= 2


def rotation_sweep(monkeypatch, angles):
    """Sweep, traced, the rotations z -> e^{i t} z by ``angles`` against
    x = B, a Blaschke factor whose zero lies between two outer-ring angles
    of the default n = 1 probe; the target is x itself, so the sup of
    index k grows with |t_k|. Returns the sequence, the ring bounds, the
    rows, which equal ``reference_sweep``'s, and ``traced_sweep``'s chunks
    and grid counts."""
    probe = CompactProbe.create(0.3, 1)
    x = BlaschkeFactor(MobiusFactor(0.9 * cmath.exp(1j * math.pi / 8), 0.0))
    seq = ExplicitSequence(
        PolydiskAutomorphism((MobiusFactor(0.0, math.pi + t),), (0,)) for t in angles)
    ring = probe.outer_ring(engine._RING_ANGLES)
    bounds = [float(np.max(np.abs(x._eval(seq.at(k).transform(ring)) - x._eval(ring))))
              for k in range(1, len(angles) + 1)]
    chunks, evaluated = traced_sweep(monkeypatch, probe)
    rows = verify_orbit(x, seq, (x,), probe, len(angles))
    assert rows == reference_sweep(x, seq, (x,), probe, range(1, len(angles) + 1))
    return seq, bounds, rows, chunks, evaluated


def test_falling_sup_evaluates_only_the_tail_window_on_the_grid(monkeypatch):
    # rotations closing in on the target, as on the way to a stage index:
    # x o phi_k - x = B(e^{i t_k} z) - B(z), its sup falling at every index,
    # about 3 % per chunk of 1 536 indices, while the ring bound sits about
    # 5.5 % below the grid sup (B's zero lies between two ring angles). A
    # chunk's own least index rules out almost none of its indices, but the
    # last index's sup rules out all but a tail of the sweep, and the last
    # chunk is swept first
    seq, bounds, rows, chunks, evaluated = rotation_sweep(
        monkeypatch, [0.1 * 0.99998**k for k in range(1, 6_001)])
    count = len(bounds)
    assert all(b > c for b, c in zip(bounds, bounds[1:]))
    assert rows[0]["best_index"] == count
    window = [k for k, b in enumerate(bounds, start=1) if b <= rows[0]["value"]]
    assert window == list(range(window[0], count + 1))
    # the sweep's first two chunks of four hold no index of the window
    assert len(chunks) == 4 and window[0] > max(chunks[2][0]) > max(chunks[1][0])
    assert sum(evaluated, Counter()) == Counter(at_key(seq.at(k)) for k in window)


def test_rising_sup_evaluates_few_indices_on_the_grid(monkeypatch):
    # the sweep passes its best index, 800, and the sup rises after it, as
    # on a sweep past a stage index; the last chunk, swept first, sets a
    # poor U, but the scan reaches index 800 before the indices after it,
    # so the other chunks are pruned as in a sweep in scan order
    _, _, rows, chunks, evaluated = rotation_sweep(
        monkeypatch, [1e-3 * (1.0 + ((k - 800) / 1000) ** 2) for k in range(1, 6_001)])
    assert rows[0]["best_index"] == 800
    assert [len(chunk) for chunk, _ in chunks] == [1_392, 1_536, 1_536, 1_536]
    # the last chunk and the chunk of index 800 only
    assert sum(evaluated[2:], Counter()) == Counter()
    assert 0 < sum(sum(c.values()) for c in evaluated) < 1_536


def test_pruned_index_with_a_pole_on_the_grid_raises_nothing():
    # x has its zero b within 2.3e-16 of the circle, at grid angle
    # 2 pi / 64 of a probe of radius 1 - 3.3e-16: the identity (index 2)
    # takes that grid point to within 5e-16 of the pole 1 / conj(b), while
    # the ring bound samples only every eighth angle. Index 1, a rotation by
    # half an angle step, reproduces the target, so index 2 is pruned and
    # its pole is never evaluated; swept alone, or unpruned, it raises
    probe = CompactProbe.create(1.0 - 3 * 2.0**-53, 1, 64)
    on_ring = complex(probe.axes().coords[0].ravel()[1])
    x = BlaschkeFactor(MobiusFactor((1.0 - 2.0**-52) * (on_ring / abs(on_ring)), 0.0))
    half_step = PolydiskAutomorphism((MobiusFactor(0.0, math.pi + math.pi / 64),), (0,))
    seq = ExplicitSequence([half_step, PolydiskAutomorphism.identity(1)])
    targets = (Composed(half_step, x),)
    row = {"target": 1, "best_index": 1, "value": 0.0}
    assert verify_orbit(x, seq, targets, probe, 2) == [row]
    assert verify_orbit(x, seq, targets, probe, 0, [2, 1]) == [row]
    with pytest.raises(PoleHit):
        verify_orbit(x, seq, targets, probe, 0, [2])
    with pytest.raises(PoleHit):
        reference_sweep(x, seq, targets, probe, [1, 2])


def two_targets_n3() -> EngineConfig:
    return EngineConfig(
        sequence=constant_sequence(3),
        targets=(
            Constant(complex(0.49, 0.01), 3),
            Product((Coordinate(1, 3), Coordinate(2, 3), Coordinate(3, 3))),
        ),
        probe=CompactProbe.create(0.25, 3),
        k_max=10**9,
    )


def test_run_two_targets_n3():
    cfg = two_targets_n3()
    seq, probe = cfg.sequence, cfg.probe
    run = run_universality(cfg)
    assert run.failure is None
    assert len(run.stages) == 2
    for row in run.verification:
        assert row["value"] <= row["bound"]
    rows = verify_orbit(
        run.product, seq, cfg.targets, probe,
        max(run.recorded_indices()), run.recorded_indices(),
    )
    for row, expected in zip(rows, run.verification):
        assert row["best_index"] == expected["best_index"]
        assert row["value"] == expected["value"]


def shipped_config(name) -> EngineConfig:
    cfg = cli.load_config(CONFIGS / name)
    return EngineConfig(sequence=cli.build_sequence(cfg), targets=cli.build_targets(cfg),
                        probe=cli.build_probe(cfg), **cfg.engine)


@pytest.mark.parametrize("make", [
    functools.partial(shipped_config, "universal_n1.ini"),
    functools.partial(shipped_config, "universal_n2_swap.ini"),
    two_targets_n3,
], ids=["universal_n1", "universal_n2_swap", "two_targets_n3"])
def test_torus_grid_sups_equal_those_of_the_three_ring_grid(make):
    # by the maximum principle each sup over r D^n sits on r T^n, and the
    # grid's points are the r ring's of {0, r/2, r}: so the fidelities and
    # verification values are the three-ring grid's maxima, bit for bit.
    # A fidelity within 4 roundtrip errors of the stage is rounding, not a
    # holomorphic sup (universal_n2_swap's stage 2 reads 5.96e-10 against a
    # roundtrip error of 5.96e-10), and need not sit on the torus
    cfg = make()
    run = run_universality(cfg)
    assert run.failure is None
    rings = three_ring_axes(cfg.probe)
    for s in run.stages:
        image = cfg.sequence.at(s.chosen_index).transform(rings)
        diff = s.factor.product._eval(image) - s.projected._eval(rings)
        floor = 4.0 * s.roundtrip_error
        if s.fidelity > floor:
            assert s.fidelity == float(np.max(np.abs(diff)))
        else:
            assert float(np.max(np.abs(diff))) <= floor
    for row, target in zip(run.verification, cfg.targets):
        image = cfg.sequence.at(row["best_index"]).transform(rings)
        diff = run.product._eval(image) - target._eval(rings)
        assert row["value"] == float(np.max(np.abs(diff)))


def test_run_two_targets_n4():
    seq = constant_sequence(4)
    probe = CompactProbe.create(0.25, 4, points_per_dim=8)
    targets = (
        Constant(complex(0.5, 0.01), 4),
        Product(tuple(Coordinate(i, 4) for i in range(1, 5))),
    )
    run = run_universality(
        EngineConfig(sequence=seq, targets=targets, probe=probe, k_max=10**9)
    )
    assert run.failure is None
    assert len(run.stages) == 2
    # each row is what evaluating the product one leaf at a time gives
    axes = probe.axes()
    for row, target in zip(run.verification, targets):
        assert row["value"] <= row["bound"]
        xv = unstacked_eval(run.product, seq.at(row["best_index"]).transform(axes))
        assert row["value"] == float(np.max(np.abs(xv - target._eval(axes))))


def test_corrector_index_refuses_image_on_the_circle():
    for eta in (0.0, -2.0**-53):
        with pytest.raises(PrecisionExhausted, match="stage 3.*eta") as caught:
            _corrector_index_for(3, 12, eta, 0.05 / 8)
        assert (caught.value.eta, caught.value.needed, caught.value.cap) == (
            eta, None, 48)


def test_corrector_cap_ends_as_partial_run(monkeypatch):
    # the third stage needs a corrector index past the cap; a deeper index
    # only needs a larger one, so the run stops after one attempt
    stages = []
    build_factor = engine.build_factor

    def counted(config, lam, j, *args):
        stages.append(j)
        return build_factor(config, lam, j, *args)

    monkeypatch.setattr(engine, "build_factor", counted)
    seq = constant_sequence()
    cfg = EngineConfig(
        sequence=seq,
        targets=(Constant(0.5, 1), Coordinate(1, 1), Power(Coordinate(1, 1), 2)),
        probe=CompactProbe.create(0.3, 1),
        k_max=10**17,
    )
    run = run_universality(cfg)
    assert len(run.stages) == 2
    assert stages.count(3) == 1
    assert run.failure["stage"] == 3
    assert run.failure["error"] == "PrecisionExhausted"
    assert "past the cap of 48" in run.failure["message"]
