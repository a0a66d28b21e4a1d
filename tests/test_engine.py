import math
import tracemalloc

import numpy as np
import pytest

from innerorbit import (
    CompactProbe,
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
    probe_sup,
    project_to_family,
    run_universality,
    select_subsequence,
    verify_orbit,
)
from innerorbit import engine
from innerorbit.engine import _corrector_index_for, stage_condition_values
from innerorbit.errors import (
    InterferenceBudgetExceeded,
    NoBoundaryConvergence,
    SequenceExhausted,
    UnsupportedTargetShape,
    ValidityError,
)

from test_kernel import random_tree, unstacked_eval
from util import random_automorphism


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
    g, achieved = project_to_family(Constant(0.5, 1), pin, 20, 0.02, probe, depth=16)
    assert achieved == probe_sup(g.product, Constant(0.5, 1), probe)
    assert achieved <= 0.02 + 8 * 2.0**-20


def test_project_coordinate_is_exact():
    probe = CompactProbe.create(0.25, 1)
    pin = TorusPoint((1.0,))
    g, _ = project_to_family(Coordinate(1, 1), pin, 20, 1e-6, probe)
    assert g.approximant == Coordinate(1, 1)
    assert probe_sup(g.product, Coordinate(1, 1), probe) <= 8 * 2.0**-20


def test_project_unimodular_constant():
    probe = CompactProbe.create(0.25, 1)
    pin = TorusPoint((1j,))
    u = Constant(complex(math.cos(0.8), math.sin(0.8)), 1)
    g, _ = project_to_family(u, pin, 15, 1e-6, probe)
    assert abs(g.product.eval(pin) - 1.0) < 1e-9


def test_project_bivariate_product_form():
    probe = CompactProbe.create(0.25, 2)
    pin = TorusPoint((1.0, 1.0))
    f = Product((Constant(0.5, 2), Coordinate(1, 2), Coordinate(2, 2)))
    g, _ = project_to_family(f, pin, 16, 0.01, probe)
    assert probe_sup(g.product, f, probe) <= 0.01 + 8 * 2.0**-16


def test_project_rejects_entangled_target():
    probe = CompactProbe.create(0.25, 2)
    pin = TorusPoint((1.0, 1.0))
    # a Power of a two-variable product is a single multiplicative factor
    # touching both coordinates, so no per-variable split exists once the
    # constant 0.5 spoils innerness
    knot = Power(Product((Coordinate(1, 2), Coordinate(2, 2))), 2)
    f = Product((Constant(0.5, 2), knot))
    with pytest.raises(UnsupportedTargetShape):
        project_to_family(f, pin, 16, 0.01, probe)


# ---------------------------------------------------------------------------
# stage index choice

def test_choose_stage_index_trivial_target():
    seq = constant_sequence()
    sel = select_subsequence(seq, 64, math.pi / 16)
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
    assert second.escalations == 0
    factors = [first.factor.product]
    k, conds_a, cond_b = choose_stage_index(
        run.selection, probe.axes(), factors, second.projected.product, j=2,
        floor=first.chosen_index, delta=cfg.delta, k_max=cfg.k_max,
    )
    assert k == second.chosen_index
    assert len(conds_a) == 1
    assert (conds_a, cond_b) == stage_condition_values(
        seq, probe.axes(), factors, second.projected.product, k
    )
    assert (conds_a, cond_b) == (second.condition_a, second.condition_b)


def test_condition_b_contracts_with_index():
    seq = constant_sequence()
    probe = CompactProbe.create(0.3, 1)
    pin = TorusPoint((1.0,))
    projected, _ = project_to_family(Constant(0.5, 1), pin, 13, 0.0125, probe)
    values = [
        stage_condition_values(seq, probe.axes(), [], projected.product, k)[1]
        for k in (10, 100, 1000)
    ]
    assert values[0] > values[1] > values[2]
    # the axis-wise values are the pointwise ones on the expanded grid, bit
    # for bit
    for k, value in zip((10, 100, 1000), values):
        pre = auto_inverse(seq.at(k)).transform(probe.grid())
        pointwise = np.max(np.abs(projected.product.eval_grid(pre) - 1.0))
        assert value == float(pointwise)


def test_sequence_exhausted_for_stalled_moduli():
    autos = [
        PolydiskAutomorphism((MobiusFactor(0.5, 0.0),), (0,)) for _ in range(64)
    ]
    seq = ExplicitSequence(autos)
    sel = select_subsequence(seq, 64, math.pi / 16, boundary_tol=0.75)
    probe = CompactProbe.create(0.3, 1)
    pin = TorusPoint((1.0,))
    projected, _ = project_to_family(Constant(0.5, 1), pin, 13, 0.0125, probe)
    with pytest.raises(SequenceExhausted) as excinfo:
        choose_stage_index(
            sel, probe.axes(), [], projected.product, j=1, floor=0,
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
    return cases


@pytest.mark.parametrize("batch", ["default", "below_one_index", "not_dividing"])
def test_verify_orbit_equals_one_index_at_a_time(monkeypatch, batch):
    for x, seq, targets, probe, indices in sweep_cases():
        points = probe.axes().shape[0]
        if batch == "below_one_index":
            monkeypatch.setattr(engine, "_BATCH_POINTS", points - 1)
        elif batch == "not_dividing":
            # chunks of 7 indices: no sweep here is a multiple of 7
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


def test_run_two_targets_n3():
    seq = constant_sequence(3)
    probe = CompactProbe.create(0.25, 3)
    cfg = EngineConfig(
        sequence=seq,
        targets=(
            Constant(complex(0.49, 0.01), 3),
            Product((Coordinate(1, 3), Coordinate(2, 3), Coordinate(3, 3))),
        ),
        probe=probe,
        k_max=10**9,
    )
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
        with pytest.raises(InterferenceBudgetExceeded, match="stage 3.*eta"):
            _corrector_index_for(3, 12, eta, 0.05 / 8)


def test_image_on_the_circle_ends_as_partial_run():
    # the third stage escalates until the probe image rounds onto the
    # circle; a deeper index cannot help, so the run stops there
    seq = constant_sequence()
    cfg = EngineConfig(
        sequence=seq,
        targets=(Constant(0.5, 1), Coordinate(1, 1), Power(Coordinate(1, 1), 2)),
        probe=CompactProbe.create(0.3, 1),
        k_max=10**17,
    )
    run = run_universality(cfg)
    assert len(run.stages) == 2
    assert run.failure["stage"] == 3
    assert run.failure["error"] == "InterferenceBudgetExceeded"
    assert "eta = " in run.failure["message"]
