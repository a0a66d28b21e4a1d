import math

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
from innerorbit.engine import _corrector_index_for, stage_condition_values
from innerorbit.errors import (
    InterferenceBudgetExceeded,
    NoBoundaryConvergence,
    SequenceExhausted,
    UnsupportedTargetShape,
)


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
    g = project_to_family(Constant(0.5, 1), pin, 20, 0.02, probe, depth=16)
    assert probe_sup(g.product, Constant(0.5, 1), probe) <= 0.02 + 8 * 2.0**-20


def test_project_coordinate_is_exact():
    probe = CompactProbe.create(0.25, 1)
    pin = TorusPoint((1.0,))
    g = project_to_family(Coordinate(1, 1), pin, 20, 1e-6, probe)
    assert g.approximant == Coordinate(1, 1)
    assert probe_sup(g.product, Coordinate(1, 1), probe) <= 8 * 2.0**-20


def test_project_unimodular_constant():
    probe = CompactProbe.create(0.25, 1)
    pin = TorusPoint((1j,))
    u = Constant(complex(math.cos(0.8), math.sin(0.8)), 1)
    g = project_to_family(u, pin, 15, 1e-6, probe)
    assert abs(g.product.eval(pin) - 1.0) < 1e-9


def test_project_bivariate_product_form():
    probe = CompactProbe.create(0.25, 2)
    pin = TorusPoint((1.0, 1.0))
    f = Product((Constant(0.5, 2), Coordinate(1, 2), Coordinate(2, 2)))
    g = project_to_family(f, pin, 16, 0.01, probe)
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
    n1 = choose_stage_index(
        sel, axes, [], Constant(1.0, 1), j=1, floor=0, delta=0.01, k_max=10**6
    )
    assert n1 == 1
    assert stage_condition_values(seq, axes, [], Constant(1.0, 1), 1) == (0.0, 0.0)


def test_condition_b_contracts_with_index():
    seq = constant_sequence()
    probe = CompactProbe.create(0.3, 1)
    pin = TorusPoint((1.0,))
    projected = project_to_family(Constant(0.5, 1), pin, 13, 0.0125, probe)
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
    projected = project_to_family(Constant(0.5, 1), pin, 13, 0.0125, probe)
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
