"""The stage-index search against the doubling-then-bisection search it
replaced, which stays here as the reference, on synthetic condition values
and on the shipped n = 1 config. The synthetic values, as the engine's, are
functions of the automorphism at the probed index."""

import bisect
import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from innerorbit import (
    CompactProbe,
    Constant,
    ExplicitSequence,
    GeneratedSequence,
    MobiusFactor,
    PolydiskAutomorphism,
    cli,
    engine,
    select_subsequence,
)
from innerorbit.errors import SequenceExhausted, ValidityError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

#: angle schedules whose selections keep members with periods 1 to 3: every
#: index, every other one, two of three, and one of three
THETA_CYCLES = (
    ((0.0,),),
    ((0.0,), (2.0,)),
    ((0.0,), (0.0,), (2.0,)),
    ((0.0,), (1.0,), (2.0,)),
)


def reference_choose_stage_index(
    selection, axes, factors, projected, j, floor, delta, k_max
):
    """The search the engine used before its model-guided one: double a step
    until an admissible member appears, then bisect back to the first
    admissible one. Probes through ``engine.stage_condition_values``, so a
    test that patches it patches both searches."""
    seq = selection.sequence
    tol = delta * math.ldexp(1.0, -j)
    best = {"index": None, "condition_a": math.inf, "condition_b": math.inf}
    probed = {}

    def admissible(k: int) -> bool:
        conds, b = engine.stage_condition_values(seq, axes, factors, projected, k)
        probed[k] = (k, conds, b)
        a = max((0.0, *conds))
        if max(a, b) < max(best["condition_a"], best["condition_b"]):
            best.update({"index": k, "condition_a": a, "condition_b": b})
        return a <= tol and b <= tol

    start = selection.next_member(floor + 1)
    if start is None or start > k_max:
        raise SequenceExhausted("no subsequence member above the floor", best)
    if admissible(start):
        return probed[start]

    def last_member_at_or_below(top: int):
        for k in range(top, max(lo, top - 64), -1):
            if selection.contains(k):
                return k
        return None

    lo = start
    step = 1
    hi = None
    while hi is None:
        step *= 2
        candidate = selection.next_member(start + step)
        if candidate is None or candidate > k_max:
            final = last_member_at_or_below(k_max)
            if final is not None and final > lo and admissible(final):
                hi = final
                break
            raise SequenceExhausted(
                f"no admissible index within k_max={k_max} at stage {j} "
                f"(tolerance {tol:.3e})",
                best,
            )
        if admissible(candidate):
            hi = candidate
        else:
            lo = candidate

    while True:
        mid = lo + (hi - lo) // 2
        if mid <= lo:
            return probed[hi]
        member = selection.next_member(mid)
        if member is None or member >= hi:
            return probed[hi]
        if admissible(member):
            hi = member
        else:
            lo = member


#: the searches run stage 1 at delta = 0.01, so their tolerance is this
DELTA = 0.01
TOL = DELTA * 0.5


def selection_for(theta_cycle):
    seq = GeneratedSequence(
        direction=(1.0 + 0j,), rate=1.0, theta_cycle=theta_cycle,
        perm_cycle=((0,),),
    )
    return select_subsequence(seq, 64, math.pi / 16, 0.05)


def power_curve(crossing, exponent, saturation=math.inf):
    """TOL * ((crossing + 1/2) / (k + 1/2))^exponent, capped at
    ``saturation``: non-increasing, and exactly TOL at the crossing."""
    def value(k):
        return min(saturation, TOL * ((crossing + 0.5) / (k + 0.5)) ** exponent)
    return value


def step_curve(crossing, before, after):
    """``before`` below the crossing, ``after`` from it on: no power law
    fits it."""
    def value(k):
        return before if k < crossing else after
    return value


def block_end(seq, k):
    """The last index of k's block: the run of indices at which
    1 - rate/(k + 1), and so alpha, rounds to the value it takes at k. At
    rate 1 a block is one index long up to about 1e8, and about k^2 * 2^-53
    long past that. Depends on k only through ``seq.at(k)``."""
    alpha = seq.at(k).factors[0].alpha

    def same(i):
        try:
            return seq.at(i).factors[0].alpha == alpha
        except ValidityError:  # past the last representable index
            return False

    step = 1
    while same(k + step):
        step *= 2
    inside, past = k + step // 2, k + step
    while past - inside > 1:
        mid = (inside + past) // 2
        inside, past = (mid, past) if same(mid) else (inside, mid)
    return inside


def on_automorphisms(seq, value):
    """The curve ``value`` as the engine's condition values are, a function
    of ``seq.at(k)``: at k it is ``value`` at the last index of k's block.
    Indices sharing an automorphism share a block, so they get one value;
    and a crossing inside a block makes the whole block admissible, so the
    first admissible index stays at or below the crossing."""
    def curve(k):
        return value(block_end(seq, k))
    return curve


def run_search(monkeypatch, search, selection, value, floor, k_max, carrier="b"):
    """Run ``search`` on the values ``on_automorphisms(seq, value)`` (the
    larger condition; the other is half of it). Returns its outcome, a
    result tuple or the SequenceExhausted message, and its probed indices
    in order. Each probe first builds the automorphism at k, as
    ``stage_condition_values`` does, so an index the sequence cannot
    represent is refused there."""
    probes = []
    curve = on_automorphisms(selection.sequence, value)

    def synthetic(seq, axes, factors, projected, k, retro=None):
        seq.at(k)
        probes.append(k)
        g = curve(k)
        return ((g,), 0.5 * g) if carrier == "a" else ((0.5 * g,), g)

    monkeypatch.setattr(engine, "stage_condition_values", synthetic)
    try:
        outcome = search(selection, None, [None], None, 1, floor, DELTA, k_max)
    except SequenceExhausted as exc:
        outcome = str(exc)
    return outcome, probes


def search_both(monkeypatch, selection, value, floor, k_max, carrier="b"):
    """The engine's search and the reference on the same values: each
    one's outcome, then each one's probed indices."""
    (got, probes), (expected, reference) = (
        run_search(monkeypatch, search, selection, value, floor, k_max, carrier)
        for search in (engine.choose_stage_index, reference_choose_stage_index)
    )
    return got, expected, probes, reference


def probe_budget(floor, k_max):
    return 2 * math.ceil(math.log2(k_max - floor)) + 4


@st.composite
def search_cases(draw):
    floor = draw(st.integers(0, 10**6))
    span = 2 ** draw(st.integers(0, 50))
    k_max = floor + draw(st.integers(1, span))
    # a crossing past k_max exhausts the search
    crossing = floor + draw(st.integers(1, 2 * (k_max - floor) + 2))
    kind = draw(st.sampled_from(("power", "knee", "step")))
    if kind == "step":
        before = draw(st.one_of(st.floats(1.0001, 4.0).map(lambda u: u * TOL),
                                st.sampled_from((math.inf, math.nan))))
        after = draw(st.one_of(st.just(0.0),
                               st.floats(0.0, 1.0).map(lambda u: u * TOL)))
        value = step_curve(crossing, before, after)
    else:
        exponent = draw(st.floats(0.3, 3.0))
        saturation = draw(st.floats(1.5, 400.0)) * TOL if kind == "knee" else math.inf
        value = power_curve(crossing, exponent, saturation)
    theta_cycle = draw(st.sampled_from(THETA_CYCLES))
    carrier = draw(st.sampled_from("ab"))
    return theta_cycle, value, floor, k_max, carrier


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=search_cases())
def test_search_matches_reference_within_probe_budget(monkeypatch, case):
    theta_cycle, value, floor, k_max, carrier = case
    selection = selection_for(theta_cycle)
    got, expected, probes, _ = search_both(monkeypatch, selection, value, floor,
                                           k_max, carrier=carrier)
    assert got == expected
    assert len(probes) <= probe_budget(floor, k_max)


def sparse_selection(period):
    """One member every ``period`` indices (1, 1 + period, ...): at
    angle_tol 0.01 the angles 0, 0.02, 0.04, ... of the cycle each fall in
    a cell of their own."""
    seq = GeneratedSequence(
        direction=(1.0 + 0j,), rate=1.0,
        theta_cycle=tuple((0.02 * i,) for i in range(period)), perm_cycle=((0,),),
    )
    return select_subsequence(seq, 64, 0.01, 0.05)


def smallest_admissible_member(curve, period, floor, k_max):
    """The first member above ``floor`` whose value on ``curve`` meets the
    tolerance, None if no member up to ``k_max`` does; admissibility is
    monotone along these curves, so bisection over the list of members
    finds it."""
    first = floor + 1 + (-floor) % period
    members = range(first, k_max + 1, period)
    i = bisect.bisect_left(members, True, key=lambda k: curve(k) <= TOL)
    return members[i] if i < len(members) else None


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(period=st.one_of(st.integers(4, 11), st.integers(65, 300)),
       case=search_cases())
def test_sparse_members_search_finds_smallest_admissible_member(
    monkeypatch, period, case
):
    # members 4 to 11 indices apart let a doubling step land on the member
    # the lower end already holds; the reference's bisection skips members
    # in such gaps, so the oracle here is the member list itself. Members
    # 65 to 300 apart put the last member up to a bound more than 64
    # indices below it
    _, value, floor, k_max, carrier = case
    selection = sparse_selection(period)
    assert [k for k in range(1, 3 * period + 2) if selection.contains(k)] == [
        1, 1 + period, 1 + 2 * period, 1 + 3 * period]
    got, probes = run_search(monkeypatch, engine.choose_stage_index, selection,
                             value, floor, k_max, carrier)
    expected = smallest_admissible_member(
        on_automorphisms(selection.sequence, value), period, floor, k_max)
    if expected is None:
        assert isinstance(got, str)
    else:
        assert not isinstance(got, str) and got[0] == expected
    assert len(probes) <= probe_budget(floor, k_max)


def test_last_member_below_k_max_is_found_across_a_long_gap(monkeypatch):
    # members 1, 101, ..., 999 001 are 100 apart; only 999 001 is admissible
    # up to k_max, and the doubling steps pass k_max before reaching it
    selection, k_max = sparse_selection(100), 999_071
    got, probes = run_search(monkeypatch, engine.choose_stage_index, selection,
                             step_curve(999_001, 2 * TOL, 0.5 * TOL), 0, k_max)
    assert not isinstance(got, str) and got[0] == 999_001
    assert len(probes) <= probe_budget(0, k_max)


@pytest.mark.parametrize("theta_cycle", THETA_CYCLES)
@pytest.mark.parametrize("before,after", [
    (0.0101, 0.004999), (0.0101, 0.0), (math.inf, 0.004), (math.nan, 0.0),
])
@pytest.mark.parametrize("place", [0.0, 0.5, 0.9, 1.0])
def test_step_curve_within_probe_budget(monkeypatch, theta_cycle, before,
                                        after, place):
    # no power law fits a step, and none passes through a zero or a value
    # that is not finite; wherever the step sits below k_max the search
    # must find it within the budget
    floor, k_max = 1000, 1000 + 2**40
    crossing = floor + 1 + int(place * (k_max - floor - 4))
    selection = selection_for(theta_cycle)
    got, expected, probes, _ = search_both(
        monkeypatch, selection, step_curve(crossing, before, after), floor, k_max
    )
    assert got == expected
    assert not isinstance(got, str)
    assert len(probes) <= probe_budget(floor, k_max)


def test_zero_and_non_finite_values_fall_back_to_bisection(monkeypatch):
    selection = selection_for(THETA_CYCLES[0])
    floor, k_max, crossing = 0, 10**9, 654_321
    # not finite below the step: nothing to fit, so the search probes
    # exactly where doubling and bisection do
    for before in (math.inf, math.nan):
        got, expected, probes, reference = search_both(
            monkeypatch, selection, step_curve(crossing, before, 0.001), floor, k_max
        )
        assert got == expected and probes == reference
    # zero from the step on: once the crossing is bracketed, each probe is
    # the index midpoint of the bracket the probes before it left
    got, expected, probes, _ = search_both(
        monkeypatch, selection, step_curve(crossing, 0.0101, 0.0), floor, k_max
    )
    assert got == expected
    bracket = next(i for i, k in enumerate(probes) if k >= crossing)
    lo, hi = max(probes[:bracket]), probes[bracket]
    refinement = probes[bracket + 1:]
    assert refinement
    for k in refinement:
        assert k == lo + (hi - lo) // 2
        lo, hi = (lo, k) if k >= crossing else (k, hi)
    assert (lo, hi) == (crossing - 1, crossing)


def residue_curve(crossings):
    """Power laws with a crossing per residue of k modulo len(crossings):
    admissibility oscillates along the members."""
    def value(k):
        return power_curve(crossings[k % len(crossings)], 1.0)(k)
    return value


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(theta_cycle=st.sampled_from(THETA_CYCLES),
       crossings=st.lists(st.integers(2, 10**7), min_size=2, max_size=3),
       floor=st.integers(0, 1000), k_max=st.integers(1001, 2 * 10**7))
def test_oscillating_admissibility_ends_after_an_inadmissible_member(
    monkeypatch, theta_cycle, crossings, floor, k_max
):
    # the two searches may pick different members, but both pick an
    # admissible one whose preceding member is inadmissible, and the
    # engine's gives up only where the reference does
    selection = selection_for(theta_cycle)
    value = residue_curve(crossings)
    got, expected, _, _ = search_both(monkeypatch, selection, value, floor, k_max)
    if isinstance(got, str):
        assert isinstance(expected, str)
        return
    curve = on_automorphisms(selection.sequence, value)
    k = got[0]
    assert floor < k <= k_max and selection.contains(k) and curve(k) <= TOL
    previous = next((m for m in range(k - 1, floor, -1) if selection.contains(m)), None)
    assert previous is None or curve(previous) > TOL


def test_jump_past_representable_indices_retries_at_doubling(monkeypatch):
    # at rate 1, alpha rounds onto the circle past k ~ 1.8e16 and seq.at
    # raises; a flat fit jumps toward k_max = 1e20, so such jumps fail and
    # the search must go on doubling to the crossing far below
    selection = selection_for(THETA_CYCLES[0])
    unrepresentable = []
    at = GeneratedSequence.at

    def recording_at(self, k):
        try:
            return at(self, k)
        except ValidityError:
            unrepresentable.append(k)
            raise

    monkeypatch.setattr(GeneratedSequence, "at", recording_at)
    value = power_curve(10**6, 1.0, saturation=0.5)
    got, expected, probes, _ = search_both(monkeypatch, selection, value, 0, 10**20)
    assert unrepresentable
    assert got == expected
    assert got[0] == 10**6
    assert len(probes) <= probe_budget(0, 10**20)


def test_each_automorphism_is_evaluated_once_across_blocks(monkeypatch):
    # near 5e11 at rate 1, blocks of about 3e7 indices share one
    # automorphism: the engine meets some again, evaluates none twice, and
    # still returns the reference's index
    selection = selection_for(THETA_CYCLES[0])
    key = engine._automorphism_key
    met = []

    def recording_key(phi):
        met.append(key(phi))
        return met[-1]

    monkeypatch.setattr(engine, "_automorphism_key", recording_key)
    value = power_curve(5 * 10**11 + 12_345, 1.0)
    got, expected, probes, _ = search_both(monkeypatch, selection, value, 0, 10**15)
    assert got == expected
    evaluated = [key(selection.sequence.at(k)) for k in probes]
    assert len(set(evaluated)) == len(evaluated) == len(set(met))
    assert len(met) > len(set(met))


def explicit_selection(autos):
    """A selection keeping every index of ``ExplicitSequence(autos)``,
    whatever their permutations and angles."""
    seq = ExplicitSequence(autos)
    selection = select_subsequence(seq, len(autos), math.pi / 16, 0.05)
    return dataclasses.replace(selection, residues=tuple(range(1, len(autos) + 1)))


def twin(alpha=0.99 + 0j, theta=0.0, perm=(0, 1)):
    """A two-variable automorphism whose second factor has ``alpha`` and
    ``theta``; the first is the same for every twin."""
    return PolydiskAutomorphism(
        factors=(MobiusFactor(0.99 + 0j, 0.5), MobiusFactor(alpha, theta)), perm=perm)


@pytest.mark.parametrize("variant,evaluations", [
    (twin(), 1),
    (twin(theta=1e-9), 2),
    (twin(theta=-0.0), 2),
    (twin(alpha=complex(0.99, -0.0)), 2),
    (twin(perm=(1, 0)), 2),
])
def test_automorphisms_differing_in_one_angle_or_the_permutation_are_evaluated(
    monkeypatch, variant, evaluations
):
    # the search probes indices 1 and 3 and gives up: the first automorphism
    # is evaluated again only if the third is the same map, bit for bit
    # (0.0 and -0.0 are different bits)
    selection = explicit_selection([twin(), twin(alpha=0.98 + 0j), variant])
    probes = []
    condition_values = engine.stage_condition_values

    def counted_values(seq, axes, factors, projected, k, retro=None):
        probes.append(k)
        return condition_values(seq, axes, factors, projected, k, retro)

    monkeypatch.setattr(engine, "stage_condition_values", counted_values)
    axes = CompactProbe.create(0.3, 2, points_per_dim=4).axes()
    with pytest.raises(SequenceExhausted) as caught:
        engine.choose_stage_index(selection, axes, [], Constant(0.5, 2), 1, 0,
                                  DELTA, 3)
    assert probes == [1, 3][:evaluations]
    assert caught.value.best["index"] == 1


def counted_cli_run(monkeypatch, argv):
    """Exit code of ``cli.run_cli(argv)`` and the stage_condition_values
    calls of each of its stage-index searches."""
    probes = []
    search = engine.choose_stage_index
    condition_values = engine.stage_condition_values

    def counted_search(*args, **kwargs):
        probes.append(0)
        return search(*args, **kwargs)

    def counted_values(*args):
        probes[-1] += 1
        return condition_values(*args)

    monkeypatch.setattr(engine, "choose_stage_index", counted_search)
    monkeypatch.setattr(engine, "stage_condition_values", counted_values)
    return cli.run_cli(argv), probes


def test_universal_n1_indices_in_at_most_twelve_probes_per_stage(
    monkeypatch, tmp_path
):
    code, probes = counted_cli_run(
        monkeypatch, ["--config", str(CONFIGS / "universal_n1.ini"),
                      "--out", str(tmp_path), "--quiet"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["results"]["recorded_indices"] == [1976, 15_641_760]
    # the doubling-then-bisection search took 22 and 48
    assert len(probes) == 2
    assert max(probes) <= 12


def test_third_target_search_evaluates_few_automorphisms(monkeypatch, tmp_path):
    # the construct-lowdim benchmark's three-target shape: stage 3 searches
    # near k = 4.7e13, where 1 - 1/(k + 1) rounds to one value over blocks
    # of about 2.6e11 indices. Evaluating every probe there took 48
    text = (CONFIGS / "universal_n1.ini").read_text(encoding="utf-8")
    text = text.replace("f2 = z[1]", "f2 = z[1]\nf3 = z[1]^2").replace(
        "k_max = 1000000000", f"k_max = {10**15}")
    config = tmp_path / "three.ini"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code, probes = counted_cli_run(
        monkeypatch, ["--config", str(config), "--out", str(out), "--quiet"])
    assert code == 2
    results = json.loads((out / "report.json").read_text(encoding="utf-8"))["results"]
    assert results["recorded_indices"] == [1976, 15_641_760]
    assert (results["failure"]["stage"], results["failure"]["error"]) == (
        3, "PrecisionExhausted")
    assert len(probes) == 3
    assert probes[2] <= 12
