"""Staged construction of a finite universal product.

Given a sequence of automorphisms whose Moebius parameters approach the
distinguished boundary, the engine stabilizes a subsequence with constant
permutation and convergent angles (limit points lambda for the forward
maps, gamma for the inverses), projects each target onto the family pinned
to 1 at gamma, and builds one pin-lambda factor per target:

  - the projected target A is inner, with A(gamma) = 1 (``_approximant_for``);
  - stage index n_j is the smallest admissible subsequence index above the
    previous one such that every earlier factor composed with phi_{n_j} is
    within delta * 2^-j of the constant 1 on the probe, and A composed with
    phi_{n_j}^{-1} is too;
  - the factor x_j pulls A back through phi_{n_j}^{-1} (exact in the
    Blaschke class) and pins it at lambda with a corrector whose index is
    raised until it is invisible at the depth the image phi_{n_j}(probe)
    reaches toward the boundary;
  - a retroactive check bounds |x_j - 1| on all earlier image compacts,
    where x_j tends to A(gamma) = 1 as n_j grows. A factor that fails it
    searches once more, with bounds that imply the check.

The final product x = x_1 * ... * x_J is inner, continuous on the closed
polydisk, and its orbit x o phi_{n_j} lands within epsilon_j + delta +
projection tolerance of target j on the probe.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .automorphisms import (
    SubsequenceSelection,
    auto_inverse,
    select_subsequence,
    transform_batch,
)
from .errors import (
    InnerOrbitError,
    InterferenceBudgetExceeded,
    PrecisionExhausted,
    ProjectionFailed,
    SequenceExhausted,
    ValidityError,
)
from .geometry import CLOSURE_TOL, CompactProbe, PointAxes, TorusPoint, probe_sup
from .holo import (
    Constant,
    HoloFunction,
    flatten,
    is_blaschke_type,
    factor_product_form,
    product_of,
    pullback,
    remap_coordinates,
    taylor_coeffs,
)
from .inner_tools import (
    GeneratingElement,
    make_generating_element,
    schur_project_adaptive,
)

#: |f(gamma) - 1| up to which a Blaschke-type target is pinned as it is
_PIN_TOL = 1e-12

#: hard ceiling on corrector indices; beyond this 1 - 2^-j is within a few
#: ulps of 1 and the factor stops being representable
_MAX_CORRECTOR_INDEX = 48

#: probe points one batched orbit evaluation covers: a batch of the sweep
#: holds max(1, _BATCH_POINTS // points per index) indices. On the
#: orbit-sweep benchmark (2-vCPU VM, the CLI's allocator policy in place)
#: this size halves op_s_tail against one index at a time for about 0.5 MiB
#: more peak RSS; 16 384 adds about 1 MiB for no measurable speed
_BATCH_POINTS = 12_288

#: outer-ring angles per coordinate whose points bound an index's probe sup
#: from below in ``verify_orbit``: 8, 64 and 216 points at n = 1, 2 and 3
#: on the default grids
_RING_ANGLES = 8

#: margin, in log(k + 1), by which a stage-index jump passes the crossing its
#: power-law fit predicts, so that the jump lands admissible and brackets
_JUMP_OVERSHOOT = 0.1


@dataclass(frozen=True)
class EngineConfig:
    """Everything a universality run depends on; immutable, fully determines
    the run."""

    sequence: object
    targets: tuple
    probe: CompactProbe
    epsilon: float = 0.05
    delta: float = 0.01
    j_min: int = 12
    k_max: int = 100_000
    schur_depth: int = 16
    selection_horizon: int = 64
    angle_tol: float = math.pi / 16.0
    boundary_tol: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if not self.targets:
            raise ValidityError("at least one target is required")
        n = self.sequence.dimension
        if self.probe.dimension != n:
            raise ValidityError("probe dimension differs from sequence dimension")
        for t in self.targets:
            if t.dimension != n:
                raise ValidityError("target dimension differs from sequence dimension")
        if not 0.0 < self.epsilon < 1.0 or not 0.0 < self.delta < 1.0:
            raise ValidityError("epsilon and delta must lie in (0, 1)")

    def stage_tolerance(self, j: int) -> float:
        return self.epsilon * math.ldexp(1.0, -j)


@dataclass(frozen=True)
class StageRecord:
    """Outcome of one stage, with the error decomposition reported
    separately: fidelity (factor vs projected target through phi_{n_j}),
    projection error (projected target vs raw target on the probe), and the
    interference terms."""

    stage: int
    chosen_index: int
    corrector_index: int
    projected: HoloFunction
    factor: GeneratingElement
    fidelity: float
    projection_error: float
    condition_a: tuple
    condition_b: float
    retro_interference: tuple
    roundtrip_error: float


@dataclass
class UniversalityRun:
    """Full record of a staged construction."""

    selection: SubsequenceSelection
    stages: list
    product: HoloFunction | None
    verification: list
    config: EngineConfig
    failure: dict | None = field(default=None)

    def recorded_indices(self) -> tuple:
        return tuple(s.chosen_index for s in self.stages)


def validate_targets(config: EngineConfig) -> None:
    """Ball membership on the probe grid; the grammar already guarantees it,
    so a violation indicates a corrupted tree."""
    axes = config.probe.axes()
    for i, t in enumerate(config.targets, start=1):
        sup = float(np.max(np.abs(t._eval(axes))))
        if sup > 1.0 + CLOSURE_TOL:
            raise ValidityError(f"target {i} has grid sup {sup:.17g} > 1")


# ---------------------------------------------------------------------------
# projection onto the pinned families

def _schur_one_variable(f1: HoloFunction, depth: int, pin=None):
    coeffs = taylor_coeffs(f1, 2 * depth)
    tree, _ = schur_project_adaptive(coeffs, depth, pin)
    return tree


def _approximant_for(f: HoloFunction, depth: int, pin: TorusPoint, tol: float):
    """Inner, closure-continuous approximant A of a ball-function tree with
    A(pin) = 1 up to rounding.

    A Blaschke-type tree that is 1 at the pin is its own A. Anything else
    must be a product form (``factor_product_form``), whose per-coordinate
    parts pass through if Blaschke-type and are Schur-projected otherwise.
    The carrier, the least coordinate used (or 1), takes the constant, and
    its Schur tail is pinned to conj(prod of the other parts at the pin); a
    Blaschke-type carrier has no tail to set, so it is shrunk by 1 - tol/2
    first, at most tol/2 of error.
    """
    flat = flatten(f)
    if is_blaschke_type(flat) and abs(flat.eval(pin) - 1.0) <= _PIN_TOL:
        return flat
    n = flat.dimension
    constant, buckets = factor_product_form(flat)
    carrier = min(buckets, default=1)
    parts, others = [], 1.0
    for coord in sorted(buckets.keys() - {carrier}):
        one_var = product_of(
            tuple(remap_coordinates(node, {coord: 1}, 1) for node in buckets[coord]))
        if not is_blaschke_type(one_var):
            one_var = _schur_one_variable(one_var, depth)
        others *= one_var.eval((pin.coords[coord - 1],))
        parts.append(remap_coordinates(one_var, {1: coord}, n))
    one_var = product_of((Constant(constant, 1), *(
        remap_coordinates(node, {carrier: 1}, 1) for node in buckets.get(carrier, ()))))
    if is_blaschke_type(one_var):
        one_var = product_of((Constant(1.0 - tol / 2.0, 1), one_var))
    one_var = _schur_one_variable(
        one_var, depth, (pin.coords[carrier - 1], others.conjugate()))
    return product_of((remap_coordinates(one_var, {1: carrier}, n), *parts))


def project_to_family(
    f: HoloFunction,
    pin: TorusPoint,
    tol: float,
    probe: CompactProbe,
    depth: int,
) -> tuple[HoloFunction, float]:
    """Project a ball function onto the family pinned to 1 at ``pin``;
    returns (A, probe sup of A - f), A the approximant of
    ``_approximant_for``, which must reproduce f within tol on the probe.
    """
    approximant = _approximant_for(f, depth, pin, tol)
    achieved = probe_sup(approximant, f, probe)
    if achieved > tol:
        raise ProjectionFailed(achieved=achieved, requested=tol)
    return approximant, achieved


# ---------------------------------------------------------------------------
# stage index search

def stage_condition_values(
    seq, axes: PointAxes, factors, projected: HoloFunction, k: int, retro=None
):
    """((sup |x_i o phi_k - 1| for each earlier factor x_i),
        sup |f~ o phi_k^{-1} - 1|) on the probe grid ``axes``. ``retro``, if
    given, is called as retro(phi_k(axes), phi_k^{-1}), and the values it
    returns follow those of condition a in the first item."""
    phi = seq.at(k)
    image = phi.transform(axes)
    conds_a = tuple(float(np.max(np.abs(x._eval(image) - 1.0))) for x in factors)
    inverse = auto_inverse(phi)
    cond_b = float(np.max(np.abs(projected._eval(inverse.transform(axes)) - 1.0)))
    if retro is not None:
        conds_a += retro(image, inverse)
    return conds_a, cond_b


def retro_condition_values(images, approximant, eps_j, image, inverse):
    """Per earlier image compact in ``images``, a bound on |x - 1| there for
    the factor x that ``build_factor`` makes from ``approximant`` A at the
    index k whose image of the probe is ``image`` and whose inverse is
    ``inverse``: sup |A o phi_k^{-1} - 1| on the image, plus
    eps_j * eta / (2 * eta_i) for the lambda-corrector psi, as
    |psi - 1| <= 2 * 2^-idx / eta_i at depth eta_i (``make_corrector``) and
    idx >= log2(4 / (eta * eps_j)) at the depth eta of phi_k(probe)
    (``_corrector_index_for``). As |psi| <= 1, values within the budget
    imply the retroactive check, up to rounding."""
    eta = _depth(image)
    return tuple(
        float(np.max(np.abs(approximant._eval(inverse.transform(img)) - 1.0)))
        + eps_j * eta / (2.0 * _depth(img))
        for img in images
    )


def _depth(points: PointAxes) -> float:
    """min over ``points`` of 1 - |z_1|, the distance of z_1 from the circle."""
    return float(np.min(1.0 - np.abs(points.coords[0])))


def _automorphism_key(phi) -> tuple:
    """``phi``'s permutation and the bits of its factors' alphas and
    thetas: automorphisms with equal keys are the same map, and 0.0 and
    -0.0 give different keys."""
    return phi.perm, struct.pack(
        f"{3 * len(phi.factors)}d",
        *itertools.chain.from_iterable(
            (f.alpha.real, f.alpha.imag, f.theta) for f in phi.factors),
    )


def choose_stage_index(
    selection: SubsequenceSelection,
    axes: PointAxes,
    factors,
    projected: HoloFunction,
    j: int,
    floor: int,
    delta: float,
    k_max: int,
    retro=None,
):
    """Smallest admissible subsequence index above ``floor``, with both
    conditions measured on the probe grid ``axes``; returns (index, the
    per-factor condition a values, condition b) at that index. ``retro``, if
    given, is passed on to ``stage_condition_values``, and the values it
    gives count with condition a but are not returned
    (``retro_condition_values``).

    Both conditions contract as the parameters approach the boundary, close
    to a power law in k + 1, so the search predicts where the larger of
    them meets the tolerance instead of walking there. Values are fitted as
    (log(k + 1), log(value / tolerance)):

      - bracketing takes doubling steps from the first member, as a plain
        doubling search does, and before each tries a jump to where the
        secant through the two latest inadmissible steps meets the
        tolerance, a little beyond: never short of the doubling step, never
        past ``k_max`` (a secant that does not fall jumps to the last
        member up to it). An admissible jump closes the bracket; an
        inadmissible one, or one ``seq.at`` cannot represent
        (``ValidityError``), leaves the doubling steps to go on;
      - refinement is Illinois regula falsi between the bracket's ends,
        with a bisection step after any regula falsi step that did not
        halve the bracket's log width, and wherever a value is zero or
        not finite.

    Each step lands on ``selection.member_from(step, bound)``, the bound
    being ``k_max``, or below the upper end while refining; only probes
    evaluate the sequence. It stops where bisection stops: the upper end
    admissible and no member strictly between the ends. So the index is
    the smallest admissible member whenever admissibility is monotone
    along the members, and otherwise an admissible member whose preceding
    member is not.
    ``SequenceExhausted`` is raised only where the doubling steps and the
    last member up to ``k_max`` are all inadmissible; a doubling step that
    ``seq.at`` cannot represent raises its ``ValidityError``.

    The values at k, ``retro``'s among them, are computed from phi_k's image
    of the grid and its inverse alone, so indices whose ``seq.at`` is the
    same map, bit for bit (``_automorphism_key``), share them; near the
    boundary, where 1 - rate/(k + 1) rounds to one value over long runs of
    indices, many do. Each probe first builds phi_k, and only one at an
    automorphism not met before in this search calls
    ``stage_condition_values``: no automorphism is evaluated twice.
    """
    seq = selection.sequence
    tol = delta * math.ldexp(1.0, -j)
    best = {"index": None, "condition_a": math.inf, "condition_b": math.inf}
    probed = {}
    extra = {}  # index -> the values of ``retro`` there
    evaluated = {}  # automorphism key -> stage_condition_values there

    def admissible(k: int) -> bool:
        if k not in probed:
            key = _automorphism_key(seq.at(k))
            if key not in evaluated:
                evaluated[key] = stage_condition_values(
                    seq, axes, factors, projected, k, retro)
            values, b = evaluated[key]
            conds, extra[k] = values[: len(factors)], values[len(factors) :]
            probed[k] = (k, conds, b)
            a = max((0.0, *conds))
            if max(a, b) < max(best["condition_a"], best["condition_b"]):
                best.update({"index": k, "condition_a": a, "condition_b": b})
        _, conds, b = probed[k]
        return max((0.0, *conds, *extra[k])) <= tol and b <= tol

    def level(k: int):
        # log(value / tol) of a probed index, None where no power law
        # passes through its value (zero or not finite)
        _, conds, b = probed[k]
        values = (*conds, b, *extra[k])
        if not all(map(math.isfinite, values)) or max(values) <= 0.0:
            return None
        return math.log(max(values) / tol)

    start = selection.member_from(floor + 1, k_max)
    if start is None or start <= floor:
        raise SequenceExhausted("no subsequence member above the floor", best)
    if admissible(start):
        return probed[start]

    lo, below, hi = start, None, None  # below: the inadmissible probe before lo
    step = 1
    while hi is None:
        step *= 2
        doubling = start + step
        jump = None if below is None else _crossing_jump(
            below, level(below), lo, level(lo), k_max)
        if jump is not None and jump > doubling:
            candidate = selection.member_from(jump, k_max)
            # an inadmissible or unrepresentable jump moves no end: where
            # admissibility oscillates along the members, an admissible
            # member may still lie below it, so the doubling steps go on
            with contextlib.suppress(ValidityError):
                if admissible(candidate):
                    hi = candidate
                    break
        candidate = selection.member_from(doubling, k_max)
        if admissible(candidate):
            hi = candidate
        elif candidate < doubling:  # no member from the doubling step to k_max
            raise SequenceExhausted(f"no admissible index within k_max={k_max} at "
                                    f"stage {j} (tolerance {tol:.3e})", best)
        elif candidate != lo:  # sparse members: a doubling step can land on lo
            below, lo = lo, candidate

    w_lo = w_hi = 1.0  # Illinois weights of the ends' levels
    moved = None  # the end the previous step replaced
    bisect = False
    while True:
        first = selection.member_from(lo + 1, hi - 1)
        if first <= lo:
            return probed[hi]
        x_lo, x_hi = math.log(lo + 1.0), math.log(hi + 1.0)
        y_lo, y_hi = level(lo), level(hi)
        falsi = not bisect and y_lo is not None and y_hi is not None
        if falsi:
            y_lo, y_hi = w_lo * y_lo, w_hi * y_hi
            x = x_lo + (x_hi - x_lo) * y_lo / (y_lo - y_hi)
            target = math.ceil(math.exp(x) - 1.0)
        else:
            target = lo + (hi - lo) // 2
        member = selection.member_from(max(target, first), hi - 1)
        # an end kept by two steps in a row has its level halved
        if admissible(member):
            hi, w_hi = member, 1.0
            if moved == "hi":
                w_lo *= 0.5
            moved = "hi"
        else:
            lo, w_lo = member, 1.0
            if moved == "lo":
                w_hi *= 0.5
            moved = "lo"
        bisect = falsi and math.log((hi + 1.0) / (lo + 1.0)) > 0.5 * (x_hi - x_lo)


def _crossing_jump(k0: int, y0, k1: int, y1, k_max: int):
    """Index a little past where the power law through the levels ``y0``
    at ``k0`` and ``y1`` at ``k1 > k0`` reaches level 0, at most ``k_max``;
    ``k_max`` when it does not fall, None when a level is None."""
    if y0 is None or y1 is None:
        return None
    x1 = math.log(k1 + 1.0)
    slope = (y1 - y0) / (x1 - math.log(k0 + 1.0))
    if slope >= 0.0:
        return k_max
    x = x1 - y1 / slope + _JUMP_OVERSHOOT
    if x >= math.log(k_max + 1.0):
        return k_max
    return math.ceil(math.exp(x) - 1.0)


# ---------------------------------------------------------------------------
# factor construction

def _corrector_index_for(j: int, j_min: int, eta: float, eps_j: float) -> int:
    """Raise the corrector index until the corrector is invisible at depth
    eta: |psi - 1| <= 2 * 2^-idx / eta <= eps_j / 2."""
    if eta <= 0.0:
        raise PrecisionExhausted(
            f"stage {j} image compact reaches the boundary in binary64 "
            f"(eta = {eta!r}); no corrector index can be invisible there",
            eta, None, _MAX_CORRECTOR_INDEX,
        )
    adaptive = math.ceil(math.log2(4.0 / (eta * eps_j)))
    idx = max(j_min, j + j_min, adaptive)
    if idx > _MAX_CORRECTOR_INDEX:
        raise PrecisionExhausted(
            f"stage {j} needs corrector index {idx}, past the cap of "
            f"{_MAX_CORRECTOR_INDEX} that binary64 resolves; the image compact "
            f"is too close to the boundary (eta = {eta!r})",
            eta, idx, _MAX_CORRECTOR_INDEX,
        )
    return idx


def build_factor(
    config: EngineConfig,
    lam: TorusPoint,
    j: int,
    n_j: int,
    projected: HoloFunction,
    prior_images,
):
    """Pin-lambda factor for stage j at index n_j.

    The factor's approximant is the exact pullback of the projected target
    A through phi_{n_j}^{-1}, so on earlier image compacts the factor tends
    to A(gamma) = 1 as n_j grows. Its interference there is checked, not
    assumed, and raises past the budget; so does a fidelity past epsilon_j.

    Returns (factor, corrector index, phi_{n_j}(probe), retroactive values,
    fidelity, roundtrip error), the last the probe sup of A through
    phi_{n_j} o phi_{n_j}^{-1} against itself.
    """
    seq = config.sequence
    axes = config.probe.axes()
    phi = seq.at(n_j)
    image = phi.transform(axes)

    eps_j = config.stage_tolerance(j)
    idx = _corrector_index_for(j, config.j_min, _depth(image), eps_j)
    inverse = auto_inverse(phi)
    pulled = pullback(projected, inverse)
    factor = make_generating_element(idx, lam, pulled)

    budget = config.delta * math.ldexp(1.0, -j)
    retro = tuple(
        float(np.max(np.abs(factor.product._eval(img) - 1.0))) for img in prior_images
    )
    if any(v > budget for v in retro):
        raise InterferenceBudgetExceeded(
            f"stage {j} factor disturbs earlier images beyond {budget:.3e}",
            {"retro": retro},
        )

    target = projected._eval(axes)
    fidelity = float(np.max(np.abs(factor.product._eval(image) - target)))
    if fidelity > eps_j:
        raise InterferenceBudgetExceeded(
            f"stage {j} fidelity {fidelity:.3e} exceeds epsilon_j {eps_j:.3e}",
            {"fidelity": fidelity},
        )
    back = phi.transform(inverse.transform(axes))
    roundtrip = float(np.max(np.abs(projected._eval(back) - target)))
    return factor, idx, image, retro, fidelity, roundtrip


# ---------------------------------------------------------------------------
# the full run

def run_universality(config: EngineConfig) -> UniversalityRun:
    """Execute all stages; deterministic for a fixed config.

    Selection failures raise; an ``InnerOrbitError`` within a stage returns
    a partial run with a failure annotation.
    """
    validate_targets(config)
    selection = select_subsequence(
        config.sequence,
        config.selection_horizon,
        config.angle_tol,
        config.boundary_tol,
    )
    lam, gamma = selection.lam, selection.gamma
    axes = config.probe.axes()
    seq = config.sequence

    stages: list = []
    factors: list = []
    images: list = []
    run = UniversalityRun(
        selection=selection,
        stages=stages,
        product=None,
        verification=[],
        config=config,
    )

    floor = 0
    for j, target in enumerate(config.targets, start=1):
        eps_j = config.stage_tolerance(j)
        try:
            projected, proj_err = project_to_family(
                target, gamma, eps_j / 2.0, config.probe, config.schur_depth)
            search = functools.partial(
                choose_stage_index, selection, axes, [x.product for x in factors],
                projected, j, delta=config.delta, k_max=config.k_max,
            )
            n_j, conds_a, cond_b = search(floor)
            try:
                built = build_factor(config, lam, j, n_j, projected, images)
            except InterferenceBudgetExceeded:
                bounds = functools.partial(retro_condition_values, images,
                                           projected, eps_j)
                n_j, conds_a, cond_b = search(n_j, retro=bounds)
                built = build_factor(config, lam, j, n_j, projected, images)
            factor, idx, image, retro, fidelity, roundtrip = built
        except InnerOrbitError as exc:
            run.failure = {
                "stage": j,
                "error": type(exc).__name__,
                "message": str(exc),
            }
            return run

        stages.append(
            StageRecord(
                stage=j,
                chosen_index=n_j,
                corrector_index=idx,
                projected=projected,
                factor=factor,
                fidelity=fidelity,
                projection_error=proj_err,
                condition_a=conds_a,
                condition_b=cond_b,
                retro_interference=retro,
                roundtrip_error=roundtrip,
            )
        )
        factors.append(factor)
        images.append(image)
        floor = n_j

    run.product = product_of(tuple(x.product for x in factors))
    for row in verify_orbit(
        run.product, seq, config.targets, config.probe, 0, run.recorded_indices()
    ):
        bound = (
            config.stage_tolerance(row["target"])
            + config.delta
            + stages[row["target"] - 1].projection_error
        )
        run.verification.append({**row, "bound": bound})
    return run


def verify_orbit(
    x: HoloFunction, seq, targets, probe: CompactProbe, horizon: int, indices=None
):
    """Fresh orbit sweep, independent of any engine bookkeeping.

    Scans k in ``indices`` when given (the recorded stage indices of a run,
    typically), otherwise all of 1..horizon; returns per target the first
    index, in scan order, where the probe sup is smallest, and that sup.

    Indices are checked before any work: below 1, past an explicit
    sequence's end, or past the k where 1 - rate/(k+1) rounds to 1
    (``seq.batch`` raises ``at``'s own ``ValidityError``). Each bound is
    monotone in k, so the least and the greatest index stand for all of
    them.

    Indices are evaluated in chunks, whose factors ``seq.batch`` gives as
    arrays, bit for bit those of ``seq.at``; each permutation's share of a
    chunk is one tree evaluation on a leading index axis
    (``transform_batch``), and every point goes through the floating-point
    operations of evaluating one index at a time, so the values are those
    bit for bit. No automorphism is built per index.

    The sweep is pruned, and exactly so. A point's value does not depend on
    the array it is evaluated in, so the sup of |x o phi_k - f_i| over
    ``outer_ring``, every few angles of the grid (``_RING_ANGLES`` per
    coordinate), is a lower bound L_i(k) on the grid sup, bit for bit. Per
    chunk, each target's index of least bound is evaluated on the whole
    grid, where it can lower that target's best value so far, U_i; then
    only the indices with L_i(k) <= U_i for some target are. Any other
    index has a sup above a value already reached, so the rows are those of
    the unpruned sweep. The bound is also tight: x o phi_k - f_i is
    holomorphic, so by the maximum principle its sup over the probe sits on
    r T^n (Rudin, *Function Theory in Polydiscs*, 1969), which the grid and,
    more coarsely, the ring sample. Each index is evaluated on the whole
    grid at most once, and memory holds one chunk at a time.

    The last chunk runs first, then the others in scan order. A row moves
    to an index whose sup is smaller, or equal and earlier in scan order,
    so the rows do not depend on the order, which changes only how much is
    pruned. On a sweep toward a stage index, where the sup falls at every
    index, the last chunk sets U_i near its final value at once. On a sweep
    past the best index, where the sup rises after it, the scan order
    reaches that index before the indices after it.

    A ``PoleHit`` (a Moebius denominator below ``POLE_TOL``) is raised only
    at points that are evaluated: the ring points of every index, and every
    grid point of the indices not pruned. A pruned index with a rounding
    pole elsewhere on the grid is skipped without raising, where the
    unpruned sweep raised. Mathematically x o phi_k is bounded by 1 there,
    and its ring bound already exceeds a value reached, so it cannot win.
    """
    length = seq.length
    if indices is None:
        top = horizon if length is None else min(horizon, length)
        # sliced chunk by chunk, never listed: its ends bound it
        indices = range(1, top + 1)
        ends = (indices[0], indices[-1]) if indices else ()
    else:
        indices = [int(k) for k in indices]
        ends = (min(indices), max(indices)) if indices else ()
    if not indices:
        raise ValidityError("no orbit indices to check")
    if ends[0] < 1:
        raise ValidityError(f"orbit indices start at 1, got {ends[0]}")
    if length is not None and ends[1] > length:
        raise ValidityError(
            f"orbit index {ends[1]} is past the sequence length {length}")
    seq.batch(ends)
    grid, ring = probe.axes(), probe.outer_ring(_RING_ANGLES)
    grid_targets = [t._eval(grid) for t in targets]
    ring_targets = [t._eval(ring) for t in targets]
    # per target: the least sup so far, its place in the scan, its index
    reached = [(math.inf, math.inf, None)] * len(targets)
    # a chunk's ring points and a batch's grid points stay within _BATCH_POINTS
    size = max(1, _BATCH_POINTS // _RING_ANGLES**probe.dimension)
    batch = max(1, _BATCH_POINTS // grid.shape[0])
    starts = range(0, len(indices), size)
    # the last chunk first, then the others in scan order
    for lo in itertools.chain(starts[-1:], starts[:-1]):
        chunk = indices[lo : lo + size]
        _sweep_chunk(x, chunk, lo, seq.batch(chunk), (grid, grid_targets),
                     (ring, ring_targets), batch, reached)
    return [{"target": i + 1, "best_index": k, "value": value}
            for i, (value, _, k) in enumerate(reached)]


def _sweep_chunk(x, chunk, start, groups, grid, ring, batch, reached) -> None:
    """Fold the orbit indices ``chunk``, from place ``start`` of the scan on,
    whose factors are ``groups`` in the form of ``seq.batch``, into
    ``reached``, pruned as ``verify_orbit`` describes; ``grid`` and ``ring``
    are (points, target values there), and ``batch`` indices at most go
    into one evaluation on the grid."""
    bounds = _orbit_errors(x, groups, *ring)
    values = {}  # position in the chunk -> grid sup per target

    def evaluate(positions):
        for lo in range(0, len(positions), batch):
            part = positions[lo : lo + batch]
            place = np.full(len(chunk), -1)
            place[part] = np.arange(len(part))
            errors = _orbit_errors(x, _take(groups, place), *grid)
            values.update(zip(part, errors.T.tolist()))

    # each target's least bound, where it can lower or tie the target's
    # best value
    upper = np.array([value for value, _, _ in reached])
    least = sorted({int(np.argmin(b)) for b, u in zip(bounds, upper) if b.min() <= u})
    evaluate(least)
    for pos in least:
        upper = np.fmin(upper, values[pos])
    rest = np.flatnonzero((bounds <= upper[:, np.newaxis]).any(axis=0)).tolist()
    evaluate([p for p in rest if p not in values])
    for pos, errors in values.items():
        for i, err in enumerate(errors):
            if (err, start + pos) < reached[i][:2]:
                reached[i] = (err, start + pos, chunk[pos])


def _take(groups, place) -> list:
    """``groups`` in the form of ``seq.batch``, cut to the positions p with
    place[p] >= 0, each moved to position place[p]."""
    taken = []
    for perm, positions, alphas, phases in groups:
        moved = place[positions]
        keep = moved >= 0
        if keep.any():
            taken.append((perm, moved[keep], alphas[keep], phases[keep]))
    return taken


def _orbit_errors(x, groups, axes, target_grids) -> np.ndarray:
    """errors[i, pos] is the sup over ``axes`` of |x o phi - target i|, phi
    the automorphism at position ``pos`` of ``groups`` (the form of
    ``seq.batch``, positions 0..K-1), ``target_grids[i]`` holding the
    target's values there; each group is one tree evaluation."""
    errors = np.empty((len(target_grids), sum(len(g[1]) for g in groups)))
    for perm, positions, alphas, phases in groups:
        xv = x._eval(transform_batch(perm, alphas, phases, axes))
        for i, tgrid in enumerate(target_grids):
            diff = np.abs(xv - tgrid)
            errors[i, positions] = np.max(diff, axis=tuple(range(1, diff.ndim)))
    return errors
