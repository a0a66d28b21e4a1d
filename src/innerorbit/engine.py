"""Staged construction of a finite universal product.

Given a sequence of automorphisms whose Moebius parameters approach the
distinguished boundary, the engine stabilizes a subsequence with constant
permutation and convergent angles (limit points lambda for the forward
maps, gamma for the inverses), projects each target onto the pin-gamma
family, and builds one pin-lambda factor per target:

  - stage index n_j is the smallest admissible subsequence index above the
    previous one such that every earlier factor composed with phi_{n_j} is
    within delta * 2^-j of the constant 1 on the probe, and the projected
    target composed with phi_{n_j}^{-1} is too;
  - the factor x_j pulls the projected target's approximant back through
    phi_{n_j}^{-1} (exact in the Blaschke class) and re-pins it at lambda
    with a corrector whose index is raised until it is invisible at the
    depth the image phi_{n_j}(probe) reaches toward the boundary;
  - a retroactive check bounds |x_j - 1| on all earlier image compacts,
    escalating the index search on failure.

The final product x = x_1 * ... * x_J is inner, continuous on the closed
polydisk, and its orbit x o phi_{n_j} lands within epsilon_j + delta +
projection tolerance of target j on the probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .automorphisms import (
    SubsequenceSelection,
    auto_inverse,
    select_subsequence,
    transform_batch,
)
from .errors import (
    InterferenceBudgetExceeded,
    ProjectionFailed,
    SequenceExhausted,
    UnsupportedTargetShape,
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

#: hard ceiling on corrector indices; beyond this 1 - 2^-j is within a few
#: ulps of 1 and the factor stops being representable
_MAX_CORRECTOR_INDEX = 48

#: probe points one batched orbit evaluation covers: a chunk of the sweep
#: holds max(1, _BATCH_POINTS // points per index) indices. On the
#: orbit-sweep benchmark (2-vCPU VM, the CLI's allocator policy in place)
#: this size halves op_s_tail against one index at a time for about 0.5 MiB
#: more peak RSS; 16 384 adds about 1 MiB for no measurable speed
_BATCH_POINTS = 12_288

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
    max_escalations: int = 5

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
    projected: GeneratingElement
    factor: GeneratingElement
    fidelity: float
    projection_error: float
    condition_a: tuple
    condition_b: float
    retro_interference: tuple
    roundtrip_error: float
    escalations: int


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

def _schur_one_variable(f1: HoloFunction, depth: int):
    coeffs = taylor_coeffs(f1, 2 * depth)
    tree, _ = schur_project_adaptive(coeffs, depth, 1.0)
    return tree


def _approximant_for(f: HoloFunction, depth: int) -> HoloFunction:
    """Inner, closure-continuous approximant of a ball-function tree.

    Blaschke-type trees pass through exactly; anything else is
    Schur-projected, per variable when multivariate (product form only).
    """
    flat = flatten(f)
    if is_blaschke_type(flat):
        return flat
    n = flat.dimension
    if n == 1:
        return _schur_one_variable(flat, depth)
    constant, buckets = factor_product_form(flat)
    if not buckets:
        one_var = Constant(constant, 1)
        return remap_coordinates(_schur_one_variable(one_var, depth), {1: 1}, n)
    parts = []
    carrier = min(buckets)
    for coord in sorted(buckets):
        one_var = product_of(
            tuple(remap_coordinates(node, {coord: 1}, 1) for node in buckets[coord])
        )
        if coord == carrier and constant != 1.0:
            one_var = product_of((Constant(constant, 1), one_var))
        if is_blaschke_type(one_var):
            projected = one_var
        else:
            projected = _schur_one_variable(one_var, depth)
        parts.append(remap_coordinates(projected, {1: coord}, n))
    return product_of(tuple(parts))


def project_to_family(
    f: HoloFunction,
    pin: TorusPoint,
    j: int,
    tol: float,
    probe: CompactProbe,
    depth: int = 16,
) -> tuple[GeneratingElement, float]:
    """Project a ball function onto the pinned generating family; returns
    (element, probe sup of element - f).

    The approximant reproduces f within tol on the probe; the corrector adds
    at most (1+r)/(1-r) * 2^-j on a radius-r probe, so the element stays
    within tol + 8 * 2^-j of f there.
    """
    approximant = _approximant_for(f, depth)
    achieved = probe_sup(approximant, f, probe)
    if achieved > tol:
        raise ProjectionFailed(achieved=achieved, requested=tol)
    element = make_generating_element(j, pin, approximant)
    return element, probe_sup(element.product, f, probe)


# ---------------------------------------------------------------------------
# stage index search

def stage_condition_values(
    seq, axes: PointAxes, factors, projected: HoloFunction, k: int
):
    """((sup |x_i o phi_k - 1| for each earlier factor x_i),
        sup |f~ o phi_k^{-1} - 1|) on the probe grid ``axes``."""
    phi = seq.at(k)
    image = phi.transform(axes)
    conds_a = tuple(float(np.max(np.abs(x._eval(image) - 1.0))) for x in factors)
    pre = auto_inverse(phi).transform(axes)
    cond_b = float(np.max(np.abs(projected._eval(pre) - 1.0)))
    return conds_a, cond_b


def choose_stage_index(
    selection: SubsequenceSelection,
    axes: PointAxes,
    factors,
    projected: HoloFunction,
    j: int,
    floor: int,
    delta: float,
    k_max: int,
):
    """Smallest admissible subsequence index above ``floor``, with both
    conditions measured on the probe grid ``axes``; returns (index, the
    per-factor condition a values, condition b) at that index.

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

    It stops where bisection stops: the upper end admissible and no member
    strictly between the ends. So the index is the smallest admissible
    member whenever admissibility is monotone along the members, and
    otherwise an admissible member whose preceding member is not.
    ``SequenceExhausted`` is raised only where the doubling steps and the
    last member up to ``k_max`` are all inadmissible; a doubling step that
    ``seq.at`` cannot represent raises its ``ValidityError``. Each probe is
    one ``stage_condition_values`` call, and no index is probed twice.
    """
    seq = selection.sequence
    tol = delta * math.ldexp(1.0, -j)
    best = {"index": None, "condition_a": math.inf, "condition_b": math.inf}
    probed = {}

    def admissible(k: int) -> bool:
        if k not in probed:
            conds, b = stage_condition_values(seq, axes, factors, projected, k)
            probed[k] = (k, conds, b)
            a = max((0.0, *conds))
            if max(a, b) < max(best["condition_a"], best["condition_b"]):
                best.update({"index": k, "condition_a": a, "condition_b": b})
        _, conds, b = probed[k]
        return max((0.0, *conds)) <= tol and b <= tol

    def level(k: int):
        # log(value / tol) of a probed index, None where no power law
        # passes through its value (zero or not finite)
        _, conds, b = probed[k]
        values = (*conds, b)
        if not all(map(math.isfinite, values)) or max(values) <= 0.0:
            return None
        return math.log(max(values) / tol)

    def last_member(top: int, bottom: int):
        # largest member in (bottom, top]; schedules cycle with short
        # periods, so a short backward scan suffices
        for k in range(top, max(bottom, top - 64), -1):
            if selection.contains(k):
                return k
        return None

    start = selection.next_member(floor + 1)
    if start is None or start > k_max:
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
            try:
                candidate = selection.next_member(jump)
                if candidate is None or candidate > k_max:
                    candidate = last_member(k_max, lo)
            except ValidityError:
                candidate = None
            # an inadmissible jump moves no end: where admissibility
            # oscillates along the members, an admissible member may still
            # lie below it, so the doubling steps go on
            if candidate is not None and admissible(candidate):
                hi = candidate
                break
        candidate = selection.next_member(doubling)
        if candidate is None or candidate > k_max:
            final = last_member(k_max, lo)
            if final is not None and admissible(final):
                hi = final
                break
            raise SequenceExhausted(
                f"no admissible index within k_max={k_max} at stage {j} "
                f"(tolerance {tol:.3e})",
                best,
            )
        if admissible(candidate):
            hi = candidate
        elif candidate != lo:  # sparse members: a doubling step can land on lo
            below, lo = lo, candidate

    w_lo = w_hi = 1.0  # Illinois weights of the ends' levels
    moved = None  # the end the previous step replaced
    bisect = False
    while True:
        first = selection.next_member(lo + 1)
        if first is None or first >= hi:
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
        member = selection.next_member(max(target, first))
        if member is None or member >= hi:
            member = last_member(hi - 1, lo) or first
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
        raise InterferenceBudgetExceeded(
            f"stage {j} image compact reaches the boundary in binary64 "
            f"(eta = {eta!r}); no corrector index can be invisible there",
            {"eta": eta},
        )
    adaptive = math.ceil(math.log2(4.0 / (eta * eps_j)))
    idx = max(j_min, j + j_min, adaptive)
    if idx > _MAX_CORRECTOR_INDEX:
        raise InterferenceBudgetExceeded(
            f"stage {j} needs corrector index {idx}, past the cap of "
            f"{_MAX_CORRECTOR_INDEX} that binary64 resolves; the image compact "
            f"is too close to the boundary (eta = {eta!r})",
            {"eta": eta},
        )
    return idx


def build_factor(
    config: EngineConfig,
    lam: TorusPoint,
    j: int,
    n_j: int,
    projected: GeneratingElement,
    prior_images,
):
    """Pin-lambda factor for stage j at index n_j.

    The approximant is the exact pullback of the projected target's
    approximant through phi_{n_j}^{-1}; the projected target's own corrector
    is not pulled back (it is within (1+r)/(1-r)*2^-index of 1 on the probe
    already, and its pullback would swing wildly near lambda). Retroactive
    interference on earlier image compacts is checked, not assumed.
    """
    seq = config.sequence
    axes = config.probe.axes()
    phi = seq.at(n_j)
    image = phi.transform(axes)

    pulled = pullback(projected.approximant, auto_inverse(phi))
    eta = float(np.min(1.0 - np.abs(image.coords[0])))
    eps_j = config.stage_tolerance(j)
    idx = _corrector_index_for(j, config.j_min, eta, eps_j)
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

    fidelity = float(
        np.max(np.abs(factor.product._eval(image) - projected.product._eval(axes)))
    )
    if fidelity > eps_j:
        raise InterferenceBudgetExceeded(
            f"stage {j} fidelity {fidelity:.3e} exceeds epsilon_j {eps_j:.3e}",
            {"fidelity": fidelity},
        )
    return factor, idx, image, retro, fidelity


# ---------------------------------------------------------------------------
# the full run

def run_universality(config: EngineConfig) -> UniversalityRun:
    """Execute all stages; deterministic for a fixed config.

    Selection failures raise; stage failures return a partial run with a
    failure annotation.
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
                target, gamma, j + config.j_min, eps_j / 2.0, config.probe,
                config.schur_depth,
            )
            escalations = 0
            search_floor = floor
            while True:
                n_j, conds_a, cond_b = choose_stage_index(
                    selection, axes, [x.product for x in factors],
                    projected.product, j, search_floor, config.delta, config.k_max,
                )
                try:
                    factor, idx, image, retro, fidelity = build_factor(
                        config, lam, j, n_j, projected, images
                    )
                    break
                except InterferenceBudgetExceeded as exc:
                    escalations += 1
                    # an image on the circle or past the corrector cap
                    # (both carry eta) only moves closer to the circle at a
                    # deeper index
                    if escalations > config.max_escalations or "eta" in exc.values:
                        raise
                    search_floor = 4 * n_j
        except (
            SequenceExhausted,
            InterferenceBudgetExceeded,
            ProjectionFailed,
            UnsupportedTargetShape,
            ValidityError,
        ) as exc:
            run.failure = {
                "stage": j,
                "error": type(exc).__name__,
                "message": str(exc),
            }
            return run

        phi = seq.at(n_j)
        pre = auto_inverse(phi).transform(axes)
        roundtrip = float(
            np.max(
                np.abs(
                    projected.product._eval(phi.transform(pre))
                    - projected.product._eval(axes)
                )
            )
        )
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
                escalations=escalations,
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

    Indices are evaluated in chunks, each permutation's share of a chunk in
    one tree evaluation on a leading index axis (``transform_batch``); every
    point goes through the floating-point operations of evaluating one
    index at a time, so the values are those bit for bit.
    """
    length = seq.length
    if indices is None:
        top = horizon if length is None else min(horizon, length)
        # sliced chunk by chunk, never listed: its ends bound it
        indices = range(1, top + 1)
        checked = (indices[0], indices[-1]) if indices else ()
    else:
        indices = checked = [int(k) for k in indices]
    if not indices:
        raise ValidityError("no orbit indices to check")
    for k in checked:
        if k < 1:
            raise ValidityError(f"orbit indices start at 1, got {k}")
        if length is not None and k > length:
            raise ValidityError(f"orbit index {k} is past the sequence length {length}")
    axes = probe.axes()
    target_grids = [t._eval(axes) for t in targets]
    best = [{"target": i + 1, "best_index": None, "value": math.inf}
            for i in range(len(targets))]
    size = max(1, _BATCH_POINTS // axes.shape[0])
    for lo in range(0, len(indices), size):
        chunk = indices[lo : lo + size]
        # a helper, so a chunk's automorphisms are freed before the next's
        errors = _orbit_errors(x, [seq.at(k) for k in chunk], axes, target_grids)
        for pos, k in enumerate(chunk):
            for i, err in enumerate(errors[:, pos].tolist()):
                if err < best[i]["value"]:
                    best[i] = {"target": i + 1, "best_index": k, "value": err}
    return best


def _orbit_errors(x, autos, axes, target_grids) -> np.ndarray:
    """errors[i, pos] is the probe sup of |x o autos[pos] - target i|; each
    permutation's share of ``autos`` is one tree evaluation."""
    groups: dict = {}
    for pos, phi in enumerate(autos):
        groups.setdefault(phi.perm, []).append(pos)
    errors = np.empty((len(target_grids), len(autos)))
    for positions in groups.values():
        xv = x._eval(transform_batch([autos[p] for p in positions], axes))
        for i, tgrid in enumerate(target_grids):
            diff = np.abs(xv - tgrid)
            errors[i, positions] = np.max(diff, axis=tuple(range(1, diff.ndim)))
    return errors
