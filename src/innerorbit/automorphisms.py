"""Polydisk automorphisms in normal form, and boundary-concentrating sequences.

An automorphism of the unit polydisk is a permutation of coordinates
followed by one disk Moebius map per coordinate:

    phi(z)_j = e^{i theta_j} (alpha_j - z_{p(j)}) / (1 - conj(alpha_j) z_{p(j)})

This module provides exact evaluation, inversion, closed-form composition,
sequence generators, and the subsequence selector that stabilizes the
permutation and the angle vector and extracts the distinguished-boundary
limit points of a sequence and of its inverses.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySelection,
    EvaluationOutsideDomain,
    NoBoundaryConvergence,
    PoleHit,
    ValidityError,
)
from .geometry import CLOSURE_TOL, CPoint, PointAxes, TorusPoint

TWO_PI = 2.0 * math.pi

#: a Moebius denominator below this is treated as a pole hit
POLE_TOL = 1e-15


def normalize_angle(theta: float) -> float:
    """Map an angle into (-pi, pi]."""
    r = math.remainder(float(theta), TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


def _moebius(alpha, phase, z: np.ndarray) -> np.ndarray:
    """phase * (alpha - z) / (1 - conj(alpha) z) on an array ``z``; ``alpha``
    and ``phase`` are scalars or arrays that broadcast against it.

    Every product names its operand order: from 16 384 points up numpy
    reuses a temporary and computes ``a * b`` as b * a, and complex multiply
    is not bitwise commutative.
    """
    den = 1.0 - np.multiply(np.conjugate(alpha), z)
    mods = np.abs(den)
    if np.min(mods) < POLE_TOL:
        bad = np.broadcast_to(alpha, den.shape).flat[np.argmin(mods)]
        raise PoleHit(f"denominator vanished for factor alpha={complex(bad)}")
    return np.multiply(phase, alpha - z) / den


@dataclass(frozen=True)
class MobiusFactor:
    """One disk automorphism z -> e^{i theta} (alpha - z)/(1 - conj(alpha) z).

    Maps the open disk onto itself, the circle onto the circle, and has its
    zero at alpha.
    """

    alpha: complex
    theta: float

    def __post_init__(self):
        alpha = complex(self.alpha)
        if abs(alpha) >= 1.0:
            raise ValidityError(f"|alpha| = {abs(alpha):.17g} is not < 1")
        if not math.isfinite(self.theta):
            raise ValidityError(f"theta = {self.theta!r} is not finite")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    @property
    def phase(self) -> complex:
        return cmath.exp(1j * self.theta)

    def __call__(self, z):
        """Evaluate at a complex scalar or numpy array."""
        return _moebius(self.alpha, self.phase, z)

    def inverse(self) -> "MobiusFactor":
        """The factor with alpha' = e^{i theta} alpha, theta' = -theta."""
        return MobiusFactor(alpha=self.phase * self.alpha, theta=-self.theta)


def mobius_compose(outer: MobiusFactor, inner: MobiusFactor) -> MobiusFactor:
    """Normal form of z -> outer(inner(z)), in closed form.

    In the 2x2 matrix form of disk automorphisms, with u = e^{i theta} and
    c = 1 - a_o conj(a_i) conj(u_i), the composite has its zero at
    (a_i - a_o conj(u_i)) / c and the unimodular constant
    -u_o u_i c / conj(c). theta is the phase of that product: the angle sum
    theta_o + theta_i + pi + 2 arg c rounds to about twice the error.
    """
    u_i = inner.phase
    c = 1.0 - outer.alpha * inner.alpha.conjugate() * u_i.conjugate()
    alpha = (inner.alpha - outer.alpha * u_i.conjugate()) / c
    theta = cmath.phase(-(outer.phase * u_i) * (c / c.conjugate()))
    return MobiusFactor(alpha=alpha, theta=theta)


def check_direction(direction) -> tuple:
    """``direction`` as complex numbers within 1e-12 of the unit circle,
    each put on it: alpha must leave the disk only where 1 - rate/(k+1)
    rounds to 1."""
    direction = tuple(complex(d) for d in direction)
    for d in direction:
        if abs(abs(d) - 1.0) > 1e-12:
            raise ValidityError("direction coordinates must be unimodular")
    return tuple(d / abs(d) for d in direction)


def check_rate(rate: float) -> float:
    """``rate`` once it lies in (0, 1]."""
    if not 0.0 < rate <= 1.0:
        raise ValidityError(f"rate {rate} not in (0, 1]")
    return rate


def _check_perm(perm: tuple, n: int) -> None:
    if sorted(perm) != list(range(n)):
        raise ValidityError(f"{perm} is not a permutation of 0..{n - 1}")


@dataclass(frozen=True)
class PolydiskAutomorphism:
    """Permutation plus per-coordinate Moebius factors.

    ``perm`` is stored zero-based: output coordinate j reads input
    coordinate perm[j].
    """

    factors: tuple
    perm: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        perm = tuple(int(p) for p in self.perm)
        if len(factors) != len(perm):
            raise ValidityError("factor list and permutation length differ")
        _check_perm(perm, len(perm))
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "perm", perm)

    @classmethod
    def identity(cls, dimension: int) -> "PolydiskAutomorphism":
        # alpha=0, theta=pi gives -e^{i pi} z = z
        return cls(
            factors=tuple(MobiusFactor(0.0, math.pi) for _ in range(dimension)),
            perm=tuple(range(dimension)),
        )

    @property
    def dimension(self) -> int:
        return len(self.factors)

    @property
    def perm_one_based(self) -> tuple:
        return tuple(p + 1 for p in self.perm)

    def transform(self, pts):
        """Apply to a PointAxes, giving a PointAxes on the same layout, or to
        an array of points, shape (m, n) -> (m, n).

        Output coordinate j is factor j applied to input coordinate
        perm[j], array by array: a tensor grid maps to a permuted tensor
        grid with n * Q Moebius evaluations.
        """
        axes = pts if isinstance(pts, PointAxes) else PointAxes.of_array(pts)
        out = PointAxes(
            tuple(f(axes.coords[p]) for f, p in zip(self.factors, self.perm))
        )
        return out if axes is pts else out.to_array()


def transform_batch(perm, alphas, phases, axes: PointAxes) -> PointAxes:
    """The images of ``axes`` under K automorphisms that share the
    permutation ``perm``, stacked on a new leading axis: row k of the
    (K, n) arrays ``alphas`` and ``phases`` holds the factors' alpha and
    e^{i theta} of automorphism k, and slice k of each coordinate is that of
    its ``transform(axes)``, bit for bit, since every point goes through the
    Moebius arithmetic of ``transform``.
    """
    perm = tuple(perm)
    _check_perm(perm, len(axes.coords))
    if alphas.shape != phases.shape or alphas.shape[1:] != (len(perm),):
        raise DimensionMismatch(
            f"alphas {alphas.shape} and phases {phases.shape} are not "
            f"(K, {len(perm)}) arrays"
        )
    coords = []
    for j, p in enumerate(perm):
        z = axes.coords[p][np.newaxis]
        shape = (len(alphas),) + (1,) * (z.ndim - 1)
        coords.append(
            _moebius(alphas[:, j].reshape(shape), phases[:, j].reshape(shape), z))
    return PointAxes(tuple(coords))


def _point_array(point, dimension: int) -> np.ndarray:
    coords = point.coords if isinstance(point, (CPoint, TorusPoint)) else tuple(point)
    if len(coords) != dimension:
        raise DimensionMismatch(f"point has {len(coords)} coords, expected {dimension}")
    arr = np.array([coords], dtype=complex)
    if np.max(np.abs(arr)) > 1.0 + CLOSURE_TOL:
        raise EvaluationOutsideDomain("point lies outside the closed polydisk")
    return arr


def auto_eval(phi: PolydiskAutomorphism, point) -> CPoint:
    """Evaluate at one point of the closed polydisk."""
    out = phi.transform(_point_array(point, phi.dimension))
    return CPoint(tuple(out[0]))


def auto_inverse(phi: PolydiskAutomorphism) -> PolydiskAutomorphism:
    """Exact inverse: permutation p^-1, coordinate i uses the inverse of
    factor p^-1(i)."""
    n = phi.dimension
    inv_perm = [0] * n
    for j, p in enumerate(phi.perm):
        inv_perm[p] = j
    factors = tuple(phi.factors[inv_perm[i]].inverse() for i in range(n))
    return PolydiskAutomorphism(factors=factors, perm=tuple(inv_perm))


def auto_compose(
    phi: PolydiskAutomorphism, psi: PolydiskAutomorphism
) -> PolydiskAutomorphism:
    """Normal form of z -> phi(psi(z))."""
    if phi.dimension != psi.dimension:
        raise DimensionMismatch(
            f"cannot compose dimensions {phi.dimension} and {psi.dimension}"
        )
    perm = tuple(psi.perm[phi.perm[j]] for j in range(phi.dimension))
    factors = tuple(
        mobius_compose(phi.factors[j], psi.factors[phi.perm[j]])
        for j in range(phi.dimension)
    )
    return PolydiskAutomorphism(factors=factors, perm=perm)


def _index_array(seq, ks) -> np.ndarray:
    """``ks`` as an int64 array. ``seq.at`` refuses every index past int64
    (past binary64 resolution at any rate, past an explicit sequence's
    end), so for one of those it raises at the first index it refuses."""
    try:
        return np.asarray(ks, dtype=np.int64)
    except OverflowError:
        for k in ks:
            seq.at(k)
        raise


def _batch_groups(seq, ks, bad, perms, perm_ids, alphas, phases) -> list:
    """``seq.batch``'s groups of ``ks``, where ``seq.at`` raises its own
    error at the first index that ``bad`` marks, if any."""
    if bad.any():
        seq.at(int(ks[np.argmax(bad)]))
    groups = []
    for u, perm in enumerate(perms):
        positions = np.flatnonzero(perm_ids == u)
        if len(positions):
            groups.append((perm, positions, alphas[positions], phases[positions]))
    return groups


def _perm_table(perms) -> tuple:
    """The distinct permutations of ``perms``, in order of first appearance,
    and each entry's position among them."""
    ids: dict = {}
    for p in perms:
        ids.setdefault(p, len(ids))
    return list(ids), np.array([ids[p] for p in perms], dtype=np.intp)


class ExplicitSequence:
    """A finite, explicitly listed automorphism sequence (1-based indexing)."""

    def __init__(self, autos):
        autos = tuple(autos)
        if not autos:
            raise ValidityError("sequence must be nonempty")
        n = autos[0].dimension
        for a in autos:
            if a.dimension != n:
                raise DimensionMismatch("mixed dimensions in sequence")
        self.autos = autos
        self._perms, self._perm_ids = _perm_table([a.perm for a in autos])
        self._alphas = np.array([[f.alpha for f in a.factors] for a in autos],
                                dtype=complex)
        self._phases = np.array([[f.phase for f in a.factors] for a in autos],
                                dtype=complex)

    @property
    def dimension(self) -> int:
        return self.autos[0].dimension

    @property
    def length(self):
        return len(self.autos)

    def at(self, k: int) -> PolydiskAutomorphism:
        if not 1 <= k <= len(self.autos):
            raise IndexError(f"sequence index {k} out of range 1..{len(self.autos)}")
        return self.autos[k - 1]

    def batch(self, ks) -> list:
        """The factors of ``at(k)`` for every k in ``ks``, read off the
        stored automorphisms: one ``(perm, positions, alphas, phases)``
        group per permutation, ``positions`` indexing ``ks`` and row r of
        the (K, n) arrays holding the alpha and e^{i theta} of the factors
        of ``at(ks[positions[r]])``. Raises ``at``'s error for the first
        index of ``ks`` outside the sequence."""
        ks = _index_array(self, ks)
        bad = (ks < 1) | (ks > len(self.autos))
        rows = np.where(bad, 0, ks - 1)
        return _batch_groups(self, ks, bad, self._perms, self._perm_ids[rows],
                             self._alphas[rows], self._phases[rows])


class GeneratedSequence:
    """Radially approaching sequence alpha_j^k = (1 - c/(k+1)) * lambda_j.

    ``theta_cycle`` and ``perm_cycle`` are tuples of angle vectors and
    (zero-based) permutations, cycled with period len(cycle); constant
    schedules are one-element cycles.
    """

    def __init__(self, direction, rate, theta_cycle, perm_cycle):
        direction = check_direction(direction)
        check_rate(rate)
        n = len(direction)
        theta_cycle = tuple(tuple(float(t) for t in vec) for vec in theta_cycle)
        perm_cycle = tuple(tuple(int(p) for p in perm) for perm in perm_cycle)
        if not theta_cycle or not perm_cycle:
            raise ValidityError("schedules must be nonempty")
        for vec in theta_cycle:
            if len(vec) != n:
                raise DimensionMismatch("angle vector length differs from dimension")
        for perm in perm_cycle:
            _check_perm(perm, n)
        self.direction = direction
        self.rate = float(rate)
        self.theta_cycle = theta_cycle
        self.perm_cycle = perm_cycle
        # batch() reads e^{i theta} per cycle entry, as MobiusFactor computes
        # it; MobiusFactor also refuses an angle that is not finite
        self._cycle_phases = np.array(
            [[MobiusFactor(0.0, t).phase for t in vec] for vec in theta_cycle])
        self._perms, self._perm_ids = _perm_table(perm_cycle)

    @property
    def dimension(self) -> int:
        return len(self.direction)

    @property
    def length(self):
        return None

    @property
    def period(self) -> int:
        return math.lcm(len(self.theta_cycle), len(self.perm_cycle))

    def at(self, k: int) -> PolydiskAutomorphism:
        if k < 1:
            raise IndexError("sequence indices start at 1")
        try:
            modulus = 1.0 - self.rate / (k + 1.0)
        except OverflowError:  # k past binary64 range: 1 - rate/(k+1) rounds to 1
            modulus = 1.0
        thetas = self.theta_cycle[(k - 1) % len(self.theta_cycle)]
        perm = self.perm_cycle[(k - 1) % len(self.perm_cycle)]
        try:
            factors = tuple(
                MobiusFactor(alpha=modulus * d, theta=t)
                for d, t in zip(self.direction, thetas)
            )
        except ValidityError as exc:
            reason = ("1 - rate/(k+1) rounds to 1 in binary64" if modulus == 1.0
                      else str(exc))
            raise ValidityError(f"sequence index {k}: {reason}") from exc
        return PolydiskAutomorphism(factors=factors, perm=perm)

    def batch(self, ks) -> list:
        """The factors of ``at(k)`` for every k in ``ks``, as arrays and bit
        for bit: one ``(perm, positions, alphas, phases)`` group per
        permutation, ``positions`` indexing ``ks`` and row r of the (K, n)
        arrays holding the alpha and e^{i theta} of the factors of
        ``at(ks[positions[r]])``. Raises ``at``'s error for the first index
        of ``ks`` that ``at`` refuses.

        The moduli are at's binary64 arithmetic on a float64 array, the
        alphas their complex products with the direction, and the phases
        are read off the theta cycle.
        """
        ks = _index_array(self, ks)
        entry = (ks - 1) % len(self.theta_cycle)
        with np.errstate(divide="ignore", invalid="ignore"):  # k = -1 and below
            modulus = 1.0 - self.rate / (ks + 1.0)
            alphas = modulus[:, np.newaxis] * np.array(self.direction)
            # |alpha| as at() takes it: np.abs of a complex array may round
            # otherwise, np.hypot is the libm hypot of abs()
            bad = (ks < 1) | ~(np.hypot(alphas.real, alphas.imag) < 1.0).all(axis=1)
        perm_ids = self._perm_ids[(ks - 1) % len(self.perm_cycle)]
        return _batch_groups(self, ks, bad, self._perms, perm_ids, alphas,
                             self._cycle_phases[entry])


def _angle_cell(phi: PolydiskAutomorphism, angle_tol: float) -> tuple:
    return tuple(int(math.floor((f.theta + math.pi) / angle_tol)) for f in phi.factors)


@dataclass
class SubsequenceSelection:
    """A stabilized subsequence: constant permutation, clustered angles.

    ``indices`` lists the selected indices within the analysis horizon;
    ``residues`` the members among 1..``span``, one period of a generated
    sequence or all of an explicit one. Membership queries are arithmetic
    on that table, so the engine searches far beyond the horizon without
    evaluating the sequence.
    """

    indices: tuple
    permutation: tuple  # zero-based
    limit_angles: tuple
    limit_moduli: tuple  # unimodular directions
    lam: TorusPoint
    gamma: TorusPoint
    horizon: int
    sequence: object = field(repr=False)
    span: int = field(repr=False)
    residues: tuple = field(repr=False)  # the members among 1..span

    def _count(self, k: int) -> int:
        """Number of members <= k."""
        length = self.sequence.length
        q, r = divmod(max(0, k if length is None else min(k, length)), self.span)
        return q * len(self.residues) + bisect.bisect_right(self.residues, r)

    def _nth(self, i: int):
        """Member i, counting from 0, or None outside the sequence."""
        q, r = divmod(i, len(self.residues))
        k = q * self.span + self.residues[r]
        length = self.sequence.length
        return k if 1 <= k and (length is None or k <= length) else None

    def contains(self, k: int) -> bool:
        return self._count(k) > self._count(k - 1)

    def next_member(self, k: int):
        """Smallest member >= k, or None when the sequence is exhausted."""
        return self._nth(self._count(k - 1))

    def member_from(self, k: int, top: int):
        """The first member >= k if it is <= top, else the last member
        <= top; None when no member is <= top."""
        first = self.next_member(k)
        if first is not None and first <= top:
            return first
        return self._nth(self._count(top) - 1)


def select_subsequence(
    seq,
    horizon: int,
    angle_tol: float,
    boundary_tol: float,
) -> SubsequenceSelection:
    """Stabilize permutation and angles over indices 1..horizon.

    Picks the most frequent permutation (ties: lexicographically smallest),
    then the largest half-open angle cell of side angle_tol within that
    fiber (ties: cell seen earliest). The limit moduli directions are read
    at the last selected index; lambda combines them with the angle
    centroid, gamma applies the same recipe to the inverse normal form.
    """
    if not angle_tol > 0.0:
        raise ValidityError(f"angle_tol must be positive, got {angle_tol!r}")
    length = seq.length
    if length is not None:
        horizon = min(horizon, length)
    if horizon < 2:
        raise EmptySelection("horizon too small for any permutation to repeat")

    autos = [seq.at(k) for k in range(1, horizon + 1)]

    approach = [max(1.0 - abs(f.alpha) for f in a.factors) for a in autos]
    if min(approach) >= boundary_tol:
        raise NoBoundaryConvergence(
            f"max_j (1 - |alpha_j^k|) stayed >= {boundary_tol:.17g} over "
            f"{horizon} indices (closest: {min(approach):.17g})"
        )

    perm_counts = Counter(a.perm for a in autos)
    best_count = max(perm_counts.values())
    if best_count < 2:
        raise EmptySelection("no permutation repeats within the horizon")
    perm = min(p for p, c in perm_counts.items() if c == best_count)

    cells: dict = {}
    for k, a in enumerate(autos, start=1):
        if a.perm == perm:
            cells.setdefault(_angle_cell(a, angle_tol), []).append(k)
    cell_key = min(cells, key=lambda c: (-len(cells[c]), cells[c][0]))
    indices = tuple(cells[cell_key])
    # membership repeats with the schedule: classify one period, or the
    # whole of an explicit sequence, once
    span = seq.period if length is None else length
    cycle = itertools.chain(autos[:span], map(seq.at, range(horizon + 1, span + 1)))
    residues = tuple(k for k, a in enumerate(cycle, start=1)
                     if a.perm == perm and _angle_cell(a, angle_tol) == cell_key)

    n = seq.dimension
    members = [autos[k - 1] for k in indices]
    centroid = tuple(
        normalize_angle(sum(a.factors[j].theta for a in members) / len(members))
        for j in range(n)
    )
    tail = members[-1].factors
    if any(f.alpha == 0.0 for f in tail):
        raise NoBoundaryConvergence(
            "modulus direction undefined: alpha = 0 at the selection tail"
        )
    moduli = tuple(f.alpha / abs(f.alpha) for f in tail)

    lam = TorusPoint(tuple(cmath.exp(1j * t) * d for t, d in zip(centroid, moduli)))
    # limit of the inverse maps: apply the lambda recipe to the inverse
    # normal form; the phases cancel and only the permuted direction remains
    gamma = TorusPoint(tuple(moduli[perm.index(i)] for i in range(n)))

    return SubsequenceSelection(
        indices=indices,
        permutation=perm,
        limit_angles=centroid,
        limit_moduli=moduli,
        lam=lam,
        gamma=gamma,
        horizon=horizon,
        sequence=seq,
        span=span,
        residues=residues,
    )
