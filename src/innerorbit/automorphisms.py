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

import cmath
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
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    @classmethod
    def from_rotated_numerator(cls, alpha: complex, lam: complex) -> "MobiusFactor":
        """Convert the variant form (alpha - lam*z)/(1 - conj(alpha) lam z).

        Requires |lam| = 1. Same group, different placement of the
        unimodular constant; the canonical parameters are
        alpha' = alpha * conj(lam), theta' = arg(lam).
        """
        lam = complex(lam)
        if abs(abs(lam) - 1.0) > 1e-12:
            raise ValidityError("rotation constant must be unimodular")
        return cls(alpha=alpha * lam.conjugate(), theta=cmath.phase(lam))

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
    """``direction`` as complex numbers, once each is unimodular."""
    direction = tuple(complex(d) for d in direction)
    for d in direction:
        if abs(abs(d) - 1.0) > 1e-12:
            raise ValidityError("direction coordinates must be unimodular")
    return direction


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
        grid with n * (2Q+1) Moebius evaluations.
        """
        axes = pts if isinstance(pts, PointAxes) else PointAxes.of_array(pts)
        out = PointAxes(
            tuple(f(axes.coords[p]) for f, p in zip(self.factors, self.perm))
        )
        return out if axes is pts else out.to_array()


def transform_batch(autos, axes: PointAxes) -> PointAxes:
    """The images of ``axes`` under automorphisms that share one
    permutation, stacked on a new leading axis: slice k of each coordinate
    is that of ``autos[k].transform(axes)``, bit for bit.

    Each factor's alpha and phase are read off the factor itself, laid
    along the leading axis, and every point goes through the Moebius
    arithmetic of ``transform``.
    """
    perm = autos[0].perm
    if any(a.perm != perm for a in autos):
        raise ValidityError("transform_batch needs one shared permutation")
    coords = []
    for j, p in enumerate(perm):
        z = axes.coords[p][np.newaxis]
        shape = (len(autos),) + (1,) * (z.ndim - 1)
        alpha = np.array([a.factors[j].alpha for a in autos]).reshape(shape)
        phase = np.array([a.factors[j].phase for a in autos]).reshape(shape)
        coords.append(_moebius(alpha, phase, z))
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
        modulus = 1.0 - self.rate / (k + 1.0)
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


def _angle_cell(thetas, angle_tol: float) -> tuple:
    return tuple(int(math.floor((t + math.pi) / angle_tol)) for t in thetas)


@dataclass
class SubsequenceSelection:
    """A stabilized subsequence: constant permutation, clustered angles.

    ``indices`` lists the selected indices within the analysis horizon;
    membership of later indices is decided by ``contains`` so the engine
    can search far beyond the horizon.
    """

    indices: tuple
    permutation: tuple  # zero-based
    limit_angles: tuple
    limit_moduli: tuple  # unimodular directions
    lam: TorusPoint
    gamma: TorusPoint
    angle_tol: float
    horizon: int
    sequence: object = field(repr=False)
    _cell: tuple = field(repr=False, default=())

    def contains(self, k: int) -> bool:
        length = self.sequence.length
        if k < 1 or (length is not None and k > length):
            return False
        phi = self.sequence.at(k)
        if phi.perm != self.permutation:
            return False
        thetas = tuple(f.theta for f in phi.factors)
        return _angle_cell(thetas, self.angle_tol) == self._cell

    def next_member(self, k: int):
        """Smallest member >= k, or None when the sequence is exhausted."""
        period = getattr(self.sequence, "period", None)
        if period:
            guard = 4 * period + 4
        elif self.sequence.length is not None:
            guard = self.sequence.length + 1
        else:
            guard = 256
        probe = max(k, 1)
        for _ in range(guard):
            length = self.sequence.length
            if length is not None and probe > length:
                return None
            if self.contains(probe):
                return probe
            probe += 1
        return None


def select_subsequence(
    seq,
    horizon: int,
    angle_tol: float,
    boundary_tol: float = 0.05,
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

    fiber = [k for k, a in enumerate(autos, start=1) if a.perm == perm]
    cells: dict = {}
    for k in fiber:
        thetas = tuple(f.theta for f in autos[k - 1].factors)
        cells.setdefault(_angle_cell(thetas, angle_tol), []).append(k)
    cell_key = min(cells, key=lambda c: (-len(cells[c]), cells[c][0]))
    indices = tuple(cells[cell_key])

    n = seq.dimension
    members = [autos[k - 1] for k in indices]
    centroid = tuple(
        normalize_angle(sum(a.factors[j].theta for a in members) / len(members))
        for j in range(n)
    )
    tail = members[-1]
    moduli = []
    for f in tail.factors:
        if abs(f.alpha) == 0.0:
            raise NoBoundaryConvergence(
                "modulus direction undefined: alpha = 0 at the selection tail"
            )
        moduli.append(f.alpha / abs(f.alpha))
    moduli = tuple(moduli)

    lam = TorusPoint(tuple(cmath.exp(1j * t) * d for t, d in zip(centroid, moduli)))
    # limit of the inverse maps: apply the lambda recipe to the inverse
    # normal form; the phases cancel and only the permuted direction remains
    inv_perm = [0] * n
    for j, p in enumerate(perm):
        inv_perm[p] = j
    gamma = TorusPoint(tuple(moduli[inv_perm[i]] for i in range(n)))

    return SubsequenceSelection(
        indices=indices,
        permutation=perm,
        limit_angles=centroid,
        limit_moduli=moduli,
        lam=lam,
        gamma=gamma,
        angle_tol=float(angle_tol),
        horizon=horizon,
        sequence=seq,
        _cell=cell_key,
    )
