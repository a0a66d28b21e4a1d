"""Inner-function diagnostics and the constructive generating families.

Diagnostics: radial modulus reports, torus means of log|g| with clamping
(trapezoid rule on the torus, spectrally accurate away from zero shells),
and a Jensen-formula oracle for finite Blaschke products. A torus shell
r T^n is a tensor grid held one axis per coordinate (``PointAxes``), and
every leaf of a tree depends on one coordinate, so |g| on the shell is a
product of one modulus per axis (``holo.axis_factors``): both diagnostics
work on those n * q moduli and build no complex array of the q^n points.

Construction: the Schur-algorithm projector onto finite Blaschke products,
optionally pinned to a value at a boundary point through its tail, the
one-factor corrector pinned to 1 - 2^-j at the origin with a prescribed
unimodular value at a boundary point, and generating elements
G = approximant * corrector normalized to take the value 1 at a pin point
of the distinguished boundary.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .automorphisms import MobiusFactor, normalize_angle
from .errors import (
    PinNotUnimodular,
    RadiusOnZeroModulus,
    RootFindFailure,
    ValidityError,
)
from .geometry import PointAxes, TorusPoint, torus_axis
from .holo import (
    BlaschkeFactor,
    Composed,
    Constant,
    Coordinate,
    HoloFunction,
    Power,
    Product,
    axis_factors,
    flatten,
    is_blaschke_type,
)

#: most points in one evaluation block of a torus shell
_CHUNK = 1 << 20


# ---------------------------------------------------------------------------
# torus grids and modulus diagnostics

def _shell_blocks(axis: np.ndarray, dimension: int):
    """The torus shell axis^dimension as PointAxes blocks of whole rows
    along array dimension 0, each of at most _CHUNK points (or one row).

    The blocks follow one another in C order, so raveling each block's
    values in C order and chaining them gives the shell's points in the
    order of ``meshgrid(..., indexing="ij")``.
    """
    shell = PointAxes.tensor(axis, dimension)
    step = max(1, _CHUNK // max(1, axis.size ** (dimension - 1)))
    first, rest = shell.coords[0], shell.coords[1:]
    for lo in range(0, axis.size, step):
        yield PointAxes((first[lo : lo + step],) + rest)


def _shell_moduli(f: HoloFunction, axis: np.ndarray):
    """The moduli of ``axis_factors(f, block)`` for each ``_shell_blocks``
    block of the torus shell axis^dimension: per block one real array per
    array dimension, whose broadcast product is |f| on the block up to
    rounding (exactly, with one dimension)."""
    for block in _shell_blocks(axis, f.dimension):
        yield block, [np.abs(v) for v in axis_factors(f, block)]


@dataclass(frozen=True)
class RadialReport:
    """Worst-case deviation of |f| from 1 on shrinking torus shells."""

    radii: tuple
    deviations: tuple


#: the radii of the diagnostics unless a caller gives others
_RADII = (0.9, 0.99, 0.999)


def radial_modulus_report(
    f: HoloFunction, radii=_RADII, angles_per_dim: int = 256
) -> RadialReport:
    """max over the angle grid of |1 - |f(r zeta)|| for each radius.

    |1 - m| is largest at the extremes of m, and on a tensor grid of
    products of per-axis moduli those extremes are the products of the
    per-axis extremes, so each block costs n * q moduli, not q^n.
    """
    radii = tuple(float(r) for r in radii)
    if any(not 0.0 < r < 1.0 for r in radii):
        raise ValidityError("radii must lie in (0, 1)")
    if any(b >= a for a, b in zip(radii[1:], radii)):
        raise ValidityError("radii must be strictly increasing")
    circle = torus_axis(1.0, angles_per_dim, f.dimension)
    deviations = []
    for r in radii:
        worst = 0.0
        for _, moduli in _shell_moduli(f, r * circle):
            lo = math.prod(float(np.min(m)) for m in moduli)
            hi = math.prod(float(np.max(m)) for m in moduli)
            worst = max(worst, abs(1.0 - lo), abs(1.0 - hi))
        deviations.append(worst)
    return RadialReport(radii=radii, deviations=tuple(deviations))


#: ulp of margin per factor by which the least product of per-axis moduli
#: must clear the clamp floor before no point of the shell counts as clamped
_CLAMP_ULPS = 4


def good_inner_integral_detail(
    g: HoloFunction, r: float, quad_points: int, clamp: float
):
    """Torus mean of max(log|g(r zeta)|, -clamp) and the clamp count.

    Trapezoid rule on the torus: exact for trigonometric polynomials of
    degree < quad_points per variable, spectrally accurate for integrands
    analytic in a strip, i.e. whenever no zero of g sits near the sampled
    shell.

    |g| on the shell is a product of one modulus m_d per array dimension,
    so where no point can reach the floor exp(-clamp) the mean is the sum
    over d of the mean of log m_d, from n * q moduli. Otherwise the clamped
    mean is taken over the grid of products of the same moduli, block by
    block, the points in C order.
    """
    if not 0.0 < r < 1.0:
        raise ValidityError(f"radius {r} not in (0, 1)")
    if quad_points < 16:
        raise ValidityError("need at least 16 quadrature points per dimension")
    if clamp <= 0.0:
        raise ValidityError("clamp level must be positive")
    floor = math.exp(-clamp)
    n = g.dimension
    axis = torus_axis(r, quad_points, n)
    lo = math.inf
    sums, sizes = [0.0] * n, [0] * n
    for _, moduli in _shell_moduli(g, axis):
        lo = min(lo, math.prod(float(np.min(m)) for m in moduli))
        # a zero modulus gives -inf: the sums are then left unused
        with np.errstate(divide="ignore"):
            for d, m in enumerate(moduli):
                sums[d] += float(np.sum(np.log(m)))
                sizes[d] += m.size
    if lo > floor * (1.0 + _CLAMP_ULPS * n * np.finfo(float).eps):
        return sum(s / k for s, k in zip(sums, sizes)), 0
    total = 0.0
    clamped = 0
    for block, moduli in _shell_moduli(g, axis):
        mods = block.expand(functools.reduce(np.multiply, moduli))
        small = mods <= floor
        clamped += int(np.count_nonzero(small))
        total += float(np.sum(np.log(np.maximum(mods, floor))))
    return total / quad_points**n, clamped


def jensen_oracle(zeros, value_at_0_modulus: float, r: float) -> float:
    """Circle mean of log|B| at radius r for a finite Blaschke product.

    Independent of any quadrature: log|B(0)| plus log(r/|z_k|) for each
    zero inside radius r. Implemented in the regrouped form
    sum_k min(log r, log|z_k|)-style so zeros at the origin are handled,
    which agrees with the direct formula whenever the latter is finite.
    """
    zeros = [complex(z) for z in zeros]
    moduli = [abs(z) for z in zeros]
    for m in moduli:
        if abs(m - r) < 1e-6:
            raise RadiusOnZeroModulus(
                f"radius {r:.17g} within 1e-6 of zero modulus {m:.17g}"
            )
    product = 1.0
    for m in moduli:
        product *= m
    if abs(product - value_at_0_modulus) > 1e-9 * max(1.0, abs(value_at_0_modulus)):
        raise ValidityError(
            "value_at_0_modulus disagrees with the product of zero moduli"
        )
    total = 0.0
    for m in moduli:
        total += math.log(r) if m < r else math.log(m)
    return total


@dataclass(frozen=True)
class GoodInnerReport:
    """Torus means of log|g| along a radius schedule, with clamp accounting."""

    radii: tuple
    values: tuple
    clamp_counts: tuple
    passed: bool


#: tie tolerance for the nonincreasing check on |I(r)|
_TREND_SLACK = 1e-9


def good_inner_trend(
    g: HoloFunction,
    radii=_RADII,
    quad_points: int = 512,
    clamp: float = 40.0,
    tolerance: float = 0.02,
) -> GoodInnerReport:
    """Pass when |I(r_last)| < tolerance and |I(r)| is nonincreasing over
    the last three radii. Radii must stay off the zero-modulus shells of g
    by at least 1e-3 for the quadrature to be trustworthy."""
    radii = tuple(float(r) for r in radii)
    values, counts = [], []
    for r in radii:
        v, c = good_inner_integral_detail(g, r, quad_points, clamp)
        values.append(v)
        counts.append(c)
    tail = [abs(v) for v in values[-3:]]
    monotone = all(a + _TREND_SLACK >= b for a, b in zip(tail, tail[1:]))
    passed = monotone and abs(values[-1]) < tolerance
    return GoodInnerReport(
        radii=radii,
        values=tuple(values),
        clamp_counts=tuple(counts),
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Schur projector

_SCHUR_BOUNDARY = 1.0 - 1e-12


def schur_parameters(coeffs, depth: int):
    """Run the Schur recursion gamma_k = f_k(0),
    f_{k+1} = (f_k - gamma_k) / (z (1 - conj(gamma_k) f_k)) in coefficient
    arithmetic for up to ``depth`` steps. A parameter on the unit circle
    (|gamma_k| >= 1 - 1e-12) ends it: the input is then a finite Blaschke
    product of degree k, and gamma_k is the last parameter returned.

    f_k is kept as a quotient p_k / q_k of two series, starting from
    p_0 = coeffs and q_0 = 1, so no series is divided:
    gamma_k = p_k[0] / q_k[0], p_{k+1} = (p_k - gamma_k q_k) / z and
    q_{k+1} = q_k - conj(gamma_k) p_k, each cut to the coefficients later
    steps read. q_k[0] = prod_{i<k} (1 - |gamma_i|^2) is at least (2e-12)^k,
    as every earlier |gamma_i| < 1 - 1e-12; so it does not underflow below
    depth 26, and the engine's depth is 16.
    """
    if depth < 1:
        raise ValidityError("depth must be >= 1")
    if len(coeffs) < depth + 1:
        raise ValidityError("need at least depth+1 coefficients")
    p = np.array(coeffs[: depth + 1], dtype=complex)
    q = np.zeros_like(p)
    q[0] = 1.0
    gammas = []
    for _ in range(depth):
        gamma = complex(p[0] / q[0])
        gammas.append(gamma)
        if abs(gamma) >= _SCHUR_BOUNDARY:
            break
        p, q = (p - gamma * q)[1:], (q - gamma.conjugate() * p)[:-1]
    return gammas


def _blaschke_from_zeros(zeros, unimodular: complex) -> HoloFunction:
    """u * prod (a_k - z)/(1 - conj(a_k) z) as a tree on coordinate 1, with
    the phase folded into the first factor."""
    phase = normalize_angle(cmath.phase(unimodular))
    factors = []
    for i, a in enumerate(zeros):
        theta = phase if i == 0 else 0.0
        factors.append(BlaschkeFactor(MobiusFactor(a, theta), coord=1, dimension=1))
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def schur_project_adaptive(coeffs, depth: int, pin=None):
    """Finite Blaschke product matching the first ``depth`` Taylor
    coefficients of the input ball function; returns (tree, depth d used).

    One pass of ``schur_parameters``. If it ends on a parameter on the
    circle, the input is a finite Blaschke product of degree d < depth: that
    parameter, divided by its modulus, is the tail eta, and the d parameters
    before it are kept (d = 0 gives the constant eta). Otherwise d = depth,
    and the remainder is replaced by a unimodular eta, on which the first d
    coefficients do not depend: 1, or with ``pin`` = (zeta, w) on the
    circle, the Schur step on values at zeta, w_0 = w and
    w_{k+1} = (w_k - gamma_k) / (zeta (1 - conj(gamma_k) w_k)), gives the
    eta = w_d whose product is w at zeta (I. Schur, J. reine angew. Math.
    147, 1917). Reconstruction runs in polynomial arithmetic on p/q, where p
    keeps its leading coefficient eta and q = eta p* is p's reciprocal
    polynomial; so with a_k the roots of p the product is
    (-1)^d eta prod (a_k - z)/(1 - conj(a_k) z). For two ball
    functions sharing the first d coefficients, sup on |z| <= rho differs by
    at most 2 rho^d / (1 - rho).
    """
    gammas = schur_parameters(coeffs, depth)
    eta = complex(1.0)
    if abs(gammas[-1]) >= _SCHUR_BOUNDARY:
        eta = gammas.pop()
        eta /= abs(eta)
        if not gammas:
            return Constant(eta, dimension=1), 0
    elif pin is not None:
        zeta, eta = pin
        for gamma in gammas:
            eta = (eta - gamma) / (zeta * (1.0 - gamma.conjugate() * eta))
        eta /= abs(eta)
    depth = len(gammas)

    p = np.array([eta], dtype=complex)
    for gamma in reversed(gammas):
        q = eta * np.conjugate(p[::-1])
        p = np.concatenate([[0.0], p])
        p[: len(q)] += gamma * q

    zeros = np.roots(p[::-1])
    if np.max(np.abs(zeros)) >= 1.0:
        worst = float(np.max(np.abs(zeros)))
        if worst >= 1.0 + 1e-9:
            raise ValidityError(f"reconstructed zero has modulus {worst:.17g}")
        zeros = np.where(
            np.abs(zeros) >= 1.0, zeros * (1.0 - 1e-15) / np.abs(zeros), zeros
        )
    order = np.lexsort((zeros.imag, zeros.real))
    zeros = zeros[order]
    u = eta if depth % 2 == 0 else -eta
    return _blaschke_from_zeros([complex(z) for z in zeros], u), depth


# ---------------------------------------------------------------------------
# correctors and generating elements

def _corrector_boundary_value(t: float, phi: float) -> complex:
    """psi_phi(1) = (t u - 1)/(u - t) with u = e^{i phi}; unimodular.

    Cancellation-free form: with eps = 1 - t and
    d = u - t = (eps - 2 sin^2(phi/2)) + i sin(phi), the numerator equals
    -u conj(d), so the value is -u conj(d)/d with full relative accuracy
    even when |d| is tiny (t near 1, phi near 0)."""
    eps = 1.0 - t
    d = complex(eps - 2.0 * math.sin(0.5 * phi) ** 2, math.sin(phi))
    u = cmath.exp(1j * phi)
    return -u * d.conjugate() / d


def _solve_corrector_phase(t: float, w: complex) -> float:
    """The phase phi with psi_phi(1) = w, in closed form.

    The map u -> (t u - 1)/(u - t) is its own inverse on the circle, and in
    half-angles it reads tan(phi/2) tan(arg w/2) = (1 - t)/(1 + t). With
    w = x + iy, tan(arg w/2) is y/(1 + x) or, equally, (1 - x)/y; the first
    is taken where x >= 0 and the second where x < 0, so neither 1 + x nor
    1 - x cancels. 1 - t = 2^-j and 1 + t are exact, so phi carries only
    the rounding of w's coordinates and of atan2, and keeps its relative
    accuracy when it is tiny (w next to -1). The quotient's numerator is
    made non-negative, so atan2 gives phi/2 in [-pi/2, pi/2].
    """
    if w.real >= 0.0:
        num, den = w.imag, 1.0 + w.real
    else:
        num, den = 1.0 - w.real, w.imag
    if num < 0.0:
        num, den = -num, -den
    phi = 2.0 * math.atan2((1.0 - t) * den, (1.0 + t) * num)
    residual = abs(_corrector_boundary_value(t, phi) - w)
    if residual > 1e-10:
        raise RootFindFailure(f"phase solve residual {residual:.3e}")
    return phi


def make_corrector(
    j: int, xi: complex, w: complex, dimension: int = 1
) -> HoloFunction:
    """One-variable inner corrector acting on coordinate 1.

    Returns Psi(z) = psi(conj(xi) z_1) where psi is the Moebius factor with
    psi(0) = 1 - 2^-j (real positive) and psi(1) = w; the rotation is folded
    into the factor so Psi is a single Blaschke node. Psi tends to 1
    uniformly on compacts as j grows: |psi(z) - 1| <= 2^-j (1+|z|)/(1-|z|)
    in exact arithmetic. In binary64 the stored zero's 1 - |alpha| is off
    2^-j by about an ulp of 1, so the bound holds with 2^-j plus a few ulp
    of 1 in place of 2^-j (``test_corrector_near_one_on_compacts`` allows 4).
    """
    if j < 1:
        raise ValidityError("corrector index must be >= 1")
    if j > 52:
        raise ValidityError("corrector index beyond float resolution")
    xi = complex(xi)
    w = complex(w)
    if abs(abs(xi) - 1.0) > 1e-12:
        raise ValidityError("pin coordinate must be unimodular")
    if abs(abs(w) - 1.0) > 1e-12:
        raise ValidityError("corrector target must be unimodular")
    w /= abs(w)
    t = 1.0 - math.ldexp(1.0, -j)
    phi = _solve_corrector_phase(t, w)
    a = t * cmath.exp(1j * phi)
    theta = normalize_angle(-phi - cmath.phase(xi))
    return BlaschkeFactor(
        MobiusFactor(alpha=a * xi, theta=theta), coord=1, dimension=dimension
    )


@dataclass(frozen=True)
class GeneratingElement:
    """A pinned family member: product of an inner closure-continuous
    approximant and a corrector, taking the value 1 at the pin point."""

    index: int
    pin: TorusPoint
    approximant: HoloFunction
    corrector: HoloFunction
    product: HoloFunction


def _pin_noise_bound(tree: HoloFunction, pin: TorusPoint) -> float:
    """Measurement noise of |tree(pin)| for a structurally inner tree.

    A pin coordinate stored in binary64 sits up to an ulp off the torus, and
    each Blaschke factor's modulus responds with sensitivity
    (1 - |alpha|^2)/|1 - conj(alpha) z|^2, which blows up for factors whose
    zero hugs the boundary near the pin. Mathematically |tree(pin)| = 1;
    this bound says how far the float evaluation may honestly stray.
    """
    eps = 2.3e-16
    if isinstance(tree, Composed):
        tree = flatten(tree)

    def walk(node) -> float:
        if isinstance(node, (Constant, Coordinate)):
            return eps
        if isinstance(node, BlaschkeFactor):
            z = pin.coords[node.coord - 1]
            den = abs(1.0 - node.factor.alpha.conjugate() * z)
            return 4.0 * eps / max(den, eps)
        if isinstance(node, Product):
            return sum(walk(c) for c in node.children)
        if isinstance(node, Power):
            return node.exponent * walk(node.child)
        if isinstance(node, Composed):
            return walk(flatten(node))
        return eps

    return walk(tree)


def make_generating_element(
    j: int, pin: TorusPoint, approximant: HoloFunction
) -> GeneratingElement:
    """Wrap an approximant that is unimodular at the pin.

    The corrector targets w = 1 / A(pin), so G = A * Psi satisfies
    G(pin) = 1 up to rounding; Psi(0) = 1 - 2^-j exactly up to float noise.
    Both guards are measurement-aware: the pin coordinates carry about one
    ulp of modulus error, amplified by near-boundary factors and by the
    corrector steepness 2^j.
    """
    if approximant.dimension != pin.dimension:
        raise ValidityError("approximant and pin dimensions differ")
    value = approximant.eval(pin)
    noise = _pin_noise_bound(approximant, pin)
    tol = 1e-9
    if is_blaschke_type(approximant):
        # |A(pin)| = 1 holds structurally; allow honest evaluation noise
        tol = max(tol, 16.0 * noise)
    if abs(abs(value) - 1.0) > tol:
        raise PinNotUnimodular(
            f"|A(pin)| = {abs(value):.17g} deviates from 1 beyond {tol:.3e}"
        )
    w = value.conjugate() / abs(value)
    w /= abs(w)
    corrector = make_corrector(j, pin.coords[0], w, approximant.dimension)
    # the noise bound of the product A * Psi is the sum of its children's
    residual = abs(value * corrector.eval(pin) - 1.0)
    guard = max(1e-9, 32.0 * (noise + _pin_noise_bound(corrector, pin)))
    if residual > guard:
        raise ValidityError(f"pin residual {residual:.3e} exceeds guard {guard:.3e}")
    return GeneratingElement(
        index=j,
        pin=pin,
        approximant=approximant,
        corrector=corrector,
        product=Product((approximant, corrector)),
    )
