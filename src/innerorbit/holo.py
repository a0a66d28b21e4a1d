"""Expression trees for bounded holomorphic functions on the polydisk.

The grammar is closed under the operations the rest of the library needs:
constants of modulus <= 1, coordinates, per-coordinate Blaschke factors,
products, integer powers, and composition with polydisk automorphisms.
Every tree evaluates into the closed unit disk by construction, and
composition with an automorphism is exact (same floating computation as
evaluating the automorphism first).

Nodes evaluate on a ``PointAxes``: one array per coordinate, broadcasting
together. A Blaschke factor touches only its own coordinate's array and a
product folds its children left to right, so on a tensor grid each partial
product keeps the smallest broadcast shape while every point still gets
exactly the floating-point operations of pointwise evaluation. A run of
consecutive Blaschke leaves on one coordinate is evaluated in one stacked
``_moebius`` call, its alphas and phases on a new leading axis, and its
slices are folded in order, bitwise equal to one leaf at a time.
Complex multiply is not bitwise commutative in numpy's vector loops, so
every product names its operand order (``np.multiply``) rather than leave
it to numpy, which swaps the operands of ``a * b`` when it can reuse a
large temporary ``b``; a point's value therefore does not depend on the
size or layout of the array it is evaluated in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .automorphisms import (
    MobiusFactor,
    PolydiskAutomorphism,
    _moebius,
    auto_compose,
    mobius_compose,
)
from .errors import (
    DimensionMismatch,
    EvaluationOutsideDomain,
    UnsupportedTargetShape,
    ValidityError,
)
from .geometry import CLOSURE_TOL, CPoint, PointAxes, TorusPoint

#: sampling radius for one-variable Taylor coefficients
TAYLOR_RADIUS = 0.75

#: elements one stacked Moebius evaluation covers: a run of same-coordinate
#: Blaschke leaves in a product is evaluated max(1, _STACK_ELEMENTS // points)
#: leaves at a time. On the orbit-sweep benchmark (2-vCPU VM, the CLI's
#: allocator policy in place) this size keeps peak RSS where one leaf at a
#: time has it and takes about a quarter off op_s_tail; 1 << 15 added
#: 1.9 MiB for no measurable speed, and no cap added 11.5 MiB and was slower
_STACK_ELEMENTS = 1 << 13


class HoloFunction:
    """Base class for expression-tree nodes."""

    dimension: int

    def _eval(self, pts: PointAxes) -> np.ndarray:
        """Values on the point set, an array broadcastable to its layout."""
        raise NotImplementedError

    def eval_grid(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate on an array of points, shape (m, n) -> (m,)."""
        pts = np.asarray(pts, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"points of shape {pts.shape} against dimension {self.dimension}"
            )
        if pts.size and np.max(np.abs(pts)) > 1.0 + CLOSURE_TOL:
            raise EvaluationOutsideDomain("points leave the closed polydisk")
        axes = PointAxes.of_array(pts)
        return axes.expand(self._eval(axes))

    def eval(self, point) -> complex:
        """Evaluate at a single point (CPoint, TorusPoint, or sequence)."""
        coords = (
            point.coords if isinstance(point, (CPoint, TorusPoint)) else tuple(point)
        )
        return complex(self.eval_grid(np.array([coords], dtype=complex))[0])


@dataclass(frozen=True)
class Constant(HoloFunction):
    value: complex
    dimension: int = 1

    def __post_init__(self):
        value = complex(self.value)
        if abs(value) > 1.0 + CLOSURE_TOL:
            raise ValidityError(f"|constant| = {abs(value):.17g} exceeds 1")
        if self.dimension < 1:
            raise ValidityError("dimension must be positive")
        object.__setattr__(self, "value", value)

    def _eval(self, pts):
        return np.full((1,) * pts.coords[0].ndim, self.value, dtype=complex)


@dataclass(frozen=True)
class Coordinate(HoloFunction):
    index: int  # one-based
    dimension: int = 1

    def __post_init__(self):
        if not 1 <= self.index <= self.dimension:
            raise ValidityError(
                f"coordinate {self.index} out of range 1..{self.dimension}"
            )

    def _eval(self, pts):
        return pts.coords[self.index - 1]


@dataclass(frozen=True)
class BlaschkeFactor(HoloFunction):
    """A Moebius factor acting on one coordinate of the polydisk."""

    factor: MobiusFactor
    coord: int = 1  # one-based
    dimension: int = 1

    def __post_init__(self):
        if not 1 <= self.coord <= self.dimension:
            raise ValidityError(
                f"coordinate {self.coord} out of range 1..{self.dimension}"
            )

    def _eval(self, pts):
        return self.factor(pts.coords[self.coord - 1])


@dataclass(frozen=True)
class Product(HoloFunction):
    children: tuple

    def __post_init__(self):
        children = tuple(self.children)
        if not children:
            raise ValidityError("empty product")
        n = children[0].dimension
        for c in children:
            if c.dimension != n:
                raise DimensionMismatch("product mixes dimensions")
        object.__setattr__(self, "children", children)

    @property
    def dimension(self) -> int:
        return self.children[0].dimension

    @cached_property
    def _runs(self) -> tuple:
        """The children in order, each maximal run of two or more
        consecutive Blaschke leaves on one coordinate replaced by
        (coord, alphas, phases). Built on first evaluation: most products
        pullback and flatten build are never evaluated."""
        runs = []
        for coord, group in itertools.groupby(
            self.children,
            lambda c: c.coord if isinstance(c, BlaschkeFactor) else None,
        ):
            group = list(group)
            if coord is None or len(group) == 1:
                runs.extend(group)
            else:
                runs.append((
                    coord,
                    np.array([c.factor.alpha for c in group]),
                    np.array([c.factor.phase for c in group]),
                ))
        return tuple(runs)

    def _eval(self, pts):
        out = None
        for run in self._runs:
            if isinstance(run, HoloFunction):
                values = (run._eval(pts),)
            else:
                values = _stacked_leaves(*run, pts)
            for v in values:
                # not out * ...: from 16 384 points up numpy reuses the
                # temporary right operand and multiplies in the other order
                out = v if out is None else np.multiply(out, v)
        return out


def _stacked_leaves(coord, alphas, phases, pts):
    """Values of the Blaschke leaves (alphas[i], phases[i]) on coordinate
    ``coord``, in order, at most _STACK_ELEMENTS elements per ``_moebius``
    call; slice i is that leaf's own evaluation bit for bit."""
    z = pts.coords[coord - 1]
    shape = (-1,) + (1,) * z.ndim
    size = max(1, _STACK_ELEMENTS // max(1, z.size))
    for lo in range(0, len(alphas), size):
        yield from _moebius(
            alphas[lo : lo + size].reshape(shape),
            phases[lo : lo + size].reshape(shape),
            z[np.newaxis],
        )


def product_of(children) -> HoloFunction:
    """Product node, collapsing a single child to itself."""
    children = tuple(children)
    if len(children) == 1:
        return children[0]
    return Product(children)


@dataclass(frozen=True)
class Power(HoloFunction):
    child: HoloFunction
    exponent: int

    def __post_init__(self):
        if self.exponent < 1:
            raise ValidityError("power exponent must be >= 1")

    @property
    def dimension(self) -> int:
        return self.child.dimension

    def _eval(self, pts):
        return self.child._eval(pts) ** self.exponent


@dataclass(frozen=True)
class Composed(HoloFunction):
    """outer composed with an automorphism: z -> outer(auto(z)), the
    composition operator C_auto applied to outer."""

    auto: PolydiskAutomorphism
    outer: HoloFunction

    def __post_init__(self):
        if self.auto.dimension != self.outer.dimension:
            raise DimensionMismatch("automorphism and function dimensions differ")

    @property
    def dimension(self) -> int:
        return self.outer.dimension

    def _eval(self, pts):
        return self.outer._eval(self.auto.transform(pts))


def taylor_coeffs(f: HoloFunction, count: int) -> np.ndarray:
    """Taylor coefficients c_0..c_count of a one-variable tree.

    Discrete Fourier inversion of samples on |z| = 0.75 with
    Q = max(128, 4(count+1)) nodes. For ball functions |c_l| <= 1, so the
    aliasing error is at most 0.75**Q / (1 - 0.75**Q): the floor of 128
    nodes keeps it below 1e-15 even for low counts, where 4(count+1) alone
    would leave visible aliasing from slowly decaying coefficient tails.
    """
    if f.dimension != 1:
        raise DimensionMismatch("taylor_coeffs requires a one-variable function")
    if count < 0:
        raise ValidityError("coefficient count must be >= 0")
    q = max(128, 4 * (count + 1))
    nodes = TAYLOR_RADIUS * np.exp(2j * np.pi * np.arange(q) / q)
    samples = f.eval_grid(nodes.reshape(-1, 1))
    hat = np.fft.fft(samples) / q
    powers = TAYLOR_RADIUS ** np.arange(count + 1)
    return hat[: count + 1] / powers


def is_blaschke_type(f: HoloFunction) -> bool:
    """True when the tree is inner and continuous on the closed polydisk by
    construction: coordinates, Blaschke factors, unimodular constants, and
    products/powers/compositions thereof."""
    if isinstance(f, Constant):
        return abs(abs(f.value) - 1.0) <= 1e-12
    if isinstance(f, (Coordinate, BlaschkeFactor)):
        return True
    if isinstance(f, Product):
        return all(is_blaschke_type(c) for c in f.children)
    if isinstance(f, Power):
        return is_blaschke_type(f.child)
    if isinstance(f, Composed):
        return is_blaschke_type(f.outer)
    return False


def _pull(f: HoloFunction, phi) -> HoloFunction:
    if isinstance(f, Constant):
        return f
    if isinstance(f, Coordinate):
        if phi is None:
            return f
        return BlaschkeFactor(
            factor=phi.factors[f.index - 1],
            coord=phi.perm[f.index - 1] + 1,
            dimension=f.dimension,
        )
    if isinstance(f, BlaschkeFactor):
        if phi is None:
            return f
        return BlaschkeFactor(
            factor=mobius_compose(f.factor, phi.factors[f.coord - 1]),
            coord=phi.perm[f.coord - 1] + 1,
            dimension=f.dimension,
        )
    if isinstance(f, Product):
        return Product(tuple(_pull(c, phi) for c in f.children))
    if isinstance(f, Power):
        return Power(_pull(f.child, phi), f.exponent)
    if isinstance(f, Composed):
        inner = f.auto if phi is None else auto_compose(f.auto, phi)
        return _pull(f.outer, inner)
    raise ValidityError(f"cannot flatten node of type {type(f).__name__}")


def flatten(f: HoloFunction) -> HoloFunction:
    """Eliminate Composed nodes by folding automorphisms into the factors."""
    return _pull(f, None)


def pullback(f: HoloFunction, phi: PolydiskAutomorphism) -> HoloFunction:
    """Flattened normal form of f o phi; exact up to Moebius-composition
    rounding, with no Composed nodes in the result."""
    if f.dimension != phi.dimension:
        raise DimensionMismatch("pullback dimensions differ")
    return _pull(f, phi)


def remap_coordinates(f: HoloFunction, mapping: dict, new_dimension: int):
    """Rebuild a (flattened) tree with coordinates renamed via ``mapping``."""
    if isinstance(f, Constant):
        return Constant(f.value, new_dimension)
    if isinstance(f, Coordinate):
        return Coordinate(mapping[f.index], new_dimension)
    if isinstance(f, BlaschkeFactor):
        return BlaschkeFactor(f.factor, mapping[f.coord], new_dimension)
    if isinstance(f, Product):
        return Product(
            tuple(remap_coordinates(c, mapping, new_dimension) for c in f.children)
        )
    if isinstance(f, Power):
        return Power(remap_coordinates(f.child, mapping, new_dimension), f.exponent)
    raise ValidityError("remap requires a flattened tree")


def used_coordinates(f: HoloFunction) -> set:
    if isinstance(f, Constant):
        return set()
    if isinstance(f, Coordinate):
        return {f.index}
    if isinstance(f, BlaschkeFactor):
        return {f.coord}
    if isinstance(f, Product):
        out = set()
        for c in f.children:
            out |= used_coordinates(c)
        return out
    if isinstance(f, Power):
        return used_coordinates(f.child)
    if isinstance(f, Composed):
        raise ValidityError("flatten the tree before inspecting coordinates")
    raise ValidityError(f"unknown node type {type(f).__name__}")


def factor_product_form(f: HoloFunction):
    """Split a flattened tree into (constant, {coordinate: factor list}).

    Raises UnsupportedTargetShape when any multiplicative factor depends on
    more than one coordinate.
    """
    constant = complex(1.0)
    buckets: dict = {}

    def walk(node):
        nonlocal constant
        if isinstance(node, Constant):
            constant *= node.value
            return
        if isinstance(node, Product):
            for c in node.children:
                walk(c)
            return
        used = used_coordinates(node)
        if len(used) > 1:
            raise UnsupportedTargetShape(
                "factor depends on several coordinates; only per-variable "
                "product targets are supported for n >= 2"
            )
        if not used:  # a power of constants: constant everywhere
            constant *= node.eval((0.0,) * node.dimension)
            return
        buckets.setdefault(used.pop(), []).append(node)

    walk(f)
    return constant, buckets
