"""Expression trees for bounded holomorphic functions on the polydisk.

The grammar is closed under the operations the rest of the library needs:
constants of modulus <= 1, coordinates, per-coordinate Blaschke factors,
products, integer powers, and composition with polydisk automorphisms.
Every tree evaluates into the closed unit disk by construction, and
composition with an automorphism is exact (same floating computation as
evaluating the automorphism first).

Nodes evaluate on a ``PointAxes``: one array per coordinate, broadcasting
together. A Blaschke factor touches only its own coordinate's array and a
product multiplies its children left to right, so on a tensor grid each
partial product keeps the smallest broadcast shape while every point still
gets exactly the floating-point operations of pointwise evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automorphisms import (
    MobiusFactor,
    PolydiskAutomorphism,
    auto_compose,
    auto_inverse,
    mobius_compose,
)
from .errors import DimensionMismatch, EvaluationOutsideDomain, ValidityError
from .geometry import CLOSURE_TOL, CPoint, PointAxes, TorusPoint

#: sampling radius for one-variable Taylor coefficients
TAYLOR_RADIUS = 0.75


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


def evaluate(f: HoloFunction, point) -> complex:
    return f.eval(point)


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

    def _eval(self, pts):
        out = self.children[0]._eval(pts)
        for c in self.children[1:]:
            out = out * c._eval(pts)
        return out


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
    """outer composed with an automorphism: z -> outer(auto(z))."""

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


@dataclass(frozen=True)
class CompositionOperator:
    """T = C_phi (f -> f o phi), or its exact right inverse when inverse=True."""

    phi: PolydiskAutomorphism
    inverse: bool = False

    @property
    def symbol(self) -> PolydiskAutomorphism:
        return auto_inverse(self.phi) if self.inverse else self.phi


def apply_operator(op: CompositionOperator, f: HoloFunction) -> HoloFunction:
    """Return f o phi as a lazy node; evaluation matches evaluating phi first
    bit for bit."""
    if op.phi.dimension != f.dimension:
        raise DimensionMismatch("operator and function dimensions differ")
    return Composed(auto=op.symbol, outer=f)


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
    from .errors import UnsupportedTargetShape

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
        coord = used.pop()
        buckets.setdefault(coord, []).append(node)

    walk(f)
    return constant, buckets
