"""The function-expression DSL and its canonical serializer.

Grammar (whitespace-insensitive):

    expr    := factor { "*" factor }
    factor  := "const" COMPLEX | "z" "[" INT "]"
             | "blaschke" "(" COMPLEX "," REAL ")" "[" INT "]"
             | "compose" "(" expr "," autospec ")" | "(" expr ")"
             | factor "^" INT
    autospec:= "auto" "{" "p=" INTLIST "," "a=" COMPLEXLIST "," "t=" REALLIST "}"
    COMPLEX := REAL ("+"|"-") REAL "i"

Serialization renders every float with 17 significant digits, so
parse -> serialize -> parse is the identity on trees within MAX_NESTING.
"""

from __future__ import annotations

import re

from .automorphisms import MobiusFactor, PolydiskAutomorphism
from .errors import ParseError, ValidityError
from .holo import (
    BlaschkeFactor,
    Composed,
    Constant,
    Coordinate,
    HoloFunction,
    Power,
    Product,
)

_TOKEN_RE = re.compile(r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                       r"|(?P<name>[A-Za-z_]+)"
                       r"|(?P<sym>[*^()\[\]{}=,+-])"
                       r"|(?P<bad>\S))")

#: the deepest nesting a text may have: each "(", "compose(" and applied
#: "^" is one level, and a power sits one level above the deepest level of
#: its operand, so neither the reader nor the tree it builds nests further
#: than this and both stay well within the interpreter's recursion limit.
#: The serializer puts parentheses around a power of a power, and they
#: count too: a chain of m powers reads at m levels but serializes at 2m - 1.
MAX_NESTING = 100


def _position(text: str, offset: int) -> tuple:
    """(line, column) of ``offset`` in ``text``, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list:
    """(kind, text, offset) of every token, then an eof token at the end."""
    tokens = [(m.lastgroup, m[m.lastindex], m.start(m.lastindex))
              for m in _TOKEN_RE.finditer(text)]
    for kind, chunk, offset in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {chunk!r}",
                             *_position(text, offset))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens. A token's text fixes its kind,
    numbers apart, so the grammar compares texts only."""

    def __init__(self, text: str, dimension: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        #: the nesting level, and the deepest one the current factor reached
        self.depth = self.reach = 0
        self.dimension = dimension

    def peek(self) -> str:
        return self.tokens[self.pos][1]

    def fail(self, message: str):
        raise ParseError(message, *_position(self.text, self.tokens[self.pos][2]))

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos][1] != text:
            return False
        self.pos += 1
        return True

    def expect(self, text: str) -> None:
        if not self.accept(text):
            self.fail(f"expected {text!r}, found {self.peek()!r}")

    def nest(self, text: str) -> bool:
        """accept(text), with ``text`` opening one more level of nesting."""
        if self.peek() == text and self.depth == MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        opened = self.accept(text)
        self.depth += opened
        return opened

    # ---- numeric literals ------------------------------------------------
    def parse_real(self, message="expected a number, found {!r}") -> float:
        """A number after an optional sign; ``message`` names what is missing."""
        sign = -1.0 if self.peek() == "-" else 1.0
        if self.peek() in ("+", "-"):
            self.pos += 1
        kind, text, _ = self.tokens[self.pos]
        if kind != "number":
            self.fail(message.format(text))
        self.pos += 1
        return sign * float(text)

    def parse_int(self) -> int:
        text = self.peek()
        if not text.isdecimal():
            self.fail(f"expected an integer, found {text!r}")
        self.pos += 1
        return int(text)

    def parse_complex(self) -> complex:
        re_part = self.parse_real()
        if self.peek() not in ("+", "-"):
            self.fail("expected '+' or '-' inside a complex literal")
        im = self.parse_real("expected the imaginary part of a complex literal")
        self.expect("i")
        return complex(re_part, im)

    def parse_list(self, parse_item, *opening) -> list:
        """``opening``, then "[" item {"," item} "]"."""
        for text in (*opening, "["):
            self.expect(text)
        items = [parse_item()]
        while self.accept(","):
            items.append(parse_item())
        self.expect("]")
        return items

    # ---- grammar ---------------------------------------------------------
    def parse_expr(self) -> HoloFunction:
        factors = [self.parse_factor()]
        while self.accept("*"):
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def parse_factor(self) -> HoloFunction:
        depth, reach = self.depth, self.reach
        self.reach = depth
        node = self.parse_primary()
        self.depth = self.reach  # a power sits above its operand's deepest level
        while self.nest("^"):
            exponent = self.parse_int()
            try:
                node = Power(node, exponent)
            except ValidityError as exc:
                self.fail(str(exc))
        self.depth, self.reach = depth, max(reach, self.depth)
        return node

    def parse_coord_suffix(self) -> int:
        self.expect("[")
        index = self.parse_int()
        self.expect("]")
        return index

    def parse_primary(self) -> HoloFunction:
        if self.nest("("):
            node = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return node
        if self.nest("compose"):
            self.expect("(")
            outer = self.parse_expr()
            self.expect(",")
            auto = self.parse_autospec()
            self.expect(")")
            self.depth -= 1
            return Composed(auto, outer)
        if self.accept("const"):
            value = self.parse_complex()
            return self._build(Constant, value, self.dimension)
        if self.accept("z"):
            index = self.parse_coord_suffix()
            return self._build(Coordinate, index, self.dimension)
        if self.accept("blaschke"):
            self.expect("(")
            alpha = self.parse_complex()
            self.expect(",")
            theta = self.parse_real()
            self.expect(")")
            coord = self.parse_coord_suffix()
            factor = self._build(MobiusFactor, alpha, theta)
            return self._build(BlaschkeFactor, factor, coord, self.dimension)
        kind, text, _ = self.tokens[self.pos]
        if kind == "name":
            self.fail(f"unknown term {text!r}")
        self.fail(f"expected a function term, found {text!r}")

    def parse_autospec(self) -> PolydiskAutomorphism:
        self.expect("auto")
        perm, alphas, thetas = [
            self.parse_list(parse_item, opener, key, "=")
            for opener, key, parse_item in (("{", "p", self.parse_int),
                                            (",", "a", self.parse_complex),
                                            (",", "t", self.parse_real))]
        self.expect("}")
        if not len(perm) == len(alphas) == len(thetas) == self.dimension:
            self.fail(f"automorphism lists must all have length {self.dimension}")
        factors = tuple(self._build(MobiusFactor, a, t) for a, t in zip(alphas, thetas))
        return self._build(PolydiskAutomorphism, factors, tuple(p - 1 for p in perm))

    def _build(self, cls, *args):
        try:
            return cls(*args)
        except ValidityError as exc:
            line, column = _position(self.text, self.tokens[self.pos][2])
            raise ValidityError(f"{exc} (near line {line}, column {column})") from exc


def _parse_whole(text: str, dimension: int, rule):
    """``rule`` applied to all of ``text``; input left over is a ParseError."""
    parser = _Parser(text, dimension)
    node = rule(parser)
    if parser.peek():
        parser.fail(f"trailing input {parser.peek()!r}")
    return node


def parse_function_dsl(text: str, dimension: int) -> HoloFunction:
    """Parse one expression; raises ParseError with position on syntax
    errors and ValidityError on constraint violations."""
    if dimension < 1:
        raise ValidityError("dimension must be positive")
    return _parse_whole(text, dimension, _Parser.parse_expr)


def parse_autospec(text: str, dimension: int) -> PolydiskAutomorphism:
    """Parse one ``auto{...}`` literal, with the errors of parse_function_dsl."""
    return _parse_whole(text, dimension, _Parser.parse_autospec)


def parse_complex(text: str) -> complex:
    """Parse one COMPLEX literal such as ``-0.6-0.8i``; ParseError otherwise."""
    return _parse_whole(text, 1, _Parser.parse_complex)


# ---------------------------------------------------------------------------
# canonical serialization

def format_real(x: float) -> str:
    return f"{float(x):.17g}"


def format_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def serialize_automorphism(phi: PolydiskAutomorphism) -> str:
    p = ",".join(str(i) for i in phi.perm_one_based)
    a = ",".join(format_complex(f.alpha) for f in phi.factors)
    t = ",".join(format_real(f.theta) for f in phi.factors)
    return f"auto{{p=[{p}], a=[{a}], t=[{t}]}}"


def serialize_function(f: HoloFunction) -> str:
    """Canonical text form; parse(serialize(f)) equals f node for node."""
    if isinstance(f, Constant):
        return f"const {format_complex(f.value)}"
    if isinstance(f, Coordinate):
        return f"z[{f.index}]"
    if isinstance(f, BlaschkeFactor):
        return (
            f"blaschke({format_complex(f.factor.alpha)}, "
            f"{format_real(f.factor.theta)})[{f.coord}]"
        )
    if isinstance(f, Product):
        return " * ".join(_serialize_factor(c) for c in f.children)
    if isinstance(f, Power):
        return f"{_serialize_factor(f.child)}^{f.exponent}"
    if isinstance(f, Composed):
        return (
            f"compose({serialize_function(f.outer)}, "
            f"{serialize_automorphism(f.auto)})"
        )
    raise ValidityError(f"cannot serialize node of type {type(f).__name__}")


def _serialize_factor(f: HoloFunction) -> str:
    text = serialize_function(f)
    if isinstance(f, (Product, Power)):
        return f"({text})"
    return text
