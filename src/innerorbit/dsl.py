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
parse -> serialize -> parse is the identity on trees.
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

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_]+)
      | (?P<sym>[*^()\[\]{}=,+-])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, dimension: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dimension = dimension

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect_sym(self, sym: str) -> _Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != sym:
            self.fail(f"expected {sym!r}, found {tok.text!r}")
        return self.next()

    def expect_name(self, name: str) -> _Token:
        tok = self.peek()
        if tok.kind != "name" or tok.text != name:
            self.fail(f"expected {name!r}, found {tok.text!r}")
        return self.next()

    # ---- numeric literals ------------------------------------------------
    def parse_real(self) -> float:
        sign = 1.0
        tok = self.peek()
        if tok.kind == "sym" and tok.text in "+-":
            self.next()
            sign = -1.0 if tok.text == "-" else 1.0
            tok = self.peek()
        if tok.kind != "number":
            self.fail(f"expected a number, found {tok.text!r}")
        self.next()
        return sign * float(tok.text)

    def parse_int(self) -> int:
        tok = self.peek()
        if tok.kind != "number" or not re.fullmatch(r"\d+", tok.text):
            self.fail(f"expected an integer, found {tok.text!r}")
        self.next()
        return int(tok.text)

    def parse_complex(self) -> complex:
        re_part = self.parse_real()
        tok = self.peek()
        if tok.kind != "sym" or tok.text not in "+-":
            self.fail("expected '+' or '-' inside a complex literal")
        self.next()
        sign = -1.0 if tok.text == "-" else 1.0
        tok = self.peek()
        if tok.kind != "number":
            self.fail("expected the imaginary part of a complex literal")
        self.next()
        im = sign * float(tok.text)
        self.expect_name("i")
        return complex(re_part, im)

    def parse_list(self, parse_item, what: str):
        self.expect_sym("[")
        items = [parse_item()]
        while self.peek().kind == "sym" and self.peek().text == ",":
            self.next()
            items.append(parse_item())
        self.expect_sym("]")
        if not items:
            self.fail(f"empty {what} list")
        return items

    # ---- grammar ---------------------------------------------------------
    def parse_expr(self) -> HoloFunction:
        factors = [self.parse_factor()]
        while self.peek().kind == "sym" and self.peek().text == "*":
            self.next()
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def parse_factor(self) -> HoloFunction:
        node = self.parse_primary()
        while self.peek().kind == "sym" and self.peek().text == "^":
            self.next()
            exponent = self.parse_int()
            try:
                node = Power(node, exponent)
            except ValidityError as exc:
                self.fail(str(exc))
        return node

    def parse_coord_suffix(self) -> int:
        self.expect_sym("[")
        index = self.parse_int()
        self.expect_sym("]")
        return index

    def parse_primary(self) -> HoloFunction:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "(":
            self.next()
            node = self.parse_expr()
            self.expect_sym(")")
            return node
        if tok.kind != "name":
            self.fail(f"expected a function term, found {tok.text!r}")
        if tok.text == "const":
            self.next()
            value = self.parse_complex()
            return self._build(Constant, value, self.dimension)
        if tok.text == "z":
            self.next()
            index = self.parse_coord_suffix()
            return self._build(Coordinate, index, self.dimension)
        if tok.text == "blaschke":
            self.next()
            self.expect_sym("(")
            alpha = self.parse_complex()
            self.expect_sym(",")
            theta = self.parse_real()
            self.expect_sym(")")
            coord = self.parse_coord_suffix()
            factor = self._build(MobiusFactor, alpha, theta)
            return self._build(BlaschkeFactor, factor, coord, self.dimension)
        if tok.text == "compose":
            self.next()
            self.expect_sym("(")
            outer = self.parse_expr()
            self.expect_sym(",")
            auto = self.parse_autospec()
            self.expect_sym(")")
            return self._build(Composed, auto, outer)
        self.fail(f"unknown term {tok.text!r}")

    def parse_autospec(self) -> PolydiskAutomorphism:
        self.expect_name("auto")
        self.expect_sym("{")
        self.expect_name("p")
        self.expect_sym("=")
        perm = self.parse_list(self.parse_int, "permutation")
        self.expect_sym(",")
        self.expect_name("a")
        self.expect_sym("=")
        alphas = self.parse_list(self.parse_complex, "alpha")
        self.expect_sym(",")
        self.expect_name("t")
        self.expect_sym("=")
        thetas = self.parse_list(self.parse_real, "theta")
        self.expect_sym("}")
        if not len(perm) == len(alphas) == len(thetas) == self.dimension:
            self.fail(
                f"automorphism lists must all have length {self.dimension}"
            )
        factors = tuple(
            self._build(MobiusFactor, a, t) for a, t in zip(alphas, thetas)
        )
        return self._build(
            PolydiskAutomorphism, factors, tuple(p - 1 for p in perm)
        )

    def _build(self, cls, *args):
        try:
            return cls(*args)
        except (ValidityError,) as exc:
            tok = self.peek()
            raise ValidityError(
                f"{exc} (near line {tok.line}, column {tok.column})"
            ) from exc


def _parse_whole(text: str, dimension: int, rule):
    """``rule`` applied to all of ``text``; input left over is a ParseError."""
    parser = _Parser(text, dimension)
    node = rule(parser)
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"trailing input {tok.text!r}")
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
