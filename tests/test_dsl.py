import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerorbit import (
    BlaschkeFactor,
    Composed,
    Constant,
    Coordinate,
    Power,
    Product,
    parse_function_dsl,
    serialize_function,
)
from innerorbit.dsl import MAX_NESTING, parse_autospec, parse_complex
from innerorbit.errors import ParseError, ValidityError

from util import random_blaschke_tree, random_interior_points


def test_parse_constant():
    f = parse_function_dsl("const 0.5+0i", 1)
    assert f == Constant(0.5, 1)


def test_parse_negative_and_scientific():
    f = parse_function_dsl("const -0.3-4e-1i", 2)
    assert f == Constant(complex(-0.3, -0.4), 2)


def test_parse_product_with_blaschke():
    f = parse_function_dsl("blaschke(0.5+0i, 0.0)[1] * z[2]", 2)
    assert isinstance(f, Product)
    assert isinstance(f.children[0], BlaschkeFactor)
    assert f.children[0].factor.alpha == 0.5
    assert f.children[1] == Coordinate(2, 2)


def test_parse_power_and_parens():
    f = parse_function_dsl("(z[1] * z[1])^3", 1)
    assert isinstance(f, Power)
    assert f.exponent == 3


def test_parse_compose_swaps_coordinates():
    text = (
        "compose(z[1], auto{p=[2,1], a=[0+0i,0+0i], "
        "t=[3.141592653589793,3.141592653589793]})"
    )
    f = parse_function_dsl(text, 2)
    assert isinstance(f, Composed)
    rng = np.random.default_rng(101)
    pts = random_interior_points(rng, 20, 2)
    expected = pts[:, 1]
    got = f.eval_grid(pts)
    assert np.max(np.abs(got - expected)) < 1e-15


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_function_dsl("const 0.5+0i * bogus", 1)
    assert err.value.line == 1
    assert err.value.column == 16


def test_parse_rejects_invalid_alpha():
    with pytest.raises(ValidityError):
        parse_function_dsl("blaschke(1.5+0i, 0.0)[1]", 1)


def test_parse_rejects_large_constant():
    with pytest.raises(ValidityError):
        parse_function_dsl("const 1.5+0i", 1)


def test_parse_rejects_out_of_range_coordinate():
    with pytest.raises(ValidityError):
        parse_function_dsl("z[3]", 2)


def test_parse_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse_function_dsl("z[1] z[1]", 1)


def test_round_trip_identity_on_random_trees():
    rng = np.random.default_rng(103)
    for _ in range(25):
        n = int(rng.integers(1, 3))
        f = random_blaschke_tree(rng, n, with_constant=True)
        text = serialize_function(f)
        again = parse_function_dsl(text, n)
        assert again == f
        assert serialize_function(again) == text


def test_round_trip_nested_structures():
    inner = Product((Coordinate(1, 2), Coordinate(2, 2)))
    f = Product((Power(inner, 2), Constant(0.5j, 2)))
    text = serialize_function(f)
    assert parse_function_dsl(text, 2) == f


def test_serialization_uses_17_digits():
    f = Constant(1.0 / 3.0, 1)
    text = serialize_function(f)
    assert "0.33333333333333331" in text


def test_whitespace_insensitive():
    a = parse_function_dsl("const 0.5 + 0 i * z[1]".replace(" ", ""), 1)
    b = parse_function_dsl("const 0.5 + 0 i  *  z[ 1 ]", 1)
    assert a == b


# (reader, text, dimension, error class or None, message, line, column); a
# ValidityError carries its position in the message only
ERROR_TABLE = [
    (parse_function_dsl, "z[1] *\n  z[2] # x", 2, ParseError,
     "unexpected character '#'", 2, 8),
    (parse_function_dsl, "z[1] * ;", 1, ParseError,
     "unexpected character ';'", 1, 8),
    (parse_function_dsl, "const 0.5+0 ", 1, ParseError,
     "expected 'i', found ''", 1, 13),
    (parse_function_dsl, "z[1]^0", 1, ParseError,
     "power exponent must be >= 1", 1, 7),
    (parse_function_dsl, "z[1]^-1", 1, ParseError,
     "expected an integer, found '-'", 1, 6),
    (parse_function_dsl, "(z[1]", 1, ParseError,
     "expected ')', found ''", 1, 6),
    (parse_function_dsl, "z[1.5]", 1, ParseError,
     "expected an integer, found '1.5'", 1, 3),
    (parse_function_dsl, "\n\nz[3]", 2, ValidityError,
     "coordinate 3 out of range 1..2 (near line 3, column 5)", None, None),
    (parse_function_dsl, "blaschke(1.5+0i, 0)[1]", 1, ValidityError,
     "|alpha| = 1.5 is not < 1 (near line 1, column 23)", None, None),
    (parse_function_dsl, "blaschke(0.5+0i 0)[1]", 1, ParseError,
     "expected ',', found '0'", 1, 17),
    (parse_function_dsl, "const 0.5 0i", 1, ParseError,
     "expected '+' or '-' inside a complex literal", 1, 11),
    (parse_function_dsl, "const 0.5+i", 1, ParseError,
     "expected the imaginary part of a complex literal", 1, 11),
    (parse_function_dsl, "foo[1]", 1, ParseError, "unknown term 'foo'", 1, 1),
    (parse_function_dsl, "* z[1]", 1, ParseError,
     "expected a function term, found '*'", 1, 1),
    (parse_function_dsl, "", 1, ParseError,
     "expected a function term, found ''", 1, 1),
    (parse_function_dsl, "z[1] z[1]", 1, ParseError, "trailing input 'z'", 1, 6),
    (parse_function_dsl, "compose(z[1], auto{p=[1], q=[0+0i], t=[0]})", 1,
     ParseError, "expected 'a', found 'q'", 1, 27),
    (parse_function_dsl, "compose(z[1], auto{p=[1], a=[0+0i], t=[0]} )) ", 1,
     ParseError, "trailing input ')'", 1, 45),
    (parse_autospec, "auto{p=[1,2], a=[0+0i], t=[0]}", 2, ParseError,
     "automorphism lists must all have length 2", 1, 31),
    (parse_autospec, "auto{p=[2,2], a=[0+0i,0+0i], t=[0,0]}", 2, ValidityError,
     "(1, 1) is not a permutation of 0..1 (near line 1, column 38)", None, None),
    (lambda text, n: parse_complex(text), "1+2i x", 1, ParseError,
     "trailing input 'x'", 1, 6),
    (parse_function_dsl, "z[1]\t\n", 1, None, None, None, None),
    (parse_function_dsl, "z[1] *\tz[1]\n\n", 1, None, None, None, None),
]


@pytest.mark.parametrize("reader,text,n,cls,message,line,column", ERROR_TABLE)
def test_error_class_message_and_position(reader, text, n, cls, message, line,
                                          column):
    if cls is None:
        reader(text, n)
        return
    with pytest.raises(cls) as err:
        reader(text, n)
    if cls is ParseError:
        message += f" (line {line}, column {column})"
        assert (err.value.line, err.value.column) == (line, column)
    assert type(err.value) is cls
    assert str(err.value) == message


_SERIAL_TOKEN = re.compile(r"[0-9.]+(?:e[+-][0-9]+)?|[A-Za-z_]+|\S")


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 2), st.integers(0, 2**32 - 1), st.booleans())
def test_whitespace_between_tokens_keeps_the_tree(data, n, seed, with_constant):
    f = random_blaschke_tree(np.random.default_rng(seed), n,
                             with_constant=with_constant)
    tokens = _SERIAL_TOKEN.findall(serialize_function(f))
    gaps = data.draw(st.lists(st.text(" \t\n", max_size=4),
                              min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = "".join(g + t for g, t in zip(gaps, tokens + [""]))
    assert parse_function_dsl(text, n) == f


AUTO_1 = "auto{p=[1], a=[0+0i], t=[0]}"


def _compose(text: str, times: int) -> str:
    return "compose(" * times + text + f", {AUTO_1})" * times


_M = MAX_NESTING


# (a text at the bound, the one-level-deeper text, the column refusing it)
@pytest.mark.parametrize("text,deeper,column", [
    ("(" * _M + "z[1]" + ")" * _M, "(" * (_M + 1) + "z[1]" + ")" * (_M + 1), _M + 1),
    (_compose("z[1]^1", _M - 1), _compose("z[1]^1^1", _M - 1), 8 * (_M - 1) + 7),
    ("(z[1] * " * _M + "z[1]" + ")" * _M,
     "(z[1] * " * (_M + 1) + "z[1]" + ")" * (_M + 1), 8 * _M + 1),
], ids=["parentheses", "compose-power", "products"])
def test_nesting_at_the_bound_round_trips_and_one_more_level_is_refused(
        text, deeper, column):
    f = parse_function_dsl(text, 1)
    assert parse_function_dsl(serialize_function(f), 1) == f
    with pytest.raises(ParseError) as err:
        parse_function_dsl(deeper, 1)
    assert str(err.value).startswith(f"nesting deeper than {_M} levels")
    assert (err.value.line, err.value.column) == (1, column)


def test_powers_stack_on_their_operand():
    """``(z[1]^1 ...)^1 ...``: the outer powers nest above the inner ones,
    as they do in the tree."""
    inner = "(" + "z[1]" + "^1" * (MAX_NESTING - 2) + ")"
    assert isinstance(parse_function_dsl(inner + "^1", 1), Power)
    with pytest.raises(ParseError, match="nesting deeper"):
        parse_function_dsl(inner + "^1^1", 1)
