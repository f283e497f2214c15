"""Polynomial expression parsing and the print/parse round trip."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liftcheck.algebra import Poly
from liftcheck.expr import MAX_NESTING, ParseError, parse_poly

XY = ("x", "y")


def test_basic_expression():
    assert parse_poly("x^2 - 2*x*y + 1/2", XY) == Poly(
        XY, {(2, 0): 1, (1, 1): -2, (0, 0): Fraction(1, 2)}
    )


def test_rational_literals_and_unary_minus():
    assert parse_poly("-3/4", XY) == Poly.const(Fraction(-3, 4), XY)
    assert parse_poly("-x^2", XY) == Poly(XY, {(2, 0): -1})
    assert parse_poly("2 - -x", XY) == Poly(XY, {(0, 0): 2, (1, 0): 1})


def test_parentheses_and_powers():
    assert parse_poly("(x + y)^2", XY) == Poly(XY, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert parse_poly("2*(x - 1)*(x + 1)", XY) == Poly(XY, {(2, 0): 2, (0, 0): -2})


def test_unknown_coordinate_reports_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x + q", XY)
    assert "q" in str(err.value)
    assert err.value.column == 4


def test_division_by_variable_rejected():
    with pytest.raises(ParseError, match="rational literals"):
        parse_poly("x/2", XY)
    with pytest.raises(ParseError):
        parse_poly("1/x", XY)


def test_syntax_errors():
    for bad in ("", "x +", "(x", "x ^ y", "x 2", "*x"):
        with pytest.raises(ParseError):
            parse_poly(bad, XY)


def test_nesting_depth_is_capped_at_the_offending_column():
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_poly(deepest, XY) == Poly.variable("x", XY)
    with pytest.raises(ParseError, match="nested deeper") as err:
        parse_poly("(" * 3000 + "x" + ")" * 3000, XY)
    assert err.value.column == MAX_NESTING


def test_long_unary_sign_chain():
    assert parse_poly("-" * 3000 + "x", XY) == Poly.variable("x", XY)
    assert parse_poly("-+" * 1501 + "x^2", XY) == Poly(XY, {(2, 0): -1})


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
        terms[exps] = draw(fractions)
    return Poly(XY, terms)


@settings(max_examples=60, deadline=None)
@given(polys())
def test_print_parse_round_trip(poly):
    assert parse_poly(str(poly), XY) == poly
