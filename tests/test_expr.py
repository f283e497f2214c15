"""Polynomial expression parsing and the print/parse round trip."""

import re
import sys
from fractions import Fraction
from math import comb, factorial
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from liftcheck import expr
from liftcheck.algebra import Poly
from liftcheck.expr import (
    DEFAULT_DIGITS, MAX_DEGREE, MAX_NESTING, MAX_TERMS, ParseError, _digit_limit, _parse_general, _read_sum,
    _tokenize, is_name, parse_poly,
)

XY = ("x", "y")
ABC = ("a1", "b1", "c1")


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


def test_degree_cap_holds_up_to_and_including_max_degree():
    half = MAX_DEGREE // 2
    assert parse_poly(f"x^{MAX_DEGREE}", XY) == Poly(XY, {(MAX_DEGREE, 0): 1})
    assert parse_poly(f"x^{half}*y^{MAX_DEGREE - half}", XY).total_degree() == MAX_DEGREE
    assert parse_poly(f"3^2*x^{MAX_DEGREE - 1}*(y - 1)", XY).total_degree() == MAX_DEGREE
    # a sum keeps the degree of its terms
    assert parse_poly(f"x^{MAX_DEGREE} + y^{MAX_DEGREE}", XY).total_degree() == MAX_DEGREE


@pytest.mark.parametrize("text, degree, column", [
    ("x^100000000", 100000000, 1),
    ("(x+y)^3000", 3000, 5),
    (f"x*(x+y)^{MAX_DEGREE}", MAX_DEGREE + 1, 1),
    ("((x+y)^40)^30", 1200, 10),
    (f"(x+y)^600*(x - 1)^{MAX_DEGREE - 600}*y", MAX_DEGREE + 1, 21),
    (f"2 + y*(x^{MAX_DEGREE})", MAX_DEGREE + 1, 5),
], ids=["power-of-a-coordinate", "power-of-a-sum", "product", "nested-power",
        "product-of-powers", "inside-a-sum"])
def test_degree_past_the_cap_is_refused_at_its_operator(text, degree, column, monkeypatch):
    # refused before it is computed: no power or product past the cap is formed
    formed = []
    pow_, mul = Poly.__pow__, Poly.__mul__

    def counted_pow(self, k):
        formed.append(self.total_degree() * k)
        return pow_(self, k)

    def counted_mul(self, other):
        formed.append(self.total_degree() + getattr(other, "total_degree", int)())
        return mul(self, other)

    monkeypatch.setattr(Poly, "__pow__", counted_pow)
    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    with pytest.raises(ParseError) as err:
        parse_poly(text, XY)
    assert str(err.value) == (f"total degree {degree} exceeds the cap of {MAX_DEGREE} "
                              f"(column {column + 1})")
    assert err.value.column == column
    assert max(formed, default=0) <= MAX_DEGREE


def test_long_unary_sign_chain():
    assert parse_poly("-" * 3000 + "x", XY) == Poly.variable("x", XY)
    assert parse_poly("-+" * 1501 + "x^2", XY) == Poly(XY, {(2, 0): -1})


@pytest.mark.parametrize("text, message, column", [
    ("x + $", "unexpected character '$'", 4),
    ("\tx\t+\tq", "unknown coordinate 'q'", 5),
    ("x 2", "unexpected '2' after expression", 2),
    ("x^\u00b2", "unexpected character '\u00b2'", 2),
])
def test_tokenizer_messages_and_columns(text, message, column):
    with pytest.raises(ParseError) as err:
        parse_poly(text, XY)
    assert err.value.args[0] == message
    assert err.value.column == column


def test_tokens_and_columns():
    assert _tokenize("\tx_1^12 +(3/4*y)") == [
        ("name", "x_1", 1), ("sym", "^", 4), ("int", "12", 5), ("sym", "+", 8),
        ("sym", "(", 9), ("int", "3", 10), ("sym", "/", 11), ("int", "4", 12),
        ("sym", "*", 13), ("name", "y", 14), ("sym", ")", 15),
    ]


def test_integers_are_ascii_digits_only():
    # superscript two, Arabic-Indic three, fullwidth one: digits to str.isdigit
    for digit in ("\u00b2", "\u0663", "\uff11"):
        for text in (f"x^{digit}", f"{digit}*x", f"2{digit}", f"1/{digit}"):
            with pytest.raises(ParseError, match="unexpected character") as err:
                parse_poly(text, XY)
            assert err.value.column == text.index(digit)


def test_long_sum_is_built_without_poly_addition(monkeypatch):
    terms = {(i, j): Fraction((-1) ** i * (i + 2 * j + 1), j % 4 + 1)
             for i in range(15) for j in range(15)}
    poly = Poly(XY, terms)
    assert len(poly.terms) == 225
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        original = getattr(Poly, name)

        def counting(self, other, _name=name, _original=original):
            calls.append(_name)
            return _original(self, other)

        monkeypatch.setattr(Poly, name, counting)
    assert parse_poly(str(poly), XY) == poly
    assert parse_poly(f"{poly} - ({poly})", XY) == Poly.zero(XY)
    assert calls == []
    # operation counts, not timings: the one-pass reader takes the printed
    # form, and only other text reaches the tokenizer and Poly products
    series = parse_poly("(a1+b1+c1)^60", ABC)
    assert len(series.terms) == 1891
    tokenized, multiplied = [], []
    tokenize, mul = expr._tokenize, Poly.__mul__

    def counted_tokenize(text):
        tokenized.append(text)
        return tokenize(text)

    def counted_mul(self, other):
        multiplied.append(other)
        return mul(self, other)

    monkeypatch.setattr(expr, "_tokenize", counted_tokenize)
    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    assert parse_poly(str(series), ABC) == series
    assert (len(tokenized), len(multiplied), calls) == (0, 0, [])
    assert parse_poly("-1 - (a1-b1+c1)^12", ABC).total_degree() == 12
    assert len(tokenized) == 1


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


# -- differential and fuzz tests of the one-pass monomial reader ------------------

VARS = ("x", "y", "z_1")


@st.composite
def expressions(draw, depth=2):
    """(text, value, support) of a sum of terms, drawn by the grammar the parser
    reads; the value is built with public Poly arithmetic, independently of the
    parser, and support is the most terms in the support of any power or
    product of two sums formed on the way (``reference.sumset``), or 0."""
    text, value, support = draw(terms(depth))
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from("+-"))
        term_text, term_value, term_support = draw(terms(depth))
        text = f"{text} {op} {term_text}"
        value = value + term_value if op == "+" else value - term_value
        support = max(support, term_support)
    return text, value, support


@st.composite
def terms(draw, depth):
    text, value, support = draw(factors(depth))
    for _ in range(draw(st.integers(0, 2))):
        factor_text, factor_value, factor_support = draw(factors(depth))
        support = max(support, factor_support)
        if len(value.terms) > 1 and len(factor_value.terms) > 1:
            support = max(support, len(reference.sumset(value.terms, factor_value.terms)))
        text, value = f"{text}*{factor_text}", value * factor_value
    return text, value, support


@st.composite
def factors(draw, depth):
    signs = draw(st.text("+-", max_size=3))
    text, value, support = draw(primaries(depth))
    if draw(st.booleans()):
        k = draw(st.integers(0, 6))
        if k > 1 and len(value.terms) > 1:
            keys = value.terms
            for _ in range(k - 1):
                keys = reference.sumset(keys, value.terms)
            support = max(support, len(keys))
        text, value = f"{text}^{k}", value**k
    return signs + text, -value if signs.count("-") % 2 else value, support


@st.composite
def primaries(draw, depth):
    kinds = ["int", "rational", "coordinate"] + (["paren"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        # zero is drawn often, so zero factors inside products are common
        n = draw(st.integers(0, 3) | st.integers(0, 99))
        return str(n), Poly.const(n, VARS), 0
    if kind == "rational":
        n, d = draw(st.integers(0, 12)), draw(st.integers(1, 9))
        return f"{n}/{d}", Poly.const(Fraction(n, d), VARS), 0
    if kind == "coordinate":
        name = draw(st.sampled_from(VARS))
        return name, Poly.variable(name, VARS), 0
    text, value, support = draw(expressions(depth - 1))
    return f"({text})", value, support


# a power of a 10-term sum over 2 variables: comb(10 + 5, 6) = 5,005 products of
# terms, but comb(2 + 18, 2) = 190 monomials of degree at most 18
POWER_OF_A_POWER = "(0 + (0^0 + x + y)^3)^6"
ONE_X_Y = Poly.const(1, VARS) + Poly.variable("x", VARS) + Poly.variable("y", VARS)
# powers within MAX_TERMS, each with its support, that looser bounds refused:
# both comb bounds (8,568 and 17,296 for the first, 8,008 and 5,456 for the
# second) and, for the third, a count of each variable's exponents up to its cap
CAPPED_POWERS = [
    ("0*(0 + z_1*(x + 1)^6*(0 + 0^0*0^0 + x*1*y))^5", Poly.zero(VARS), 186),
    ("0 + 0*(1*x^4*z_1 + 1*(1 + x + y)^3)^6", Poly.zero(VARS), 511),
    ("0 + 0*(0 + 0^0*y + 0^0*(x + z_1 + x*x)^4)^6", Poly.zero(VARS), 861),
]
# a product of two 84-term powers whose 7,056 sums of keys are all distinct
X, Y, Z = (Poly.variable(name, VARS) for name in VARS)
PAST_THE_CAP = ("(x + y + z_1 + 1)^6*(x^6*x + y^6*y + z_1^6*z_1 + 1)^6",
                (X + Y + Z + 1) ** 6 * (X**7 + Y**7 + Z**7 + 1) ** 6, 7056)


@settings(max_examples=120, deadline=None)
@given(expressions())
@example((POWER_OF_A_POWER, ONE_X_Y**18, 190)).via("power of a power")
@example(CAPPED_POWERS[0]).via("power within the cap")
@example(CAPPED_POWERS[1]).via("power within the cap")
@example(CAPPED_POWERS[2]).via("power within the cap")
@example(PAST_THE_CAP).via("product past the cap")
def test_parser_matches_reference_evaluator(case):
    text, value, support = case
    try:
        parsed = parse_poly(text, VARS)
    except ParseError as err:
        # refused only where a power or product of sums has a support past the cap
        if f"may have more than {MAX_TERMS} terms" in str(err) and support > MAX_TERMS:
            return
        raise
    assert parsed == value
    assert parsed.variables == VARS
    assert all(type(c) is Fraction and c != 0 for c in parsed.terms.values())
    # and the canonical print of the value reads back to it
    assert parse_poly(str(value), VARS) == value


# -- the one-pass reader of printed sums against the general parser ----------------


@st.composite
def printed_polys(draw):
    """A Poly over VARS: small or large rationals, zero and constants among
    them, and exponents up to past MAX_DEGREE."""
    coefficients = fractions | st.builds(
        Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**12)
    )
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = [draw(st.integers(0, 4)) for _ in VARS]
        if draw(st.integers(0, 9)) == 0:
            high = st.sampled_from([60, 500, MAX_DEGREE - 8, MAX_DEGREE + 1])
            exps[draw(st.integers(0, len(VARS) - 1))] = draw(high)
        terms[tuple(exps)] = draw(coefficients)
    return Poly(VARS, terms)


def signed_terms(text):
    """The (sign, body) terms of a sum printed by Poly.__str__."""
    parts = re.split(r" ([+-]) ", text)
    first = ("-", parts[0][1:]) if parts[0].startswith("-") else ("+", parts[0])
    return [first] + list(zip(parts[1::2], parts[2::2]))


# one change each that takes a printed sum out of the form the reader takes
OUT_OF_FORM_TERMS = {
    "unknown name": ("+", "x*q"),
    "degree past the cap": ("-", f"y^{MAX_DEGREE + 1}"),
    "zero denominator": ("+", "3/0*x"),
    "literal past the digit limit": ("+", "1" * (_digit_limit()[0] + 1) + "*z_1"),
}
OUT_OF_FORM = sorted(OUT_OF_FORM_TERMS) + ["sign run", "leading sign", "non-ASCII digit"]


@st.composite
def mutated_sums(draw):
    """The text of a printed Poly with its terms reordered, duplicated,
    cancelled, multiplied by 0 and respaced, and at most one change that
    takes it out of the printed form."""
    pieces = signed_terms(str(draw(printed_polys())))
    for mutation in draw(st.lists(st.sampled_from(["reorder", "duplicate", "cancel", "zero"]),
                                  max_size=3)):
        if mutation == "reorder":
            pieces = draw(st.permutations(pieces))
            continue
        sign, body = draw(st.sampled_from(pieces))
        if mutation == "cancel":
            sign = "+" if sign == "-" else "-"
        elif mutation == "zero":
            body = "0*" + body
        pieces.insert(draw(st.integers(0, len(pieces))), (sign, body))
    change = draw(st.none() | st.sampled_from(OUT_OF_FORM))
    if change in OUT_OF_FORM_TERMS:
        pieces.insert(draw(st.integers(0, len(pieces))), OUT_OF_FORM_TERMS[change])
    elif change == "sign run":
        i = draw(st.integers(0, len(pieces) - 1))
        pieces[i] = (pieces[i][0], "-" + pieces[i][1])
    spaces = st.sampled_from(["", " ", "\t", "  ", " \t"])
    text = ("-" + draw(spaces) if pieces[0][0] == "-" else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        text += draw(spaces) + sign + draw(spaces) + body
    if change == "leading sign":
        text = draw(st.sampled_from(["+", "--", "- -"])) + text
    elif change == "non-ASCII digit":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["\u0663", "\u00b2", "\uff11"])) + text[at:]
    return text


def outcome(parse, text):
    """The Poly's parts, or the ParseError's message and column."""
    try:
        value = parse(text, VARS)
    except ParseError as err:
        return "error", err.args[0], err.column
    return "poly", value.variables, value.nums, value.den


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_sums())
@example("x + 3/0*x")
@example("-x + y")
@example("+x - y")
@example("x - -y")
@example("x*q + 1")
@example(f"y^600*z_1^{MAX_DEGREE - 599}")
@example("2 - x^2*\u0663")
@example("y^2 - " + "9" * (_digit_limit()[0] + 1))
# the reader reads each distinct factor text once per call: one factor text in
# many terms, a repeated name, two spellings of one power, an unknown name after
# a factor already read, and a degree past the cap made only of factors read
@example("x^3*y + 2*x^3 - x^3*z_1 + 1/2*x^3 - x^3")
@example("x*x - 2*x*x*y + y*x")
@example("x^02 - x^2 + 3*x^02*y - 3*x^2*y")
@example("x^2 + y*x^2*q")
@example(f"x^{MAX_DEGREE // 2} + x^{MAX_DEGREE // 2}*x^{MAX_DEGREE // 2}*y")
def test_reader_and_general_parser_agree(text):
    assert outcome(parse_poly, text) == outcome(_parse_general, text)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(printed_polys())
def test_reader_reads_every_printed_poly_within_the_degree_cap(poly):
    value = _read_sum(str(poly), VARS)
    if poly.total_degree() > MAX_DEGREE:
        assert value is None
    else:
        assert (value.variables, value.nums, value.den) == (VARS, poly.nums, poly.den)


# Every power and product is bounded before it is computed: MAX_DEGREE bounds
# its degree and the integer digit limit its coefficient, so a string such as
# "99 ^ 4300" or "3 ^ 4300 * 3 ^ 4300" is a ParseError, not unbounded work.
fuzz_tokens = st.sampled_from(
    ["x", "y", "z_1", "q", "x2", "0", "1", "2", "3", "99", "4300", "+", "-", "*", "/", "^",
     "(", ")", "$", "²", "."]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(fuzz_tokens, max_size=25))
def test_random_token_strings_parse_or_raise_parse_error(tokens):
    # tokens are joined by spaces, so literals never merge into larger ones
    try:
        result = parse_poly(" ".join(tokens), VARS)
    except ParseError as err:
        assert 0 <= err.column <= len(" ".join(tokens))
    else:
        assert isinstance(result, Poly) and result.variables == VARS


def test_a_name_is_one_name_token():
    for name in ("a1", "_", "x_dot", "α"):
        assert is_name(name)
        assert parse_poly(name, (name,)) == Poly.variable(name, (name,))
    for text in ("", "1a", "a-1", "a b", " a", "a^2", "²", "a$"):
        assert not is_name(text)



def test_an_integer_too_long_to_read_is_located():
    # past sys.get_int_max_str_digits() digits int() raises a bare ValueError
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter reads integers of any length")
    digits = "7" * (limit + 1)
    for text in (f"{digits}*x", f"x^{digits}", f"1/{digits}", f"{digits}/3", f"y + {digits}"):
        with pytest.raises(ParseError, match=f"integer of {limit + 1} digits is too long") as err:
            parse_poly(text, XY)
        assert err.value.column == text.index(digits)


# -- the coefficient bound of powers and products of literals --------------------


def digit_limit(digits):
    """The interpreter's integer digit limit, as the parser reads it, set to ``digits``."""
    return mock.patch.object(sys, "get_int_max_str_digits", return_value=digits, create=True)


@pytest.mark.parametrize("text, column", [
    ("7^100000000", 1),          # would run without bound if computed
    ("10^50", 2),                # 51 digits
    ("x + (1/10)^50", 10),       # the denominator is bounded too
    ("(7)^100000000", 3),        # a parenthesised constant is a one-term Poly
    ("-(10^20*x)^3", 10),        # so is a monomial: its coefficient is 10^60
])
def test_a_power_past_the_digit_limit_is_located_at_its_caret(text, column):
    with digit_limit(50), pytest.raises(
        ParseError, match="a power has a coefficient of more than 50 digits"
    ) as err:
        parse_poly(text, XY)
    assert err.value.column == column


def test_a_product_of_literals_past_the_digit_limit_is_located_at_its_star():
    text = "x*10^30*10^20*y"
    with digit_limit(50), pytest.raises(
        ParseError, match="a product has a coefficient of more than 50 digits"
    ) as err:
        parse_poly(text, XY)
    assert err.value.column == text.index("*10^20")


def test_coefficients_up_to_the_digit_limit_are_read_exactly():
    with digit_limit(50):
        assert parse_poly("10^49", XY) == Poly.const(10**49, XY)
        assert parse_poly("(1/10)^49*x", XY) == Poly(XY, {(1, 0): Fraction(1, 10**49)})
        assert parse_poly("x*10^30*10^19", XY) == Poly(XY, {(1, 0): 10**49})
        assert parse_poly("-(10^16*y)^3", XY) == Poly(XY, {(0, 3): -(10**48)})
        # a base of 0 or 1 stays small at any power
        assert parse_poly("1^100000000 + 0^100000000*x", XY) == Poly.const(1, XY)


def test_a_power_of_any_poly_is_bounded_by_its_numerators_l1_norm():
    # every coefficient of (N / D)^p has a numerator of at most ||N||_1^p and a
    # denominator of at most D^p, so these bound the power before it is made
    with digit_limit(50):
        # (10^12 + 1)^4 < 10^50
        assert parse_poly("(10^12*x + 1)^4", XY) == Poly(
            XY, {(i, 0): comb(4, i) * 10 ** (12 * i) for i in range(5)}
        )
        assert parse_poly("(1/7*x + 1/7*y)^50", XY).den == 7**50
        # (10^12 + 1)^5 > 10^50, though the power is refused without being made
        # the denominator (1/10)^13 of the last is bounded too
        for text in ("y*(10^12*x + 1)^5", "(x - 10^12*y)^5 + x", "(1/10^13*x + 1/10^13*y)^4"):
            with pytest.raises(
                ParseError, match="a power has a coefficient of more than 50 digits"
            ) as err:
                parse_poly(text, XY)
            assert err.value.column == text.index(")^") + 1


def test_a_power_of_a_sum_with_a_huge_coefficient_stops_at_its_caret():
    # 7^4000 has 3381 digits and degree 1000 is within the cap, so both caps
    # pass this power; it would have 3.4 million digits in its largest coefficient
    text = "(7^4000*a1 + 1)^1000"
    with pytest.raises(ParseError, match=f"more than {DEFAULT_DIGITS} digits") as err:
        parse_poly(text, ABC)
    assert err.value.column == text.index(")^") + 1
    series = parse_poly("(a1+b1+c1)^60", ABC)
    assert len(series.terms) == comb(62, 2) and series.den == 1
    assert series.terms[(20, 20, 20)] == factorial(60) // factorial(20) ** 3


def test_a_power_or_product_of_sums_past_the_term_bound_stops_at_its_operator():
    # (a1+b1+c1)^120 may have comb(122, 2) = 7,381 terms, and took 22.9 s to check
    for text, operator in (("(a1+b1+c1)^120", "^"), ("(a1+b1+c1)^60*(a1+b1+c1)^60", "*")):
        with pytest.raises(ParseError, match=f"may have more than {MAX_TERMS} terms") as err:
            parse_poly(text, ABC)
        assert err.value.column == text.index(operator)


def test_a_power_is_bounded_by_the_monomials_of_its_variables_and_degree():
    value = parse_poly(POWER_OF_A_POWER, VARS)
    assert len(value.terms) == 190 and value == ONE_X_Y**18
    # so is a product of two sums: 78 * 78 = 6,084 products of terms, but
    # comb(2 + 22, 2) = 276 monomials of degree at most 22
    factor = "(" + " + ".join(f"x^{i}*y^{j}" for i in range(12) for j in range(12 - i)) + ")"
    assert len(parse_poly(factor, XY).terms) == 78
    assert len(parse_poly(f"{factor}*{factor}", XY).terms) == 276


def test_a_power_or_product_is_bounded_by_its_exponent_caps():
    # the bases of CAPPED_POWERS: comb(t + k - 1, k) passes MAX_TERMS, so the
    # support of the power is counted, and it is within the cap
    cases = []
    for base, power, terms in (("z_1*(x + 1)^6*(1 + x*y)", 5, 186),
                               ("x^4*z_1 + (1 + x + y)^3", 6, 511),
                               ("y + (x + z_1 + x*x)^4", 6, 861)):
        b = parse_poly(base, VARS)
        assert comb(len(b.terms) + power - 1, power) > MAX_TERMS
        cases.append((f"({base})^{power}", b**power, terms, len(base) + 2))
    # so is a product of two sums: 76 * 76 = 5,776 term products, 259 keys
    cube = "(z_1*(x + 1)^6*(1 + x*y))^3"
    b = parse_poly(cube, VARS)
    assert len(b.terms) == 76
    cases.append((f"{cube}*{cube}", b * b, 259, len(cube)))
    for text, expected, terms, column in cases:
        value = parse_poly(text, VARS)
        assert value == expected and len(value.terms) == terms
        # the support is counted exactly: a cap of its terms reads it, one less refuses it
        with mock.patch.object(expr, "MAX_TERMS", terms):
            assert parse_poly(text, VARS) == expected
        with mock.patch.object(expr, "MAX_TERMS", terms - 1), pytest.raises(ParseError) as err:
            parse_poly(text, VARS)
        assert err.value.column == column


def sidon(indices):
    """A parenthesised sum of x^i*y^(i*i % 151) over ``indices`` in range(151),
    whose pairwise sums of exponents are all distinct: a square of t terms has
    comb(t + 1, 2) of them, a product of t1 and t2 other terms t1 * t2."""
    return "(" + " + ".join(f"x^{i}*y^{i * i % 151}" for i in indices) + ")"


def sum_of(count):
    """A parenthesised sum of ``count`` monomials over x and y."""
    return "(" + " + ".join(f"x^{i % 71}*y^{i // 71}" for i in range(count)) + ")"


def test_the_term_bound_is_exact_and_spares_what_costs_nothing():
    assert MAX_TERMS == 5000
    low = sidon(range(100))
    for text, error, count in ((sidon(range(99)) + "^2", None, 4950), (low + "^2", "power", 5050),
                               (low + "*" + sidon(range(100, 150)), None, 5000),
                               (low + "*" + sidon(range(100, 151)), "product", 5100)):
        if error is None:
            assert len(parse_poly(text, XY).terms) == count
            continue
        with pytest.raises(ParseError, match=f"a {error} may have more than 5000 terms") as err:
            parse_poly(text, XY)
        assert err.value.column == text.index(")^" if error == "power" else ")*") + 1
        with mock.patch.object(expr, "MAX_TERMS", count):
            assert len(parse_poly(text, XY).terms) == count
    # a sum past the bound alone, to the power 1, or times literals and coordinates
    wide = sum_of(5041)
    for text in (wide, wide + "^1", "3*x*" + wide + "*y^2", "-2/3*" + wide + "^1*x^4"):
        assert len(parse_poly(text, XY).terms) == 5041


def test_a_product_with_a_one_term_factor_is_not_bounded_by_the_term_cap():
    wide = sum_of(5041)
    x, y, s = Poly.variable("x", XY), Poly.variable("y", XY), parse_poly(wide, XY)
    # parenthesised one-term factors, a zeroth power of a sum among them, on
    # either side; a product of two sums stays bounded (the test above)
    for text, expected in ((f"2*{wide}*(x*y)^3", 2 * s * (x * y) ** 3),
                           (f"(x + 1)^0*{wide}", s),
                           (f"{wide}*(-1/2*y^2)", s * Poly(XY, {(0, 2): Fraction(-1, 2)})),
                           (f"(x)*{wide}*(y)^2*(3)", 3 * x * s * y**2)):
        value = parse_poly(text, XY)
        assert value == expected and len(value.terms) == 5041


def test_the_default_digit_limit_holds_where_any_integer_length_is_read():
    with digit_limit(0):
        assert parse_poly(f"10^{DEFAULT_DIGITS - 1}", XY) == Poly.const(10 ** (DEFAULT_DIGITS - 1), XY)
        with pytest.raises(ParseError, match=f"more than {DEFAULT_DIGITS} digits"):
            parse_poly(f"10^{DEFAULT_DIGITS}", XY)
