"""Exact arithmetic: rationals, eps-complex numbers, polynomials, matrices."""

import random
import tracemalloc
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from liftcheck import algebra, lifts, structures
from liftcheck.algebra import (
    AlgebraError,
    DegreeOverflow,
    EpsComplex,
    EpsilonMismatch,
    NotUnimodular,
    Poly,
    PolyMatrix,
    VariableMismatch,
    _contract,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def p(terms, variables=XY):
    return Poly(variables, terms)


def test_difference_of_squares():
    x_plus_1 = p({(1, 0): 1, (0, 0): 1})
    x_minus_1 = p({(1, 0): 1, (0, 0): -1})
    assert x_plus_1 * x_minus_1 == p({(2, 0): 1, (0, 0): -1})


def test_additive_identity():
    q = p({(2, 1): Fraction(3, 7), (0, 0): -2})
    assert q + Poly.zero(XY) == q
    assert q + 0 == q


def test_product_with_rational_coefficients():
    # (2xy) * (3/2 y) = 3 x y^2, multiplied out by hand
    a = p({(1, 1): 2})
    b = p({(0, 1): Fraction(3, 2)})
    assert a * b == p({(1, 2): 3})


def test_diff_power_rule():
    q = p({(2, 1): 1})  # x^2 y
    assert q.diff("x") == p({(1, 1): 2})


def test_diff_constant_is_zero():
    assert Poly.const(5, XY).diff("x").is_zero()


def test_diff_termwise():
    # d/dz (x^3 + xz) = x, checked against termwise differentiation
    q = Poly(XYZ, {(3, 0, 0): 1, (1, 0, 1): 1})
    manual = Poly.zero(XYZ)
    for exps, coeff in q.terms.items():
        if exps[2] == 0:
            continue
        dropped = (exps[0], exps[1], exps[2] - 1)
        manual = manual + Poly(XYZ, {dropped: coeff * exps[2]})
    assert q.diff("z") == manual == Poly(XYZ, {(1, 0, 0): 1})


def test_eval_simple():
    q = p({(2, 0): 1, (0, 0): -1})
    assert q.eval_at({"x": Fraction(3), "y": Fraction(0)}) == 8


def test_eval_zero_poly():
    assert Poly.zero(XY).eval_at({"x": Fraction(5), "y": Fraction(-2)}) == 0


def test_eval_substitution():
    # 2xy + 1/2 at x=1/2, y=4: substituting gives 2*(1/2)*4 + 1/2 = 9/2
    q = p({(1, 1): 2, (0, 0): Fraction(1, 2)})
    assert q.eval_at({"x": Fraction(1, 2), "y": Fraction(4)}) == Fraction(9, 2)


def test_eval_missing_assignment():
    q = p({(1, 1): 1})
    with pytest.raises(Exception, match="missing value"):
        q.eval_at({"x": Fraction(1)})


def test_variable_alignment():
    const = Poly.const(2, ("a",))
    q = p({(1, 0): 1})
    assert q + const == p({(1, 0): 1, (0, 0): 2})
    other = Poly(("a",), {(1,): 1})
    with pytest.raises(VariableMismatch):
        q + other


def test_extend_prefix():
    q = p({(1, 1): 3})
    wider = q.extend(("x", "y", "z"))
    assert wider == Poly(XYZ, {(1, 1, 0): 3})
    with pytest.raises(VariableMismatch):
        q.extend(("y", "x", "z"))


def test_canonical_string_order():
    q = p({(0, 0): Fraction(1, 2), (1, 1): -2, (2, 0): 1, (0, 1): 1})
    assert str(q) == "x^2 - 2*x*y + y + 1/2"
    assert str(Poly.zero(XY)) == "0"


@pytest.mark.parametrize("terms, text", [
    ({(0, 0): 1}, "1"),
    ({(0, 0): -1}, "-1"),
    ({(0, 0): 7}, "7"),
    ({(0, 0): -7}, "-7"),
    ({(0, 0): Fraction(3, 4)}, "3/4"),
    ({(0, 0): Fraction(-3, 4)}, "-3/4"),
    ({(1, 0): 1}, "x"),
    ({(1, 0): -1}, "-x"),
    ({(1, 2): -5}, "-5*x*y^2"),
    ({(0, 1): Fraction(-1, 3)}, "-1/3*y"),
    ({(2, 0): Fraction(5, 2)}, "5/2*x^2"),
    ({(1, 0): -1, (0, 0): -1}, "-x - 1"),
    ({(1, 0): 1, (0, 1): -1, (0, 0): 1}, "x - y + 1"),
    ({(2, 0): -1, (1, 0): Fraction(-2, 3), (0, 0): Fraction(1, 6)}, "-x^2 - 2/3*x + 1/6"),
    ({(1, 1): Fraction(7, 5), (0, 1): -1, (0, 0): Fraction(-9, 2)}, "7/5*x*y - y - 9/2"),
])
def test_canonical_string_signs_and_magnitudes(terms, text):
    """Sign and magnitude of each term, first and later, constant or not, with
    the unit magnitude left out only before a monomial."""
    assert str(p(terms)) == text


# -- eps-complex ----------------------------------------------------------------


def test_imaginary_unit_squares_to_epsilon():
    for eps in (-1, 1):
        i = EpsComplex.unit(eps)
        assert i * i == EpsComplex(eps, 0, eps)


def test_split_product_expansion():
    # (1+i)(1-i) = 1 - i^2 = 1 - eps; equals 2 for eps=-1
    one_plus = EpsComplex(1, 1, -1)
    one_minus = EpsComplex(1, -1, -1)
    assert one_plus * one_minus == EpsComplex(2, 0, -1)


def test_epsilon_mismatch():
    with pytest.raises(EpsilonMismatch):
        EpsComplex(1, 0, -1) * EpsComplex(1, 0, 1)


@given(
    st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
    st.sampled_from((-1, 1)),
)
def test_norm_is_multiplicative(a, b, c, d, eps):
    z = EpsComplex(a, b, eps)
    w = EpsComplex(c, d, eps)
    assert (z * w).norm() == z.norm() * w.norm()


# -- polynomial ring properties ---------------------------------------------------


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def polys(draw, variables=XY, max_terms=4, max_degree=3):
    n = len(variables)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_degree)) for _ in range(n))
        terms[exps] = draw(fractions)
    return Poly(variables, terms)


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_diff_linear_and_leibniz(a, b):
    assert (a + b).diff("x") == a.diff("x") + b.diff("x")
    assert (a * b).diff("x") == a.diff("x") * b + a * b.diff("x")


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), fractions, fractions)
def test_eval_is_ring_homomorphism(a, b, vx, vy):
    point = {"x": vx, "y": vy}
    assert (a * b).eval_at(point) == a.eval_at(point) * b.eval_at(point)
    assert (a + b).eval_at(point) == a.eval_at(point) + b.eval_at(point)


# -- the denominator-cleared product kernel -----------------------------------------


mixed_fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


@st.composite
def mixed_polys(draw):
    """Over x, y, z with mixed denominators, negative coefficients, often zero."""
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    return Poly(XYZ, draw(st.dictionaries(exps, mixed_fractions, max_size=6)))


@settings(max_examples=150, deadline=None)
@given(mixed_polys(), mixed_polys())
def test_product_kernel_matches_fraction_reference(a, b):
    # (a + b) * (a - b) makes terms cancel inside the kernel
    for left, right in ((a, b), (a + b, a - b), (a, -a)):
        product = left * right
        assert product.variables == XYZ
        assert product.terms == reference.product(left.terms, right.terms)
        for exps, coeff in product.terms.items():
            assert type(coeff) is Fraction and coeff != 0
            assert len(exps) == len(XYZ) and min(exps) >= 0


# -- single-term products and powers ---------------------------------------------------


@st.composite
def monomials(draw):
    """One term over x, y, z: rational, possibly negative coefficient, possibly constant."""
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    coeff = draw(mixed_fractions.filter(bool))
    return Poly(XYZ, {draw(exps): coeff})


@settings(max_examples=150, deadline=None)
@given(monomials(), mixed_polys(), st.integers(0, 7))
def test_single_term_product_and_power_match_fraction_reference(mono, q, k):
    # the single term on either side, and a product of two single terms
    for left, right in ((mono, q), (q, mono), (mono, mono)):
        product = left * right
        assert product.terms == reference.product(left.terms, right.terms)
        assert all(type(c) is Fraction for c in product.terms.values())
    power = mono**k
    assert power.terms == reference.power(mono.terms, k, len(XYZ))
    assert all(type(c) is Fraction for c in power.terms.values())


# -- exact point evaluation -------------------------------------------------------------


point_values = st.one_of(st.just(Fraction(0)), mixed_fractions)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)),
        mixed_fractions,
        max_size=6,
    ),
    st.tuples(point_values, point_values, point_values),
    mixed_fractions,
)
def test_eval_matches_fraction_reference(terms, values, constant):
    point = dict(zip(XYZ, values))
    # the zero polynomial, a constant, and terms with exponents up to 20
    for q in (Poly.zero(XYZ), Poly.const(constant, XYZ), Poly(XYZ, terms)):
        value = q.eval_at(point)
        assert type(value) is Fraction
        assert value == reference.evaluate(q.terms, values)


# -- the integer-numerator core against a Fraction reference -------------------------


def assert_canonical(q):
    """Integer numerators, none zero, over a denominator >= 1 prime to all of them."""
    assert type(q.den) is int and q.den >= 1
    assert all(type(n) is int and n != 0 for n in q.nums.values())
    assert gcd(q.den, *q.nums.values()) == 1


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), mixed_fractions, max_size=6),
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), mixed_fractions, max_size=6),
    st.integers(0, 4),
    st.tuples(point_values, point_values, point_values),
)
def test_integer_core_matches_fraction_reference(ta, tb, k, values):
    a, b = Poly(XYZ, ta), Poly(XYZ, tb)
    ra, rb = reference.clean(ta), reference.clean(tb)
    xyzw = XYZ + ("w",)
    cases = [
        (a, ra), (b, rb), (a + b, reference.add(ra, rb)), (a - b, reference.add(ra, rb, -1)),
        (-a, reference.add({}, ra, -1)), (a * b, reference.product(ra, rb)),
        (a**k, reference.power(ra, k, len(XYZ))), (a.diff("y"), reference.diff(ra, 1)), (a + b - b, ra),
        (a.extend(xyzw), {exps + (0,): c for exps, c in ra.items()}),
    ]
    for got, want in cases:
        assert_canonical(got)
        assert dict(got.terms.items()) == want
        assert len(got.terms) == len(want)
        assert str(got) == reference.to_str(want, got.variables)
        # built from the reference terms, the same Poly, equal and of equal hash
        same = Poly(got.variables, want)
        assert got == same and hash(got) == hash(same)
    assert a.eval_at(dict(zip(XYZ, values))) == reference.evaluate(ra, values)


@st.composite
def printer_cases(draw):
    """(variables, terms) over a chart of 1-20 variables, each term using at
    most three of them, with exponents up to 300 (often small, so that pieces
    repeat), mixed denominators, and sometimes a negative leading term, a
    constant term or a single term."""
    variables = tuple(f"v{i}" for i in range(draw(st.integers(1, 20))))
    used = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=3, unique=True))
    exponent = st.integers(0, 3) | st.integers(0, 300)
    exps = st.dictionaries(st.sampled_from(used), exponent).map(
        lambda es: tuple(es.get(v, 0) for v in variables))
    coeffs = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 30))
    terms = draw(st.dictionaries(exps, coeffs, max_size=draw(st.sampled_from([1, 12]))))
    if draw(st.booleans()):
        terms[(0,) * len(variables)] = draw(coeffs)
    if terms and draw(st.booleans()):
        lead = max(terms, key=lambda e: (sum(e), e))
        terms[lead] = -abs(terms[lead])
    return variables, terms


@settings(max_examples=200, deadline=None, derandomize=True)
@given(printer_cases())
def test_printer_matches_reference_printer(case):
    variables, terms = case
    assert str(Poly(variables, terms)) == reference.to_str(reference.clean(terms), variables)


def parts(q):
    """The integer numerators by exponent tuple, and the denominator."""
    return dict(zip(q.terms, q.nums.values())), q.den


def test_cancellation_returns_to_denominator_one():
    x, y = Poly.variable("x", XY), Poly.variable("y", XY)
    half = x * Fraction(1, 2)
    assert parts(half) == ({(1, 0): 1}, 2)
    for q in (half + y - half, half + half - x + y, (half * 2 + y) - x,
              p({(2, 0): Fraction(1, 2), (0, 1): 1}).diff("y") * y):
        assert q == y and parts(q) == ({(0, 1): 1}, 1)
        assert hash(q) == hash(y)
    # a common factor of every numerator with the denominator is divided out
    q = p({(1, 0): Fraction(1, 6), (0, 1): Fraction(1, 3)}) * 3
    assert parts(q) == ({(1, 0): 1, (0, 1): 2}, 2)
    assert str(q) == "1/2*x + y"
    assert (half - half).den == 1 and not (half - half)
    assert {half + y - half: 1}[y] == 1


def test_subtraction_makes_no_negated_copy(monkeypatch):
    a = p({(1, 0): Fraction(1, 2), (0, 1): 3})
    b = p({(0, 1): 3, (2, 0): Fraction(-2, 3)})
    calls = []
    negate = Poly.__neg__

    def counting(self):
        calls.append(self)
        return negate(self)

    monkeypatch.setattr(Poly, "__neg__", counting)
    assert a - b == p({(1, 0): Fraction(1, 2), (2, 0): Fraction(2, 3)})
    assert 1 - a == p({(1, 0): Fraction(-1, 2), (0, 1): -3, (0, 0): 1})
    assert a - a == Poly.zero(XY)
    assert calls == []


@st.composite
def differences(draw):
    """(a, b): one Poly twice, a Poly and an equal copy, two drawn Polys, or a
    Poly and one of equal size and denominator whose last key differs."""
    a = draw(mixed_polys())
    kind = draw(st.sampled_from(["same", "twin", "other", "last key"]))
    if kind == "same":
        return a, a
    if kind == "other":
        return a, draw(mixed_polys())
    nums = dict(a.nums)
    if kind == "last key" and nums:
        # exponent 4 is outside mixed_polys' range, so the new key is not in a
        (key,) = Poly(XYZ, {(4, 0, 0): 1}).nums
        nums[key] = nums.popitem()[1]
    return a, Poly._trusted(XYZ, nums, a.den)


@settings(max_examples=150, deadline=None)
@given(differences())
def test_differences_match_fraction_reference(operands):
    a, b = operands
    got = a - b
    assert_canonical(got)
    assert got.terms == reference.add(a.terms, b.terms, -1)
    if a.terms == b.terms:
        # the canonical zero
        assert got.nums == {} and got.den == 1 and got.variables == XYZ


class Unread(dict):
    """Numerators that fail the test when compared."""

    def __eq__(self, other):
        raise AssertionError("numerators compared")

    __hash__ = None


@settings(max_examples=50, deadline=None)
@given(mixed_polys())
def test_a_poly_equals_itself_without_reading_its_numerators(a):
    same = Poly._trusted(XYZ, Unread(a.nums), a.den)
    assert same == same and not same != same
    assert len((same - same).nums) == 0


# -- the sparse contraction kernel ----------------------------------------------------


@st.composite
def contraction_operands(draw):
    """Rows and columns of equal inner length 0..3, in rectangular shapes 0..3 x 0..3."""
    inner = draw(st.integers(0, 3))
    line = st.lists(mixed_polys(), min_size=inner, max_size=inner)
    rows = draw(st.lists(line, max_size=3))
    cols = draw(st.lists(line, max_size=3))
    return rows, cols


def dense_contract(rows, cols, zero):
    """``_contract`` of dense rows and columns, read back densely: out[i][j] is
    sum_k rows[i][k] * cols[j][k], ``zero`` where nothing is left."""
    rows, cols = list(rows), list(cols)
    left = {(i, k): a for i, row in enumerate(rows) for k, a in enumerate(row) if a}
    right = {(k, j): b for j, col in enumerate(cols) for k, b in enumerate(col) if b}
    out = _contract(left, right, zero.variables)
    return [[out.get((i, j), zero) for j in range(len(cols))] for i in range(len(rows))]


@settings(max_examples=150, deadline=None)
@given(contraction_operands())
def test_contraction_kernel_matches_dense_reference(operands):
    rows, cols = operands
    with mock.patch.object(Poly, "__mul__", autospec=True, side_effect=Poly.__mul__) as mul, \
            mock.patch.object(algebra, "_times", side_effect=algebra._times) as times, \
            mock.patch.object(algebra, "_dot", side_effect=algebra._dot) as dot:
        out = dense_contract(rows, iter(cols), Poly.zero(XYZ))
    assert len(out) == len(rows)
    assert all(len(line) == len(cols) for line in out)
    assert [[q.terms for q in line] for line in out] == reference.contraction(rows, cols)
    assert all(q.variables == XYZ for line in out for q in line)
    # a product is formed only where both factors are nonzero: by _times in a
    # sum with one such pair, with no Poly.__mul__ call, and inside _dot for
    # each pair of a longer sum (a one-pair _dot call is _times's own, already
    # counted)
    single = [call.args for call in times.call_args_list]
    fused = [pair for call in dot.call_args_list if len(call.args[0]) > 1 for pair in call.args[0]]
    assert all(a and b for a, b in single + fused)
    assert mul.call_count == 0
    assert len(single) + len(fused) == sum(
        1 for row in rows for col in cols for a, b in zip(row, col) if a and b
    )


@st.composite
def fused_operands(draw):
    """Rows and columns of inner length 2..4 whose entries are often constants
    (+-1 among them) or integer polynomials, so most sums have several pairs."""
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    entry = st.one_of(
        mixed_polys(),
        st.builds(lambda c: Poly.const(c, XYZ), st.sampled_from([1, -1]) | mixed_fractions),
        st.builds(lambda t: Poly(XYZ, t),
                  st.dictionaries(exps, st.integers(-9, 9), min_size=1, max_size=4)),
    )
    inner = draw(st.integers(2, 4))
    line = st.lists(entry, min_size=inner, max_size=inner)
    return draw(st.lists(line, min_size=1, max_size=3)), draw(st.lists(line, min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(fused_operands())
def test_fused_dot_products_match_fraction_reference(operands):
    rows, cols = operands
    # each row repeated against each column followed by its negation: every
    # sum has twice the pairs and cancels to exactly zero
    doubled = [row + row for row in rows]
    cancelling = [col + [-b for b in col] for col in cols]
    for left, right in ((rows, cols), (doubled, cancelling)):
        out = dense_contract(left, right, Poly.zero(XYZ))
        assert [[q.terms for q in line] for line in out] == reference.contraction(left, right)
        for line in out:
            for q in line:
                assert q.variables == XYZ
                assert all(type(c) is Fraction and c != 0 for c in q.terms.values())
    assert all(q.is_zero() for line in out for q in line)


def test_fused_dot_products_by_hand():
    x, y = Poly.variable("x", XYZ), Poly.variable("y", XYZ)
    one, minus_one = Poly.const(1, XYZ), Poly.const(-1, XYZ)
    half_x = Poly(XYZ, {(1, 0, 0): Fraction(1, 2)})
    third_y = Poly(XYZ, {(0, 1, 0): Fraction(-1, 3), (0, 0, 0): 2})
    with mock.patch.object(algebra, "_dot", side_effect=algebra._dot) as dot:
        out = dense_contract(
            [[one, minus_one, x], [half_x, third_y, y]],
            [[x + y, x, y], [x, third_y, half_x]],
            Poly.zero(XYZ),
        )
    assert dot.call_count == 4
    # integer entries: 1*(x+y) - x + x*y, and the denominator-1 path
    assert out[0][0] == y + x * y
    assert all(c.denominator == 1 for c in out[0][0].terms.values())
    # mixed denominators, and a constant on either side
    assert out[0][1] == x - third_y + x * half_x
    assert out[1][0] == half_x * (x + y) + third_y * x + y * y
    # x/2 * x + (2 - y/3)^2 + y * x/2
    assert out[1][1] == half_x * x + third_y * third_y + y * half_x
    # products that cancel exactly
    (cancelled,) = dense_contract([[x, y, x]], [[y, x * -2, y]], Poly.zero(XYZ))
    assert cancelled == [Poly.zero(XYZ)]


@st.composite
def single_term_pairs(draw):
    """The pairs of one ``_dot`` call whose every factor is a single term:
    constants (+-1 among them) and monomials with mixed denominators, over
    few enough keys that pairs often share one."""
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
    coeff = st.sampled_from([1, -1]) | mixed_fractions.filter(bool)
    term = st.builds(lambda e, c: Poly(XYZ, {e: c}), st.just((0, 0, 0)) | exps, coeff)
    return draw(st.lists(st.tuples(term, term), min_size=2, max_size=6))


@settings(max_examples=150, deadline=None)
@given(single_term_pairs())
@example([(Poly.const(1, XYZ), Poly.const(1, XYZ)), (Poly.const(-1, XYZ), Poly.const(1, XYZ))])
@example([(Poly.const(Fraction(1, 2), XYZ), Poly(XYZ, {(1, 0, 0): Fraction(2, 3)})),
          (Poly(XYZ, {(1, 0, 0): -1}), Poly.const(Fraction(-1, 6), XYZ)),
          (Poly(XYZ, {(0, 1, 0): Fraction(5, 4)}), Poly.const(-1, XYZ))])
def test_single_term_sums_match_fraction_reference(pairs):
    expected = {}
    for a, b in pairs:
        expected = reference.add(expected, reference.product(a.terms, b.terms))
    refuse = mock.Mock(side_effect=AssertionError("a term-product loop ran"))
    with mock.patch.multiple(algebra, _packing=refuse, _plain_dot=refuse, _packed_dot=refuse):
        out = algebra._dot(pairs, XYZ)
        # each pair again with one factor negated: the sum cancels to zero
        cancelled = algebra._dot(pairs + [(-a, b) for a, b in pairs], XYZ)
    assert out.variables == XYZ
    assert out.terms == expected
    # canonical: equal to the Poly built from the reference's terms
    assert out == Poly(XYZ, expected)
    assert cancelled.is_zero() and cancelled == Poly.zero(XYZ)


# -- squares: each cross product formed once -----------------------------------------


def twin(q):
    """A Poly equal to q that is a distinct object, with its own dict."""
    return Poly._trusted(q.variables, dict(q.nums), q.den)


@st.composite
def square_sums(draw):
    """The pairs of one ``_dot`` call: a Poly with itself, with an equal copy, or
    with another operand, where operands mix sums with denominators above 1,
    single terms and constants."""
    operand = st.one_of(
        mixed_polys().filter(bool),
        monomials(),
        st.builds(lambda c: Poly.const(c, XYZ), mixed_fractions.filter(bool)),
    )
    pairs = []
    for kind in draw(st.lists(st.sampled_from(["same", "twin", "other"]), min_size=1, max_size=4)):
        a = draw(operand)
        pairs.append((a, a) if kind == "same" else (a, twin(a)) if kind == "twin" else (a, draw(operand)))
    return pairs


@settings(max_examples=100, deadline=None)
@given(square_sums())
def test_squares_in_the_product_loop_match_fraction_reference(pairs):
    expected = {}
    for a, b in pairs:
        expected = reference.add(expected, reference.product(a.terms, b.terms))
    out = algebra._dot(pairs, XYZ)
    assert out.variables == XYZ
    assert out.terms == expected
    assert all(type(c) is Fraction and c != 0 for c in out.terms.values())
    # each pair again with one factor negated: squares cancel to exactly zero
    assert algebra._dot(pairs + [(-a, b) for a, b in pairs], XYZ).is_zero()
    for a, _ in pairs:
        assert (a * a).terms == (a * twin(a)).terms == reference.product(a.terms, a.terms)
        # a square, then a general product
        assert (a**3).terms == reference.power(a.terms, 3, len(XYZ))


class CountedKey(int):
    """A monomial key that counts the sums of keys it is the left side of: in
    the product loop, one per term product formed."""

    sums = 0

    def __add__(self, other):
        CountedKey.sums += 1
        return int(self) + int(other)


def counted(q):
    """q with CountedKey keys."""
    return Poly._trusted(q.variables, {CountedKey(k): n for k, n in q.nums.items()}, q.den)


def test_a_square_forms_each_cross_product_once():
    x, y, z = (Poly.variable(v, XYZ) for v in XYZ)
    q = counted((x + Fraction(2, 3) * y - z + 5) * (x - y) + Fraction(1, 7))
    r = counted(q + x**3)
    n = len(q.nums)
    cases = [
        ([(q, q)], n * (n + 1) // 2),
        ([(q, counted(twin(q)))], n * (n + 1) // 2),
        ([(q, r)], n * len(r.nums)),
        ([(q, q), (r, q)], n * (n + 1) // 2 + n * len(r.nums)),
    ]
    for pairs, formed in cases:
        CountedKey.sums = 0
        out = algebra._dot(pairs, XYZ)
        assert CountedKey.sums == formed
        expected = {}
        for a, b in pairs:
            expected = reference.add(expected, reference.product(a.terms, b.terms))
        assert out.terms == expected


def test_a_square_past_the_field_raises_before_any_product_is_formed():
    top = 2**16 - 1
    x = Poly.variable("x", XYZ)
    wide = counted(Poly(XYZ, {(top // 2 + 1, 0, 0): 1, (0, 1, 0): Fraction(1, 3)}))
    copy, zero = counted(twin(wide)), Poly.zero(XYZ)
    # 85 terms in dense rows: the square of the same Poly one degree lower
    # takes the packed path
    dense_rows = (x + Poly.variable("y", XYZ) + Poly.variable("z", XYZ) + 1) ** 6
    assert algebra._packing([(q := dense_rows + x ** (top // 2), q)], 3) is not None
    dense = counted(dense_rows + x ** (top // 2 + 1))
    # single terms, as the lane of _dot without a term-product loop reads them,
    # the last past the field
    single = [counted(q) for q in (x, Poly.const(-1, XYZ), Poly.variable("y", XYZ))]
    high = counted(Poly(XYZ, {(top // 2 + 1, 0, 0): Fraction(1, 3)}))
    CountedKey.sums = 0
    refuse = mock.Mock(side_effect=AssertionError("a path was chosen"))
    for make in (lambda: wide * wide, lambda: wide * copy, lambda: wide**2,
                 lambda: algebra._dot([(x, x), (wide, wide)], XYZ),
                 lambda: dense_contract([[x, wide]], [[x, wide]], zero),
                 lambda: dense * dense, lambda: dense**2,
                 lambda: algebra._dot([(dense_rows, dense_rows), (dense, dense)], XYZ),
                 lambda: algebra._dot([(single[0], single[1]), (single[2], single[2]),
                                       (high, high)], XYZ),
                 lambda: dense_contract([single + [high]], [single + [high]], zero)):
        with mock.patch.object(Poly, "_trusted", side_effect=AssertionError("a result was built")), \
                mock.patch.multiple(algebra, _packing=refuse, _plain_dot=refuse, _packed_dot=refuse):
            with pytest.raises(DegreeOverflow, match=f"total degree {top + 1} exceeds {top}"):
                make()
    assert CountedKey.sums == 0 and not refuse.called


# -- the packed path of the product loop ----------------------------------------------


def rows_of(pairs):
    """The operand rows ``_packed_dot`` reads, whatever ``_packing`` would say."""
    return {id(q): algebra._rows(q.nums) for pair in pairs for q in pair}


def common_den(pairs):
    """D, the LCM of the pairs' denominators D_a * D_b."""
    return lcm(*[a.den * b.den for a, b in pairs])


@st.composite
def packed_pairs(draw):
    """(variables, pairs) for one ``_dot`` call over m = 2..6 variables: squares,
    equal twins and general pairs of up to 24 terms, with negative and
    rational coefficients over mixed denominators, small and large, and in some
    draws exponents near TOP in one variable other than the packed one, m - 2."""
    m = draw(st.integers(2, 6))
    variables = tuple(f"v{i}" for i in range(m))
    high = draw(st.sampled_from([i for i in range(m) if i != m - 2]))
    # operands of total degree up to TOP // 2, so every product fits
    offset = draw(st.sampled_from([0, 1, 1000, TOP // 2 - 3 * m]))
    exps = st.tuples(*[st.integers(0, 3)] * m).map(
        lambda e: tuple(x + offset if i == high else x for i, x in enumerate(e)))
    coeffs = (mixed_fractions | st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 7))).filter(bool)
    operand = st.dictionaries(exps, coeffs, min_size=1, max_size=24).map(lambda t: Poly(variables, t))
    pairs = []
    for kind in draw(st.lists(st.sampled_from(["same", "twin", "other"]), min_size=1, max_size=3)):
        a = draw(operand)
        pairs.append((a, a) if kind == "same" else (a, twin(a)) if kind == "twin" else (a, draw(operand)))
    return variables, pairs


@settings(max_examples=80, deadline=None)
@given(packed_pairs())
def test_the_packed_path_matches_the_plain_loop_and_the_fraction_reference(case):
    variables, pairs = case
    den = common_den(pairs)
    expected = {}
    for a, b in pairs:
        expected = reference.add(expected, reference.product(a.terms, b.terms))
    packed = algebra._packed_dot(pairs, rows_of(pairs), den)
    assert packed == algebra._plain_dot(pairs, den)
    assert algebra._reduced(variables, packed, den).terms == expected
    assert algebra._dot(pairs, variables).terms == expected
    # each pair again with one factor negated: every row sum cancels to zero
    cancelling = pairs + [(-a, b) for a, b in pairs]
    assert algebra._packed_dot(cancelling, rows_of(cancelling), common_den(cancelling)) == {}


def test_the_selection_packs_only_dense_products():
    abc = ("a1", "b1", "c1")
    a1, b1, c1 = (Poly.variable(v, abc) for v in abc)
    series = (a1 + b1 + c1) ** 24 - 1
    base = structures.canonical_structure(4, 1, -1)
    lifted = lifts.lift_endo(
        structures.conjugate_structure(base, *structures.random_unimodular(base.chart, random.Random(7), 6, 2)).f,
        "complete", lifts.TangentChart.over(base.chart))
    assert len(lifted.chart.coords) == 18
    with mock.patch.object(algebra, "_plain_dot", side_effect=algebra._plain_dot) as plain, \
            mock.patch.object(algebra, "_packed_dot", side_effect=algebra._packed_dot) as packed:
        square = series * series
        assert (plain.call_count, packed.call_count) == (0, 1)
        # F^c o F^c on the 18-coordinate chart: small sums of products
        composed = _contract(lifted.entries, lifted.entries, lifted.chart.coords)
        assert plain.call_count > 0 and packed.call_count == 1
        # 45 * 45 term products, but with no exponent of the packed variable
        # every term is a row of its own: one term product per pair of rows
        wide = sum(map(Poly.variable, lifted.chart.coords[:9], [lifted.chart.coords] * 9)) ** 2
        wide_square = wide * wide
        # 28 * 28 term products, under _PACK_PRODUCTS, and 4 * 325, where
        # packing and reading off the slots cost as much as the loop
        small, four = (a1 + b1 + c1) ** 6, a1 - b1 + 2 * c1 + 3
        small_square, lopsided = small * small, four * (series + 1)
        assert packed.call_count == 1
    assert len(series.nums) == 326 and len(square.nums) == 1551
    assert square.nums == algebra._plain_dot([(series, series)], 1)
    assert composed
    assert len(wide.nums) == 45 and len(algebra._rows(wide.nums)) == 45
    assert wide_square.terms == reference.product(wide.terms, wide.terms)
    assert small_square.terms == reference.product(small.terms, small.terms)
    assert lopsided.terms == reference.product(four.terms, (series + 1).terms)


def test_a_sparse_square_takes_the_plain_loop_and_builds_no_wide_int():
    # 40 terms in one row, of total degree 30,000, whose exponents of y, the
    # packed variable, are spread over 0..29,991: packed, that row would be one
    # int of 29,992 slots
    a = Poly(XYZ, {(0, 769 * i, 30000 - 769 * i): Fraction((-1) ** i * (2**64 + i), i + 1)
                   for i in range(40)})
    assert len(algebra._rows(a.nums)) == 1
    big = max(map(abs, a.nums.values()))
    wide_int_bytes = 29992 * ((40 * big * big).bit_length() + 1) // 8
    tracemalloc.start()
    try:
        assert algebra._packing([(a, a)], 3) is None
        selection_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with mock.patch.object(algebra, "_packed_dot", side_effect=AssertionError("packed")):
            square = a * a
        product_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert selection_peak < wide_int_bytes // 100 and product_peak < wide_int_bytes // 4
    den = a.den * a.den
    assert square == algebra._reduced(XYZ, algebra._plain_dot([(a, a)], den), den)
    assert square.terms == reference.product(a.terms, a.terms)


# -- one int key per monomial, up to the field bound --------------------------------

# the highest exponent and total degree a monomial key holds
TOP = 2**16 - 1

# terms on each side of a large product: 256 term products or more
LARGE = 16

# each variable's exponent offset: three of them put two operands' total
# degrees on either side of TOP together (three 10,919s give a product of total
# degree 65,514 to 65,532, three 10,921s one of 65,526 to 65,544), and no
# operand past it alone (three 21,840s give at most 65,529)
HALF_BOUNDARIES = [0, 127, 128, 10919, 10920, 10921, 21840]


@st.composite
def large_operands(draw, count):
    """``count`` Polys over x, y, z of LARGE..LARGE+8 terms with mixed
    denominators, whose exponents of each variable lie in [o, o + 3] for one
    offset o from HALF_BOUNDARIES, shared by all of them."""
    offsets = [draw(st.sampled_from(HALF_BOUNDARIES)) for _ in XYZ]
    exps = st.tuples(*[st.integers(o, o + 3) for o in offsets])
    terms = st.dictionaries(exps, mixed_fractions.filter(bool), min_size=LARGE, max_size=LARGE + 8)
    return [Poly(XYZ, draw(terms)) for _ in range(count)]


def fits(a, b):
    """Whether the total degree of a * b is at most TOP."""
    return a.total_degree() + b.total_degree() <= TOP


@settings(max_examples=40, deadline=None)
@given(large_operands(2))
def test_large_products_match_fraction_reference(operands):
    a, b = operands
    # the last two make terms that cancel exactly inside the accumulator
    for left, right in ((a, b), (a + b, a - b), (a, -a)):
        if not fits(left, right):
            with pytest.raises(DegreeOverflow):
                left * right
            continue
        product = left * right
        assert product.terms == reference.product(left.terms, right.terms)
        assert all(type(c) is Fraction and c != 0 for c in product.terms.values())
        assert all(type(e) is int for exps in product.terms for e in exps)


@settings(max_examples=25, deadline=None)
@given(large_operands(4), st.booleans())
def test_large_contractions_match_dense_reference(operands, cancel):
    a, b, c, d = operands
    rows, cols = [[a, b], [c, d]], [[d, c], [b, a]]
    if cancel:
        # each row against a column and its negation: every sum is exactly zero
        rows, cols = [row + row for row in rows], [col + [-q for q in col] for col in cols]
    if not all(fits(x, y) for row in rows for col in cols for x, y in zip(row, col)):
        with pytest.raises(DegreeOverflow):
            dense_contract(rows, cols, Poly.zero(XYZ))
        return
    out = dense_contract(rows, cols, Poly.zero(XYZ))
    assert [[q.terms for q in line] for line in out] == reference.contraction(rows, cols)
    if cancel:
        assert all(q.is_zero() for line in out for q in line)


@pytest.mark.parametrize("top", [255, 256, 2**15, TOP - 1, TOP, TOP + 1, 2 * TOP])
def test_a_product_is_exact_up_to_the_field_bound_and_refused_past_it(top):
    # a * b reaches total degree exactly ``top``, nearly all of it in y
    def spread(degree):
        """LARGE exponent tuples of total degree degree - i // 8 for the i-th."""
        return [(i % 4, degree - i % 4 - i // 4 % 2 - i // 8, i // 4 % 2) for i in range(LARGE)]

    a = Poly(XYZ, {exps: Fraction(i + 1, 3) for i, exps in enumerate(spread(top // 2))})
    b = Poly(XYZ, {exps: 2 * i - 31 for i, exps in enumerate(spread(top - top // 2))})
    assert a.total_degree() + b.total_degree() == top
    if top > TOP:
        with pytest.raises(DegreeOverflow, match=f"a product or power of total degree {top} exceeds {TOP}"):
            a * b
        return
    product = a * b
    assert product.total_degree() == top
    assert product.terms == reference.product(a.terms, b.terms)


def test_products_and_powers_past_the_field_raise_before_any_result_is_built():
    x, y = Poly.variable("x", XY), Poly.variable("y", XY)
    top, near = Poly(XY, {(TOP, 0): 1}), Poly(XY, {(TOP - 1, 0): 2, (0, 1): 1})
    x_y, x_plus_y, near_plus_1, zero = x * y + 1, x + y, near + 1, Poly.zero(XY)
    assert (near * x).total_degree() == (x**TOP).total_degree() == TOP
    assert (near * x_plus_y).leading() == ((TOP, 0), 2)
    for make in (lambda: top * x, lambda: x * top, lambda: near * x_y, lambda: x ** (TOP + 1),
                 lambda: x_plus_y ** (TOP + 1), lambda: near_plus_1**2,
                 lambda: dense_contract([[top, x]], [[x, y]], zero),
                 # only the second pair of this sum passes the field
                 lambda: dense_contract([[x, top]], [[y, x]], zero)):
        with mock.patch.object(Poly, "_trusted", side_effect=AssertionError("a result was built")):
            with pytest.raises(DegreeOverflow, match=f"exceeds {TOP}"):
                make()


def test_unit_factors_cost_no_fraction_product():
    q = p({(2, 1): Fraction(3, 7), (0, 1): -2, (1, 0): Fraction(1, 2)})
    negated = p({e: -c for e, c in q.terms.items()})
    expected = [q, negated, negated, q, p(reference.product(q.terms, {(1, 1): -1})),
                p(reference.product(q.terms, {(0, 2): 1}))]
    assert q._scale(Fraction(1)) is q
    with mock.patch.object(Fraction, "__mul__", side_effect=AssertionError("Fraction product")):
        results = [q * 1, q * -1, q * Poly.const(-1, XY), Poly.const(1, XY) * q,
                   q * p({(1, 1): -1}), p({(0, 2): 1}) * q]
    assert results == expected


def test_power_squares_only_while_bits_remain():
    base = p({(1, 0): 1, (0, 1): 1, (0, 0): 1})
    degrees = []
    multiply = Poly.__mul__

    def recording(self, other):
        product = multiply(self, other)
        degrees.append(product.total_degree())
        return product

    with mock.patch.object(Poly, "__mul__", recording):
        power = base**12
    assert power.total_degree() == 12
    assert max(degrees) == 12


def test_contraction_rejects_entries_over_other_variables():
    zero = Poly.zero(XYZ)
    x = Poly.variable("x", XYZ)
    narrow = p({(1, 0): 1})
    for rows, cols in (
        ([[x, narrow]], [[x, x]]),          # in a row, multi-pair sum
        ([[x, x]], [[x, narrow]]),          # in a column
        ([[narrow]], [[x]]),                # single-pair sum
        ([[Poly.const(2, XY)]], [[x]]),     # a constant that + would coerce
    ):
        with pytest.raises(VariableMismatch):
            dense_contract(rows, cols, zero)
    with pytest.raises(VariableMismatch):
        PolyMatrix([[x]]) @ PolyMatrix([[narrow]])


def test_contraction_over_empty_inner_dimension_is_zero():
    zero = Poly.zero(XY)
    assert dense_contract([(), ()], [(), (), ()], zero) == [[zero] * 3] * 2
    assert dense_contract([], [()], zero) == []
    assert _contract({}, {(0, 1): Poly.variable("x", XY)}, XY) == {}


def test_contraction_joins_the_outer_indices_of_its_keys():
    x, y = Poly.variable("x", XYZ), Poly.variable("y", XYZ)
    # a vector against a one-form, a matrix against a vector, and a one-form
    # against a matrix: the last left index meets the first right one
    assert _contract({(0,): x, (2,): y}, {(2,): x, (1,): y}, XYZ) == {(): x * y}
    assert _contract({(0, 1): x, (1, 1): y, (1, 0): x}, {(1,): y}, XYZ) == {
        (0,): x * y, (1,): y * y}
    assert _contract({(0,): x, (1,): -x}, {(0, 2): y, (1, 2): y, (1, 0): x}, XYZ) == {
        (0,): -x * x}
    # three indices kept on the outside
    assert _contract({(1, 0): x}, {(0, 2, 1): y}, XYZ) == {(1, 2, 1): x * y}


def test_arithmetic_results_skip_validation(monkeypatch):
    a = p({(1, 0): Fraction(1, 2), (0, 1): 3})
    b = p({(1, 1): Fraction(-2, 3), (0, 0): 1})
    expected_product = p({(2, 1): Fraction(-1, 3), (1, 0): Fraction(1, 2),
                          (1, 2): -2, (0, 1): 3})
    expected_sum = p({(1, 0): Fraction(1, 2), (0, 1): 3, (1, 1): Fraction(-2, 3), (0, 0): 1})
    calls = []
    validate = Poly.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        validate(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", counting)
    product, total = a * b, a + b
    assert calls == []
    assert product == expected_product
    assert total == expected_sum


def test_public_constructor_validates():
    with pytest.raises(ValueError, match="negative exponent"):
        Poly(XY, {(1, -1): 1})
    with pytest.raises(VariableMismatch):
        Poly(XY, {(1,): 1})
    with pytest.raises(VariableMismatch):
        Poly(XY, {(1, 0, 0): 1})
    with pytest.raises(TypeError):
        Poly(XY, {(1, 0): 0.5})
    q = Poly(XY, {(1, 0): 2, (0, 1): 0})
    assert q.terms == {(1, 0): Fraction(2)}
    assert type(q.terms[(1, 0)]) is Fraction


def test_public_constructor_refuses_exponents_no_key_holds():
    # a float exponent was accepted and printed as x^1.5
    with pytest.raises(TypeError, match=r"exponent 1\.5 of x in \(1\.5, 0\) is not an int"):
        Poly(XY, {(1.5, 0): 1})
    with pytest.raises(TypeError, match="exponent '2' of y in"):
        Poly(XY, {(0, "2"): 1})
    with pytest.raises(DegreeOverflow, match=r"exponent 65536 of y in \(0, 65536\) exceeds 65535"):
        Poly(XY, {(0, TOP + 1): 1})
    with pytest.raises(DegreeOverflow, match=r"total degree 65536 of \(32768, 32768\) exceeds 65535"):
        Poly(XY, {(2**15, 2**15): 1})
    edge = Poly(XY, {(2**15, 2**15 - 1): 2, (TOP, 0): 1})
    assert edge.terms == {(TOP, 0): 1, (2**15, 2**15 - 1): 2}
    assert str(edge) == "x^65535 + 2*x^32768*y^32767"
    # the terms view holds no such tuple either
    for exps in ((1.5, 0), (0, -1), (0, TOP + 1), (2**15, 2**15), (1,), (TOP, 0, 0), "ab", 7):
        assert exps not in edge.terms and edge.terms.get(exps) is None
        with pytest.raises(KeyError):
            edge.terms[exps]


def test_is_constant():
    assert Poly.zero(XY).is_constant()
    assert Poly.const(Fraction(-3, 2), XY).is_constant()
    assert not p({(0, 1): 1}).is_constant()
    assert not p({(0, 0): 1, (1, 0): 1}).is_constant()


def test_constant_hash_agrees_with_equality():
    # a constant Poly equals its value, so it must hash as it does: 3 was not
    # found in {Poly.const(3, XY)}
    for value in (3, -1, 0, Fraction(-3, 2), Fraction(6, 2)):
        const = Poly.const(value, XY)
        assert const == value and hash(const) == hash(value)
        assert value in {const} and const in {value}
        assert {const: "c"}[value] == "c" and {value: "v"}[const] == "v"
    assert Fraction(3) in {Poly.const(3, XYZ)} and 3 in {Poly.const(Fraction(3), XY)}
    assert 2 not in {Poly.const(3, XY)} and Fraction(1, 2) not in {Poly.const(3, XY)}
    # a non-constant Poly hashes by its variables and parts, as before
    q = p({(1, 0): Fraction(1, 2), (0, 0): 3})
    assert hash(q) == hash((XY, q.den, frozenset(q.nums.items())))
    assert q in {p({(0, 0): 3, (1, 0): Fraction(1, 2)})} and 3 not in {q}


# -- polynomial matrices -----------------------------------------------------------


def test_matrix_constructor_names_a_non_poly_entry():
    # PolyMatrix([[1]]) raised a bare AttributeError, and a non-Poly after a
    # Poly a VariableMismatch about mixed variable lists
    x = Poly.variable("x", XY)
    with pytest.raises(TypeError, match=r"matrix entry \(0, 0\) is of type int, not Poly"):
        PolyMatrix([[1]])
    with pytest.raises(TypeError, match=r"matrix entry \(0, 1\) is of type int, not Poly"):
        PolyMatrix([[x, 2]])
    with pytest.raises(TypeError, match=r"matrix entry \(1, 0\) is of type Fraction, not Poly"):
        PolyMatrix([[x, x], [Fraction(1, 2), x]])
    with pytest.raises(VariableMismatch, match="mixed variable lists"):
        PolyMatrix([[x, Poly.variable("x", XYZ)]])


def shear(variables, i, j, poly):
    n = len(variables)
    ident = PolyMatrix.identity(n, variables)
    rows = [list(row) for row in ident.entries]
    rows[i][j] = rows[i][j] + poly
    return PolyMatrix(rows)


def test_identity_inverse():
    ident = PolyMatrix.identity(3, XYZ)
    assert ident.unimodular_inverse() == ident


def test_shear_inverse():
    x = Poly.variable("x", XY)
    u = shear(XY, 0, 1, x)
    expected = shear(XY, 0, 1, -x)
    assert u.unimodular_inverse() == expected


def test_product_of_shears_inverse():
    x = Poly.variable("x", XYZ)
    y = Poly.variable("y", XYZ)
    u = shear(XYZ, 0, 1, x * y) @ shear(XYZ, 2, 0, y**2)
    inv = u.unimodular_inverse()
    # product of the individual inverses in reverse order, multiplied out
    manual = shear(XYZ, 2, 0, -(y**2)) @ shear(XYZ, 0, 1, -(x * y))
    assert inv == manual
    assert (u @ inv) == PolyMatrix.identity(3, XYZ)


def test_not_unimodular():
    x = Poly.variable("x", XY)
    with pytest.raises(NotUnimodular):
        PolyMatrix.from_values([[x, Poly.zero(XY)], [Poly.zero(XY), Poly.const(1, XY)]], XY).unimodular_inverse()
    with pytest.raises(NotUnimodular):
        PolyMatrix.from_values([[2, 0], [0, 1]], XY).unimodular_inverse()


def test_unimodular_inverse_checks_the_last_product():
    # A M_n = -c_0 I is checked on the product the method forms, not assumed:
    # an off-diagonal error in it leaves the trace, and so det, unchanged
    u = shear(XY, 0, 1, Poly.variable("x", XY))
    real, calls = algebra._contract, []

    def last_product_off(left, right, variables):
        out = real(left, right, variables)
        calls.append(1)
        if len(calls) == 2:  # A M_2, the last product for n = 2
            out[1, 0] = Poly.const(1, variables)
        return out

    with mock.patch.object(algebra, "_contract", last_product_off):
        with pytest.raises(AlgebraError, match=r"inverse fails A \* A\^-1 = I"):
            u.unimodular_inverse()


def test_determinant_of_constant_matrix():
    m = PolyMatrix.from_values([[1, 2], [3, 4]], XY)
    assert m.det() == Poly.const(-2, XY)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3),
                          st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=4))
def test_random_shear_products_invert(specs):
    u = PolyMatrix.identity(3, XYZ)
    for i, j, coeff, ex, ey in specs:
        if i == j or coeff == 0:
            continue
        poly = Poly(XYZ, {(ex, ey, 0): coeff})
        u = u @ shear(XYZ, i, j, poly)
    inv = u.unimodular_inverse()
    assert (u @ inv) == PolyMatrix.identity(3, XYZ)
    assert (inv @ u) == PolyMatrix.identity(3, XYZ)
