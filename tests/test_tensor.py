"""Tensor field operations on a chart: contractions, outer products, rank."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from liftcheck.algebra import Poly, PolyMatrix
from liftcheck.structures import RContactStructure
from liftcheck.tensor import (
    Chart,
    Point,
    TensorError,
    TensorField,
    _outer_sum,
    endo_apply,
    endo_compose,
    endo_transpose,
    leading_minors_positive,
    metric_pullback,
    oneform_after_endo,
    oneform_apply,
    outer,
    random_point,
    rank_at,
)

AB = Chart("P", ("a", "b"))
ABC = Chart("Q", ("a", "b", "c"))


def rotation(chart=AB):
    return TensorField.endo(chart, [[0, -1], [1, 0]])


def random_field(chart, valence, rng, max_degree=2):
    def rnd_poly():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            exps = tuple(rng.randint(0, max_degree) for _ in chart.coords)
            terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return Poly(chart.coords, terms)

    if valence == (0, 0):
        return TensorField.function(chart, rnd_poly())
    if valence in ((1, 0), (0, 1)):
        return TensorField(chart, valence, [rnd_poly() for _ in chart.coords])
    return TensorField(
        chart, valence, [[rnd_poly() for _ in chart.coords] for _ in chart.coords]
    )


def test_identity_application():
    rng = random.Random(0)
    x = random_field(AB, (1, 0), rng)
    assert endo_apply(TensorField.identity_endo(AB), x) == x


def test_rotation_sends_e1_to_e2():
    # matrix-vector oracle: [[0,-1],[1,0]] * (1,0) = (0,1)
    x = TensorField.vector(AB, [1, 0])
    assert endo_apply(rotation(), x) == TensorField.vector(AB, [0, 1])


def test_dual_pairing():
    dc = TensorField.basis_oneform(ABC, "c")
    assert oneform_apply(dc, TensorField.basis_vector(ABC, "c")).comps == Poly.const(1, ABC.coords)
    assert oneform_apply(dc, TensorField.basis_vector(ABC, "a")).is_zero()


def test_oneform_contraction():
    # (x dx) applied to (y d/dx) = xy; contraction computed by hand
    a = Poly.variable("a", AB.coords)
    b = Poly.variable("b", AB.coords)
    w = TensorField.oneform(AB, [a, Poly.zero(AB.coords)])
    x = TensorField.vector(AB, [b, Poly.zero(AB.coords)])
    assert oneform_apply(w, x).comps == a * b


def test_compose_with_identity_and_rotation_square():
    rng = random.Random(1)
    f = random_field(AB, (1, 1), rng)
    ident = TensorField.identity_endo(AB)
    assert endo_compose(f, ident) == f
    assert endo_compose(ident, f) == f
    assert endo_compose(rotation(), rotation()) == ident.scale(-1)


def test_outer_products():
    dc = TensorField.basis_oneform(ABC, "c")
    ec = TensorField.basis_vector(ABC, "c")
    single = outer(ec, dc)
    expected = [[0] * 3 for _ in range(3)]
    expected[2][2] = 1
    assert single == TensorField.endo(ABC, expected)
    assert outer(TensorField.zero(ABC, (1, 0)), dc).is_zero()
    # (x d/da) (x) (y db) has the single entry (a,b) = xy
    a = Poly.variable("a", AB.coords)
    b = Poly.variable("b", AB.coords)
    z = Poly.zero(AB.coords)
    got = outer(TensorField.vector(AB, [a, z]), TensorField.oneform(AB, [z, b]))
    assert got == TensorField.endo(AB, [[z, a * b], [z, z]])


def test_outer_sum_is_one_product():
    rng = random.Random(5)
    for r in (1, 2, 3):
        xs = [random_field(ABC, (1, 0), rng) for _ in range(r)]
        ws = [random_field(ABC, (0, 1), rng) for _ in range(r)]
        expected = TensorField.zero(ABC, (1, 1))
        for x, w in zip(xs, ws):
            expected = expected + outer(x, w)
        assert _outer_sum(ABC, xs, ws) == expected


def test_outer_sum_over_r_zero_is_the_zero_field():
    # r = 0 is a valid structure; its sums still have the m x m shape
    assert _outer_sum(ABC, (), ()) == TensorField.zero(ABC, (1, 1))
    s = RContactStructure(AB, rotation(), (), (), -1, "riemannian", n=1, r=0)
    assert s.sum_outer() == TensorField.zero(AB, (1, 1))


def test_transpose_involution_and_duality():
    rng = random.Random(2)
    f = random_field(AB, (1, 1), rng)
    assert endo_transpose(endo_transpose(f)) == f
    assert endo_transpose(TensorField.identity_endo(AB)) == TensorField.identity_endo(AB)
    # (w o F)(X) = w(F X): transpose acting on one-forms agrees with composition
    w = random_field(AB, (0, 1), rng)
    x = random_field(AB, (1, 0), rng)
    assert oneform_apply(oneform_after_endo(w, f), x) == oneform_apply(w, endo_apply(f, x))
    # and (w o F) is literally the transpose matrix applied to w's components
    as_vector = TensorField.vector(AB, w.comps)
    assert oneform_after_endo(w, f).comps == endo_apply(endo_transpose(f), as_vector).comps


def euclidean(chart):
    return TensorField.bilinear(
        chart,
        [[1 if i == j else 0 for j in range(chart.dim)] for i in range(chart.dim)],
    )


def test_pullback_by_identity_and_rotation():
    g = euclidean(AB)
    assert metric_pullback(g, TensorField.identity_endo(AB)) == g
    assert metric_pullback(g, rotation()) == g


def test_pullback_componentwise_oracle():
    rng = random.Random(3)
    g = random_field(AB, (0, 2), rng)
    f = random_field(AB, (1, 1), rng)
    got = metric_pullback(g, f)
    for i in range(2):
        for j in range(2):
            manual = Poly.zero(AB.coords)
            for k in range(2):
                for l in range(2):
                    manual = manual + g.comps[k][l] * f.comps[k][i] * f.comps[l][j]
            assert got.comps[i][j] == manual


def test_rank_examples():
    pts = [Point(ABC, (Fraction(1), Fraction(2), Fraction(3)))]
    assert rank_at(TensorField.identity_endo(ABC), pts) == 3
    assert rank_at(TensorField.zero(ABC, (1, 1)), pts) == 0
    # canonical contact action on a 3-dim chart: rank 2 by elimination
    phi = TensorField.endo(ABC, [[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    assert rank_at(phi, pts) == 2


ENTRIES = st.sampled_from(
    [Fraction(v) for v in (0, 1, -1, 2, 3)] + [Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)]
)


@st.composite
def square_matrices(draw):
    m = draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(ENTRIES, min_size=m, max_size=m), min_size=m, max_size=m))
    if draw(st.booleans()):
        # A^T A + I is positive definite, so both verdicts are drawn often
        a = [[sum(a[k][i] * a[k][j] for k in range(m)) + (i == j) for j in range(m)]
             for i in range(m)]
    return a


def blockwise_minors_positive(values):
    """Reference: one determinant per leading block."""
    return all(
        PolyMatrix.from_values([row[:k] for row in values[:k]], ()).det().constant_value() > 0
        for k in range(1, len(values) + 1)
    )


@settings(max_examples=200, deadline=None)
@given(square_matrices())
@example([[0]]).via("zero 1x1 minor")
@example([[-1]]).via("negative 1x1 minor")
@example([[Fraction(1, 2)]]).via("rational 1x1 minor")
@example([[0, 1], [1, 0]]).via("zero first minor, nonzero below it")
@example([[1, 2], [2, 1]]).via("negative second minor")
@example([[1, 1], [1, 1]]).via("zero second minor")
@example([[2, 0, 0], [0, 0, 0], [0, 0, 3]]).via("zero column skipped")
@example([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 4)]]).via("rational")
def test_leading_minors_positive_matches_blockwise_determinants(values):
    m = len(values)
    chart = Chart("G", tuple(f"x{i}" for i in range(m)))
    # a linear term that vanishes at the sample point checks evaluation too
    comps = [[Poly.const(v, chart.coords) + chart.coordinate("x0") for v in row] for row in values]
    point = Point(chart, (0,) * m)
    got = leading_minors_positive(TensorField.bilinear(chart, comps), point)
    assert got == blockwise_minors_positive(values)


def test_rank_bounds_and_monotonicity():
    rng = random.Random(4)
    f = random_field(ABC, (1, 1), rng)
    pts = [random_point(ABC, rng) for _ in range(4)]
    ranks = [rank_at(f, pts[: k + 1]) for k in range(4)]
    assert all(r <= ABC.dim for r in ranks)
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))


def test_chart_and_valence_mismatch_errors():
    x = TensorField.basis_vector(AB, "a")
    with pytest.raises(TensorError):
        endo_apply(TensorField.identity_endo(ABC), x)
    with pytest.raises(TensorError):
        oneform_apply(x, x)


def test_compose_associative_and_outer_identity():
    rng = random.Random(5)
    f = random_field(AB, (1, 1), rng)
    g = random_field(AB, (1, 1), rng)
    h = random_field(AB, (1, 1), rng)
    assert endo_compose(endo_compose(f, g), h) == endo_compose(f, endo_compose(g, h))
    # (X (x) w) o (X' (x) w') = w(X') * (X (x) w')
    x1 = random_field(AB, (1, 0), rng)
    x2 = random_field(AB, (1, 0), rng)
    w1 = random_field(AB, (0, 1), rng)
    w2 = random_field(AB, (0, 1), rng)
    lhs = endo_compose(outer(x1, w1), outer(x2, w2))
    rhs = outer(x1, w2).scale(oneform_apply(w1, x2))
    assert lhs == rhs


def test_pullback_functorial():
    rng = random.Random(6)
    g = random_field(AB, (0, 2), rng)
    f = random_field(AB, (1, 1), rng)
    h = random_field(AB, (1, 1), rng)
    assert metric_pullback(g, endo_compose(f, h)) == metric_pullback(
        metric_pullback(g, f), h
    )


def test_arithmetic_and_contraction_results_skip_component_checks(monkeypatch):
    import liftcheck.tensor as tensor

    rng = random.Random(7)
    f, h = random_field(ABC, (1, 1), rng), random_field(ABC, (1, 1), rng)
    x, w = random_field(ABC, (1, 0), rng), random_field(ABC, (0, 1), rng)
    g = random_field(ABC, (0, 2), rng)
    s = random_field(ABC, (0, 0), rng)
    calls = []
    check = tensor._as_poly

    def counting(chart, value):
        calls.append(value)
        return check(chart, value)

    monkeypatch.setattr(tensor, "_as_poly", counting)
    results = [
        f + h, f - h, -f, x + x, w - w, s + s, f.scale(s),
        endo_apply(f, x), oneform_apply(w, x), endo_compose(f, h),
        oneform_after_endo(w, f), outer(x, w), _outer_sum(ABC, [x, x], [w, w]),
        endo_transpose(f), metric_pullback(g, f),
    ]
    assert calls == []
    monkeypatch.setattr(tensor, "_as_poly", check)
    # each result equals, and hashes as, the same components checked by the
    # public constructor
    for field in results:
        if field.valence == (0, 0):
            checked = TensorField(field.chart, field.valence, field.comps)
        elif field.valence in ((1, 0), (0, 1)):
            checked = TensorField(field.chart, field.valence, list(field.comps))
        else:
            checked = TensorField(field.chart, field.valence, [list(r) for r in field.comps])
        assert field == checked and hash(field) == hash(checked)


def test_constructor_still_rejects_components_over_another_chart():
    over_ab = AB.coordinate("a")
    with pytest.raises(TensorError, match="does not live on chart"):
        TensorField.vector(ABC, [over_ab, ABC.const(0), ABC.const(1)])
    with pytest.raises(TensorError, match="does not live on chart"):
        TensorField.endo(AB, [[AB.const(1), ABC.coordinate("c")], [0, 1]])
    with pytest.raises(TensorError, match="does not live on chart"):
        TensorField.function(ABC, over_ab)
    with pytest.raises(TensorError, match="does not live on chart"):
        rotation().scale(ABC.coordinate("a"))
