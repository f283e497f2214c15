"""Tensor field operations on a chart: contractions, outer products, rank."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from reference import dense_map, dense_nonzero_items, dense_sum
from liftcheck.algebra import Poly
from liftcheck.structures import RContactStructure
from liftcheck.tensor import (
    VALENCES,
    Chart,
    Point,
    TensorError,
    TensorField,
    _apply_all,
    _outer_sum,
    _pairings,
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


def matrices(rows, cols, entries=ENTRIES):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def field_at_a_point(valence, values):
    """A field whose matrix at the returned point is ``values``: each entry v is
    v + (x0 - 1/3)^2 * x_i * x_j, so evaluation meets denominators that cancel,
    and an entry equals its transpose's iff their values are equal."""
    m = len(values)
    chart = Chart("G", tuple(f"x{i}" for i in range(m)))
    shift = (chart.coordinate("x0") - chart.const(Fraction(1, 3))) ** 2
    x = [chart.coordinate(f"x{i}") for i in range(m)]
    comps = [[chart.const(v) + shift * x[i] * x[j] for j, v in enumerate(row)]
             for i, row in enumerate(values)]
    point = Point(chart, (Fraction(1, 3),) + tuple(Fraction(2 * i - 7, 4) for i in range(1, m)))
    return TensorField(chart, valence, comps), point


@st.composite
def rank_matrices(draw):
    """Square matrices up to 8 x 8: rational entries, sparse ones (whose
    pivots often need a swap) or a product of m x k and k x m factors (of rank
    at most k), with some rows and columns then zeroed."""
    m = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["dense", "sparse", "thin"]))
    if kind == "thin":
        k = draw(st.integers(0, m - 1))
        a, b = draw(matrices(m, k)), draw(matrices(k, m))
        rows = [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
                for i in range(m)]
    else:
        sparse = st.sampled_from([Fraction(0)] * 4 + [Fraction(1), Fraction(-2, 3)])
        rows = draw(matrices(m, m, ENTRIES if kind == "dense" else sparse))
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        rows[i] = [Fraction(0)] * m
    for j in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        for row in rows:
            row[j] = Fraction(0)
    return rows


@settings(max_examples=200, deadline=None)
@given(rank_matrices())
@example([[0, 1], [1, 0]]).via("first pivot needs a swap")
@example([[0, 0, 1], [0, 2, 0], [3, 0, 0]]).via("every pivot needs a swap")
@example([[1, 2], [2, 4]]).via("dependent rows")
@example([[0, 0], [0, 0]]).via("zero matrix")
@example([[0, 1, 2], [0, 3, 6], [0, 5, 7]]).via("zero first column")
@example([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 2)]]).via("rational, rank 1")
@example([[1, 2, 3], [2, 4, 6], [3, 6, 9]]).via("equal twins, rank 1")
@example([[1, 2, 3], [2, 4, 6], [3, 5, 9]]).via("twins that differ in one entry")
@example([[0, 2, 3], [0, 4, 6], [3, 6, 9]]).via("a zero twin")
def test_rank_at_matches_fraction_elimination(values):
    f, point = field_at_a_point((1, 1), values)
    assert rank_at(f, [point]) == reference.matrix_rank(values)


@st.composite
def square_matrices(draw):
    m = draw(st.integers(1, 6))
    a = draw(matrices(m, m))
    if draw(st.booleans()):
        # A^T A + I is positive definite, so both verdicts are drawn often
        a = [[sum(a[k][i] * a[k][j] for k in range(m)) + (i == j) for j in range(m)]
             for i in range(m)]
    return a


def blockwise_minors_positive(values):
    """Reference: one determinant per leading block."""
    return all(
        reference.determinant([row[:k] for row in values[:k]]) > 0
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
@example([[1, 2, 0, 0, 0, 0], [2, 5, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
          [0, 0, 0, 0, 1, 3], [0, 0, 0, 0, 3, 2]]).via("only the sixth minor negative")
@example([[2, 1, 1], [1, 2, 1], [1, 1, 2]]).via("equal twins, positive definite")
@example([[2, 1, 1], [1, 2, 1], [1, 3, 2]]).via("twins that differ in one entry")
@example([[2, 0, 1], [1, 2, 1], [1, 1, 2]]).via("a zero twin")
def test_leading_minors_positive_matches_blockwise_determinants(values):
    g, point = field_at_a_point((0, 2), values)
    assert leading_minors_positive(g, point) == blockwise_minors_positive(values)


def test_an_entry_equal_to_its_transpose_is_evaluated_once(monkeypatch):
    import liftcheck.tensor as tensor

    a, b, c = (ABC.coordinate(v) for v in ABC.coords)
    # equal twins built apart, twins that differ, and a twin that is zero
    g = TensorField.from_entries(ABC, (0, 2), {
        (0, 1): a * b + Fraction(1, 2), (1, 0): b * a + Fraction(1, 2),
        (0, 2): c, (2, 0): c + 1,
        (1, 2): a ** 2,
        (2, 2): Fraction(1, 3) * c,
    })
    assert g.entries[0, 1] is not g.entries[1, 0]
    point = Point(ABC, (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)))
    original = tensor._numerators_at
    _, every = original(list(g.entries.values()), point.values)
    expected = [[0] * 3 for _ in range(3)]
    for (i, j), n in zip(g.entries, every):
        expected[i][j] = n
    passed = []
    monkeypatch.setattr(tensor, "_numerators_at",
                        lambda polys, values: passed.extend(polys) or original(polys, values))
    # every entry over the scale of evaluating them all, (1, 0) copied from (0, 1)
    assert tensor._matrix_at(g, point) == expected
    assert passed == [g.entries[k] for k in [(0, 1), (0, 2), (2, 0), (1, 2), (2, 2)]]


@pytest.mark.parametrize("seed", [0, 1, 1729, 2**40 + 3])
@pytest.mark.parametrize("chart", [AB, ABC, Chart("W", tuple(f"w{i}" for i in range(11)))])
def test_random_point_draws_the_reference_stream(seed, chart):
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(30):
        point = random_point(chart, rng)
        assert point.values == reference.sample_values(ref, chart.dim)
        assert all(type(v) is Fraction for v in point.values)
    # both generators made the same draws
    assert rng.getstate() == ref.getstate()


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


@pytest.mark.parametrize("key", [(2,), (-1,), (0, 0), (), "0", (0.0,)])
def test_keyed_constructor_checks_each_index(key):
    with pytest.raises(TensorError, match=r"is not 1 indices in range 0\.\.1"):
        TensorField.from_entries(AB, (1, 0), {key: AB.const(1)})


def test_keyed_constructor_drops_zeros_and_reads_constants():
    a = AB.coordinate("a")
    field = TensorField.from_entries(AB, (1, 1), {(0, 1): a, (1, 0): 0, (1, 1): Fraction(1, 2)})
    assert field.entries == {(0, 1): a, (1, 1): AB.const(Fraction(1, 2))}
    assert field == TensorField.endo(AB, [[0, a], [0, Fraction(1, 2)]])
    with pytest.raises(TensorError, match="unsupported valence"):
        TensorField.from_entries(AB, (2, 0), {})
    with pytest.raises(TensorError, match="does not live on chart"):
        TensorField.from_entries(AB, (0, 0), {(): ABC.coordinate("c")})


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


def test_scale_by_a_function_on_another_chart_raises():
    # a chart of the same coordinates under another name, whose Polys would
    # multiply, and a constant function on a chart of other coordinates, which
    # Poly would align
    renamed = Chart("R", AB.coords)
    for factor in (TensorField.function(renamed, renamed.coordinate("a")),
                   TensorField.function(ABC, 3)):
        with pytest.raises(TensorError, match="on the same chart"):
            rotation().scale(factor)
    with pytest.raises(TensorError, match="on the same chart"):
        rotation().scale(TensorField.vector(AB, [1, 0]))


# -- sparse storage against a dense reference ---------------------------------------


def sparse_polys(chart):
    """Polys over ``chart`` from a small pool, zero in about half the draws."""
    x, y = (chart.coordinate(c) for c in chart.coords[:2])
    pool = [x, -y, x * y + Fraction(1, 3), x * x - Fraction(3, 2) * y, chart.const(2),
            chart.const(Fraction(-1, 2)), (x + y) ** 2, chart.coordinate(chart.coords[-1]) - 1]
    return st.sampled_from([chart.zero_poly()] * len(pool) + pool)


def draw_dense(data, chart, rank, like=None):
    """Dense components with ``rank`` indices, as nested lists; with ``like``,
    some components are the negations of like's, so that sums cancel."""
    count = chart.dim ** rank
    flat = data.draw(st.lists(sparse_polys(chart), min_size=count, max_size=count))
    if like is not None:
        flips = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))
        flat = [-old if flip else new for old, new, flip in zip(flatten(like, rank), flat, flips)]
    for _ in range(rank):
        flat = [flat[i:i + chart.dim] for i in range(0, len(flat), chart.dim)]
    return flat[0]


def flatten(value, rank):
    return [value] if rank == 0 else [c for v in value for c in flatten(v, rank - 1)]


def frozen(value, rank):
    """The dense view's shape: tuples of rows."""
    return value if rank == 0 else tuple(frozen(v, rank - 1) for v in value)


def stores_no_zero(field):
    return all(not c.is_zero() for c in field.entries.values())


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_sparse_fields_match_a_dense_reference(data):
    chart = data.draw(st.sampled_from([AB, ABC]))
    m, zero = chart.dim, chart.zero_poly()
    dense, fields = {}, {}
    for valence in VALENCES:
        rank = sum(valence)
        first = draw_dense(data, chart, rank)
        dense[valence] = [first, draw_dense(data, chart, rank, like=first)]
        fields[valence] = [TensorField(chart, valence, d) for d in dense[valence]]

    # pointwise algebra, zero tests, equality, hashing, order and round trips
    factor = TensorField.function(chart, dense[(0, 0)][0])
    # the direct constructor of a function builds the field the dense one does
    assert factor == fields[(0, 0)][0] and stores_no_zero(factor)
    for valence in VALENCES:
        rank, (a, b), (da, db) = sum(valence), fields[valence], dense[valence]
        results = [
            (a + b, dense_map(lambda x, y: x + y, rank, da, db)),
            (a - b, dense_map(lambda x, y: x - y, rank, da, db)),
            (-a, dense_map(lambda x: -x, rank, da)),
            (a.scale(0), dense_map(lambda x: zero, rank, da)),
            (a.scale(Fraction(-2, 3)), dense_map(lambda x: x * Fraction(-2, 3), rank, da)),
            (a.scale(factor), dense_map(lambda x: x * dense[(0, 0)][0], rank, da)),
            (a.scale(chart.coordinate("a")), dense_map(lambda x: x * chart.coordinate("a"), rank, da)),
        ]
        for got, expected in results:
            assert got.valence == valence and got.comps == frozen(expected, rank)
            assert got.nonzero_items() == dense_nonzero_items(chart, expected, rank)
            assert stores_no_zero(got) and got.is_zero() == (not got.nonzero_items())
        for field, value in zip((a, b), (da, db)):
            assert field.nonzero_items() == dense_nonzero_items(chart, value, rank)
            assert field.is_zero() == (not dense_nonzero_items(chart, value, rank))
            checked = TensorField(chart, valence, field.comps)
            assert checked == field and hash(checked) == hash(field) and stores_no_zero(checked)
            # the same entries given in the other order
            keyed = TensorField.from_entries(chart, valence, dict(reversed(field.entries.items())))
            assert keyed == field and hash(keyed) == hash(field)
        difference = a - a
        assert difference.is_zero() and difference == TensorField.zero(chart, valence)
        assert hash(difference) == hash(TensorField.zero(chart, valence))
        assert (a == b) == (frozen(da, rank) == frozen(db, rank))

    # every contraction
    (f, h), (df, dh) = fields[(1, 1)], dense[(1, 1)]
    xs, dxs = fields[(1, 0)], dense[(1, 0)]
    ws, dws = fields[(0, 1)], dense[(0, 1)]
    g, dg = fields[(0, 2)][0], dense[(0, 2)][0]
    span = range(m)
    contractions = [
        (endo_apply(f, xs[0]), [dense_sum(chart, (df[i][j] * dxs[0][j] for j in span)) for i in span]),
        (oneform_apply(ws[0], xs[0]), dense_sum(chart, (dws[0][i] * dxs[0][i] for i in span))),
        (endo_compose(f, h),
         [[dense_sum(chart, (df[i][k] * dh[k][j] for k in span)) for j in span] for i in span]),
        (oneform_after_endo(ws[0], f), [dense_sum(chart, (dws[0][i] * df[i][j] for i in span))
                                        for j in span]),
        (outer(xs[0], ws[1]), [[dxs[0][i] * dws[1][j] for j in span] for i in span]),
        (endo_transpose(f), [[df[j][i] for j in span] for i in span]),
        (metric_pullback(g, f), [[dense_sum(chart, (dg[k][l] * df[k][i] * df[l][j]
                                                  for k in span for l in span))
                                  for j in span] for i in span]),
    ]
    for r in range(3):
        contractions.append((_outer_sum(chart, xs[:r], ws[:r]), [
            [dense_sum(chart, (dxs[a][i] * dws[a][j] for a in range(r))) for j in span] for i in span]))
    contractions += [(y, [dense_sum(chart, (df[i][j] * dx[j] for j in span)) for i in span])
                     for y, dx in zip(_apply_all(f, xs), dxs)]
    for got, expected in contractions:
        assert got.comps == frozen(expected, sum(got.valence)) and stores_no_zero(got)
        assert got.nonzero_items() == dense_nonzero_items(chart, expected, sum(got.valence))
    pairings = _pairings(chart, ws, xs)
    for a, dw in enumerate(dws):
        for b, dx in enumerate(dxs):
            value = dense_sum(chart, (dw[i] * dx[i] for i in span))
            assert pairings.get((a, b), zero) == value
            assert ((a, b) in pairings) == (not value.is_zero())
