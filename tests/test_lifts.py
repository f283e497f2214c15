"""Lift formulas, their evaluation contracts, and the interaction tables."""

import random
from fractions import Fraction

import pytest

import reference
from liftcheck import lifts
from liftcheck.algebra import Poly
from liftcheck.lifts import (
    COMPLETE,
    HORIZONTAL,
    LIFT_KINDS,
    VERTICAL,
    Connection,
    LiftError,
    TangentChart,
    lift_endo,
    lift_function,
    lift_oneform,
    lift_vector,
    verify_lift_interactions,
)
from liftcheck.structures import canonical_structure, conjugate_structure, random_unimodular
from liftcheck.tensor import (
    Chart,
    TensorField,
    endo_apply,
    endo_compose,
    oneform_apply,
    outer,
)

AB = Chart("P", ("a", "b"))
TAB = TangentChart.over(AB)


def rnd_poly(chart, rng, max_degree=2):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        exps = tuple(rng.randint(0, max_degree) for _ in chart.coords)
        terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
    return Poly(chart.coords, terms)


def rnd_field(chart, valence, rng):
    if valence == (0, 0):
        return TensorField.function(chart, rnd_poly(chart, rng))
    if valence in ((1, 0), (0, 1)):
        return TensorField(chart, valence, [rnd_poly(chart, rng) for _ in chart.coords])
    return TensorField(
        chart, valence, [[rnd_poly(chart, rng) for _ in chart.coords] for _ in chart.coords]
    )


def rnd_connection(chart, rng):
    m = chart.dim
    entries = {}
    for _ in range(rng.randint(1, 4)):
        i, j, k = rng.randrange(m), rng.randrange(m), rng.randrange(m)
        # (i, j, k) and (i, k, j) are one entry of a symmetric connection
        entries[(i, min(j, k), max(j, k))] = rnd_poly(chart, rng)
    return Connection.from_entries(chart, entries)


# -- function lifts ---------------------------------------------------------------


def test_constant_function_lifts():
    five = TensorField.function(AB, 5)
    assert lift_function(five, VERTICAL, TAB).comps == Poly.const(5, TAB.total.coords)
    assert lift_function(five, COMPLETE, TAB).is_zero()


def test_complete_lift_of_square():
    # f = a^2 lifts to 2*a*a_dot
    f = TensorField.function(AB, Poly(AB.coords, {(2, 0): 1}))
    lifted = lift_function(f, COMPLETE, TAB)
    a = Poly.variable("a", TAB.total.coords)
    a_dot = Poly.variable("a_dot", TAB.total.coords)
    assert lifted.comps == 2 * a * a_dot


def test_function_horizontal_unsupported():
    with pytest.raises(LiftError):
        lift_function(TensorField.function(AB, 1), HORIZONTAL, TAB)


OTHER = Chart("Q", ("a", "b"))


@pytest.mark.parametrize("lift, field, kind, conn, message", [
    (lift_function, TensorField.function(AB, 1), HORIZONTAL, None,
     "horizontal lift of functions is not defined"),
    (lift_vector, TensorField.basis_vector(AB, "a"), HORIZONTAL, None,
     "horizontal lift requires a connection"),
    (lift_oneform, TensorField.basis_oneform(AB, "a"), HORIZONTAL, None,
     "horizontal lift requires a connection"),
    (lift_endo, TensorField.identity_endo(AB), HORIZONTAL, None,
     "horizontal lift requires a connection"),
    (lift_vector, TensorField.basis_vector(OTHER, "a"), VERTICAL, None,
     "lift_vector needs a (1,0) field on the base chart"),
    (lift_oneform, TensorField.basis_vector(AB, "a"), COMPLETE, None,
     "lift_oneform needs a (0,1) field on the base chart"),
    (lift_endo, TensorField.identity_endo(OTHER), COMPLETE, None,
     "lift_endo needs a (1,1) field on the base chart"),
    # the field is checked before the kind's own conditions
    (lift_function, TensorField.basis_vector(AB, "a"), HORIZONTAL, None,
     "lift_function needs a (0,0) field on the base chart"),
    (lift_endo, TensorField.identity_endo(AB), HORIZONTAL, Connection.flat(OTHER),
     "connection lives on a different chart"),
    (lift_vector, TensorField.basis_vector(AB, "a"), COMPLETE, Connection.flat(OTHER),
     "connection lives on a different chart"),
    # and the kind before anything else
    (lift_oneform, TensorField.basis_vector(OTHER, "a"), "diagonal", None,
     "unknown lift kind 'diagonal'"),
], ids=["function-horizontal", "vector-no-connection", "oneform-no-connection",
        "endo-no-connection", "vector-other-chart", "oneform-of-a-vector", "endo-other-chart",
        "function-of-a-vector", "endo-connection-chart", "complete-connection-chart",
        "unknown-kind"])
def test_lift_errors_name_the_first_failed_check(lift, field, kind, conn, message):
    args = (field, kind, TAB) if lift is lift_function else (field, kind, TAB, conn)
    with pytest.raises(LiftError) as err:
        lift(*args)
    assert str(err.value) == message


# -- families of fields -----------------------------------------------------------

ONE_FIELD = {(0, 0): lift_function, (1, 0): lift_vector, (0, 1): lift_oneform, (1, 1): lift_endo}
ALLOWED = [(kind, valence) for kind in LIFT_KINDS for valence in ONE_FIELD
           if (kind, valence) != (HORIZONTAL, (0, 0))]


def lift_one(field, valence, kind, tangent, conn):
    """The one-field entry point's lift of ``field``, or the LiftError it raises."""
    lift = ONE_FIELD[valence]
    args = (field, kind, tangent) if lift is lift_function else (field, kind, tangent, conn)
    try:
        return lift(*args)
    except LiftError as err:
        return str(err)


def conjugated_family_case(seed):
    """A conjugated n = 1, r = 2 model, a non-flat connection on its chart, and per
    valence a family of its own fields, random fields and a zero field."""
    rng = random.Random(seed)
    base = canonical_structure(1, 2, -1)
    model = conjugate_structure(base, *random_unimodular(base.chart, rng, max_shears=4))
    chart = model.chart
    a1, c2 = chart.coordinate("a1"), chart.coordinate("c2")
    conn = Connection.from_entries(chart, {**rnd_connection(chart, rng).entries,
                                           (0, 1, 2): a1 * c2 + 1, (3, 0, 0): c2})
    families = {
        valence: [rnd_field(chart, valence, rng) for _ in range(3)]
        + [TensorField.from_entries(chart, valence, {})]
        for valence in ONE_FIELD
    }
    families[1, 0] += model.xi
    families[0, 1] += model.eta
    families[1, 1].insert(1, model.f)
    return TangentChart.over(chart), conn, families


@pytest.mark.parametrize("seed", [5, 6])
def test_a_family_lift_is_the_one_field_lifts(seed):
    tangent, conn, families = conjugated_family_case(seed)
    assert not conn.is_flat()
    for kind, valence in ALLOWED:
        c = conn if kind == HORIZONTAL else None
        name = ONE_FIELD[valence].__name__
        fields = families[valence]
        expected = tuple(lift_one(x, valence, kind, tangent, c) for x in fields)
        assert lifts._lift(name, valence, fields, kind, tangent, c) == expected
        assert lifts._lift(name, valence, fields[1:2], kind, tangent, c) == expected[1:2]
        assert lifts._lift(name, valence, (), kind, tangent, c) == ()


@pytest.mark.parametrize("seed", [5])
def test_a_bad_field_anywhere_in_a_family_raises_the_one_field_error(seed):
    tangent, conn, families = conjugated_family_case(seed)
    other = Chart("Q", tangent.base.coords)
    for kind, valence in ALLOWED:
        c = conn if kind == HORIZONTAL else None
        name = ONE_FIELD[valence].__name__
        fields = families[valence]
        wrong_valence = (0, 1) if valence == (1, 0) else (1, 0)
        for bad in (TensorField.from_entries(tangent.base, wrong_valence, {}),
                    TensorField.from_entries(other, valence, {})):
            message = lift_one(bad, valence, kind, tangent, c)
            assert message == f"{name} needs a ({valence[0]},{valence[1]}) field on the base chart"
            for at in range(len(fields) + 1):
                with pytest.raises(LiftError) as err:
                    lifts._lift(name, valence, fields[:at] + [bad] + fields[at:], kind, tangent, c)
                assert str(err.value) == message


# -- vector lifts -----------------------------------------------------------------


def test_constant_vector_complete_lift():
    da = TensorField.basis_vector(AB, "a")
    lifted = lift_vector(da, COMPLETE, TAB)
    assert lifted == TensorField.basis_vector(TAB.total, "a")


def test_complete_lift_differentiates_only_by_coordinates_that_occur(monkeypatch):
    # y^k d_k p is read off the terms of p, each exponent e_k > 0 giving one
    # term: no Poly.diff call, and nothing for a coordinate that does not occur
    calls = []
    diff = Poly.diff

    def counted(self, var):
        calls.append(var)
        return diff(self, var)

    monkeypatch.setattr(Poly, "diff", counted)
    x = TensorField.vector(AB, [AB.const(3), AB.const(Fraction(1, 2))])
    assert lift_vector(x, COMPLETE, TAB) == TensorField.vector(
        TAB.total, [3, Fraction(1, 2), 0, 0]
    )
    a, b = AB.coordinate("a"), AB.coordinate("b")
    lifted = lift_vector(TensorField.vector(AB, [a * a, AB.zero_poly()]), COMPLETE, TAB)
    assert lifted.comps[2] == TAB.embed(2 * a) * TAB.fiber_poly(0)
    # 3/2 a^2 b^3 - a/2: every term, every exponent and the denominator
    p = Fraction(3, 2) * a**2 * b**3 - Fraction(1, 2) * a
    lifted = lift_function(TensorField.function(AB, p), COMPLETE, TAB)
    y = [TAB.fiber_poly(k) for k in range(AB.dim)]
    assert lifted.comps == (
        TAB.embed(3 * a * b**3 - Fraction(1, 2)) * y[0]
        + TAB.embed(Fraction(9, 2) * a**2 * b**2) * y[1]
    )
    assert calls == []


def test_lifts_read_each_nonzero_component_once(monkeypatch):
    # n = 20: F has 2n nonzero components of (2n + 1)^2, xi and eta one each
    s = canonical_structure(20, 1, -1)
    tangent = TangentChart.over(s.chart)
    c1, a1 = s.chart.coordinate("c1"), s.chart.coordinate("a1")
    conn = Connection.from_entries(s.chart, {(0, 0, 1): c1, (40, 2, 2): a1 * a1})
    nonzero = sum(len(field.entries) for field in (s.f, *s.xi, *s.eta))
    assert nonzero == 2 * 20 + 2 and len(conn.entries) == 3
    extend, derivative = Poly.extend, lifts._y_dot_derivative
    calls = {"extend": 0, "derivative": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Poly, "extend", counted("extend", extend))
    monkeypatch.setattr(lifts, "_y_dot_derivative", counted("derivative", derivative))
    for kind, c in ((VERTICAL, None), (COMPLETE, None), (HORIZONTAL, conn)):
        calls.update(extend=0, derivative=0)
        lift_endo(s.f, kind, tangent, c)
        lift_vector(s.xi[0], kind, tangent, c)
        lift_oneform(s.eta[0], kind, tangent, c)
        # one embedding per nonzero component, and one y^k d_k in a complete
        # lift; each of the three horizontal lifts builds its own G_y, which
        # embeds each connection entry once
        own_g_y = 3 * len(conn.entries) if kind == HORIZONTAL else 0
        assert calls == {"extend": nonzero + own_g_y,
                         "derivative": nonzero if kind == COMPLETE else 0}


def test_vertical_lift_moves_to_fiber():
    db = TensorField.basis_vector(AB, "b")
    assert lift_vector(db, VERTICAL, TAB) == TensorField.basis_vector(TAB.total, "b_dot")


def test_complete_lift_of_linear_vector():
    # X = a * d/da lifts to a * d/da + a_dot * d/da_dot
    a = Poly.variable("a", AB.coords)
    x = TensorField.vector(AB, [a, Poly.zero(AB.coords)])
    total = TAB.total
    expected = TensorField.vector(
        total,
        [
            Poly.variable("a", total.coords),
            Poly.zero(total.coords),
            Poly.variable("a_dot", total.coords),
            Poly.zero(total.coords),
        ],
    )
    assert lift_vector(x, COMPLETE, TAB) == expected


def test_horizontal_needs_connection():
    with pytest.raises(LiftError):
        lift_vector(TensorField.basis_vector(AB, "a"), HORIZONTAL, TAB)


# -- one-form lifts ----------------------------------------------------------------


def test_constant_oneform_lifts():
    db = TensorField.basis_oneform(AB, "b")
    assert lift_oneform(db, VERTICAL, TAB) == TensorField.basis_oneform(TAB.total, "b")
    assert lift_oneform(db, COMPLETE, TAB) == TensorField.basis_oneform(TAB.total, "b_dot")


def test_flat_horizontal_oneform():
    rng = random.Random(10)
    w = rnd_field(AB, (0, 1), rng)
    flat = Connection.flat(AB)
    lifted = lift_oneform(w, HORIZONTAL, TAB, flat)
    m = AB.dim
    assert all(lifted.comps[i].is_zero() for i in range(m))
    assert [lifted.comps[m + i] for i in range(m)] == [TAB.embed(c) for c in w.comps]


# -- (1,1) lifts --------------------------------------------------------------------


def test_identity_complete_lift_is_identity():
    ident = TensorField.identity_endo(AB)
    assert lift_endo(ident, COMPLETE, TAB) == TensorField.identity_endo(TAB.total)


def test_constant_endo_block_diagonal():
    f = TensorField.endo(AB, [[0, -1], [1, 0]])
    lifted = lift_endo(f, COMPLETE, TAB)
    expected = TensorField.endo(
        TAB.total,
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    )
    assert lifted == expected
    assert lift_endo(f, HORIZONTAL, TAB, Connection.flat(AB)) == expected


def test_horizontal_identity_lift_is_identity_any_connection():
    rng = random.Random(11)
    conn = rnd_connection(AB, rng)
    ident = TensorField.identity_endo(AB)
    assert lift_endo(ident, HORIZONTAL, TAB, conn) == TensorField.identity_endo(TAB.total)


def test_horizontal_fiber_block_single_christoffel():
    # canonical contact F, Gamma^c1_{a1 a1} = a1: expanding
    # B^i_j = y^k (G^s_kj F^i_s - G^i_ks F^s_j) leaves the single entry
    # B^c1_b1 = -a1_dot * a1 * F^a1_b1 = a1 * a1_dot
    from liftcheck.structures import canonical_structure as canon

    s = canon(1, 1, -1, "riemannian")
    tangent = TangentChart.over(s.chart)
    conn = Connection.from_entries(s.chart, {(2, 0, 0): s.chart.coordinate("a1")})
    f_h = lift_endo(s.f, HORIZONTAL, tangent, conn)
    total = tangent.total
    a1 = Poly.variable("a1", total.coords)
    a1_dot = Poly.variable("a1_dot", total.coords)
    m = s.chart.dim
    for i in range(m):
        for j in range(m):
            expected = a1 * a1_dot if (i, j) == (2, 1) else Poly.zero(total.coords)
            assert f_h.comps[m + i][j] == expected


def test_symmetric_connection_refuses_two_values_for_one_entry():
    a, b = AB.coordinate("a"), AB.coordinate("b")
    with pytest.raises(LiftError, match=r"entries \(1, 0, 1\) and \(1, 1, 0\) differ"):
        Connection.from_entries(AB, {(1, 0, 1): a, (1, 1, 0): b})
    # the same value under both orders is one entry; a general connection
    # keeps both orders apart
    same = Connection.from_entries(AB, {(1, 0, 1): a, (1, 1, 0): a})
    assert same == Connection.from_entries(AB, {(1, 0, 1): a})
    general = Connection.from_entries(AB, {(1, 0, 1): a, (1, 1, 0): b}, symmetric=False)
    assert general.entries == {(1, 0, 1): a, (1, 1, 0): b}
    assert same.entries == {(1, 0, 1): a, (1, 1, 0): a}


@pytest.mark.parametrize("key", [(-1, 0, 0), (2, 0, 0), (0, -1, 1), (0, 1, 2), (1, 1, -2)])
@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "general"])
def test_connection_keys_out_of_range_are_refused(key, symmetric):
    # -1 would read as the last coordinate, and 2 is past the two of AB
    with pytest.raises(LiftError) as err:
        Connection.from_entries(AB, {key: AB.coordinate("a")}, symmetric)
    assert str(err.value) == f"connection entry {key} out of range 0..1"


def test_connection_entries_must_live_on_the_chart():
    with pytest.raises(LiftError, match=r"connection entry \(0, 1, 1\) must live on the chart"):
        Connection.from_entries(AB, {(0, 1, 1): Chart("R", ("a", "c")).zero_poly()})


@pytest.mark.parametrize("entries, message", [
    ({(0, 0): AB.coordinate("a")}, r"connection entry \(0, 0\) is not three indices"),
    ({(0, 0, 1, 1): AB.coordinate("a")}, r"connection entry \(0, 0, 1, 1\) is not three indices"),
    ({"001": AB.coordinate("a")}, r"connection entry '001' is not three indices"),
    ({(0, 0.0, 1): AB.coordinate("a")}, r"connection entry \(0, 0.0, 1\) is not three indices"),
    ({(0, 0, 1): 3}, r"connection entry \(0, 0, 1\) must live on the chart as a Poly"),
    ({(0, 0, 1): "a"}, r"connection entry \(0, 0, 1\) must live on the chart as a Poly"),
])
@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "general"])
def test_connection_keys_and_values_are_checked_before_they_are_read(entries, message, symmetric):
    # the shape of a key before it is unpacked, the type of a value before its variables
    with pytest.raises(LiftError, match=message):
        Connection.from_entries(AB, entries, symmetric)


def test_a_connection_holds_its_nonzero_entries_only():
    a, b = AB.coordinate("a"), AB.coordinate("b")
    assert Connection.flat(AB).entries == {} and Connection.flat(AB).is_flat()
    zeros = Connection.from_entries(AB, {(0, 0, 1): AB.zero_poly(), (1, 1, 1): AB.const(0)})
    assert zeros == Connection.flat(AB) and zeros.is_flat()
    conn = Connection.from_entries(AB, {(0, 0, 1): a, (1, 1, 1): b, (1, 0, 0): AB.zero_poly()})
    assert conn.entries == {(0, 0, 1): a, (0, 1, 0): a, (1, 1, 1): b}
    assert not conn.is_flat()


def test_general_connection_equality_hash_and_emission():
    from liftcheck.definition import Definition, emit_definition, parse_definition

    a, b = AB.coordinate("a"), AB.coordinate("b")
    general = Connection.from_entries(AB, {(1, 1, 0): b * b, (0, 0, 1): a, (1, 0, 1): -b}, False)
    again = Connection.from_entries(AB, {(0, 0, 1): a, (1, 0, 1): -b, (1, 1, 0): b * b}, False)
    assert general == again and hash(general) == hash(again)
    # a general connection keeps each order of the lower indices apart
    assert general != Connection.from_entries(AB, {(0, 0, 1): a, (1, 0, 1): -b}, False)
    # the same entries under the other flag are another connection
    pair = {(0, 0, 1): a, (0, 1, 0): a}
    assert Connection.from_entries(AB, pair, False) != Connection.from_entries(AB, pair, True)
    assert general != Connection.from_entries(AB, {(0, 0, 1): a, (1, 1, 0): b * b, (1, 0, 1): b}, False)
    text = emit_definition(Definition(AB, connection=general))
    # the entries in sorted order, each once
    assert text.splitlines()[1:] == [
        "", "connection general", "  Gamma[1,1,2] = a", "  Gamma[2,1,2] = -b",
        "  Gamma[2,2,1] = b^2", "end",
    ]
    assert parse_definition(text).connection == general
    assert len({general, again, Connection.flat(AB)}) == 2


def test_horizontal_block_against_frame_contract():
    # the fiber block is validated against the action on the horizontal frame
    # H_j = d/dx_j - y^k G^s_kj d/dy_s and on the vertical frame d/dy_j
    rng = random.Random(12)
    f = rnd_field(AB, (1, 1), rng)
    conn = rnd_connection(AB, rng)
    f_h = lift_endo(f, HORIZONTAL, TAB, conn)
    m = AB.dim
    total = TAB.total
    for j in range(m):
        base = [Poly.const(1 if i == j else 0, total.coords) for i in range(m)]
        fiber = []
        for s in range(m):
            acc = Poly.zero(total.coords)
            for k in range(m):
                g = conn.entries.get((s, k, j))
                if g is not None:
                    acc = acc - TAB.fiber_poly(k) * TAB.embed(g)
            fiber.append(acc)
        h_j = TensorField.vector(total, base + fiber)
        image = endo_apply(f_h, h_j)
        f_col = TensorField.vector(AB, [f.comps[s][j] for s in range(m)])
        assert image == lift_vector(f_col, HORIZONTAL, TAB, conn)
        vert = TensorField.basis_vector(total, total.coords[m + j])
        assert endo_apply(f_h, vert) == lift_vector(f_col, VERTICAL, TAB)


GENERAL_CONNECTION_DEF = """
chart M a1 b1 c1

connection general
  Gamma[1,2,3] = a1
  Gamma[1,3,2] = 2*b1^2
  Gamma[2,1,3] = c1 - 1/2
  Gamma[3,1,2] = a1*b1
  Gamma[3,3,1] = -3
  Gamma[2,2,2] = c1
end

structure
  epsilon -1
  signature riemannian
  n 1
  r 1
  F[1,2] = -1 + c1
  F[2,1] = 1
  F[3,1] = a1^2
  F[2,3] = 1/3*b1
  xi[1,1] = b1
  xi[1,3] = 1
  eta[1,2] = a1 - c1
  eta[1,3] = 1
end
"""


def test_horizontal_lifts_with_a_general_connection_match_the_coordinate_formulas():
    # every other connection in the suite is symmetric, which hides the order of
    # the lower indices of G; this one is not, so swapping them breaks each lift
    from liftcheck.definition import build_connection, build_structure, parse_definition

    defn = parse_definition(GENERAL_CONNECTION_DEF)
    s, conn = build_structure(defn), build_connection(defn)
    assert not conn.symmetric
    tangent = TangentChart.over(s.chart)
    ref = reference.HorizontalLifts(conn)
    m = s.chart.dim
    vectors = [TensorField.basis_vector(s.chart, c) for c in s.chart.coords] + list(s.xi)
    for x in vectors:
        x_h = lift_vector(x, HORIZONTAL, tangent, conn)
        assert [c.terms for c in x_h.comps[:m]] == [ref.embed(c) for c in x.comps]
        assert [c.terms for c in x_h.comps[m:]] == [ref.vector_fiber(x, i) for i in range(m)]
    oneforms = [TensorField.basis_oneform(s.chart, c) for c in s.chart.coords] + list(s.eta)
    for w in oneforms:
        w_h = lift_oneform(w, HORIZONTAL, tangent, conn)
        assert [c.terms for c in w_h.comps[:m]] == [ref.oneform_lead(w, i) for i in range(m)]
        assert [c.terms for c in w_h.comps[m:]] == [ref.embed(c) for c in w.comps]
    f_h = lift_endo(s.f, HORIZONTAL, tangent, conn)
    for i in range(m):
        for j in range(m):
            assert f_h.comps[i][j].terms == ref.embed(s.f.comps[i][j])
            assert f_h.comps[i][m + j].is_zero()
            assert f_h.comps[m + i][j].terms == ref.endo_block(s.f, i, j)
            assert f_h.comps[m + i][m + j].terms == ref.embed(s.f.comps[i][j])


# -- evaluation contracts -------------------------------------------------------------


def lifted_scalar(g, kind, tangent):
    return lift_function(g, kind, tangent)


def test_pairing_contracts():
    rng = random.Random(13)
    for _ in range(5):
        w = rnd_field(AB, (0, 1), rng)
        x = rnd_field(AB, (1, 0), rng)
        conn = rnd_connection(AB, rng)
        wx = oneform_apply(w, x)
        w_v = lift_oneform(w, VERTICAL, TAB)
        w_c = lift_oneform(w, COMPLETE, TAB)
        w_h = lift_oneform(w, HORIZONTAL, TAB, conn)
        x_v = lift_vector(x, VERTICAL, TAB)
        x_c = lift_vector(x, COMPLETE, TAB)
        x_h = lift_vector(x, HORIZONTAL, TAB, conn)
        assert oneform_apply(w_v, x_c) == lifted_scalar(wx, VERTICAL, TAB)
        assert oneform_apply(w_v, x_v).is_zero()
        assert oneform_apply(w_c, x_c) == lifted_scalar(wx, COMPLETE, TAB)
        assert oneform_apply(w_c, x_v) == lifted_scalar(wx, VERTICAL, TAB)
        assert oneform_apply(w_h, x_h).is_zero()
        assert oneform_apply(w_h, x_v) == lifted_scalar(wx, VERTICAL, TAB)
        assert oneform_apply(w_v, x_h) == lifted_scalar(wx, VERTICAL, TAB)


def test_endo_action_contracts():
    rng = random.Random(14)
    for _ in range(5):
        f = rnd_field(AB, (1, 1), rng)
        x = rnd_field(AB, (1, 0), rng)
        conn = rnd_connection(AB, rng)
        fx = endo_apply(f, x)
        f_v = lift_endo(f, VERTICAL, TAB)
        f_c = lift_endo(f, COMPLETE, TAB)
        f_h = lift_endo(f, HORIZONTAL, TAB, conn)
        x_v = lift_vector(x, VERTICAL, TAB)
        x_c = lift_vector(x, COMPLETE, TAB)
        x_h = lift_vector(x, HORIZONTAL, TAB, conn)
        assert endo_apply(f_c, x_c) == lift_vector(fx, COMPLETE, TAB)
        assert endo_apply(f_c, x_v) == lift_vector(fx, VERTICAL, TAB)
        assert endo_apply(f_v, x_c) == lift_vector(fx, VERTICAL, TAB)
        assert endo_apply(f_h, x_h) == lift_vector(fx, HORIZONTAL, TAB, conn)
        assert endo_apply(f_h, x_v) == lift_vector(fx, VERTICAL, TAB)


def test_lift_multiplicativity():
    rng = random.Random(15)
    for _ in range(4):
        f = rnd_field(AB, (1, 1), rng)
        h = rnd_field(AB, (1, 1), rng)
        conn = rnd_connection(AB, rng)
        fh = endo_compose(f, h)
        assert lift_endo(fh, COMPLETE, TAB) == endo_compose(
            lift_endo(f, COMPLETE, TAB), lift_endo(h, COMPLETE, TAB)
        )
        assert lift_endo(fh, HORIZONTAL, TAB, conn) == endo_compose(
            lift_endo(f, HORIZONTAL, TAB, conn), lift_endo(h, HORIZONTAL, TAB, conn)
        )


def test_outer_product_expansion_rules():
    rng = random.Random(16)
    for _ in range(4):
        x = rnd_field(AB, (1, 0), rng)
        w = rnd_field(AB, (0, 1), rng)
        conn = rnd_connection(AB, rng)
        prod = outer(x, w)
        expanded_c = outer(lift_vector(x, VERTICAL, TAB), lift_oneform(w, COMPLETE, TAB)) + outer(
            lift_vector(x, COMPLETE, TAB), lift_oneform(w, VERTICAL, TAB)
        )
        assert lift_endo(prod, COMPLETE, TAB) == expanded_c
        expanded_h = outer(
            lift_vector(x, HORIZONTAL, TAB, conn), lift_oneform(w, VERTICAL, TAB)
        ) + outer(lift_vector(x, VERTICAL, TAB), lift_oneform(w, HORIZONTAL, TAB, conn))
        assert lift_endo(prod, HORIZONTAL, TAB, conn) == expanded_h


def test_lift_linearity_and_module_rule():
    rng = random.Random(17)
    x = rnd_field(AB, (1, 0), rng)
    y = rnd_field(AB, (1, 0), rng)
    conn = rnd_connection(AB, rng)
    for kind in (VERTICAL, COMPLETE, HORIZONTAL):
        assert lift_vector(x + y, kind, TAB, conn) == lift_vector(
            x, kind, TAB, conn
        ) + lift_vector(y, kind, TAB, conn)
    # (f X)^h = f^v * X^h
    f = rnd_field(AB, (0, 0), rng)
    fx = x.scale(f)
    lhs = lift_vector(fx, HORIZONTAL, TAB, conn)
    rhs = lift_vector(x, HORIZONTAL, TAB, conn).scale(lift_function(f, VERTICAL, TAB))
    assert lhs == rhs


# -- interaction tables ----------------------------------------------------------------


def test_interaction_table_riemannian_pairings():
    s = canonical_structure(1, 1, -1, "riemannian")
    report = verify_lift_interactions(s, conn=Connection.flat(s.chart))
    assert report.overall
    names = [e.name for e in report.entries]
    assert "eta^1v(xi_1^c) - (+delta)" in names
    assert "eta^1h(xi_1^v) - (+delta)" in names
    assert "eta^1v(xi_1^h) - (+delta)" in names


def test_interaction_table_lorentzian_pairings():
    s = canonical_structure(1, 1, -1, "lorentzian")
    report = verify_lift_interactions(s)
    assert report.overall
    entry = report.entry("eta^1v(xi_1^c) - (-delta)")
    assert entry.passed and entry.tag == "2.13"


def test_interaction_table_catches_broken_structure():
    import dataclasses

    s = canonical_structure(1, 1, -1, "riemannian")
    # rescale eta so the pairing is 2*delta instead of delta
    broken = dataclasses.replace(s, eta=(s.eta[0].scale(2),))
    report = verify_lift_interactions(broken)
    assert not report.overall
    failing = report.entry("eta^1v(xi_1^c) - (+delta)")
    assert not failing.passed and failing.witness is not None
