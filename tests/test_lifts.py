"""Lift formulas, their evaluation contracts, and the interaction tables."""

import random
from fractions import Fraction

import pytest

from liftcheck.algebra import Poly
from liftcheck.lifts import (
    COMPLETE,
    HORIZONTAL,
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
from liftcheck.structures import canonical_structure
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


# -- vector lifts -----------------------------------------------------------------


def test_constant_vector_complete_lift():
    da = TensorField.basis_vector(AB, "a")
    lifted = lift_vector(da, COMPLETE, TAB)
    assert lifted == TensorField.basis_vector(TAB.total, "a")


def test_complete_lift_differentiates_only_by_coordinates_that_occur(monkeypatch):
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
    assert calls == []
    a = AB.coordinate("a")
    lifted = lift_vector(TensorField.vector(AB, [a * a, AB.zero_poly()]), COMPLETE, TAB)
    assert calls == ["a"]
    assert lifted.comps[2] == TAB.embed(2 * a) * TAB.fiber_poly(0)


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
    assert (general.gamma[1][0][1], general.gamma[1][1][0]) == (a, b)


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
                g = conn.gamma[s][k][j]
                if not g.is_zero():
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


class _TermwiseReference:
    """Horizontal lifts from the coordinate formulas in the lifts module docstring,
    as plain {exponents: Fraction} dicts over the total chart; no Poly arithmetic."""

    def __init__(self, conn):
        self.gamma = conn.gamma
        self.m = conn.chart.dim

    def embed(self, p):
        return {exps + (0,) * self.m: c for exps, c in p.terms.items()}

    def sum_terms(self, terms):
        """The sum of sign * y^k * g * p over (sign, k, g, p), g and p on the base chart."""
        acc = {}
        for sign, k, g, p in terms:
            for e1, c1 in g.terms.items():
                for e2, c2 in p.terms.items():
                    exps = [a + b for a, b in zip(e1, e2)] + [0] * self.m
                    exps[self.m + k] += 1
                    key = tuple(exps)
                    acc[key] = acc.get(key, Fraction(0)) + sign * c1 * c2
        return {exps: c for exps, c in acc.items() if c != 0}

    def vector_fiber(self, x, i):
        """(X^h)^{m+i} = -y^k G^i_kj X^j."""
        r = range(self.m)
        return self.sum_terms((-1, k, self.gamma[i][k][j], x.comps[j]) for k in r for j in r)

    def oneform_lead(self, w, i):
        """(w^h)_i = y^k G^s_ki w_s."""
        r = range(self.m)
        return self.sum_terms((1, k, self.gamma[s][k][i], w.comps[s]) for k in r for s in r)

    def endo_block(self, f, i, j):
        """B^i_j = y^k (G^s_kj F^i_s - G^i_ks F^s_j)."""
        r = range(self.m)
        g = self.gamma
        return self.sum_terms(
            [(1, k, g[s][k][j], f.comps[i][s]) for k in r for s in r]
            + [(-1, k, g[i][k][s], f.comps[s][j]) for k in r for s in r]
        )


def test_horizontal_lifts_with_a_general_connection_match_the_coordinate_formulas():
    # every other connection in the suite is symmetric, which hides the order of
    # the lower indices of G; this one is not, so swapping them breaks each lift
    from liftcheck.definition import build_connection, build_structure, parse_definition

    defn = parse_definition(GENERAL_CONNECTION_DEF)
    s, conn = build_structure(defn), build_connection(defn)
    assert not conn.symmetric
    tangent = TangentChart.over(s.chart)
    ref = _TermwiseReference(conn)
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
