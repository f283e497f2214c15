"""The lifts against a second derivation: sympy, from the coordinate formulas.

The oracle below re-derives every vertical, complete and horizontal lift of
functions, vectors, one-forms and endomorphisms from the table in the lifts
module docstring (Yano & Ishihara, Tangent and Cotangent Bundles, 1973), with
sympy's own differentiation and arithmetic, and never calls liftcheck.lifts.
The connections are built from the same random entries on both sides.  J and
J^2 - eps*I of every sign cell are then assembled from the oracle's lifts and
compared with the residuals of ``sign_sweep``.
"""

import random
from fractions import Fraction

import pytest

from liftcheck.algebra import Poly
from liftcheck.lifts import (
    COMPLETE,
    HORIZONTAL,
    VERTICAL,
    Connection,
    TangentChart,
    lift_endo,
    lift_function,
    lift_oneform,
    lift_vector,
)
from liftcheck.structures import canonical_structure, conjugate_structure, random_unimodular
from liftcheck.tensor import Chart, TensorField
from liftcheck.theorems import sign_sweep

sympy = pytest.importorskip("sympy")


def random_terms(rng, m):
    """A random polynomial as {exponents: Fraction}, degree at most 2 per coordinate."""
    return {
        tuple(rng.randint(0, 2) for _ in range(m)): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for _ in range(rng.randint(0, 3))
    }


def as_sympy(terms, symbols):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[s**e for s, e in zip(symbols, exps)])
        for exps, c in terms.items()
    ])


class Oracle:
    """The lifts over an m-coordinate chart as sympy expressions: base symbols
    x, fiber symbols y and the connection, {(i, j, k): G^i_jk} with every
    nonzero entry, read as G[i][j][k]."""

    def __init__(self, chart, tangent, entries):
        self.x = sympy.symbols(chart.coords)
        self.y = sympy.symbols(tangent.total.coords[chart.dim:])
        self.m = chart.dim
        r = range(self.m)
        self.gamma = [[[entries.get((i, j, k), 0) for k in r] for j in r] for i in r]

    def fiber_derivative(self, e):
        """y^k d_k e."""
        return sum((yk * sympy.diff(e, xk) for xk, yk in zip(self.x, self.y)), sympy.Integer(0))

    def function(self, f, kind):
        return f if kind == VERTICAL else self.fiber_derivative(f)

    def vector(self, x, kind):
        r, g, y = range(self.m), self.gamma, self.y
        if kind == VERTICAL:
            return [0] * self.m + x
        if kind == COMPLETE:
            return x + [self.fiber_derivative(c) for c in x]
        return x + [-sum(y[k] * g[i][k][j] * x[j] for k in r for j in r) for i in r]

    def oneform(self, w, kind):
        r, g, y = range(self.m), self.gamma, self.y
        if kind == VERTICAL:
            return w + [0] * self.m
        if kind == COMPLETE:
            return [self.fiber_derivative(c) for c in w] + w
        return [sum(y[k] * g[s][k][i] * w[s] for k in r for s in r) for i in r] + w

    def endo(self, f, kind):
        r, g, y = range(self.m), self.gamma, self.y
        zero = [[0] * self.m for _ in r]
        if kind == VERTICAL:
            top, bottom, diagonal = zero, f, zero
        elif kind == COMPLETE:
            top, bottom, diagonal = f, [[self.fiber_derivative(c) for c in row] for row in f], f
        else:
            top, diagonal = f, f
            bottom = [[sum(y[k] * (g[s][k][j] * f[i][s] - g[i][k][s] * f[s][j])
                           for k in r for s in r) for j in r] for i in r]
        return [top[i] + zero[i] for i in r] + [bottom[i] + diagonal[i] for i in r]


def flat(comps):
    if isinstance(comps, Poly):
        return [comps]
    return [c for row in comps for c in (row if isinstance(row, tuple) else (row,))]


def assert_same(lifted, expected):
    symbols = sympy.symbols(lifted.chart.coords)
    got = [as_sympy(c.terms, symbols) for c in flat(lifted.comps)]
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert sympy.expand(a - b) == 0, (a, b)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "general"])
@pytest.mark.parametrize("seed", range(4))
def test_every_lift_matches_the_coordinate_formulas(m, symmetric, seed):
    rng = random.Random(1000 * m + 10 * seed + symmetric)
    chart = Chart("B", tuple(f"x{i + 1}" for i in range(m)))
    tangent = TangentChart.over(chart)
    x = sympy.symbols(chart.coords)
    # the connection from one set of random entries, given to each side
    entries = {}
    for _ in range(rng.randint(1, 2 * m)):
        i, j, k = (rng.randrange(m) for _ in range(3))
        if symmetric:
            j, k = min(j, k), max(j, k)
        entries[(i, j, k)] = random_terms(rng, m)
    conn = Connection.from_entries(
        chart, {key: Poly(chart.coords, t) for key, t in entries.items()}, symmetric
    )
    gamma = {}
    for (i, j, k), t in entries.items():
        gamma[i, j, k] = as_sympy(t, x)
        if symmetric:
            gamma[i, k, j] = gamma[i, j, k]
    oracle = Oracle(chart, tangent, gamma)

    f = random_terms(rng, m)
    vec = [random_terms(rng, m) for _ in range(m)]
    form = [random_terms(rng, m) for _ in range(m)]
    endo = [[random_terms(rng, m) for _ in range(m)] for _ in range(m)]
    as_field = TensorField(chart, (0, 0), Poly(chart.coords, f))
    for kind in (VERTICAL, COMPLETE):
        assert_same(lift_function(as_field, kind, tangent), [oracle.function(as_sympy(f, x), kind)])
    for kind in (VERTICAL, COMPLETE, HORIZONTAL):
        lifted = lift_vector(TensorField.vector(chart, [Poly(chart.coords, t) for t in vec]),
                             kind, tangent, conn)
        assert_same(lifted, oracle.vector([as_sympy(t, x) for t in vec], kind))
        lifted = lift_oneform(TensorField.oneform(chart, [Poly(chart.coords, t) for t in form]),
                              kind, tangent, conn)
        assert_same(lifted, oracle.oneform([as_sympy(t, x) for t in form], kind))
        lifted = lift_endo(
            TensorField.endo(chart, [[Poly(chart.coords, t) for t in row] for row in endo]),
            kind, tangent, conn,
        )
        assert_same(lifted, [c for row in oracle.endo(
            [[as_sympy(t, x) for t in row] for row in endo], kind) for c in row])


def as_sympy_field(field, symbols):
    """The components of a base field as sympy expressions, nested like ``comps``."""
    if field.valence == (1, 1):
        return [[as_sympy(c.terms, symbols) for c in row] for row in field.comps]
    return [as_sympy(c.terms, symbols) for c in field.comps]


def oracle_j_parts(oracle, model, kind):
    """F^L, sum xi_a^v (x) eta^a,v and sum xi_a^L (x) eta^a,L from the oracle's
    lifts of the model's F, xi and eta: J = F^L + s * the second + t * the third."""
    x = oracle.x
    parts = [sympy.Matrix(oracle.endo(as_sympy_field(model.f, x), kind))]
    for lift in (VERTICAL, kind):
        parts.append(sum((
            sympy.Matrix(oracle.vector(as_sympy_field(xi, x), lift))
            * sympy.Matrix([oracle.oneform(as_sympy_field(eta, x), lift)])
            for xi, eta in zip(model.xi, model.eta)
        ), sympy.zeros(*parts[0].shape)))
    return parts


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("kind", [COMPLETE, HORIZONTAL])
@pytest.mark.parametrize("signature", ["riemannian", "lorentzian"])
@pytest.mark.parametrize("eps", [-1, 1])
@pytest.mark.parametrize("seed", range(2))
def test_every_sign_cell_squares_like_the_oracle(r, kind, signature, eps, seed):
    # n = 1 models conjugated by seeded shears; a horizontal lift goes over a
    # general connection with random entries, so the order of its lower
    # indices counts
    rng = random.Random(f"j-square-{r}-{kind}-{signature}-{eps}-{seed}")
    base = canonical_structure(1, r, eps, signature)
    model = conjugate_structure(base, *random_unimodular(base.chart, rng, max_shears=6))
    chart, m = model.chart, model.chart.dim
    tangent = TangentChart.over(chart)
    x = sympy.symbols(chart.coords)
    conn, gamma = None, {}
    if kind == HORIZONTAL:
        entries = {}
        while len(entries) < 3:
            terms = {e: c for e, c in random_terms(rng, m).items() if c}
            if terms:
                entries[tuple(rng.randrange(m) for _ in range(3))] = terms
        conn = Connection.from_entries(
            chart, {key: Poly(chart.coords, t) for key, t in entries.items()}, False
        )
        assert not conn.is_flat()
        gamma = {key: as_sympy(t, x) for key, t in entries.items()}
    oracle = Oracle(chart, tangent, gamma)
    sweep = sign_sweep(model, kind, conn=conn)
    total = sympy.symbols(tangent.total.coords)
    # sympy's sparse polynomial ring over QQ, which expands as it goes
    poly = sympy.ring(total, sympy.QQ)[0].from_expr
    f_l, sum_v, sum_l = (
        [[poly(c) for c in row] for row in part.tolist()]
        for part in oracle_j_parts(oracle, model, kind)
    )
    dim = range(2 * m)
    for (s, t), entry in sweep.cells.items():
        j = [[f_l[a][b] + s * sum_v[a][b] + t * sum_l[a][b] for b in dim] for a in dim]
        expected = [[sum((j[a][k] * j[k][b] for k in dim), poly(-eps if a == b else 0))
                     for b in dim] for a in dim]
        got = [[poly(as_sympy(c.terms, total)) for c in row] for row in entry.residual.comps]
        assert got == expected, (s, t)
        assert entry.passed == all(p.is_zero for row in expected for p in row)
