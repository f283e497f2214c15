"""The lifts against a second derivation: sympy, from the coordinate formulas.

The oracle below re-derives every vertical, complete and horizontal lift of
functions, vectors, one-forms and endomorphisms from the table in the lifts
module docstring (Yano & Ishihara, Tangent and Cotangent Bundles, 1973), with
sympy's own differentiation and arithmetic, and never calls liftcheck.lifts.
The connections are built from the same random entries on both sides.
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
from liftcheck.tensor import Chart, TensorField

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
    x, fiber symbols y and the connection G[i][j][k] = G^i_jk."""

    def __init__(self, chart, tangent, gamma):
        self.x = sympy.symbols(chart.coords)
        self.y = sympy.symbols(tangent.total.coords[chart.dim:])
        self.m = chart.dim
        self.gamma = gamma

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
    gamma = [[[sympy.Integer(0)] * m for _ in range(m)] for _ in range(m)]
    for (i, j, k), t in entries.items():
        gamma[i][j][k] = as_sympy(t, x)
        if symmetric:
            gamma[i][k][j] = gamma[i][j][k]
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
