"""PolyMatrix.det and unimodular_inverse against a second derivation: sympy.

Both methods run Faddeev-LeVerrier on the product kernel; sympy computes the
determinant by Berkowitz's method and the inverse by its own elimination.
Each result is compared term by term, as a dict from exponent tuples to
rationals.
"""

import random
from fractions import Fraction

import pytest

from liftcheck.algebra import Poly, PolyMatrix
from liftcheck.structures import canonical_structure, conjugate_structure, random_unimodular
from liftcheck.tensor import Chart

sympy = pytest.importorskip("sympy")


def to_sympy(matrix, symbols):
    return sympy.Matrix([
        [sympy.Add(*[
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[s**e for s, e in zip(symbols, exps)])
            for exps, c in entry.terms.items()
        ]) for entry in row]
        for row in matrix.entries
    ])


def terms_of(expr, symbols):
    """A sympy polynomial as {exponents: Fraction}, zero coefficients dropped."""
    return {
        exps: Fraction(int(c.p), int(c.q))
        for exps, c in sympy.Poly(sympy.expand(expr), *symbols).as_dict().items() if c
    }


def random_entry(rng, coords, degree):
    """Up to two terms in the first three coordinates, halves among the coefficients."""
    return Poly(coords, {
        tuple(rng.randint(0, degree) if i < 3 else 0 for i in range(len(coords))):
            Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        for _ in range(rng.randint(0, 2))
    })


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_unimodular_inverse_matches_sympy(m):
    chart = Chart("M", tuple(f"x{i}" for i in range(1, m + 1)))
    symbols = sympy.symbols(chart.coords)
    for seed in range(3):
        u, u_inv = random_unimodular(chart, random.Random(100 * m + seed), max_shears=m, max_degree=2)
        inverse = u.unimodular_inverse()
        assert inverse == u_inv
        expected = to_sympy(u, symbols).inv()
        for i, row in enumerate(inverse.entries):
            for j, entry in enumerate(row):
                assert dict(entry.terms.items()) == terms_of(expected[i, j], symbols)


@pytest.mark.parametrize("n", range(1, 7))
def test_det_matches_sympy(n):
    coords = ("x", "y", "z")
    symbols = sympy.symbols(coords)
    rng = random.Random(n)
    for trial in range(4):
        rows = [[random_entry(rng, coords, 2 if n < 5 else 1) for _ in range(n)] for _ in range(n)]
        if trial == 1:
            # singular: the last row is x times the first, or zero for n = 1
            rows[-1] = [e * Poly.variable("x", coords) if n > 1 else Poly.zero(coords) for e in rows[0]]
        elif trial == 2:
            # singular: a zero column
            for row in rows:
                row[0] = Poly.zero(coords)
        matrix = PolyMatrix(rows)
        det = matrix.det()
        # Berkowitz, sympy's division-free method: its default, Bareiss, took 17 s
        # at n = 6 on one machine
        expected = terms_of(to_sympy(matrix, symbols).det(method="berkowitz"), symbols)
        assert dict(det.terms.items()) == expected
        assert trial not in (1, 2) or not expected


def test_conjugation_with_and_without_the_inverse_agree():
    rng = random.Random(8)
    for n, r, eps, signature in ((1, 1, -1, "riemannian"), (2, 1, 1, "lorentzian"), (1, 2, -1, "riemannian")):
        s = canonical_structure(n, r, eps, signature)
        u, u_inv = random_unimodular(s.chart, rng, max_shears=5, max_degree=2)
        assert conjugate_structure(s, u) == conjugate_structure(s, u, u_inv)
