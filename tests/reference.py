"""Plain references for the differential tests, sharing no code with liftcheck's kernels.

A polynomial is a dict from exponent tuples to nonzero Fractions, as
``Poly.terms`` reads; every operation here is termwise Fraction arithmetic on
such dicts.  A tensor field is dense: nested lists of Polys, one level per
index, summed and mapped by naive loops.  The horizontal lifts are the
coordinate formulas of the lifts module docstring, written on term dicts.
"""

import random
from fractions import Fraction

# -- polynomials as term dicts -------------------------------------------------------


def clean(terms):
    """The nonzero terms."""
    return {exps: c for exps, c in terms.items() if c != 0}


def add(a, b, sign=1):
    """a + sign * b."""
    out = dict(a)
    for exps, c in b.items():
        out[exps] = out.get(exps, Fraction(0)) + sign * c
    return clean(out)


def product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            out[exps] = out.get(exps, Fraction(0)) + c1 * c2
    return clean(out)


def sumset(a, b):
    """The exponent tuples e1 + e2 for e1 in ``a`` and e2 in ``b``: the support
    of a product of polynomials with those terms, before any cancellation."""
    return {tuple(x + y for x, y in zip(e1, e2)) for e1 in a for e2 in b}


def power(a, k, width):
    """a^k as k products, starting from the constant 1 over ``width`` variables."""
    out = {(0,) * width: Fraction(1)}
    for _ in range(k):
        out = product(out, a)
    return out


def diff(a, i):
    """The partial derivative in variable i."""
    return {exps[:i] + (exps[i] - 1,) + exps[i + 1:]: c * exps[i] for exps, c in a.items() if exps[i]}


def evaluate(a, values):
    """The value at ``values``, one per variable."""
    total = Fraction(0)
    for exps, c in a.items():
        for v, e in zip(values, exps):
            c *= v**e
        total += c
    return total


def to_str(a, variables):
    """The plain printer: terms sorted by (total degree, exponent tuple),
    highest first, each coefficient printed as a reduced Fraction."""
    parts = []
    for exps, c in sorted(a.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e]
        mag = str(abs(c))
        body = "*".join(factors if factors and mag == "1" else [mag] + factors)
        sign = ("-" if c < 0 else "") if not parts else (" - " if c < 0 else " + ")
        parts.append(sign + body)
    return "".join(parts) or "0"


def contraction(rows, cols):
    """Dense sums of products of Polys' terms, zero factors included: out[i][j]
    is the term dict of sum_k rows[i][k] * cols[j][k]."""
    out = []
    for row in rows:
        line = []
        for col in cols:
            acc = {}
            for a, b in zip(row, col):
                acc = add(acc, product(a.terms, b.terms))
            line.append(acc)
        out.append(line)
    return out


# -- sample points and elimination ----------------------------------------------------


def sample_values(rng, width):
    """The values of one random sample point: per coordinate, a numerator drawn
    from -9..9, then a denominator from 1..4."""
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(width))


def first_witness(components, width, seed, cap):
    """The first of ``cap`` seeded sample points at which some term dict of
    ``components`` is nonzero, or None."""
    rng = random.Random(seed)
    for _ in range(cap):
        values = sample_values(rng, width)
        if any(evaluate(c, values) != 0 for c in components):
            return values
    return None


def eliminated(rows):
    """(pivots, swaps) of Gaussian elimination over Fraction on a copy of the
    matrix: the pivot taken in each column that has one, and the row swaps."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots, swaps = [], 0
    for col in range(len(rows[0]) if rows else 0):
        k = len(pivots)
        below = [r for r in range(k, len(rows)) if rows[r][col] != 0]
        if not below:
            continue
        if below[0] != k:
            rows[k], rows[below[0]] = rows[below[0]], rows[k]
            swaps += 1
        pivots.append(rows[k][col])
        for r in range(k + 1, len(rows)):
            factor = rows[r][col] / rows[k][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[k])]
    return pivots, swaps


def matrix_rank(rows):
    return len(eliminated(rows)[0])


def determinant(rows):
    """The determinant of a square matrix of Fractions."""
    pivots, swaps = eliminated(rows)
    if len(pivots) < len(rows):
        return Fraction(0)
    out = Fraction(-1 if swaps % 2 else 1)
    for p in pivots:
        out *= p
    return out


# -- dense tensor fields -------------------------------------------------------------


def dense_map(fn, rank, *operands):
    """fn over the components of equally shaped nested lists."""
    if rank == 0:
        return fn(*operands)
    return [dense_map(fn, rank - 1, *parts) for parts in zip(*operands)]


def dense_sum(chart, products):
    total = chart.zero_poly()
    for p in products:
        total = total + p
    return total


def dense_nonzero_items(chart, value, rank):
    """(labels, component) of the nonzero components, by naive loops in index order."""
    items = []
    if rank == 0:
        items.append(((), value))
    for i, ci in enumerate(chart.coords if rank else ()):
        if rank == 1:
            items.append(((ci,), value[i]))
        for j, cj in enumerate(chart.coords if rank == 2 else ()):
            items.append(((ci, cj), value[i][j]))
    return [(label, c) for label, c in items if not c.is_zero()]


# -- horizontal lifts ----------------------------------------------------------------


class HorizontalLifts:
    """Horizontal lifts from the coordinate formulas in the lifts module docstring,
    as term dicts over the total chart; no Poly arithmetic."""

    def __init__(self, conn):
        self.entries = conn.entries
        self.zero = conn.chart.zero_poly()
        self.m = conn.chart.dim

    def gamma(self, i, j, k):
        return self.entries.get((i, j, k), self.zero)

    def embed(self, p):
        return {exps + (0,) * self.m: c for exps, c in p.terms.items()}

    def sum_terms(self, terms):
        """The sum of sign * y^k * g * p over (sign, k, g, p), g and p on the base chart."""
        acc = {}
        for sign, k, g, p in terms:
            y_k = (0,) * k + (1,) + (0,) * (self.m - 1 - k)
            acc = add(acc, {exps + y_k: c for exps, c in product(g.terms, p.terms).items()}, sign)
        return acc

    def vector_fiber(self, x, i):
        """(X^h)^{m+i} = -y^k G^i_kj X^j."""
        r = range(self.m)
        return self.sum_terms((-1, k, self.gamma(i, k, j), x.comps[j]) for k in r for j in r)

    def oneform_lead(self, w, i):
        """(w^h)_i = y^k G^s_ki w_s."""
        r = range(self.m)
        return self.sum_terms((1, k, self.gamma(s, k, i), w.comps[s]) for k in r for s in r)

    def endo_block(self, f, i, j):
        """B^i_j = y^k (G^s_kj F^i_s - G^i_ks F^s_j)."""
        r = range(self.m)
        g = self.gamma
        return self.sum_terms(
            [(1, k, g(s, k, j), f.comps[i][s]) for k in r for s in r]
            + [(-1, k, g(i, k, s), f.comps[s][j]) for k in r for s in r]
        )
