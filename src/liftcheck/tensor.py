"""Charts, points and low-valence tensor fields with exact components.

Supported valences: (0,0) functions, (1,0) vectors, (0,1) one-forms,
(1,1) endomorphisms, (0,2) bilinear forms.  For endomorphisms the row
index is the upper (output) index throughout: (F X)^i = F^i_j X^j.

A field is its nonzero components: ``entries`` maps the 0-based index tuple
of each, () for a function, (i,) for a vector or one-form and (i, j) for a
(1,1) or (0,2) field, to a nonzero Poly on the chart.  Sums, scalings and
contractions read and write entries only, so a zero component costs nothing;
each contraction is one ``_contract`` call, the last index of one operand
against the first of the other.  ``comps`` is a dense read-only view, built
on each read.  The public constructors check their input, dense or, with
``from_entries``, keyed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence

from .algebra import AlgebraError, Poly, PolyMatrix, _contract, _numerators_at, as_fraction

VALENCES = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))


class TensorError(AlgebraError):
    """Chart or valence mismatch between tensor operands."""


@dataclass(frozen=True)
class Chart:
    """A named coordinate chart with an ordered list of coordinate names."""

    name: str
    coords: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if len(set(self.coords)) != len(self.coords):
            raise ValueError(f"duplicate coordinate names in chart {self.name!r}")
        if not self.coords:
            raise ValueError("chart needs at least one coordinate")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def zero_poly(self) -> Poly:
        return Poly.zero(self.coords)

    def const(self, value) -> Poly:
        return Poly.const(value, self.coords)

    def coordinate(self, name: str) -> Poly:
        return Poly.variable(name, self.coords)


@dataclass(frozen=True)
class Point:
    """Exact rational coordinate values for every coordinate of a chart."""

    chart: Chart
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))
        if len(self.values) != self.chart.dim:
            raise ValueError("point does not assign every chart coordinate")

    def mapping(self) -> dict[str, Fraction]:
        return dict(zip(self.chart.coords, self.values))

    def __str__(self) -> str:
        inner = ", ".join(f"{n}={v}" for n, v in zip(self.chart.coords, self.values))
        return f"({inner})"


# the 76 sample values p / q, looked up as _SAMPLES[p + 9][q - 1]
_SAMPLES = [[Fraction(p, q) for q in range(1, 5)] for p in range(-9, 10)]


def random_point(chart: Chart, rng: random.Random) -> Point:
    """A point of values p / q, drawn as rng.randint(-9, 9), then
    rng.randint(1, 4): randrange(19) and randrange(4) make the same draws."""
    values = tuple(_SAMPLES[rng.randrange(19)][rng.randrange(4)] for _ in chart.coords)
    return Point(chart, values)


def _as_poly(chart: Chart, value) -> Poly:
    if isinstance(value, Poly):
        if value.variables != chart.coords:
            raise TensorError(
                f"component over {value.variables} does not live on chart {chart.name!r}"
            )
        return value
    return Poly.const(value, chart.coords)


def _rank(valence: tuple[int, int]) -> int:
    """The number of indices of a supported valence."""
    if valence not in VALENCES:
        raise TensorError(f"unsupported valence {valence}")
    return sum(valence)


def _dense_items(comps, rank: int, m: int) -> list[tuple]:
    """(index tuple, value) of every component of the dense ``comps``: ``rank``
    levels of m-long sequences."""
    if not rank:
        return [((), comps)]
    lines = list(comps)
    if len(lines) != m:
        raise TensorError("components do not match the chart dimension")
    return [((i, *key), c) for i, line in enumerate(lines) for key, c in _dense_items(line, rank - 1, m)]


def _added(left: dict, right: dict, negate: bool = False) -> dict:
    """The entries of left + right, or of left - right with ``negate``: a key on
    one side only keeps its value (negated on the right with ``negate``), and a
    sum that cancels is left out."""
    out = dict(left)
    for key, b in right.items():
        a = out.pop(key, None)
        c = (-b if negate else b) if a is None else (a - b if negate else a + b)
        if c:
            out[key] = c
    return out


class TensorField:
    """A valence-tagged field on one chart, held as its nonzero components (immutable)."""

    __slots__ = ("chart", "valence", "entries")

    def __new__(cls, chart: Chart, valence: tuple[int, int], comps):
        """The field of the dense ``comps``: a function's value, a vector's or
        one-form's m values, or m rows of m values; each a Poly on ``chart`` or a
        constant."""
        return cls.from_entries(chart, valence, dict(_dense_items(comps, _rank(valence), chart.dim)))

    @classmethod
    def _trusted(cls, chart: Chart, valence: tuple[int, int], entries: dict) -> "TensorField":
        """Wrap entries that are valid by construction, without checking them.

        ``entries`` must map index tuples in range for ``valence`` to nonzero
        Polys over ``chart.coords``; the field takes the dict over.
        """
        self = object.__new__(cls)
        _set_chart(self, chart)
        _set_valence(self, valence)
        _set_entries(self, entries)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TensorField is immutable")

    @property
    def comps(self):
        """The dense components, built on each read: a Poly for a function, m
        Polys for a vector or one-form, m rows of m for a (1,1) or (0,2) field."""
        zero, get, span = self.chart.zero_poly(), self.entries.get, range(self.chart.dim)
        rank = sum(self.valence)
        if rank == 0:
            return get((), zero)
        if rank == 1:
            return tuple(get((i,), zero) for i in span)
        return tuple(tuple(get((i, j), zero) for j in span) for i in span)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_entries(cls, chart: Chart, valence: tuple[int, int], entries) -> "TensorField":
        """The field whose components are the values of ``entries``, keyed by
        0-based index tuple; an absent key is a zero component."""
        rank, m = _rank(valence), chart.dim
        for key in entries:
            if not (isinstance(key, tuple) and len(key) == rank
                    and all(isinstance(i, int) and 0 <= i < m for i in key)):
                raise TensorError(f"component {key!r} is not {rank} indices in range 0..{m - 1}")
        return cls._trusted(chart, valence, {
            key: p for key, c in entries.items() if (p := _as_poly(chart, c))})

    @classmethod
    def function(cls, chart: Chart, value) -> "TensorField":
        value = _as_poly(chart, value)
        return cls._trusted(chart, (0, 0), {(): value} if value else {})

    @classmethod
    def vector(cls, chart: Chart, comps: Sequence) -> "TensorField":
        return cls(chart, (1, 0), comps)

    @classmethod
    def oneform(cls, chart: Chart, comps: Sequence) -> "TensorField":
        return cls(chart, (0, 1), comps)

    @classmethod
    def endo(cls, chart: Chart, comps: Sequence[Sequence]) -> "TensorField":
        return cls(chart, (1, 1), comps)

    @classmethod
    def bilinear(cls, chart: Chart, comps: Sequence[Sequence]) -> "TensorField":
        return cls(chart, (0, 2), comps)

    @classmethod
    def zero(cls, chart: Chart, valence: tuple[int, int]) -> "TensorField":
        return cls.from_entries(chart, valence, {})

    @classmethod
    def identity_endo(cls, chart: Chart) -> "TensorField":
        one = chart.const(1)
        return cls._trusted(chart, (1, 1), {(i, i): one for i in range(chart.dim)})

    @classmethod
    def basis_vector(cls, chart: Chart, coord: str) -> "TensorField":
        return cls._trusted(chart, (1, 0), {(chart.coords.index(coord),): chart.const(1)})

    @classmethod
    def basis_oneform(cls, chart: Chart, coord: str) -> "TensorField":
        return cls._trusted(chart, (0, 1), {(chart.coords.index(coord),): chart.const(1)})

    # -- pointwise algebra ---------------------------------------------------

    def _check_same(self, other: "TensorField") -> None:
        if self.chart != other.chart:
            raise TensorError(
                f"charts {self.chart.name!r} and {other.chart.name!r} differ"
            )
        if self.valence != other.valence:
            raise TensorError(f"valences {self.valence} and {other.valence} differ")

    def __add__(self, other: "TensorField") -> "TensorField":
        self._check_same(other)
        return TensorField._trusted(self.chart, self.valence, _added(self.entries, other.entries))

    def __sub__(self, other: "TensorField") -> "TensorField":
        self._check_same(other)
        entries = _added(self.entries, other.entries, negate=True)
        return TensorField._trusted(self.chart, self.valence, entries)

    def __neg__(self) -> "TensorField":
        return TensorField._trusted(self.chart, self.valence, {k: -c for k, c in self.entries.items()})

    def scale(self, value) -> "TensorField":
        """Multiply every component by a constant or by a scalar polynomial."""
        if isinstance(value, TensorField):
            if value.valence != (0, 0) or value.chart != self.chart:
                raise TensorError("scale by a (0,0) field on the same chart")
            factor = value.entries.get(())
        else:
            factor = _as_poly(self.chart, value)
        # a product of two nonzero polynomials is nonzero
        entries = {k: c * factor for k, c in self.entries.items()} if factor else {}
        return TensorField._trusted(self.chart, self.valence, entries)

    def is_zero(self) -> bool:
        return not self.entries

    def nonzero_items(self) -> list[tuple[tuple[str, ...], Poly]]:
        """(coordinate labels, component) of every nonzero component, in index order."""
        coords = self.chart.coords
        return [(tuple(coords[i] for i in key), c) for key, c in sorted(self.entries.items())]

    @classmethod
    def endo_from_matrix(cls, chart: Chart, matrix: PolyMatrix) -> "TensorField":
        if matrix.rows != chart.dim or matrix.cols != chart.dim:
            raise TensorError("matrix shape does not match chart dimension")
        return cls.endo(chart, matrix.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorField):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.valence == other.valence
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.chart, self.valence, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        body = ", ".join(
            f"[{','.join(label)}]={poly}" for label, poly in self.nonzero_items()
        )
        return f"TensorField{self.valence}({body or '0'})"


# slot setters that bypass TensorField.__setattr__, which refuses every write
_set_chart = TensorField.chart.__set__
_set_valence = TensorField.valence.__set__
_set_entries = TensorField.entries.__set__


# -- contractions ------------------------------------------------------------


def _require(field: TensorField, valence: tuple[int, int], role: str) -> None:
    if field.valence != valence:
        raise TensorError(f"{role} must have valence {valence}, got {field.valence}")


def _check_charts(a: TensorField, b: TensorField, op: str) -> None:
    if a.chart != b.chart:
        raise TensorError(f"{op} across different charts")


def endo_apply(f: TensorField, x: TensorField) -> TensorField:
    """(F X)^i = F^i_j X^j."""
    _require(f, (1, 1), "endomorphism")
    _require(x, (1, 0), "vector")
    _check_charts(f, x, "endo_apply")
    return TensorField._trusted(f.chart, (1, 0), _contract(f.entries, x.entries, f.chart.coords))


def oneform_apply(w: TensorField, x: TensorField) -> TensorField:
    """Scalar field w_i X^i."""
    _require(w, (0, 1), "one-form")
    _require(x, (1, 0), "vector")
    _check_charts(w, x, "oneform_apply")
    return TensorField._trusted(w.chart, (0, 0), _contract(w.entries, x.entries, w.chart.coords))


def endo_compose(f: TensorField, h: TensorField) -> TensorField:
    """(F o H)^i_j = F^i_k H^k_j."""
    _require(f, (1, 1), "endomorphism")
    _require(h, (1, 1), "endomorphism")
    _check_charts(f, h, "endo_compose")
    return TensorField._trusted(f.chart, (1, 1), _contract(f.entries, h.entries, f.chart.coords))


def oneform_after_endo(w: TensorField, f: TensorField) -> TensorField:
    """(w o F)_j = w_i F^i_j, i.e. the dual endomorphism applied to w."""
    _require(w, (0, 1), "one-form")
    _require(f, (1, 1), "endomorphism")
    _check_charts(w, f, "oneform_after_endo")
    return TensorField._trusted(w.chart, (0, 1), _contract(w.entries, f.entries, f.chart.coords))


def outer(x: TensorField, w: TensorField) -> TensorField:
    """(X (x) w)^i_j = X^i w_j."""
    _require(x, (1, 0), "vector")
    _require(w, (0, 1), "one-form")
    _check_charts(x, w, "outer")
    return _outer_sum(x.chart, [x], [w])


def _signed(sign: int, field: TensorField) -> TensorField:
    """sign * field for sign in {-1, +1}, by negation instead of scaling."""
    return field if sign > 0 else -field


def _stack(fields: Sequence[TensorField], start: int = 0) -> dict:
    """The entries of a family of fields as one array: field a's entry at key k
    at (start + a, *k)."""
    return {(start + a, *key): c for a, x in enumerate(fields) for key, c in x.entries.items()}


def _unstack(chart: Chart, valence: tuple[int, int], entries: dict, count: int) -> tuple:
    """The ``count`` fields of ``valence`` whose ``_stack`` is ``entries``."""
    fields = [{} for _ in range(count)]
    for key, c in entries.items():
        fields[key[0]][key[1:]] = c
    return tuple(TensorField._trusted(chart, valence, e) for e in fields)


def _transposed(entries: dict) -> dict:
    return {(j, i): c for (i, j), c in entries.items()}


def _outer_sum(
    chart: Chart, xs: Sequence[TensorField], ws: Sequence[TensorField]
) -> TensorField:
    """sum_a X_a (x) w_a as one (m x r)(r x m) product; zero when r = 0."""
    entries = _contract(_transposed(_stack(xs)), _stack(ws), chart.coords)
    return TensorField._trusted(chart, (1, 1), entries)


def _pairings(chart: Chart, ws: Sequence[TensorField], xs: Sequence[TensorField]) -> dict:
    """The nonzero w_a(X_b) of one-forms ws and vectors xs, keyed (a, b), as one product."""
    return _contract(_stack(ws), _transposed(_stack(xs)), chart.coords)


def _apply_all(f: TensorField, xs: Sequence[TensorField]) -> tuple[TensorField, ...]:
    """F X for every vector X of xs, as one product."""
    entries = _contract(_stack(xs), _transposed(f.entries), f.chart.coords)
    return _unstack(f.chart, (1, 0), entries, len(xs))


def endo_transpose(f: TensorField) -> TensorField:
    """Component transpose; acts on one-forms by (F* w)_j = w_i F^i_j."""
    _require(f, (1, 1), "endomorphism")
    return TensorField._trusted(f.chart, (1, 1), _transposed(f.entries))


def metric_pullback(g: TensorField, f: TensorField) -> TensorField:
    """result_ij = G_kl F^k_i F^l_j, i.e. F^T G F."""
    _require(g, (0, 2), "bilinear form")
    _require(f, (1, 1), "endomorphism")
    _check_charts(g, f, "metric_pullback")
    coords = g.chart.coords
    gf = _contract(g.entries, f.entries, coords)
    return TensorField._trusted(g.chart, (0, 2), _contract(_transposed(f.entries), gf, coords))


def _pivots(matrix: list[list[int]]) -> Iterator[tuple[int, int]]:
    """Fraction-free elimination over int, yielding (row, pivot) as each pivot
    is taken: the first nonzero entry of the next column at or below the next
    pivot row, and the row it stood in before being swapped up.  A row with an
    entry f != 0 in the pivot column becomes lead * row - f * top over its
    content, the primitive form of its Bareiss row (Math. Comp. 22, 1968); a
    row with a zero there is left as it is."""
    rows = [row[:] for row in matrix]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    rank = 0
    pivot_col = 0
    while rank < n_rows and pivot_col < n_cols:
        pivot = next(
            (r for r in range(rank, n_rows) if rows[r][pivot_col] != 0), None
        )
        if pivot is None:
            pivot_col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        lead = top[pivot_col]
        yield pivot, lead
        for r in range(rank + 1, n_rows):
            if f := rows[r][pivot_col]:
                row = [lead * a - f * b for a, b in zip(rows[r], top)]
                g = gcd(*row)
                rows[r] = [a // g for a in row] if g > 1 else row
        rank += 1
        pivot_col += 1


def _matrix_at(f: TensorField, point: Point) -> list[list[int]]:
    """The matrix of the (1,1) or (0,2) field f at ``point``, as integers times
    one positive scale, which keeps its rank and the sign of every minor."""
    if point.chart != f.chart:
        raise TensorError("matrix evaluation at a point on a different chart")
    out = [[0] * f.chart.dim for _ in range(f.chart.dim)]
    # an entry equal to its transpose's is evaluated once; its twin has the
    # same keys and denominator, so the scale does not change
    g = f.entries
    twins = {(j, i) for (i, j), p in g.items() if i < j and g.get((j, i)) == p}
    keys = [k for k in g if k not in twins]
    _, nums = _numerators_at([g[k] for k in keys], point.values)
    for (i, j), n in zip(keys, nums):
        out[i][j] = n
    for i, j in twins:
        out[i][j] = out[j][i]
    return out


def rank_at(f: TensorField, points: Iterable[Point]) -> int:
    """Max exact rank of F over the sample points (lower bound on generic rank)."""
    _require(f, (1, 1), "endomorphism")
    points = list(points)
    if not points:
        raise TensorError("rank_at needs at least one point")
    return max(sum(1 for _ in _pivots(_matrix_at(f, p))) for p in points)


def leading_minors_positive(g: TensorField, point: Point) -> bool:
    """Sylvester test for positive definiteness of G at one sample point.  While
    the pivots taken are positive, each row is a positive multiple of its
    original plus earlier rows, so pivot k has the sign of leading minor k; a
    swap, or fewer pivots than rows, means a zero minor."""
    _require(g, (0, 2), "bilinear form")
    k = 0
    for row, pivot in _pivots(_matrix_at(g, point)):
        if row != k or pivot < 0:
            return False
        k += 1
    return k == g.chart.dim
