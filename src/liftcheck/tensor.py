"""Charts, points and low-valence tensor fields with exact components.

Supported valences: (0,0) functions, (1,0) vectors, (0,1) one-forms,
(1,1) endomorphisms, (0,2) bilinear forms.  For endomorphisms the row
index is the upper (output) index throughout: (F X)^i = F^i_j X^j.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .algebra import AlgebraError, Poly, PolyMatrix, _contract, as_fraction

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


def random_point(chart: Chart, rng: random.Random) -> Point:
    values = tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in chart.coords
    )
    return Point(chart, values)


def _as_poly(chart: Chart, value) -> Poly:
    if isinstance(value, Poly):
        if value.variables != chart.coords:
            raise TensorError(
                f"component over {value.variables} does not live on chart {chart.name!r}"
            )
        return value
    return Poly.const(value, chart.coords)


class TensorField:
    """A valence-tagged array of polynomials on one chart (immutable)."""

    __slots__ = ("chart", "valence", "comps")

    def __init__(self, chart: Chart, valence: tuple[int, int], comps):
        if valence not in VALENCES:
            raise TensorError(f"unsupported valence {valence}")
        m = chart.dim
        if valence == (0, 0):
            comps = _as_poly(chart, comps)
        elif valence in ((1, 0), (0, 1)):
            comps = tuple(_as_poly(chart, c) for c in comps)
            if len(comps) != m:
                raise TensorError("component count does not match chart dimension")
        else:
            comps = tuple(tuple(_as_poly(chart, c) for c in row) for row in comps)
            if len(comps) != m or any(len(row) != m for row in comps):
                raise TensorError("component matrix does not match chart dimension")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "valence", valence)
        object.__setattr__(self, "comps", comps)

    @classmethod
    def _trusted(cls, chart: Chart, valence: tuple[int, int], comps) -> "TensorField":
        """Wrap components that are valid by construction, without checking them.

        ``comps`` must already have the shape of ``valence`` on ``chart``, as
        tuples (of rows) of Polys over ``chart.coords``.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "valence", valence)
        object.__setattr__(self, "comps", comps)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TensorField is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def function(cls, chart: Chart, value) -> "TensorField":
        return cls(chart, (0, 0), value)

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
        z = chart.zero_poly()
        if valence == (0, 0):
            return cls(chart, valence, z)
        if valence in ((1, 0), (0, 1)):
            return cls(chart, valence, [z] * chart.dim)
        return cls(chart, valence, [[z] * chart.dim for _ in range(chart.dim)])

    @classmethod
    def identity_endo(cls, chart: Chart) -> "TensorField":
        one = chart.const(1)
        z = chart.zero_poly()
        return cls(
            chart,
            (1, 1),
            [[one if i == j else z for j in range(chart.dim)] for i in range(chart.dim)],
        )

    @classmethod
    def basis_vector(cls, chart: Chart, coord: str) -> "TensorField":
        idx = chart.coords.index(coord)
        return cls.vector(
            chart, [chart.const(1 if i == idx else 0) for i in range(chart.dim)]
        )

    @classmethod
    def basis_oneform(cls, chart: Chart, coord: str) -> "TensorField":
        idx = chart.coords.index(coord)
        return cls.oneform(
            chart, [chart.const(1 if i == idx else 0) for i in range(chart.dim)]
        )

    # -- pointwise algebra ---------------------------------------------------

    def _check_same(self, other: "TensorField") -> None:
        if self.chart != other.chart:
            raise TensorError(
                f"charts {self.chart.name!r} and {other.chart.name!r} differ"
            )
        if self.valence != other.valence:
            raise TensorError(f"valences {self.valence} and {other.valence} differ")

    def _map(self, fn) -> "TensorField":
        if self.valence == (0, 0):
            comps = fn(self.comps)
        elif self.valence in ((1, 0), (0, 1)):
            comps = tuple(map(fn, self.comps))
        else:
            comps = tuple(tuple(map(fn, row)) for row in self.comps)
        return TensorField._trusted(self.chart, self.valence, comps)

    def _zip(self, other: "TensorField", fn) -> "TensorField":
        self._check_same(other)
        if self.valence == (0, 0):
            comps = fn(self.comps, other.comps)
        elif self.valence in ((1, 0), (0, 1)):
            comps = tuple(map(fn, self.comps, other.comps))
        else:
            comps = tuple(tuple(map(fn, r1, r2)) for r1, r2 in zip(self.comps, other.comps))
        return TensorField._trusted(self.chart, self.valence, comps)

    def __add__(self, other: "TensorField") -> "TensorField":
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other: "TensorField") -> "TensorField":
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self) -> "TensorField":
        return self._map(lambda c: -c)

    def scale(self, value) -> "TensorField":
        """Multiply every component by a constant or by a scalar polynomial."""
        if isinstance(value, TensorField):
            if value.valence != (0, 0) or value.chart != self.chart:
                raise TensorError("scale by a (0,0) field on the same chart")
            factor = value.comps
        else:
            factor = _as_poly(self.chart, value)
        return self._map(lambda c: c * factor)

    def is_zero(self) -> bool:
        if self.valence == (0, 0):
            return self.comps.is_zero()
        if self.valence in ((1, 0), (0, 1)):
            return all(c.is_zero() for c in self.comps)
        return all(c.is_zero() for row in self.comps for c in row)

    def component_items(self) -> list[tuple[tuple[str, ...], Poly]]:
        """All (coordinate-label, component) pairs in a fixed order."""
        coords = self.chart.coords
        if self.valence == (0, 0):
            return [((), self.comps)]
        if self.valence in ((1, 0), (0, 1)):
            return [((coords[i],), c) for i, c in enumerate(self.comps)]
        return [
            ((coords[i], coords[j]), self.comps[i][j])
            for i in range(self.chart.dim)
            for j in range(self.chart.dim)
        ]

    def nonzero_items(self) -> list[tuple[tuple[str, ...], Poly]]:
        return [(label, c) for label, c in self.component_items() if not c.is_zero()]

    def to_matrix(self) -> PolyMatrix:
        if self.valence not in ((1, 1), (0, 2)):
            raise TensorError("only matrix-valued valences convert to PolyMatrix")
        return PolyMatrix(self.comps)

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
            and self.comps == other.comps
        )

    def __hash__(self) -> int:
        return hash((self.chart, self.valence, self.comps))

    def __repr__(self) -> str:
        body = ", ".join(
            f"[{','.join(label)}]={poly}" for label, poly in self.nonzero_items()
        )
        return f"TensorField{self.valence}({body or '0'})"


# -- contractions ------------------------------------------------------------


def _matrix_field(chart: Chart, rows: list[list[Poly]], valence=(1, 1)) -> TensorField:
    """A matrix-valued field from a ``_contract`` result over ``chart.zero_poly()``."""
    return TensorField._trusted(chart, valence, tuple(map(tuple, rows)))


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
    (out,) = _contract([x.comps], f.comps, f.chart.zero_poly())
    return TensorField._trusted(f.chart, (1, 0), tuple(out))


def oneform_apply(w: TensorField, x: TensorField) -> TensorField:
    """Scalar field w_i X^i."""
    _require(w, (0, 1), "one-form")
    _require(x, (1, 0), "vector")
    _check_charts(w, x, "oneform_apply")
    ((value,),) = _contract([w.comps], [x.comps], w.chart.zero_poly())
    return TensorField._trusted(w.chart, (0, 0), value)


def endo_compose(f: TensorField, h: TensorField) -> TensorField:
    """(F o H)^i_j = F^i_k H^k_j."""
    _require(f, (1, 1), "endomorphism")
    _require(h, (1, 1), "endomorphism")
    _check_charts(f, h, "endo_compose")
    return _matrix_field(f.chart, _contract(f.comps, zip(*h.comps), f.chart.zero_poly()))


def oneform_after_endo(w: TensorField, f: TensorField) -> TensorField:
    """(w o F)_j = w_i F^i_j, i.e. the dual endomorphism applied to w."""
    _require(w, (0, 1), "one-form")
    _require(f, (1, 1), "endomorphism")
    _check_charts(w, f, "oneform_after_endo")
    (out,) = _contract([w.comps], zip(*f.comps), f.chart.zero_poly())
    return TensorField._trusted(w.chart, (0, 1), tuple(out))


def outer(x: TensorField, w: TensorField) -> TensorField:
    """(X (x) w)^i_j = X^i w_j."""
    _require(x, (1, 0), "vector")
    _require(w, (0, 1), "one-form")
    _check_charts(x, w, "outer")
    rows = [[xi] for xi in x.comps]
    cols = [[wj] for wj in w.comps]
    return _matrix_field(x.chart, _contract(rows, cols, x.chart.zero_poly()))


def _signed(sign: int, field: TensorField) -> TensorField:
    """sign * field for sign in {-1, +1}, by negation instead of scaling."""
    return field if sign > 0 else -field


def _outer_sum(
    chart: Chart, xs: Sequence[TensorField], ws: Sequence[TensorField]
) -> TensorField:
    """sum_a X_a (x) w_a as one (m x r)(r x m) product; zero when r = 0."""
    rows = [[x.comps[i] for x in xs] for i in range(chart.dim)]
    cols = [[w.comps[j] for w in ws] for j in range(chart.dim)]
    return _matrix_field(chart, _contract(rows, cols, chart.zero_poly()))


def endo_transpose(f: TensorField) -> TensorField:
    """Component transpose; acts on one-forms by (F* w)_j = w_i F^i_j."""
    _require(f, (1, 1), "endomorphism")
    return TensorField._trusted(f.chart, (1, 1), tuple(zip(*f.comps)))


def metric_pullback(g: TensorField, f: TensorField) -> TensorField:
    """result_ij = G_kl F^k_i F^l_j, i.e. F^T G F."""
    _require(g, (0, 2), "bilinear form")
    _require(f, (1, 1), "endomorphism")
    _check_charts(g, f, "metric_pullback")
    zero = g.chart.zero_poly()
    f_cols = list(zip(*f.comps))
    gf = _contract(g.comps, f_cols, zero)
    return _matrix_field(g.chart, _contract(f_cols, zip(*gf), zero), (0, 2))


def _pivots(matrix: list[list[Fraction]]) -> Iterator[tuple[int, Fraction]]:
    """Gaussian elimination over Fraction, yielding (row, pivot) as each pivot is
    taken: the first nonzero entry of the next column at or below the next pivot
    row, and the row it stood in before being swapped up."""
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
        lead = rows[rank][pivot_col]
        yield pivot, lead
        for r in range(rank + 1, n_rows):
            if rows[r][pivot_col] != 0:
                factor = rows[r][pivot_col] / lead
                rows[r] = [
                    a - factor * b for a, b in zip(rows[r], rows[rank])
                ]
        rank += 1
        pivot_col += 1


def evaluate_matrix(f: TensorField, point: Point) -> list[list[Fraction]]:
    if f.valence not in ((1, 1), (0, 2)):
        raise TensorError("matrix evaluation needs a matrix-valued field")
    values = point.mapping()
    return [[entry.eval_at(values) for entry in row] for row in f.comps]


def rank_at(f: TensorField, points: Iterable[Point]) -> int:
    """Max exact rank of F over the sample points (lower bound on generic rank)."""
    _require(f, (1, 1), "endomorphism")
    points = list(points)
    if not points:
        raise TensorError("rank_at needs at least one point")
    best = 0
    for p in points:
        if p.chart != f.chart:
            raise TensorError("rank_at point on a different chart")
        best = max(best, sum(1 for _ in _pivots(evaluate_matrix(f, p))))
    return best


def leading_minors_positive(g: TensorField, point: Point) -> bool:
    """Sylvester test for positive definiteness of G at one sample point: leading
    minor k is the product of the first k pivots of an elimination without row
    swaps, and a swap, or fewer pivots than rows, means a zero minor."""
    _require(g, (0, 2), "bilinear form")
    k = 0
    for row, pivot in _pivots(evaluate_matrix(g, point)):
        if row != k or pivot < 0:
            return False
        k += 1
    return k == g.chart.dim
