"""Vertical, complete and horizontal lifts to the tangent-bundle chart.

A base chart (x^1..x^m) induces the total chart (x^1..x^m, x'^1..x'^m)
where the fiber coordinate x'^i is the base name plus a fixed suffix.
Writing y^k for the fiber coordinates, the lifts used here are

  functions   f^v = f,                 f^c = y^k d_k f
  vectors     X^v = (0 | X),           X^c = (X | y^k d_k X),
              X^h = (X | -y^k G^i_kj X^j)
  one-forms   w^v = (w | 0),           w^c = (y^k d_k w | w),
              w^h = (y^k G^s_ki w_s | w)
  (1,1)       F^v = [[0,0],[F,0]],     F^c = [[F,0],[y.dF,F]],
              F^h = [[F,0],[B,F]],  B^i_j = y^k (G^s_kj F^i_s - G^i_ks F^s_j)

with G^i_jk the connection coefficients (zero when no connection is given).
The horizontal lifts are computed as products with G_y = y^k G_k, where
(G_k)^i_j = G^i_kj: the fiber of X^h is -G_y X, the first half of w^h is
w G_y, and B = F G_y - G_y F.
These block formulas are definitions here; the identity tables they are
expected to satisfy are checked, not assumed, by ``verify_lift_interactions``
and by the test suite's evaluation contracts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .algebra import Poly, _contract
from .structures import (
    LORENTZIAN, RIEMANNIAN, CheckReport, RContactStructure, identity_entries,
)
from .tensor import Chart, TensorError, TensorField, endo_apply, oneform_after_endo

VERTICAL = "vertical"
COMPLETE = "complete"
HORIZONTAL = "horizontal"
LIFT_KINDS = (VERTICAL, COMPLETE, HORIZONTAL)

DEFAULT_FIBER_SUFFIX = "_dot"


class LiftError(TensorError):
    """Invalid lift request (bad kind, missing connection, chart mismatch)."""


@lru_cache(maxsize=1024)
def _coordinate_poly(coords: tuple[str, ...], index: int) -> Poly:
    """The coordinate polynomial coords[index]; shared, since Poly is immutable."""
    return Poly.variable(coords[index], coords)


@dataclass(frozen=True)
class TangentChart:
    """Base chart plus its induced tangent-bundle chart."""

    base: Chart
    total: Chart

    @classmethod
    def over(cls, base: Chart, suffix: str = DEFAULT_FIBER_SUFFIX) -> "TangentChart":
        fibers = tuple(c + suffix for c in base.coords)
        clash = set(fibers) & set(base.coords)
        if clash:
            raise LiftError(f"fiber names collide with base names: {sorted(clash)}")
        total = Chart(base.name + "_T", base.coords + fibers)
        return cls(base, total)

    def embed(self, p: Poly) -> Poly:
        """Read a base-chart polynomial on the total chart."""
        return p.extend(self.total.coords)

    def fiber_poly(self, k: int) -> Poly:
        return _coordinate_poly(self.total.coords, self.base.dim + k)


@dataclass(frozen=True)
class Connection:
    """Christoffel coefficients gamma[i][j][k] = G^i_jk as base-chart polynomials."""

    chart: Chart
    gamma: tuple[tuple[tuple[Poly, ...], ...], ...]
    symmetric: bool = True
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        m = self.chart.dim
        g = tuple(
            tuple(tuple(entry for entry in row) for row in plane)
            for plane in self.gamma
        )
        if len(g) != m or any(
            len(plane) != m or any(len(row) != m for row in plane) for plane in g
        ):
            raise LiftError("connection coefficients must form an m*m*m array")
        for plane in g:
            for row in plane:
                for entry in row:
                    if entry.variables != self.chart.coords:
                        raise LiftError("connection entries must live on the chart")
        object.__setattr__(self, "gamma", g)
        if self.symmetric:
            for i in range(m):
                for j in range(m):
                    for k in range(j + 1, m):
                        if g[i][j][k] != g[i][k][j]:
                            raise LiftError(
                                "connection flagged symmetric has gamma[i][j][k] != gamma[i][k][j]"
                            )

    @classmethod
    def flat(cls, chart: Chart) -> "Connection":
        z = chart.zero_poly()
        m = chart.dim
        return cls(chart, tuple(tuple((z,) * m for _ in range(m)) for _ in range(m)))

    @classmethod
    def from_entries(
        cls,
        chart: Chart,
        entries: dict[tuple[int, int, int], Poly],
        symmetric: bool = True,
    ) -> "Connection":
        """Sparse constructor; keys are 0-based (upper, lower1, lower2).  When
        ``symmetric``, (i, j, k) also fills (i, k, j), and the two keys may both
        be given only with equal values."""
        m = chart.dim
        z = chart.zero_poly()
        g = [[[z for _ in range(m)] for _ in range(m)] for _ in range(m)]
        for (i, j, k), value in entries.items():
            if symmetric and entries.get((i, k, j), value) != value:
                raise LiftError(f"symmetric connection entries {(i, j, k)} and {(i, k, j)} differ")
            g[i][j][k] = value
            if symmetric and j != k:
                g[i][k][j] = value
        return cls(chart, tuple(tuple(tuple(row) for row in plane) for plane in g), symmetric)

    def is_flat(self) -> bool:
        return all(e.is_zero() for plane in self.gamma for row in plane for e in row)


def lift_connection(kind: str, conn: Optional[Connection], chart: Chart) -> Optional[Connection]:
    """The connection a lift of ``kind`` uses: a horizontal lift uses ``conn``, or the
    flat connection on ``chart`` when none is given; vertical and complete lifts use none."""
    if kind != HORIZONTAL:
        return None
    return Connection.flat(chart) if conn is None else conn


def _need_connection(kind: str, conn: Optional[Connection], chart: Chart) -> Connection:
    if kind == HORIZONTAL:
        if conn is None:
            raise LiftError("horizontal lift requires a connection")
        if conn.chart != chart:
            raise LiftError("connection lives on a different chart")
        return conn
    if conn is not None and conn.chart != chart:
        raise LiftError("connection lives on a different chart")
    return conn


def _check_kind(kind: str) -> None:
    if kind not in LIFT_KINDS:
        raise LiftError(f"unknown lift kind {kind!r}")


def lift_function(
    f: TensorField, kind: str, tangent: TangentChart
) -> TensorField:
    """Vertical or complete lift of a scalar field; horizontal is unsupported."""
    _check_kind(kind)
    if f.valence != (0, 0) or f.chart != tangent.base:
        raise LiftError("lift_function needs a (0,0) field on the base chart")
    if kind == HORIZONTAL:
        raise LiftError("horizontal lift of functions is not defined")
    if kind == VERTICAL:
        return TensorField.function(tangent.total, tangent.embed(f.comps))
    return TensorField.function(tangent.total, _y_dot_derivative(f.comps, tangent))


def _fiber_sum(pairs: Iterable[tuple[int, Poly]], tangent: TangentChart) -> Poly:
    """The sum of y^k p_k over (k, p_k) pairs of base-chart polynomials, on the total chart."""
    pairs = [(k, p) for k, p in pairs if p.terms]
    fibers = [tangent.fiber_poly(k) for k, _ in pairs]
    embedded = [tangent.embed(p) for _, p in pairs]
    ((value,),) = _contract([fibers], [embedded], tangent.total.zero_poly())
    return value


def _y_dot_derivative(p: Poly, tangent: TangentChart) -> Poly:
    """y^k d_k p, embedded on the total chart; d_k is taken only where x^k occurs in p."""
    terms = p.terms
    return _fiber_sum(
        [(k, p.diff(name)) for k, name in enumerate(tangent.base.coords)
         if any(exps[k] for exps in terms)],
        tangent,
    )


def _connection_matrix(conn: Connection, tangent: TangentChart) -> tuple[tuple[Poly, ...], ...]:
    """G_y = y^k G_k on the total chart, where (G_k)^i_j = G^i_kj is the k-th slice;
    kept in ``conn.memo``, since every horizontal lift over ``conn`` reads the same G_y."""
    if tangent not in conn.memo:
        r = range(tangent.base.dim)
        conn.memo[tangent] = tuple(
            tuple(_fiber_sum(enumerate(conn.gamma[i][k][j] for k in r), tangent) for j in r)
            for i in r
        )
    return conn.memo[tangent]


def lift_vector(
    x: TensorField,
    kind: str,
    tangent: TangentChart,
    conn: Optional[Connection] = None,
) -> TensorField:
    _check_kind(kind)
    if x.valence != (1, 0) or x.chart != tangent.base:
        raise LiftError("lift_vector needs a (1,0) field on the base chart")
    conn = _need_connection(kind, conn, tangent.base)
    m = tangent.base.dim
    zero = tangent.total.zero_poly()
    base_comps = [tangent.embed(c) for c in x.comps]
    if kind == VERTICAL:
        return TensorField.vector(tangent.total, [zero] * m + base_comps)
    if kind == COMPLETE:
        fiber = [_y_dot_derivative(c, tangent) for c in x.comps]
        return TensorField.vector(tangent.total, base_comps + fiber)
    # fiber = -G_y X
    (gx,) = _contract([base_comps], _connection_matrix(conn, tangent), zero)
    return TensorField.vector(tangent.total, base_comps + [-c for c in gx])


def lift_oneform(
    w: TensorField,
    kind: str,
    tangent: TangentChart,
    conn: Optional[Connection] = None,
) -> TensorField:
    _check_kind(kind)
    if w.valence != (0, 1) or w.chart != tangent.base:
        raise LiftError("lift_oneform needs a (0,1) field on the base chart")
    conn = _need_connection(kind, conn, tangent.base)
    m = tangent.base.dim
    zero = tangent.total.zero_poly()
    base_comps = [tangent.embed(c) for c in w.comps]
    if kind == VERTICAL:
        return TensorField.oneform(tangent.total, base_comps + [zero] * m)
    if kind == COMPLETE:
        lead = [_y_dot_derivative(c, tangent) for c in w.comps]
        return TensorField.oneform(tangent.total, lead + base_comps)
    # lead = w G_y
    (lead,) = _contract([base_comps], zip(*_connection_matrix(conn, tangent)), zero)
    return TensorField.oneform(tangent.total, lead + base_comps)


def lift_endo(
    f: TensorField,
    kind: str,
    tangent: TangentChart,
    conn: Optional[Connection] = None,
) -> TensorField:
    _check_kind(kind)
    if f.valence != (1, 1) or f.chart != tangent.base:
        raise LiftError("lift_endo needs a (1,1) field on the base chart")
    conn = _need_connection(kind, conn, tangent.base)
    m = tangent.base.dim
    zero = tangent.total.zero_poly()
    fmat = [[tangent.embed(f.comps[i][j]) for j in range(m)] for i in range(m)]
    zmat = [[zero] * m for _ in range(m)]

    def block(tl, tr, bl, br):
        rows = [tl[i] + tr[i] for i in range(m)]
        rows += [bl[i] + br[i] for i in range(m)]
        return TensorField.endo(tangent.total, rows)

    if kind == VERTICAL:
        return block(zmat, zmat, fmat, zmat)
    if kind == COMPLETE:
        deriv = [
            [_y_dot_derivative(f.comps[i][j], tangent) for j in range(m)]
            for i in range(m)
        ]
        return block(fmat, zmat, deriv, fmat)
    # B = y^k (F G_k - G_k F) = F G_y - G_y F
    g_y = _connection_matrix(conn, tangent)
    fg = _contract(fmat, zip(*g_y), zero)
    gf = _contract(g_y, zip(*fmat), zero)
    bblock = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(fg, gf)]
    return block(fmat, zmat, bblock, fmat)


@dataclass(frozen=True)
class LiftContext:
    """The lifts of one structure's F, xi and eta for one lift kind L, built once and
    read by every check on it; ``memo`` keeps what those checks derive from them.
    In the vertical context xi_l and eta_l are xi_v and eta_v.

    The interaction table and the J^2 checks read the lifted products here, each
    made on first use: with X = ``xi`` = xi_v + xi_l and E = ``eta`` = eta_v + eta_l,
    ``f_xi`` is F^L X_a, ``eta_f`` is E_a o F^L and ``pairing`` the 2r x 2r E_a(X_b)."""

    tangent: TangentChart
    conn: Optional[Connection]
    f_lift: TensorField
    xi_v: tuple[TensorField, ...]
    xi_l: tuple[TensorField, ...]
    eta_v: tuple[TensorField, ...]
    eta_l: tuple[TensorField, ...]
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def build(
        cls, structure: RContactStructure, kind: str, conn: Optional[Connection] = None,
        suffix: str = DEFAULT_FIBER_SUFFIX,
    ) -> "LiftContext":
        return _contexts(structure, conn, suffix)(kind)

    def memoised(self, key, build: Callable[[], object]):
        """The value kept under ``key``, made by ``build()`` on first use."""
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    @property
    def xi(self) -> tuple[TensorField, ...]:
        return self.xi_v + self.xi_l

    @property
    def eta(self) -> tuple[TensorField, ...]:
        return self.eta_v + self.eta_l

    @property
    def f_xi(self) -> tuple[TensorField, ...]:
        return self.memoised("f_xi", lambda: tuple(endo_apply(self.f_lift, x) for x in self.xi))

    @property
    def eta_f(self) -> tuple[TensorField, ...]:
        return self.memoised(
            "eta_f", lambda: tuple(oneform_after_endo(w, self.f_lift) for w in self.eta)
        )

    @property
    def pairing(self) -> list[list[Poly]]:
        return self.memoised("pairing", lambda: _contract(
            [w.comps for w in self.eta], [x.comps for x in self.xi], self.tangent.total.zero_poly()
        ))


def _contexts(
    structure: RContactStructure, conn: Optional[Connection], suffix: str
) -> Callable[[str], LiftContext]:
    """One LiftContext per lift kind, each built on first request over the
    connection ``lift_connection`` gives it; every kind reuses the vertical
    one's chart and lifts."""
    built: dict[str, LiftContext] = {}

    def context(kind: str) -> LiftContext:
        # no call of ``context`` from inside it: a closure that refers to itself
        # is a reference cycle, which would keep every lift until a gc pass
        if not built:
            t = TangentChart.over(structure.chart, suffix)
            xi_v = tuple(lift_vector(x, VERTICAL, t) for x in structure.xi)
            eta_v = tuple(lift_oneform(w, VERTICAL, t) for w in structure.eta)
            f_v = lift_endo(structure.f, VERTICAL, t)
            built[VERTICAL] = LiftContext(t, None, f_v, xi_v, xi_v, eta_v, eta_v)
        if kind not in built:
            v = built[VERTICAL]
            t, c = v.tangent, lift_connection(kind, conn, structure.chart)
            xi = tuple(lift_vector(x, kind, t, c) for x in structure.xi)
            eta = tuple(lift_oneform(w, kind, t, c) for w in structure.eta)
            f_lift = lift_endo(structure.f, kind, t, c)
            built[kind] = LiftContext(t, c, f_lift, v.xi_v, xi, v.eta_v, eta)
        return built[kind]

    return context


# -- interaction tables --------------------------------------------------------

# Tags of the F(xi), eta o F and pairing groups of each table; the complete
# table's by signature.
_COMPLETE_TAGS = {RIEMANNIAN: ("2.3", "2.4", "2.5"), LORENTZIAN: ("2.11", "2.12", "2.13")}
_HORIZONTAL_TAGS = ("2.18", "2.19", "2.20")


def verify_lift_interactions(
    structure: RContactStructure,
    conn: Optional[Connection] = None,
    suffix: str = DEFAULT_FIBER_SUFFIX,
    seed: int | None = None,
    *, contexts: Optional[Callable[[str], LiftContext]] = None,
) -> CheckReport:
    """Check every lift-interaction identity the structure is expected to satisfy.

    Always checks the complete/vertical table; extends to the horizontal
    table when a connection is supplied.  The expected pairing value is
    +delta for riemannian structures and -delta for lorentzian ones.
    ``contexts`` gives this structure's shared LiftContext for a lift kind
    (vertical, complete, or horizontal over ``conn``); without it they are
    built here.
    """
    contexts = contexts or _contexts(structure, conn, suffix)
    lifted = {"v": contexts(VERTICAL), "c": contexts(COMPLETE)}
    total = lifted["c"].tangent.total
    kappa = structure.pairing_convention()
    sign = "+" if kappa > 0 else "-"
    # where a lift of xi_a or eta^a sits in its context's products
    at = {"v": 0, "c": structure.r, "h": structure.r}

    # Row makers, read from the products of the context of ``lift``; the
    # superscripts name the lift of each factor.
    def f_xi(lift: str, x: str):
        return f"F^{lift}(xi_{{a}}^{x})", lambda a: lifted[lift].f_xi[at[x] + a]

    def eta_f(lift: str, w: str):
        return f"eta^{{a}}{w} o F^{lift}", lambda a: lifted[lift].eta_f[at[w] + a]

    def pairing(lift: str, w: str, x: str, delta: bool):
        """eta^a,w(xi_b^x) less its expected value: kappa*delta_ab, or 0."""
        def residual(a: int, b: int) -> TensorField:
            value = lifted[lift].pairing[at[w] + a][at[x] + b]
            return TensorField.function(total, value - (kappa if delta and a == b else 0))

        return f"eta^{{a}}{w}(xi_{{b}}^{x})" + (f" - ({sign}delta)" if delta else ""), residual

    # eta^c o F^v, the one row whose factors are in two contexts
    eta_c_f_v = "eta^{a}c o F^v", lambda a: oneform_after_endo(
        lifted["c"].eta_l[a], lifted["v"].f_lift
    )
    tags = _COMPLETE_TAGS[structure.signature]
    table = [
        (tags[0], 1, [f_xi("c", "v"), f_xi("c", "c")]),
        (tags[1], 1, [eta_f("c", "v"), eta_c_f_v, eta_f("c", "c")]),
        (tags[2], 2, [pairing("c", "v", "v", False), pairing("c", "v", "c", True),
                      pairing("c", "c", "v", True), pairing("c", "c", "c", False)]),
    ]
    notes: list[str] = []
    if conn is not None:
        lifted["h"] = contexts(HORIZONTAL)
        tags = _HORIZONTAL_TAGS
        table += [
            (tags[0], 1, [f_xi("h", "h"), f_xi("h", "v")]),
            (tags[1], 1, [eta_f("h", "h"), eta_f("h", "v")]),
            (tags[2], 2, [pairing("h", "h", "h", False), pairing("h", "h", "v", True),
                          pairing("h", "v", "h", True)]),
        ]
        if conn.is_flat():
            notes.append("[connection] horizontal table checked with the flat connection")
    return CheckReport(entries=identity_entries(table, structure.r, seed), notes=notes)
