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
from typing import Callable, Optional, Sequence

from .algebra import Poly, _contract
from .structures import CheckEntry, CheckReport, RContactStructure, new_entry
from .tensor import Chart, TensorError, TensorField, endo_apply, oneform_after_endo, oneform_apply

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

    @property
    def fiber_coords(self) -> tuple[str, ...]:
        return self.total.coords[self.base.dim :]

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
        """Sparse constructor; keys are 0-based (upper, lower1, lower2)."""
        m = chart.dim
        z = chart.zero_poly()
        g = [[[z for _ in range(m)] for _ in range(m)] for _ in range(m)]
        for (i, j, k), value in entries.items():
            g[i][j][k] = value
            if symmetric and j != k:
                g[i][k][j] = value
        return cls(chart, tuple(tuple(tuple(row) for row in plane) for plane in g), symmetric)

    def is_flat(self) -> bool:
        return all(e.is_zero() for plane in self.gamma for row in plane for e in row)


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


def _fiber_sum(ps: Sequence[Poly], tangent: TangentChart) -> Poly:
    """y^k p_k for base-chart polynomials p_0..p_{m-1}, embedded on the total chart."""
    ks = [k for k, p in enumerate(ps) if p.terms]
    fibers = [tangent.fiber_poly(k) for k in ks]
    embedded = [tangent.embed(ps[k]) for k in ks]
    ((value,),) = _contract([fibers], [embedded], tangent.total.zero_poly())
    return value


def _y_dot_derivative(p: Poly, tangent: TangentChart) -> Poly:
    """y^k d_k p, embedded on the total chart."""
    return _fiber_sum([p.diff(name) for name in tangent.base.coords], tangent)


def _connection_matrix(conn: Connection, tangent: TangentChart) -> list[list[Poly]]:
    """G_y = y^k G_k on the total chart, where (G_k)^i_j = G^i_kj is the k-th slice."""
    r = range(tangent.base.dim)
    return [[_fiber_sum([conn.gamma[i][k][j] for k in r], tangent) for j in r] for i in r]


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


def lift_field(
    field_: TensorField,
    kind: str,
    tangent: TangentChart,
    conn: Optional[Connection] = None,
) -> TensorField:
    """Lift dispatch by valence."""
    if field_.valence == (0, 0):
        return lift_function(field_, kind, tangent)
    if field_.valence == (1, 0):
        return lift_vector(field_, kind, tangent, conn)
    if field_.valence == (0, 1):
        return lift_oneform(field_, kind, tangent, conn)
    if field_.valence == (1, 1):
        return lift_endo(field_, kind, tangent, conn)
    raise LiftError(f"no lift for valence {field_.valence}")


@dataclass(frozen=True)
class LiftContext:
    """The lifts of one structure's F, xi and eta for one lift kind L, built once and
    read by every check on it; ``memo`` keeps what those checks derive from them."""

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
        tangent = TangentChart.over(structure.chart, suffix)
        return cls(
            tangent, conn, lift_endo(structure.f, kind, tangent, conn),
            tuple(lift_vector(x, VERTICAL, tangent) for x in structure.xi),
            tuple(lift_vector(x, kind, tangent, conn) for x in structure.xi),
            tuple(lift_oneform(w, VERTICAL, tangent) for w in structure.eta),
            tuple(lift_oneform(w, kind, tangent, conn) for w in structure.eta),
        )

    def memoised(self, key, build: Callable[[], object]):
        """The value kept under ``key``, made by ``build()`` on first use."""
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]


# -- interaction tables --------------------------------------------------------

# Identity tags for the complete-lift table: (riemannian, lorentzian).
_COMPLETE_TAGS = {"f_xi": ("2.3", "2.11"), "eta_f": ("2.4", "2.12"), "pairing": ("2.5", "2.13")}
_HORIZONTAL_TAGS = {"f_xi": "2.18", "eta_f": "2.19", "pairing": "2.20"}


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
    (the horizontal one over ``conn``); without it they are built here.
    """
    if contexts is None:
        def contexts(kind: str) -> LiftContext:
            return LiftContext.build(structure, kind, conn if kind == HORIZONTAL else None, suffix)

    complete = contexts(COMPLETE)
    tangent = complete.tangent
    kappa = structure.pairing_convention()
    col = 0 if structure.signature == "riemannian" else 1
    entries: list[CheckEntry] = []

    f_c = complete.f_lift
    f_v = lift_endo(structure.f, VERTICAL, tangent)
    xi_v, xi_c = complete.xi_v, complete.xi_l
    eta_v, eta_c = complete.eta_v, complete.eta_l

    def delta_fn(a: int, b: int) -> TensorField:
        value = kappa if a == b else 0
        return TensorField.function(tangent.total, tangent.total.const(value))

    tag = _COMPLETE_TAGS["f_xi"][col]
    for a in range(structure.r):
        entries.append(
            new_entry(f"F^c(xi_{a + 1}^v)", tag, endo_apply(f_c, xi_v[a]), seed)
        )
        entries.append(
            new_entry(f"F^c(xi_{a + 1}^c)", tag, endo_apply(f_c, xi_c[a]), seed)
        )
    tag = _COMPLETE_TAGS["eta_f"][col]
    for a in range(structure.r):
        entries.append(
            new_entry(
                f"eta^{a + 1}v o F^c", tag, oneform_after_endo(eta_v[a], f_c), seed
            )
        )
        entries.append(
            new_entry(
                f"eta^{a + 1}c o F^v", tag, oneform_after_endo(eta_c[a], f_v), seed
            )
        )
        entries.append(
            new_entry(
                f"eta^{a + 1}c o F^c", tag, oneform_after_endo(eta_c[a], f_c), seed
            )
        )
    tag = _COMPLETE_TAGS["pairing"][col]
    sign = "+" if kappa > 0 else "-"
    for a in range(structure.r):
        for b in range(structure.r):
            entries.append(
                new_entry(
                    f"eta^{a + 1}v(xi_{b + 1}^v)",
                    tag,
                    oneform_apply(eta_v[a], xi_v[b]),
                    seed,
                )
            )
            entries.append(
                new_entry(
                    f"eta^{a + 1}v(xi_{b + 1}^c) - ({sign}delta)",
                    tag,
                    oneform_apply(eta_v[a], xi_c[b]) - delta_fn(a, b),
                    seed,
                )
            )
            entries.append(
                new_entry(
                    f"eta^{a + 1}c(xi_{b + 1}^v) - ({sign}delta)",
                    tag,
                    oneform_apply(eta_c[a], xi_v[b]) - delta_fn(a, b),
                    seed,
                )
            )
            entries.append(
                new_entry(
                    f"eta^{a + 1}c(xi_{b + 1}^c)",
                    tag,
                    oneform_apply(eta_c[a], xi_c[b]),
                    seed,
                )
            )

    notes: list[str] = []
    if conn is not None:
        horizontal = contexts(HORIZONTAL)
        f_h, xi_h, eta_h = horizontal.f_lift, horizontal.xi_l, horizontal.eta_l
        tag = _HORIZONTAL_TAGS["f_xi"]
        for a in range(structure.r):
            entries.append(
                new_entry(f"F^h(xi_{a + 1}^h)", tag, endo_apply(f_h, xi_h[a]), seed)
            )
            entries.append(
                new_entry(f"F^h(xi_{a + 1}^v)", tag, endo_apply(f_h, xi_v[a]), seed)
            )
        tag = _HORIZONTAL_TAGS["eta_f"]
        for a in range(structure.r):
            entries.append(
                new_entry(
                    f"eta^{a + 1}h o F^h", tag, oneform_after_endo(eta_h[a], f_h), seed
                )
            )
            entries.append(
                new_entry(
                    f"eta^{a + 1}v o F^h", tag, oneform_after_endo(eta_v[a], f_h), seed
                )
            )
        tag = _HORIZONTAL_TAGS["pairing"]
        for a in range(structure.r):
            for b in range(structure.r):
                entries.append(
                    new_entry(
                        f"eta^{a + 1}h(xi_{b + 1}^h)",
                        tag,
                        oneform_apply(eta_h[a], xi_h[b]),
                        seed,
                    )
                )
                entries.append(
                    new_entry(
                        f"eta^{a + 1}h(xi_{b + 1}^v) - ({sign}delta)",
                        tag,
                        oneform_apply(eta_h[a], xi_v[b]) - delta_fn(a, b),
                        seed,
                    )
                )
                entries.append(
                    new_entry(
                        f"eta^{a + 1}v(xi_{b + 1}^h) - ({sign}delta)",
                        tag,
                        oneform_apply(eta_v[a], xi_h[b]) - delta_fn(a, b),
                        seed,
                    )
                )
        if conn.is_flat():
            notes.append("[connection] horizontal table checked with the flat connection")
    return CheckReport(entries=entries, notes=notes)
