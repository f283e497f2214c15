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
So each complete or horizontal lift is T on the diagonal blocks plus the
vertical lift of one fiber derivative dT: y^k d_k T, or T G_y over a lower
index minus G_y T over an upper one, with G_y = y^k G_k and (G_k)^i_j = G^i_kj
(the fiber of X^h is -G_y X, the first half of w^h is w G_y, B = F G_y - G_y F).
One routine, ``_lift``, makes every lift by this rule.
These block formulas are definitions here; the identity tables they are
expected to satisfy are checked, not assumed, by ``verify_lift_interactions``
and by the test suite's evaluation contracts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Callable, Optional, Sequence

from .algebra import _MASK, _W, Poly, _contract, _offset, _reduced
from .structures import (
    LORENTZIAN, RIEMANNIAN, CheckReport, RContactStructure, identity_entries,
)
from .tensor import (
    Chart, TensorError, TensorField, _added, _pairings, _stack, _unstack, endo_apply,
    oneform_after_endo,
)

VERTICAL = "vertical"
COMPLETE = "complete"
HORIZONTAL = "horizontal"
LIFT_KINDS = (VERTICAL, COMPLETE, HORIZONTAL)

DEFAULT_FIBER_SUFFIX = "_dot"


class LiftError(TensorError):
    """Invalid lift request (bad kind, missing connection, chart mismatch)."""


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
        """The fiber coordinate y^k on the total chart."""
        return Poly.variable(self.total.coords[self.base.dim + k], self.total.coords)


@dataclass(frozen=True)
class Connection:
    """The nonzero Christoffel coefficients G^i_jk, base-chart polynomials keyed
    by 0-based (i, j, k); a symmetric connection holds (i, j, k) and (i, k, j).

    Every given key must be three indices in range and every value a Poly on
    the chart; when
    ``symmetric``, (i, j, k) also fills (i, k, j), and the two keys may both
    be given only with equal values.  Zero values are dropped, so two
    connections are equal when their chart, flag and nonzero entries are."""

    chart: Chart
    # left out of the hash, which stays valid: equal connections share chart and flag
    entries: dict[tuple[int, int, int], Poly] = field(hash=False)
    symmetric: bool = True

    def __post_init__(self):
        m, given, entries = self.chart.dim, self.entries, {}
        for key, value in given.items():
            if not (isinstance(key, tuple) and len(key) == 3 and all(isinstance(v, int) for v in key)):
                raise LiftError(f"connection entry {key!r} is not three indices (i, j, k)")
            if not all(0 <= v < m for v in key):
                raise LiftError(f"connection entry {key} out of range 0..{m - 1}")
            if not isinstance(value, Poly) or value.variables != self.chart.coords:
                raise LiftError(f"connection entry {key} must live on the chart as a Poly")
            i, j, k = key
            if self.symmetric and given.get((i, k, j), value) != value:
                raise LiftError(f"symmetric connection entries {(i, j, k)} and {(i, k, j)} differ")
            if value:
                entries[key] = value
                if self.symmetric:
                    entries[i, k, j] = value
        object.__setattr__(self, "entries", entries)

    @classmethod
    def flat(cls, chart: Chart) -> "Connection":
        return cls(chart, {})

    @classmethod
    def from_entries(
        cls,
        chart: Chart,
        entries: dict[tuple[int, int, int], Poly],
        symmetric: bool = True,
    ) -> "Connection":
        """The connection of ``entries``, keyed by 0-based (upper, lower1, lower2)."""
        return cls(chart, entries, symmetric)

    def is_flat(self) -> bool:
        return not self.entries


def lift_connection(kind: str, conn: Optional[Connection], chart: Chart) -> Optional[Connection]:
    """The connection a lift of ``kind`` uses: a horizontal lift uses ``conn``, or the
    flat connection on ``chart`` when none is given; vertical and complete lifts use none."""
    if kind != HORIZONTAL:
        return None
    return Connection.flat(chart) if conn is None else conn


def _y_dot_derivative(p: Poly, tangent: TangentChart) -> Poly:
    """y^k d_k p on the total chart, read off p's terms once per variable x_k
    that occurs in them: n x^e gives n e_k x^(e - 1_k) y^k when e_k > 0.  No two
    (e, k) give the same monomial, so no two terms are added."""
    m, terms = tangent.base.dim, p.nums.items()
    nums, occur, shift = {}, reduce(or_, p.nums, 0), m * _W
    for k in range(m):
        # x_k's field over the base chart is y_k's over the total chart, and
        # x_k's over the total chart is m fields higher; the degree stays
        offset = _offset(m, k)
        if occur >> offset & _MASK:
            unit = 1 << offset
            for key, n in terms:
                if e := key >> offset & _MASK:
                    nums[((key - unit) << shift) + unit] = n * e
    return _reduced(tangent.total.coords, nums, p.den)


def _connection_matrix(conn: Connection, tangent: TangentChart) -> dict[tuple[int, int], Poly]:
    """The nonzero entries of G_y = y^k G_k on the total chart, where (G_k)^i_j =
    G^i_kj: the entries (i, k, j) contracted with y^k over k.  A run keeps it in
    its table (see ``_lift``); a lift made without one builds its own."""
    g = {(i, j, k): tangent.embed(value) for (i, k, j), value in conn.entries.items()}
    y = {(k,): tangent.fiber_poly(k) for _, k, _ in conn.entries}
    return _contract(g, y, tangent.total.coords)


def _kept(fn: Callable, run: Optional[dict], key: str) -> Callable:
    """``fn``, or with a run table ``run``, ``fn`` with each value kept in
    ``run[key]`` under the id of its argument, next to the argument itself, so
    that no id is reused while the table lives."""
    if run is None:
        return fn
    table = run.setdefault(key, {})

    def kept(p):
        hit = table.get(id(p))
        if hit is None:
            hit = table[id(p)] = (p, fn(p))
        return hit[1]
    return kept


def _lift(
    name: str, valence: tuple[int, int], fields: Sequence[TensorField], kind: str,
    tangent: TangentChart, conn: Optional[Connection], run: Optional[dict] = None,
) -> tuple[TensorField, ...]:
    """The ``kind`` lifts of a family of ``valence`` fields, checked for the entry point ``name``.

    The family is lifted as one stack, field a's entry at key k at (a, *k), so
    a horizontal lift reads G_y in one product per index.  Each nonzero entry
    of a field is placed in the blocks of its lift.  T^v is T in the vertical
    slot, its upper index moved to the fiber.  T^c and T^h are dT in that slot
    plus T in each block one index away from it: as it is, when there is an
    upper index, and with every index moved to the fiber, when there is a
    lower one.  dT is the only code per kind.

    ``run`` is a table that lives as long as one run over ``tangent``: with it,
    each base Poly is embedded and, for a complete lift, differentiated once,
    and G_y is built once per connection, for the whole run, however many
    lifts read them.
    """
    if kind not in LIFT_KINDS:
        raise LiftError(f"unknown lift kind {kind!r}")
    for t in fields:
        if t.valence != valence or t.chart != tangent.base:
            raise LiftError(f"{name} needs a ({valence[0]},{valence[1]}) field on the base chart")
    if kind == HORIZONTAL and valence == (0, 0):
        raise LiftError("horizontal lift of functions is not defined")
    if kind == HORIZONTAL and conn is None:
        raise LiftError("horizontal lift requires a connection")
    if conn is not None and conn.chart != tangent.base:
        raise LiftError("connection lives on a different chart")
    upper, lower = valence
    m, coords = tangent.base.dim, tangent.total.coords
    stacked = _stack(fields)
    embed = _kept(tangent.embed, run, "embedded")
    embedded = {key: embed(c) for key, c in stacked.items()}
    if kind == VERTICAL:
        dt = embedded
    elif kind == COMPLETE:
        derive = _kept(lambda c: _y_dot_derivative(c, tangent), run, "y^k d_k")
        dt = {key: d for key, c in stacked.items() if (d := derive(c))}
    else:
        # T G_y over a lower index minus G_y T over an upper one, which is moved
        # in front of the stack index for the product and back after it
        g_y = _kept(lambda c: _connection_matrix(c, tangent), run, "G_y")(conn)
        dt = _contract(embedded, g_y, coords) if lower else {}
        if upper:
            g_t = _contract(g_y, {(i, a, *k): c for (a, i, *k), c in embedded.items()}, coords)
            dt = _added(dt, {(a, i, *k): c for (i, a, *k), c in g_t.items()}, negate=True)
    lifted = {(key[0], key[1] + m, *key[2:]) if upper else key: c for key, c in dt.items()}
    if kind != VERTICAL:
        if upper:
            lifted.update(embedded)
        if lower:
            lifted.update({(a, *(i + m for i in k)): c for (a, *k), c in embedded.items()})
    # every block lives on the total chart by construction
    return _unstack(tangent.total, valence, lifted, len(fields))


def lift_function(
    f: TensorField, kind: str, tangent: TangentChart
) -> TensorField:
    """Vertical or complete lift of a scalar field; horizontal is unsupported."""
    return _lift("lift_function", (0, 0), (f,), kind, tangent, None)[0]


def lift_vector(
    x: TensorField,
    kind: str,
    tangent: TangentChart,
    conn: Optional[Connection] = None,
) -> TensorField:
    return _lift("lift_vector", (1, 0), (x,), kind, tangent, conn)[0]


def lift_oneform(
    w: TensorField,
    kind: str,
    tangent: TangentChart,
    conn: Optional[Connection] = None,
) -> TensorField:
    return _lift("lift_oneform", (0, 1), (w,), kind, tangent, conn)[0]


def lift_endo(
    f: TensorField,
    kind: str,
    tangent: TangentChart,
    conn: Optional[Connection] = None,
) -> TensorField:
    return _lift("lift_endo", (1, 1), (f,), kind, tangent, conn)[0]


@dataclass(frozen=True)
class LiftContext:
    """The lifts of one structure's F, xi and eta for one lift kind L, built once and
    read by every check on it; ``memo`` keeps what those checks derive from them.
    In the vertical context xi_l and eta_l are xi_v and eta_v.

    The interaction table and the J^2 checks read the lifted products here, each
    made on first use: with X = ``xi`` = xi_v + xi_l and E = ``eta`` = eta_v + eta_l,
    ``f_xi`` is F^L X_a, ``eta_f`` is E_a o F^L and ``pairing`` the nonzero E_a(X_b) by (a, b).
    ``run`` is the run table that every context of one run shares: what the run
    derives from its base data whatever the lift kind (see ``_lift``)."""

    tangent: TangentChart
    conn: Optional[Connection]
    f_lift: TensorField
    xi_v: tuple[TensorField, ...]
    xi_l: tuple[TensorField, ...]
    eta_v: tuple[TensorField, ...]
    eta_l: tuple[TensorField, ...]
    memo: dict = field(default_factory=dict, compare=False, repr=False)
    run: dict = field(default_factory=dict, compare=False, repr=False)

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
    def pairing(self) -> dict[tuple[int, int], Poly]:
        return self.memoised("pairing", lambda: _pairings(self.tangent.total, self.eta, self.xi))


def _contexts(
    structure: RContactStructure, conn: Optional[Connection], tangent: TangentChart
) -> Callable[[str], LiftContext]:
    """One LiftContext per lift kind over ``tangent``, each built on first
    request over the connection ``lift_connection`` gives it; every kind reuses
    the vertical one's lifts, and every context holds one run table, which
    every lift of the run reads (see ``_lift``) and which goes with them."""
    built: dict[str, LiftContext] = {}
    run: dict = {}

    def context(kind: str) -> LiftContext:
        # no call of ``context`` from inside it, and no context in the run table:
        # a reference cycle would keep every lift until a gc pass
        if not built:
            xi_v = _lift("lift_vector", (1, 0), structure.xi, VERTICAL, tangent, None, run)
            eta_v = _lift("lift_oneform", (0, 1), structure.eta, VERTICAL, tangent, None, run)
            (f_v,) = _lift("lift_endo", (1, 1), (structure.f,), VERTICAL, tangent, None, run)
            built[VERTICAL] = LiftContext(tangent, None, f_v, xi_v, xi_v, eta_v, eta_v, run=run)
        if kind not in built:
            v, c = built[VERTICAL], lift_connection(kind, conn, structure.chart)
            xi = _lift("lift_vector", (1, 0), structure.xi, kind, tangent, c, run)
            eta = _lift("lift_oneform", (0, 1), structure.eta, kind, tangent, c, run)
            (f_lift,) = _lift("lift_endo", (1, 1), (structure.f,), kind, tangent, c, run)
            built[kind] = LiftContext(tangent, c, f_lift, v.xi_v, xi, v.eta_v, eta, run=run)
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
    contexts = contexts or _contexts(structure, conn, TangentChart.over(structure.chart, suffix))
    lifted = {"v": contexts(VERTICAL), "c": contexts(COMPLETE)}
    total = lifted["c"].tangent.total
    kappa = structure.pairing_convention()
    sign = "+" if kappa > 0 else "-"
    zero, expected = total.zero_poly(), total.const(kappa)
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
            value = lifted[lift].pairing.get((at[w] + a, at[x] + b), zero)
            return TensorField.function(total, value - expected if delta and a == b else value)

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
