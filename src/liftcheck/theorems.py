"""Lifted almost complex / paracomplex structures and their verification.

From a base structure (F, xi_alpha, eta^alpha) the candidate structure on
the tangent-bundle chart is

    J = F^L + s * sum xi_alpha^v (x) eta^alpha,v
            + t * sum xi_alpha^L (x) eta^alpha,L        L in {c, h}

with sign parameters s, t in {-1, +1}.  The catalogued theorem instances fix
(s, t) = (+1, -1) for riemannian bases (tags 4.1 complete, 4.3 horizontal)
and (s, t) = (-1, +1) for lorentzian bases (4.2, 4.4).  The engine treats
(s, t) as free and computes the actual satisfiability region:

    J^2 = eps*I + (c + s*t*kappa) * sum (xi^v (x) eta^L + xi^L (x) eta^v)

where kappa is the computed eta^v(xi^L) pairing sign and c is the computed
coefficient in (F^L)^2 = eps*I + c * sum(...).  So J^2 = eps*I exactly when
s*t*kappa = -c; ``sign_sweep`` computes the residual of all four cells and
reports whether they match this law.

The residuals are computed, not predicted.  Write sigma = (s,..,s, t,..,t),
X = xi^v + xi^L and E = eta^v + eta^L (2r entries each), so that J = F^L +
sum_i sigma_i X_i (x) E_i.  With F = F^L, distributivity and associativity
alone give

    J^2 - eps*I = P + sum_i (F X_i) (x) sigma_i E_i
                    + X_i (x) sigma_i (E_i o F + sum_j sigma_j E_i(X_j) E_j)

with P = F^2 - eps*I.  As s^2 = t^2 = 1, sigma_i sigma_j is 1 within a half and
s*t across the halves, so every cell is J^2 - eps*I = A + s*B + t*C + s*t*D with

    A = P + sum_{i, j in one half} E_i(X_j) X_i (x) E_j
    B = sum_{i < r} (F X_i) (x) E_i + X_i (x) (E_i o F),    C the same over i >= r
    D = sum_{i, j in different halves} E_i(X_j) X_i (x) E_j

The lift context computes F X_i, E_i o F and the pairing matrix E_i(X_j) once,
from its own lifts, for these residuals and the interaction tables alike; the
pairings are never replaced by the values the paper claims for them.  Per
context, P is one square of a 2m x 2m field, the sums over j are two products
(``_folds``) and A, B, C and D one outer-product sum each (``_square_parts``);
a cell is then a signed sum of the four, with no product.

The action residuals regroup alike.  A lifted test field Y (X^v, X^L, or a
lift of xi_b) has J Y = F Y + sum_i sigma_i E_i(Y) X_i, and each right side the
engine derives (``verify_action_formulas``; no display supplies a term) is a
lifted F X, none in a xi row, plus sum_i sigma_i rho_i X_i, rho_i one of
(eta X)^v, (eta X)^c, kappa and 0.  By distributivity alone the residual is
D + sum_i sigma_i g_i X_i with D = F Y - (F X)^{v|L} and g_i = E_i(Y) - rho_i,
every E_i(Y) computed, eta^v(X^v) included.  Per report, D and g are made
once, from kind-free inputs kept on the vertical context, and all entries are
one (entries x 2r)(2r x 2m) product.  J is assembled only for ``build_lifted_j``.

A J^2 verdict is the ``CheckEntry`` of its residual; a sweep keeps the
entries of its four cells by (s, t).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

from .algebra import _contract
from .lifts import (
    COMPLETE,
    DEFAULT_FIBER_SUFFIX,
    HORIZONTAL,
    VERTICAL,
    Connection,
    LiftContext,
    LiftError,
    TangentChart,
    _contexts,
    _lift,
    lift_connection,
)
from .structures import CheckEntry, CheckReport, RContactStructure, new_entry
from .tensor import (
    TensorField,
    _added,
    _apply_all,
    _outer_sum,
    _pairings,
    _signed,
    _stack,
    _unstack,
    endo_compose,
)


@dataclass(frozen=True)
class LiftedStructureSpec:
    """Recipe for one candidate J: base structure, lift kind, and (s, t) signs."""

    base: RContactStructure
    lift_kind: str
    s: int
    t: int
    conn: Optional[Connection] = None
    suffix: str = DEFAULT_FIBER_SUFFIX

    def __post_init__(self):
        if self.lift_kind not in (COMPLETE, HORIZONTAL):
            raise LiftError(f"lifted structures use complete or horizontal, not {self.lift_kind!r}")
        if self.s not in (-1, 1) or self.t not in (-1, 1):
            raise LiftError("sign parameters s, t must be -1 or +1")
        if self.lift_kind == HORIZONTAL and self.conn is None:
            raise LiftError("horizontal lifted structure requires a connection")
        if self.lift_kind == COMPLETE and self.conn is not None:
            raise LiftError("complete lifted structure takes no connection")

    @property
    def theorem(self) -> Optional[str]:
        """The tag of the catalogued theorem with this lift kind and these signs."""
        return _CELLS.get((self.lift_kind, self.s, self.t))


@dataclass
class SignSweep:
    """The J^2 entries of all four (s, t) cells, in report order, plus the
    computed pairing and squaring data."""

    cells: dict[tuple[int, int], CheckEntry]
    kappa: Optional[int]
    c: Optional[int]
    notes: list[str] = field(default_factory=list)

    def predicted(self, s: int, t: int) -> Optional[bool]:
        if self.kappa is None or self.c is None:
            return None
        return s * t * self.kappa == -self.c

    @property
    def matches_law(self) -> bool:
        """Whether every cell with a prediction passes exactly when predicted."""
        return all(self.predicted(*cell) in (None, entry.passed)
                   for cell, entry in self.cells.items())

    def passing_cells(self) -> list[tuple[int, int]]:
        return [cell for cell, entry in self.cells.items() if entry.passed]


class Claims(NamedTuple):
    """A theorem's post-theorem displays: J X^v = (FX)^v + xv * (eta X)^v xi^L,
    J X^L = (FX)^L + xl_v * (eta X)^v xi^v + xl_l * (eta X)^L-lift xi^L, the
    signs of J xi^v and J xi^L, and whether the xi factors are written U."""

    xv: int
    xl_v: int
    xl_l: int
    xi_v_sign: int
    xi_l_sign: int
    uses_u_symbol: bool


class Theorem(NamedTuple):
    """A catalogued theorem: the lift kind and signs of its J, the result tag of
    its J^2 verdict, and its displays (None when it has none)."""

    kind: str
    s: int
    t: int
    result: str
    claims: Optional[Claims]


THEOREMS = {
    "4.1": Theorem(COMPLETE, 1, -1, "2.8", Claims(-1, 1, -1, 1, 1, True)),
    "4.2": Theorem(COMPLETE, -1, 1, "2.15", Claims(1, -1, 1, 1, 1, False)),
    "4.3": Theorem(HORIZONTAL, 1, -1, "2.22", Claims(-1, 1, -1, 1, 1, False)),
    "4.4": Theorem(HORIZONTAL, -1, 1, "2.22", None),
}
# the theorem tag of each catalogued (lift kind, s, t) cell
_CELLS = {(th.kind, th.s, th.t): tag for tag, th in THEOREMS.items()}


def theorem_spec(
    tag: str,
    base: RContactStructure,
    conn: Optional[Connection] = None,
    suffix: str = DEFAULT_FIBER_SUFFIX,
) -> LiftedStructureSpec:
    """The LiftedStructureSpec for a catalogued theorem tag (4.1 .. 4.4)."""
    if tag not in THEOREMS:
        raise LiftError(f"unknown theorem tag {tag!r}")
    kind, s, t, _, _ = THEOREMS[tag]
    return LiftedStructureSpec(
        base=base, lift_kind=kind, s=s, t=t, conn=lift_connection(kind, conn, base.chart),
        suffix=suffix,
    )


# A ``ctx`` passed below must be built from the spec's base, lift kind,
# connection and suffix; without one, each call builds its own.


def _context(spec: LiftedStructureSpec) -> LiftContext:
    tangent = TangentChart.over(spec.base.chart, spec.suffix)
    return _contexts(spec.base, spec.conn, tangent)(spec.lift_kind)


def _sigma(ctx: LiftContext, s: int, t: int) -> tuple[int, ...]:
    """The sign of each lifted pair X_i (x) E_i: s for the r v lifts, t for the r L lifts."""
    r = len(ctx.xi_v)
    return (s,) * r + (t,) * r


def _assemble_j(ctx: LiftContext, s: int, t: int) -> TensorField:
    signed = [_signed(g, w) for g, w in zip(_sigma(ctx, s, t), ctx.eta)]
    return ctx.f_lift + _outer_sum(ctx.tangent.total, ctx.xi, signed)


def build_lifted_j(spec: LiftedStructureSpec, *, ctx: Optional[LiftContext] = None) -> TensorField:
    """Assemble J = F^L + s*sum xi^v(x)eta^v + t*sum xi^L(x)eta^L on the total chart."""
    return _assemble_j(ctx or _context(spec), spec.s, spec.t)


def _square_offset(ctx: LiftContext, eps: int) -> TensorField:
    """P = (F^L)^2 - eps*I."""
    def build():
        identity = TensorField.identity_endo(ctx.tangent.total)
        return endo_compose(ctx.f_lift, ctx.f_lift) - _signed(eps, identity)
    return ctx.memoised(("p", eps), build)


def _folds(ctx: LiftContext) -> tuple[tuple[TensorField, ...], tuple[TensorField, ...]]:
    """Per i, the one-forms sum_b E_i(xi_b^v) eta^b,v and sum_b E_i(xi_b^L) eta^b,L:
    the pairing matrix times eta^v stacked at its v columns, or eta^L at its L ones."""
    def build():
        total, r = ctx.tangent.total, len(ctx.xi_v)

        def fold(start: int, etas) -> tuple[TensorField, ...]:
            pairs = _contract(ctx.pairing, _stack(etas, start), total.coords)
            return _unstack(total, (0, 1), pairs, 2 * r)
        return fold(0, ctx.eta_v), fold(r, ctx.eta_l)
    return ctx.memoised("folds", build)


def _plus(w: TensorField, sign: int, x: TensorField) -> TensorField:
    """w + sign * x for sign in {-1, +1}."""
    return w + x if sign > 0 else w - x


def _square_parts(ctx: LiftContext, eps: int) -> tuple[TensorField, ...]:
    """A, B, C and D of the module docstring, one outer-product sum each."""
    def build():
        total, r, xi, eta = ctx.tangent.total, len(ctx.xi_v), ctx.xi, ctx.eta
        fold_v, fold_l = _folds(ctx)
        b, c = (_outer_sum(total, ctx.f_xi[h] + xi[h], eta[h] + ctx.eta_f[h])
                for h in (slice(r), slice(r, None)))
        return (_square_offset(ctx, eps) + _outer_sum(total, xi, fold_v[:r] + fold_l[r:]), b, c,
                _outer_sum(total, xi, fold_l[:r] + fold_v[r:]))
    return ctx.memoised(("parts", eps), build)


def _square_residual(ctx: LiftContext, eps: int, s: int, t: int) -> TensorField:
    """J^2 - eps*I for the cell (s, t): a signed sum of the four parts."""
    a, b, c, d = _square_parts(ctx, eps)
    return _plus(_plus(_plus(a, s, b), t, c), s * t, d)


def _verdict(spec: LiftedStructureSpec, ctx: LiftContext, seed: int | None) -> CheckEntry:
    """The J^2 entry, tagged by the result of the catalogued theorem of its
    cell, or J^2 for a cell no theorem names."""
    def build():
        eps = spec.base.epsilon
        residual = _square_residual(ctx, eps, spec.s, spec.t)
        tag = THEOREMS[spec.theorem].result if spec.theorem else "J^2"
        # a witness depends only on (residual, seed): an earlier cell of this
        # context and seed with an equal residual lends its verdict
        for key, entry in ctx.memo.items():
            if key[:1] == ("verdict",) and key[3] == seed and entry.residual == residual:
                return replace(entry, tag=tag, residual=residual)
        return new_entry(f"J^2 - ({eps:+d})*I", tag, residual, seed)
    return ctx.memoised(("verdict", spec.s, spec.t, seed), build)


def verify_theorem(
    spec: LiftedStructureSpec, seed: int | None = None, *, ctx: Optional[LiftContext] = None
) -> CheckEntry:
    """Exact check of J^2 = eps*I: the entry of its residual, which carries a
    witness point on failure."""
    return _verdict(spec, ctx or _context(spec), seed)


def _pairing_sign(ctx: LiftContext) -> Optional[int]:
    """kappa with eta^alpha,v(xi_beta^L) = kappa*delta, or None if non-uniform
    or r = 0."""
    r = len(ctx.xi_v)
    block = {(a, b - r): g for (a, b), g in ctx.pairing.items() if a < r <= b}
    for kappa in (1, -1) if r else ():
        if len(block) == r and all(block.get((a, a)) == kappa for a in range(r)):
            return kappa
    return None


def _squaring_coefficient(ctx: LiftContext, eps: int) -> Optional[int]:
    """c with (F^L)^2 = eps*I + c * sum(xi^v(x)eta^L + xi^L(x)eta^v), computed."""
    p = _square_offset(ctx, eps)
    d = _outer_sum(ctx.tangent.total, ctx.xi, ctx.eta_l + ctx.eta_v)
    if p.is_zero() and d.is_zero():
        return 0
    if p == d:
        return 1
    if p == -d:
        return -1
    return None


def sign_sweep(
    base: RContactStructure,
    lift_kind: str,
    conn: Optional[Connection] = None,
    suffix: str = DEFAULT_FIBER_SUFFIX,
    seed: int | None = None,
    *, ctx: Optional[LiftContext] = None,
) -> SignSweep:
    """Brute-force J^2 entries for all (s, t) cells, plus the predicted pass law.

    kappa and c are computed from the structure's own lifts, never assumed;
    the sweep records whether the observed pass/fail pattern matches
    "pass iff s*t*kappa = -c".
    """
    probe = LiftedStructureSpec(
        base=base, lift_kind=lift_kind, s=1, t=1,
        conn=lift_connection(lift_kind, conn, base.chart), suffix=suffix,
    )
    ctx = ctx or _context(probe)
    kappa = ctx.memoised("kappa", lambda: _pairing_sign(ctx))
    c = _squaring_coefficient(ctx, base.epsilon)
    sweep = SignSweep(cells={
        (s, t): _verdict(replace(probe, s=s, t=t), ctx, seed) for s in (-1, 1) for t in (-1, 1)
    }, kappa=kappa, c=c)
    sweep.notes.append(
        f"[sweep] computed pairing kappa = {kappa}, squaring coefficient c = {c}"
    )
    if kappa is not None and c is not None:
        passing = ", ".join(f"(s={s:+d}, t={t:+d})" for s, t in sweep.passing_cells())
        law = "matches" if sweep.matches_law else "VIOLATES"
        sweep.notes.append(
            f"[sweep] passing cells: {passing or 'none'}; pattern {law} the law s*t*kappa = -c"
        )
    else:
        sweep.notes.append(
            "[sweep] pairing or squaring pattern is not uniform; no law prediction"
        )
    return sweep


# -- action formulas -------------------------------------------------------------

def _field_role(x: TensorField, base: RContactStructure) -> tuple[str, Optional[int]]:
    """A test field's label in entry names, and b when it is the structure's xi_b.

    xi is matched first; a field whose one nonzero component is 1 is d/d<coord>.
    """
    for b, xb in enumerate(base.xi):
        if xb == x:
            return f"xi_{b + 1}", b
    nonzero = x.nonzero_items()
    if len(nonzero) == 1:
        (((coord,), c),) = nonzero
        if c.is_constant() and c.constant_value() == 1:
            return f"d/d{coord}", None
    return "X", None


def _lifted_fields(xs, roles, fx, xi: tuple, kind: str, ctx: LiftContext):
    """The ``kind`` lifts of the test fields, a xi_b read from ``xi``, and of
    each F X, as one family, over the run table of ``ctx``'s vertical memo."""
    plain = [x for x, (_, b) in zip(xs, roles) if b is None]
    lifted = _lift("lift_vector", (1, 0), plain + list(fx), kind, ctx.tangent, ctx.conn,
                   (ctx.vertical or ctx).memo)
    rest = iter(lifted)
    return [next(rest) if b is None else xi[b] for _, b in roles], lifted[len(plain):]


def _lifted_rows(rows, r: int, kind: str, ctx: LiftContext) -> list[tuple]:
    """The ``kind`` lifts of the r functions eta^a X of each test field, as one
    family, over the run table of ``ctx``'s vertical memo."""
    flat = _lift("lift_function", (0, 0), [g for row in rows for g in row], kind, ctx.tangent,
                 None, (ctx.vertical or ctx).memo)
    return [flat[e * r:(e + 1) * r] for e in range(len(rows))]


def _action_fields(ctx: LiftContext, base: RContactStructure, fields: Optional[tuple]) -> tuple:
    """The kind-free parts of the action residuals, kept on the vertical context:
    the test fields, by default every frame field d/dx_i and every xi_alpha, and
    per field its role, X^v, (F X)^v, F X, the eta^a X and the (eta^a X)^v."""
    v = ctx.vertical or ctx

    def build():
        xs = fields
        if xs is None:
            xs = [TensorField.basis_vector(base.chart, coord) for coord in base.chart.coords]
            xs = tuple(xs + [x for b, x in enumerate(base.xi) if x not in xs + list(base.xi[:b])])
        roles = [_field_role(x, base) for x in xs]
        fx = _apply_all(base.f, xs)
        pairs = _pairings(base.chart, base.eta, xs)
        eta_x = [[TensorField.function(base.chart, pairs.get((a, e), 0)) for a in range(base.r)]
                 for e in range(len(xs))]
        return (xs, roles, *_lifted_fields(xs, roles, fx, v.xi_v, VERTICAL, v), fx, eta_x,
                _lifted_rows(eta_x, base.r, VERTICAL, v))
    return v.memoised(("action fields", fields), build)


def _action_parts(ctx: LiftContext, spec: LiftedStructureSpec, fields, kappa) -> tuple[dict, dict]:
    """The parts D and C of the action residuals D_e + sum_i sigma_i C_ei X_i, which
    do not depend on (s, t), stacked by entry e in report order, for the test
    fields of ``_action_fields`` and the context's pairing sign kappa."""
    xs, roles, x_v, fx_v, fx, eta_x, eta_x_v = _action_fields(ctx, spec.base, fields)
    tangent, kind, r = ctx.tangent, spec.lift_kind, len(ctx.xi_v)
    x_l, fx_l = _lifted_fields(xs, roles, fx, ctx.xi_l, kind, ctx)
    eta_x_c = _lifted_rows(eta_x, r, COMPLETE, ctx) if kind == COMPLETE else [()] * len(xs)
    # F^L Y and E(Y) in one product each; a lift of xi_b reads ``f_xi`` and ``pairing``
    def column(matrix: dict, k: int) -> dict:
        return {(i,): g for (i, j), g in matrix.items() if j == k}

    plain = [y for (_, b), *ys in zip(roles, x_v, x_l) if b is None for y in ys]
    e_plain = _pairings(tangent.total, ctx.eta, plain)
    computed = iter([(f_y, column(e_plain, k))
                     for k, f_y in enumerate(_apply_all(ctx.f_lift, plain))])

    parts = []
    for (_, b), f_x_v, f_x_l, eta_v, eta_c in zip(roles, fx_v, fx_l, eta_x_v, eta_x_c):
        ys = [next(computed), next(computed)] if b is None else [
            (ctx.f_xi[i], column(ctx.pairing, i)) for i in (b, r + b)]
        # per entry of Y: the right side's lifted F X and its rho
        rights = [(f_x_v, _stack(eta_v, r)), (f_x_l, {**_stack(eta_v), **_stack(eta_c, r)})]
        if b is not None and kappa is not None:
            one = tangent.total.const(kappa)
            ys += ys
            rights += [(None, {(r + b,): one}), (None, {(b,): one})]
        parts += [(f_y if f is None else f_y - f, _added(e_y, rho, negate=True))
                  for (f_y, e_y), (f, rho) in zip(ys, rights)]
    return (_stack([d for d, _ in parts]),
            {(e, *key): g for e, (_, row) in enumerate(parts) for key, g in row.items()})


def verify_action_formulas(
    spec: LiftedStructureSpec,
    x: TensorField,
    seed: int | None = None,
    *, ctx: Optional[LiftContext] = None,
) -> CheckReport:
    """Check J's action on X^v and X^L against the engine-derived right sides.

    The derived displays are

        J X^v = (FX)^v + t * sum (eta^a X)^v xi_a^L
        J X^c = (FX)^c + s * sum (eta^a X)^v xi_a^v + t * sum (eta^a X)^c xi_a^c
        J X^h = (FX)^h + s * sum (eta^a X)^v xi_a^v
        J xi_b^v = t*kappa * xi_b^L,   J xi_b^L = s*kappa * xi_b^v

    (eta^h(X^h) = 0 identically, so the horizontal X^h display has no third
    term).  When (lift kind, s, t) matches a catalogued theorem the derived
    coefficients are compared against the claimed display; any discrepancy is
    recorded as a structured erratum note rather than silently adopted.
    """
    return action_report(spec, [x], seed, ctx=ctx)


def action_report(
    spec: LiftedStructureSpec,
    fields: Sequence[TensorField] | None = None,
    seed: int | None = None,
    *, ctx: Optional[LiftContext] = None,
) -> CheckReport:
    """The action checks of ``verify_action_formulas`` over several test fields,
    entries field by field, then each note once.

    Default test fields: every base frame field d/dx_i plus every xi_alpha.
    """
    base = spec.base
    ctx = ctx or _context(spec)
    fields = None if fields is None else tuple(fields)
    if any(x.valence != (1, 0) or x.chart != base.chart for x in fields or ()):
        raise LiftError("action check needs a (1,0) field on the base chart")
    kind, s, t = spec.lift_kind, spec.s, spec.t
    lift_name = "c" if kind == COMPLETE else "h"
    claims = THEOREMS[spec.theorem].claims if spec.theorem else None
    tag_actions = f"post-{spec.theorem or '4.x'}"
    kappa = ctx.memoised("kappa", lambda: _pairing_sign(ctx))
    xs, roles = _action_fields(ctx, base, fields)[:2]

    names = []
    for label, b in roles:
        names += [
            f"[X={label}] J(X^v) - [(FX)^v + ({t:+d})*sum (eta X)^v xi^{lift_name}]",
            f"[X={label}] J(X^{lift_name}) - [(FX)^{lift_name} + ({s:+d})*sum (eta X)^v xi^v"
            + (f" + ({t:+d})*sum (eta X)^c xi^c]" if kind == COMPLETE else "]"),
        ]
        # xi rows, when X is literally one of the structure's xi fields
        if b is not None and kappa is not None:
            names += [f"J(xi_{b + 1}^v) - ({t * kappa:+d})*xi_{b + 1}^{lift_name}",
                      f"J(xi_{b + 1}^{lift_name}) - ({s * kappa:+d})*xi_{b + 1}^v"]
    # D + sum_i sigma_i g_i X_i for every entry: one (entries x 2r)(2r x 2m) product
    d, c = _action_parts(ctx, spec, fields, kappa)
    total = ctx.tangent.total
    signed = [_signed(g, x) for g, x in zip(_sigma(ctx, s, t), ctx.xi)]
    sums = _contract(c, _stack(signed), total.coords)
    entries = [new_entry(name, tag_actions, residual, seed) for name, residual
               in zip(names, _unstack(total, (1, 0), _added(d, sums), len(names)))]

    report = CheckReport(entries=entries)
    if claims is not None and xs:
        if claims.uses_u_symbol:
            report.notes.append(
                f"[erratum {tag_actions}-u-symbol] catalogued displays write the xi factors "
                f"as U_alpha^{lift_name}, U_alpha^v, symbols defined nowhere; verified here "
                f"under the presumption U_alpha = xi_alpha (presumption recorded, not asserted)"
            )
        if (claims.xv, claims.xl_v) != (spec.t, spec.s):
            report.notes.append(
                f"[erratum {tag_actions}-x-display] catalogued X-action coefficients "
                f"({claims.xv:+d}, {claims.xl_v:+d}) differ from the derived ({spec.t:+d}, {spec.s:+d})"
            )
        if kind == COMPLETE and claims.xl_l != spec.t:
            report.notes.append(
                f"[erratum {tag_actions}-x-display] catalogued (eta X)^c xi^c coefficient "
                f"{claims.xl_l:+d} differs from the derived {spec.t:+d}"
            )
        if kind == HORIZONTAL:
            report.notes.append(
                f"[note {tag_actions}-eta-h-term] catalogued X^h display carries a "
                f"((eta X))^h xi^h term; eta^h(X^h) = 0 identically and functions have no "
                f"horizontal lift, so the derived display omits it"
            )
        if kappa is not None and any(b is not None for _, b in roles):
            if claims.xi_v_sign != spec.t * kappa:
                report.notes.append(
                    f"[erratum {tag_actions}-xi-v-sign] catalogued J(xi_beta^v) = "
                    f"({claims.xi_v_sign:+d})*xi_beta^{lift_name} conflicts with its own delta "
                    f"contraction; derived J(xi_beta^v) = ({spec.t * kappa:+d})*xi_beta^{lift_name} "
                    f"(residual verified zero)"
                )
            if claims.xi_l_sign != spec.s * kappa:
                report.notes.append(
                    f"[erratum {tag_actions}-xi-{lift_name}-sign] catalogued J(xi_beta^{lift_name}) = "
                    f"({claims.xi_l_sign:+d})*xi_beta^v; derived ({spec.s * kappa:+d})*xi_beta^v"
                )
    return report
