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

with P = F^2 - eps*I: P plus one rank-4r product per (s, t) cell.  The lift
context computes F X_i, E_i o F and the pairing matrix E_i(X_j) once, from
its own lifts, for these residuals and the interaction tables alike; the
pairings are never replaced by the values the paper claims for them.  Per
context, P is one square of a 2m x 2m field, and the sums over j are two
products, the pairing's v columns times eta^v and its L columns times eta^L,
which each cell combines with its signs.  J itself is assembled only for the
action formulas and ``build_lifted_j``.

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
    lift_connection,
    lift_function,
    lift_vector,
)
from .structures import CheckEntry, CheckReport, RContactStructure, new_entry
from .tensor import (
    TensorField,
    _outer_sum,
    _signed,
    endo_apply,
    endo_compose,
    oneform_apply,
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
    return LiftContext.build(spec.base, spec.lift_kind, spec.conn, spec.suffix)


def _sigma(ctx: LiftContext, s: int, t: int) -> tuple[int, ...]:
    """The sign of each lifted pair X_i (x) E_i: s for the r v lifts, t for the r L lifts."""
    r = len(ctx.xi_v)
    return (s,) * r + (t,) * r


def _assemble_j(ctx: LiftContext, s: int, t: int) -> TensorField:
    signed = [_signed(g, w) for g, w in zip(_sigma(ctx, s, t), ctx.eta)]
    return ctx.f_lift + _outer_sum(ctx.tangent.total, ctx.xi, signed)


def _lifted_j(ctx: LiftContext, s: int, t: int) -> TensorField:
    return ctx.memoised(("j", s, t), lambda: _assemble_j(ctx, s, t))


def build_lifted_j(spec: LiftedStructureSpec, *, ctx: Optional[LiftContext] = None) -> TensorField:
    """Assemble J = F^L + s*sum xi^v(x)eta^v + t*sum xi^L(x)eta^L on the total chart."""
    return _lifted_j(ctx or _context(spec), spec.s, spec.t)


def _square_offset(ctx: LiftContext, eps: int) -> TensorField:
    """P = (F^L)^2 - eps*I."""
    def build():
        total, f = ctx.tangent.total, ctx.f_lift
        one = total.const(eps)
        return TensorField._trusted(total, (1, 1), tuple(
            tuple(c - one if i == k else c for k, c in enumerate(row))
            for i, row in enumerate(endo_compose(f, f).comps)
        ))
    return ctx.memoised(("p", eps), build)


def _folds(ctx: LiftContext) -> tuple[tuple[TensorField, ...], tuple[TensorField, ...]]:
    """Per i, the one-forms sum_b E_i(xi_b^v) eta^b,v and sum_b E_i(xi_b^L) eta^b,L:
    the pairing matrix's v columns times eta^v and its L columns times eta^L."""
    def build():
        total, r = ctx.tangent.total, len(ctx.xi_v)

        def fold(columns: slice, etas) -> tuple[TensorField, ...]:
            cols = [[w.comps[j] for w in etas] for j in range(total.dim)]
            rows = [row[columns] for row in ctx.pairing]
            return tuple(
                TensorField._trusted(total, (0, 1), tuple(row))
                for row in _contract(rows, cols, total.zero_poly())
            )
        return fold(slice(0, r), ctx.eta_v), fold(slice(r, 2 * r), ctx.eta_l)
    return ctx.memoised("folds", build)


def _plus(w: TensorField, sign: int, x: TensorField) -> TensorField:
    """w + sign * x for sign in {-1, +1}."""
    return w + x if sign > 0 else w - x


def _square_residual(ctx: LiftContext, eps: int, s: int, t: int) -> TensorField:
    """J^2 - eps*I for the cell (s, t): P plus one rank-4r outer-product sum."""
    sigma = _sigma(ctx, s, t)
    rights = [_signed(g, w) for g, w in zip(sigma, ctx.eta)]
    for g, w, fold_v, fold_l in zip(sigma, ctx.eta_f, *_folds(ctx)):
        rights.append(_plus(_plus(_signed(g, w), g * s, fold_v), g * t, fold_l))
    return _square_offset(ctx, eps) + _outer_sum(ctx.tangent.total, ctx.f_xi + ctx.xi, rights)


def _verdict(spec: LiftedStructureSpec, ctx: LiftContext, seed: int | None) -> CheckEntry:
    """The J^2 entry, tagged by the result of the catalogued theorem of its
    cell, or J^2 for a cell no theorem names."""
    def build():
        eps = spec.base.epsilon
        residual = _square_residual(ctx, eps, spec.s, spec.t)
        tag = THEOREMS[spec.theorem].result if spec.theorem else "J^2"
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
    block = [row[r:] for row in ctx.pairing[:r]]
    for kappa in (1, -1) if r else ():
        if all(value == (kappa if a == b else 0)
               for a, row in enumerate(block) for b, value in enumerate(row)):
            return kappa
    return None


def _squaring_coefficient(ctx: LiftContext, eps: int) -> Optional[int]:
    """c with (F^L)^2 = eps*I + c * sum(xi^v(x)eta^L + xi^L(x)eta^v), computed."""
    p = _square_offset(ctx, eps)
    d = _outer_sum(ctx.tangent.total, ctx.xi, ctx.eta_l + ctx.eta_v)
    if p.is_zero() and d.is_zero():
        return 0
    if (p - d).is_zero():
        return 1
    if (p + d).is_zero():
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
    nonzero = [(coord, c) for coord, c in zip(base.chart.coords, x.comps) if c.terms]
    if len(nonzero) == 1:
        ((coord, c),) = nonzero
        if c.is_constant() and c.constant_value() == 1:
            return f"d/d{coord}", None
    return "X", None


def _plus_sum(total: TensorField, sign: int, fields, factors) -> TensorField:
    """total + sign * sum factor * field over vector fields and scalar factors, the
    sum as one (dim x r)(r) product."""
    chart = total.chart
    rows = [[f.comps[i] for f in fields] for i in range(chart.dim)]
    column = _contract(rows, [[g.comps for g in factors]], chart.zero_poly())
    combined = TensorField.vector(chart, [c for (c,) in column])
    return _plus(total, sign, combined)


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
    if fields is None:
        fields = [
            TensorField.basis_vector(base.chart, coord) for coord in base.chart.coords
        ]
        for x in base.xi:
            if x not in fields:
                fields.append(x)
    ctx = ctx or _context(spec)
    tangent = ctx.tangent
    kind = spec.lift_kind
    j = _lifted_j(ctx, spec.s, spec.t)
    lift_name = "c" if kind == COMPLETE else "h"
    claims = THEOREMS[spec.theorem].claims if spec.theorem else None
    tag_actions = f"post-{spec.theorem or '4.x'}"
    kappa = ctx.memoised("kappa", lambda: _pairing_sign(ctx))

    entries = []
    xi_rows = False
    for x in fields:
        if x.valence != (1, 0) or x.chart != base.chart:
            raise LiftError("action check needs a (1,0) field on the base chart")
        label, b = _field_role(x, base)
        if b is None:
            x_v = lift_vector(x, VERTICAL, tangent)
            x_l = lift_vector(x, kind, tangent, spec.conn)
        else:
            x_v, x_l = ctx.xi_v[b], ctx.xi_l[b]
        j_xv, j_xl = endo_apply(j, x_v), endo_apply(j, x_l)
        fx = endo_apply(base.f, x)
        eta_x = [oneform_apply(w, x) for w in base.eta]
        eta_x_v = [lift_function(g, VERTICAL, tangent) for g in eta_x]

        rhs_v = _plus_sum(lift_vector(fx, VERTICAL, tangent), spec.t, ctx.xi_l, eta_x_v)
        entries.append(new_entry(
            f"[X={label}] J(X^v) - [(FX)^v + ({spec.t:+d})*sum (eta X)^v xi^{lift_name}]",
            tag_actions, j_xv - rhs_v, seed,
        ))
        rhs_l = _plus_sum(lift_vector(fx, kind, tangent, spec.conn), spec.s, ctx.xi_v, eta_x_v)
        if kind == COMPLETE:
            eta_x_c = [lift_function(g, COMPLETE, tangent) for g in eta_x]
            rhs_l = _plus_sum(rhs_l, spec.t, ctx.xi_l, eta_x_c)
            name_l = (
                f"[X={label}] J(X^c) - [(FX)^c + ({spec.s:+d})*sum (eta X)^v xi^v"
                f" + ({spec.t:+d})*sum (eta X)^c xi^c]"
            )
        else:
            name_l = f"[X={label}] J(X^h) - [(FX)^h + ({spec.s:+d})*sum (eta X)^v xi^v]"
        entries.append(new_entry(name_l, tag_actions, j_xl - rhs_l, seed))

        # xi rows, when X is literally one of the structure's xi fields
        if b is not None and kappa is not None:
            xi_rows = True
            tk, sk = spec.t * kappa, spec.s * kappa
            entries.append(new_entry(
                f"J(xi_{b + 1}^v) - ({tk:+d})*xi_{b + 1}^{lift_name}",
                tag_actions, _plus(j_xv, -tk, x_l), seed,
            ))
            entries.append(new_entry(
                f"J(xi_{b + 1}^{lift_name}) - ({sk:+d})*xi_{b + 1}^v",
                tag_actions, _plus(j_xl, -sk, x_v), seed,
            ))

    report = CheckReport(entries=entries)
    if claims is not None and fields:
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
        if xi_rows:
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
