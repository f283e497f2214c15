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

The residuals are computed, not predicted.  Write F = F^L, V = sum xi^v (x)
eta^v and L = sum xi^L (x) eta^L.  Since s^2 = t^2 = 1, distributivity and
associativity alone give

    J^2 - eps*I = P + s*(FV + VF) + t*(FL + LF) + V^2 + L^2 + s*t*(VL + LV)

with P = F^2 - eps*I, and every term but P is a sum of outer products:
FV = sum (F xi_a^v) (x) eta^a,v, VF = sum xi_a^v (x) (eta^a,v o F), and
VL = sum xi_a^v (x) sum_b eta^a,v(xi_b^L) eta^b,L, likewise for V^2, L^2 and
LV.  So each cell's residual is P plus one rank-4r product

    sum_a (F xi_a^v) (x) s*eta^a,v + (F xi_a^L) (x) t*eta^a,L
        + xi_a^v (x) [s*(eta^a,v o F) + sum_b (eta^a,v(xi_b^v) eta^b,v
                                            + s*t*eta^a,v(xi_b^L) eta^b,L)]
        + xi_a^L (x) [t*(eta^a,L o F) + sum_b (eta^a,L(xi_b^L) eta^b,L
                                            + s*t*eta^a,L(xi_b^v) eta^b,v)]

One lift context computes P (the one square of a 2m x 2m field), F xi,
eta o F and the four r x r pairing matrices once, from its own lifts; the
pairings are never replaced by the values the paper claims for them.  J
itself is assembled only for the action formulas and ``build_lifted_j``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

from .algebra import Poly, _contract
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
    Point,
    TensorField,
    _outer_sum,
    _signed,
    endo_apply,
    endo_compose,
    oneform_after_endo,
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


@dataclass(frozen=True)
class TheoremVerdict:
    """The J^2 = eps*I check of one spec: the check entry of its residual,
    which carries the verdict and, on failure, a witness."""

    spec: LiftedStructureSpec
    entry: CheckEntry

    @property
    def passed(self) -> bool:
        return self.entry.passed

    @property
    def residual(self) -> TensorField:
        return self.entry.residual

    @property
    def witness(self) -> Optional[Point]:
        return self.entry.witness

    @property
    def s(self) -> int:
        return self.spec.s

    @property
    def t(self) -> int:
        return self.spec.t

    @property
    def epsilon(self) -> int:
        return self.spec.base.epsilon

    @property
    def signature(self) -> str:
        return self.spec.base.signature


@dataclass
class SignSweep:
    """The verdicts of all four (s, t) cells plus the computed pairing and
    squaring data."""

    rows: list[TheoremVerdict]
    kappa: Optional[int]
    c: Optional[int]
    notes: list[str] = field(default_factory=list)

    def predicted(self, s: int, t: int) -> Optional[bool]:
        if self.kappa is None or self.c is None:
            return None
        return s * t * self.kappa == -self.c

    @property
    def matches_law(self) -> bool:
        return all(
            self.predicted(row.s, row.t) == row.passed
            for row in self.rows
            if self.predicted(row.s, row.t) is not None
        )

    def passing_cells(self) -> list[tuple[int, int]]:
        return [(row.s, row.t) for row in self.rows if row.passed]


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


def _assemble_j(ctx: LiftContext, s: int, t: int) -> TensorField:
    total = ctx.tangent.total
    v_sum = _outer_sum(total, ctx.xi_v, ctx.eta_v)
    l_sum = _outer_sum(total, ctx.xi_l, ctx.eta_l)
    j = ctx.f_lift + v_sum if s > 0 else ctx.f_lift - v_sum
    return j + l_sum if t > 0 else j - l_sum


def _lifted_j(ctx: LiftContext, s: int, t: int) -> TensorField:
    return ctx.memoised(("j", s, t), lambda: _assemble_j(ctx, s, t))


def build_lifted_j(spec: LiftedStructureSpec, *, ctx: Optional[LiftContext] = None) -> TensorField:
    """Assemble J = F^L + s*sum xi^v(x)eta^v + t*sum xi^L(x)eta^L on the total chart."""
    return _lifted_j(ctx or _context(spec), spec.s, spec.t)


def _pairings(ctx: LiftContext) -> dict[str, list[list[Poly]]]:
    """The r x r pairing matrices eta^a,U(xi_b^W), keyed U + W for U, W in
    {v, l} (l for the context's lift kind), each one ``_contract`` product."""
    def build():
        zero = ctx.tangent.total.zero_poly()
        etas = {"v": ctx.eta_v, "l": ctx.eta_l}
        xis = {"v": ctx.xi_v, "l": ctx.xi_l}
        return {
            u + w: _contract([e.comps for e in etas[u]], [x.comps for x in xis[w]], zero)
            for u in "vl" for w in "vl"
        }
    return ctx.memoised("pairings", build)


@dataclass(frozen=True)
class _SquareParts:
    """The parts of J^2 - eps*I that no sign changes, for one context: P =
    (F^L)^2 - eps*I, the 4r left factors F^L xi^v, F^L xi^L, xi^v, xi^L, and
    per a the one-forms eta^a o F^L and sum_b eta^a(xi_b) eta^b (see the
    module docstring)."""

    p: TensorField
    lefts: tuple[TensorField, ...]
    eta_f_v: tuple[TensorField, ...]
    eta_f_l: tuple[TensorField, ...]
    folds: dict[str, tuple[TensorField, ...]]


def _square_parts(ctx: LiftContext, eps: int) -> _SquareParts:
    def build():
        total, f = ctx.tangent.total, ctx.f_lift
        f2 = endo_compose(f, f)
        one = total.const(eps)
        p = TensorField._trusted(total, (1, 1), tuple(
            tuple(c - one if i == k else c for k, c in enumerate(row))
            for i, row in enumerate(f2.comps)
        ))
        lefts = tuple(endo_apply(f, x) for x in ctx.xi_v + ctx.xi_l) + ctx.xi_v + ctx.xi_l
        cols = {
            key: [[w.comps[j] for w in etas] for j in range(total.dim)]
            for key, etas in (("v", ctx.eta_v), ("l", ctx.eta_l))
        }
        folds = {
            key: tuple(
                TensorField._trusted(total, (0, 1), tuple(row))
                for row in _contract(pairing, cols[key[1]], total.zero_poly())
            )
            for key, pairing in _pairings(ctx).items()
        }
        return _SquareParts(
            p, lefts,
            tuple(oneform_after_endo(w, f) for w in ctx.eta_v),
            tuple(oneform_after_endo(w, f) for w in ctx.eta_l),
            folds,
        )
    return ctx.memoised(("square", eps), build)


def _square_residual(ctx: LiftContext, eps: int, s: int, t: int) -> TensorField:
    """J^2 - eps*I for the cell (s, t): P plus one rank-4r outer-product sum."""
    parts = _square_parts(ctx, eps)
    folds, st = parts.folds, s * t

    rights = [_signed(s, w) for w in ctx.eta_v] + [_signed(t, w) for w in ctx.eta_l]
    for sign, eta_f, square, cross in (
        (s, parts.eta_f_v, folds["vv"], folds["vl"]),
        (t, parts.eta_f_l, folds["ll"], folds["lv"]),
    ):
        for w, q, x in zip(eta_f, square, cross):
            w = _signed(sign, w) + q
            rights.append(w + x if st > 0 else w - x)
    return parts.p + _outer_sum(ctx.tangent.total, parts.lefts, rights)


def _verdict(spec: LiftedStructureSpec, ctx: LiftContext, seed: int | None) -> TheoremVerdict:
    return ctx.memoised(("verdict", spec.s, spec.t, seed), lambda: _check_square(spec, ctx, seed))


def _check_square(spec: LiftedStructureSpec, ctx: LiftContext, seed: int | None) -> TheoremVerdict:
    """The J^2 entry, tagged by the result of the catalogued theorem of its
    cell, or J^2 for a cell no theorem names."""
    eps = spec.base.epsilon
    residual = _square_residual(ctx, eps, spec.s, spec.t)
    tag = THEOREMS[spec.theorem].result if spec.theorem else "J^2"
    return TheoremVerdict(spec, new_entry(f"J^2 - ({eps:+d})*I", tag, residual, seed))


def verify_theorem(
    spec: LiftedStructureSpec, seed: int | None = None, *, ctx: Optional[LiftContext] = None
) -> TheoremVerdict:
    """Exact check of J^2 = eps*I; on failure the verdict carries a witness point."""
    return _verdict(spec, ctx or _context(spec), seed)


def _pairing_sign(ctx: LiftContext) -> Optional[int]:
    """kappa with eta^alpha,v(xi_beta^L) = kappa*delta, or None if non-uniform
    or r = 0."""
    kappa: Optional[int] = None
    for a, row in enumerate(_pairings(ctx)["vl"]):
        for b, value in enumerate(row):
            if a == b:
                if not value.is_constant():
                    return None
                v = value.constant_value()
                if v not in (-1, 1):
                    return None
                if kappa is None:
                    kappa = int(v)
                elif kappa != v:
                    return None
            elif not value.is_zero():
                return None
    return kappa


def _squaring_coefficient(ctx: LiftContext, eps: int) -> Optional[int]:
    """c with (F^L)^2 = eps*I + c * sum(xi^v(x)eta^L + xi^L(x)eta^v), computed."""
    p = _square_parts(ctx, eps).p
    d = _outer_sum(ctx.tangent.total, ctx.xi_v + ctx.xi_l, ctx.eta_l + ctx.eta_v)
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
    """Brute-force verdicts for all (s, t) cells, plus the predicted pass law.

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
    rows = [_verdict(replace(probe, s=s, t=t), ctx, seed) for s in (-1, 1) for t in (-1, 1)]
    sweep = SignSweep(rows=rows, kappa=kappa, c=c)
    sweep.notes.append(
        f"[sweep] computed pairing kappa = {kappa}, squaring coefficient c = {c}"
    )
    if kappa is not None and c is not None:
        cells = ", ".join(f"(s={s:+d}, t={t:+d})" for s, t in sweep.passing_cells())
        law = "matches" if sweep.matches_law else "VIOLATES"
        sweep.notes.append(
            f"[sweep] passing cells: {cells or 'none'}; pattern {law} the law s*t*kappa = -c"
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
    return total + combined if sign > 0 else total - combined


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
                tag_actions, j_xv - x_l if tk > 0 else j_xv + x_l, seed,
            ))
            entries.append(new_entry(
                f"J(xi_{b + 1}^{lift_name}) - ({sk:+d})*xi_{b + 1}^v",
                tag_actions, j_xl - x_v if sk > 0 else j_xl + x_v, seed,
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
