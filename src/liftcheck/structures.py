"""Structure containers, axiom checkers, canonical models and model mutation.

An almost r-contact structure is a tuple (F, xi_1..xi_r, eta^1..eta^r) on a
(2n+r)-dimensional chart.  Two axiom modes are supported for the squaring
identity:

  paper-literal   F^2 = eps*I + sum xi(x)eta   (riemannian pairing +delta)
                  F^2 = eps*I - sum xi(x)eta   (lorentzian pairing -delta)
  consistent      F^2 = eps*(I - kappa * sum xi(x)eta)

Applying the paper-literal identity to a xi forces eps = -1; the consistent
rewrite is satisfiable for both signs of eps.  ``consistency_lint`` reports
exactly which eps each axiom family admits, and ``check_axioms`` verifies a
concrete model against either mode, producing residual fields and witness
points instead of bare booleans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product
from typing import Optional

from .algebra import (
    _MASK, EpsComplex, NotUnimodular, Poly, PolyMatrix, _contract, _numerators_at, _offset, _unit,
)
from .tensor import (
    Chart,
    Point,
    TensorError,
    TensorField,
    _outer_sum,
    _signed,
    endo_apply,
    endo_compose,
    endo_transpose,
    leading_minors_positive,
    metric_pullback,
    oneform_after_endo,
    oneform_apply,
    random_point,
    rank_at,
)

DEFAULT_SEED = 1729
WITNESS_CAP = 256
METRIC_SAMPLES = 5  # sample points of the positive-definiteness note

RIEMANNIAN = "riemannian"
LORENTZIAN = "lorentzian"
SIGNATURES = (RIEMANNIAN, LORENTZIAN)

CONTACT_FAMILY = "contact"
R_CONTACT_FAMILY = "r-contact"
CONSISTENT_FAMILY = "consistent"

# (family, signature) -> (squaring coefficient p, pairing kappa, tag) of the
# axiom F^2 = eps*I + p * sum xi(x)eta; the consistent family rewrites the
# r-contact one (see ``_squaring_axiom``)
_FAMILY_TABLE = {
    (CONTACT_FAMILY, RIEMANNIAN): (-1, 1, "1.6"),
    (CONTACT_FAMILY, LORENTZIAN): (1, -1, "1.10"),
    (R_CONTACT_FAMILY, RIEMANNIAN): (1, 1, "1.9"),
    (R_CONTACT_FAMILY, LORENTZIAN): (-1, -1, "1.13"),
}

PAPER_LITERAL = "paper-literal"
CONSISTENT = "consistent"
# axiom mode -> the family whose squaring axiom ``check_axioms`` checks in it
AXIOM_MODES = {PAPER_LITERAL: R_CONTACT_FAMILY, CONSISTENT: CONSISTENT_FAMILY}


def _kappa(signature: str) -> int:
    """The pairing sign of a signature: eta^a(xi_b) = kappa*delta."""
    return 1 if signature == RIEMANNIAN else -1


def _squaring_axiom(family: str, signature: str, epsilon: int) -> tuple[int, int, str]:
    """(p, kappa, tag) of a family's squaring axiom; the consistent family is
    the r-contact one rewritten with p = -eps*kappa, under the tag plus "c"."""
    if family != CONSISTENT_FAMILY:
        return _FAMILY_TABLE[(family, signature)]
    _, kappa, tag = _FAMILY_TABLE[(R_CONTACT_FAMILY, signature)]
    return -epsilon * kappa, kappa, tag + "c"


class StructureError(TensorError):
    """Malformed structure tuple."""


class MissingMetric(StructureError):
    """Metric compatibility was requested but the structure carries no metric."""


# -- check reports -------------------------------------------------------------


@dataclass(frozen=True)
class CheckEntry:
    """One verified identity: residual field, verdict, witness point on failure."""

    name: str
    tag: str
    residual: TensorField
    passed: bool
    witness: Optional[Point]


@dataclass
class CheckReport:
    entries: list[CheckEntry] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(e.passed for e in self.entries)

    def failed(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.passed]

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def find_witness(residual: TensorField, seed: int | None = None) -> Point:
    """A point where some component of the nonzero residual is nonzero.

    Up to WITNESS_CAP seeded random sample points are tried first, so reports
    are reproducible.  Should all of them vanish, leading-coefficient descent
    on the first nonzero component finds a point (``_descent_point``).
    """
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    components = [c for _, c in residual.nonzero_items()]
    if not components:
        raise StructureError("a zero residual has no witness")
    for _ in range(WITNESS_CAP):
        point = random_point(residual.chart, rng)
        # a value is zero iff its numerator is, under any positive scale, so
        # each component is tested alone, over tables of its own keys only
        if any(next(_numerators_at((c,), point.values)[1]) for c in components):
            return point
    return Point(residual.chart, _descent_point(components[0]))


def _descent_point(p: Poly) -> list[Fraction]:
    """Integer values at which the nonzero p is nonzero.  p_{i+1} is the top
    coefficient of p_i in variable i, and the last is a nonzero constant; last
    variable first, p_i at the later values has degree d in variable i and a
    nonzero top coefficient, so one of 0..d is not a root (Schwartz 1980)."""
    m = len(p.variables)
    chain = [p.nums]
    for i in range(m):
        offset, unit = _offset(m, i), _unit(m, i)
        top = max(k >> offset & _MASK for k in chain[-1])
        chain.append({k - top * unit: c for k, c in chain[-1].items() if k >> offset & _MASK == top})
    values = [Fraction(0)] * m
    for i in reversed(range(m)):
        # p_i times its denominator has the same roots; over 1, it is canonical
        pi = Poly._trusted(p.variables, chain[i], 1)
        offset = _offset(m, i)
        for x in range(max(k >> offset & _MASK for k in chain[i]) + 1):
            values[i] = Fraction(x)
            if any(_numerators_at([pi], values)[1]):
                break
    return values


def new_entry(
    name: str, tag: str, residual: TensorField, seed: int | None = None
) -> CheckEntry:
    """The entry of ``residual``, made as ``CheckEntry(...)`` makes it: the
    fields go into the new instance's ``__dict__`` in one update."""
    passed = not residual.entries
    entry = object.__new__(CheckEntry)
    entry.__dict__.update(name=name, tag=tag, residual=residual, passed=passed,
                          witness=None if passed else find_witness(residual, seed))
    return entry


def identity_entries(table: list, r: int, seed: int | None = None) -> list[CheckEntry]:
    """One entry per row of an identity table and per index, the indices outermost.

    A table is a list of (tag, arity, rows) groups, a row a (name template,
    residual builder) pair for an identity indexed by a, or by a and b when
    the arity is 2.  The template is formatted with the 1-based indices; the
    builder computes the residual from the 0-based ones.
    """
    return [
        new_entry(name.format_map(names), tag, residual(*index), seed)
        for tag, arity, rows in table
        for index in product(range(r), repeat=arity)
        for names in [dict(zip("ab", (i + 1 for i in index)))]
        for name, residual in rows
    ]


# -- structure containers --------------------------------------------------------


@dataclass(frozen=True)
class RContactStructure:
    """(F, xi_alpha, eta^alpha) with eps, signature, and an optional metric."""

    chart: Chart
    f: TensorField
    xi: tuple[TensorField, ...]
    eta: tuple[TensorField, ...]
    epsilon: int
    signature: str
    n: int
    r: int
    metric: Optional[TensorField] = None

    def __post_init__(self):
        if self.epsilon not in (-1, 1):
            raise StructureError("epsilon must be -1 or +1")
        if self.signature not in SIGNATURES:
            raise StructureError(f"unknown signature {self.signature!r}")
        if self.n < 0 or self.r < 0 or (self.n, self.r) == (0, 0):
            raise StructureError("need n >= 0, r >= 0, not both zero")
        if self.chart.dim != 2 * self.n + self.r:
            raise StructureError(
                f"chart dim {self.chart.dim} != 2n + r = {2 * self.n + self.r}"
            )
        # xi and eta may be any iterables; they are read only once r fits the chart
        object.__setattr__(self, "xi", tuple(self.xi))
        object.__setattr__(self, "eta", tuple(self.eta))
        if len(self.xi) != self.r or len(self.eta) != self.r:
            raise StructureError("need exactly r xi fields and r eta fields")
        if self.f.valence != (1, 1) or self.f.chart != self.chart:
            raise StructureError("F must be a (1,1) field on the structure chart")
        for x in self.xi:
            if x.valence != (1, 0) or x.chart != self.chart:
                raise StructureError("each xi must be a (1,0) field on the chart")
        for w in self.eta:
            if w.valence != (0, 1) or w.chart != self.chart:
                raise StructureError("each eta must be a (0,1) field on the chart")
        if self.metric is not None and (
            self.metric.valence != (0, 2) or self.metric.chart != self.chart
        ):
            raise StructureError("metric must be a (0,2) field on the chart")
        g = {} if self.metric is None else self.metric.entries
        asymmetric = sorted(min(k, k[::-1]) for k, p in g.items() if g.get(k[::-1]) != p)
        if asymmetric:
            i, j = (x + 1 for x in asymmetric[0])
            raise StructureError(f"metric is not symmetric: metric[{i},{j}] != metric[{j},{i}]")

    def pairing_convention(self) -> int:
        """Expected eta(xi) diagonal: +1 riemannian, -1 lorentzian."""
        return _kappa(self.signature)

    def sum_outer(self) -> TensorField:
        """sum_alpha xi_alpha (x) eta^alpha as a (1,1) field."""
        return _outer_sum(self.chart, self.xi, self.eta)


def contact_structure(
    chart: Chart,
    phi: TensorField,
    xi: TensorField,
    eta: TensorField,
    epsilon: int,
    signature: str = RIEMANNIAN,
    metric: Optional[TensorField] = None,
) -> RContactStructure:
    """The r = 1 special case (phi, xi, eta) on an odd-dimensional chart."""
    if chart.dim % 2 == 0:
        raise StructureError("contact structure needs an odd-dimensional chart")
    return RContactStructure(
        chart=chart,
        f=phi,
        xi=(xi,),
        eta=(eta,),
        epsilon=epsilon,
        signature=signature,
        n=(chart.dim - 1) // 2,
        r=1,
        metric=metric,
    )


# -- axiom checks ----------------------------------------------------------------


def check_axioms(
    structure: RContactStructure,
    mode: str = PAPER_LITERAL,
    seed: int | None = None,
) -> CheckReport:
    """Residuals for the pairing, kernel, annihilator and squaring axioms."""
    if mode not in AXIOM_MODES:
        raise StructureError(f"unknown axiom mode {mode!r}")
    s = structure
    p, kappa, tag = _squaring_axiom(AXIOM_MODES[mode], s.signature, s.epsilon)
    sign = "+" if kappa > 0 else "-"

    def pairing(a: int, b: int) -> TensorField:
        expected = TensorField.function(s.chart, s.chart.const(kappa if a == b else 0))
        return oneform_apply(s.eta[a], s.xi[b]) - expected

    def squaring() -> TensorField:
        rhs = _signed(s.epsilon, TensorField.identity_endo(s.chart)) + _signed(p, s.sum_outer())
        return endo_compose(s.f, s.f) - rhs

    report = CheckReport(entries=identity_entries([
        (tag, 2, [(f"eta^{{a}}(xi_{{b}}) - ({sign}delta)", pairing)]),
        (tag, 1, [("F(xi_{a})", lambda a: endo_apply(s.f, s.xi[a]))]),
        (tag, 1, [("eta^{a} o F", lambda a: oneform_after_endo(s.eta[a], s.f))]),
        (tag, 0, [(f"F^2 - (eps*I {'+' if p > 0 else '-'} sum xi(x)eta)", squaring)]),
    ], s.r, seed))
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    pts = [random_point(s.chart, rng) for _ in range(3)]
    sampled = rank_at(s.f, pts)
    report.notes.append(
        f"[rank] sampled rank(F) = {sampled}; generic expectation dim - r = {s.chart.dim - s.r}"
    )
    return report


def check_metric(structure: RContactStructure, seed: int | None = None) -> CheckReport:
    """Metric compatibility: pullback identity, and for riemannian structures
    also eta = G(xi, .) plus sampled positive-definiteness notes."""
    s = structure
    if s.metric is None:
        raise MissingMetric("structure has no metric")
    q = s.pairing_convention()
    tag = "1.8" if q > 0 else "1.12"

    def pullback() -> TensorField:
        eta_sq = TensorField.from_entries(s.chart, (0, 2), _outer_sum(s.chart, s.eta, s.eta).entries)
        return metric_pullback(s.metric, s.f) - s.metric + _signed(q, eta_sq)

    def lowered(a: int) -> TensorField:
        # G(xi, .)_j = xi^i G_ij
        row = _contract(s.xi[a].entries, s.metric.entries, s.chart.coords)
        return s.eta[a] - TensorField.from_entries(s.chart, (0, 1), row)

    table = [(tag, 0, [(f"G(F.,F.) - G {'+' if q > 0 else '-'} sum eta(x)eta", pullback)])]
    if s.signature == RIEMANNIAN:
        table.append((tag, 1, [("eta^{a} - G(xi_{a}, .)", lowered)]))
    report = CheckReport(entries=identity_entries(table, s.r, seed))
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    if s.signature == RIEMANNIAN:
        ok = all(
            leading_minors_positive(s.metric, random_point(s.chart, rng))
            for _ in range(METRIC_SAMPLES)
        )
        verdict = "positive" if ok else "NOT positive"
        report.notes.append(
            f"[metric] leading principal minors {verdict} definite at {METRIC_SAMPLES} sample points"
        )
    return report


# -- canonical models --------------------------------------------------------------


def canonical_chart(n: int, r: int) -> Chart:
    coords = (
        [f"a{i + 1}" for i in range(n)]
        + [f"b{i + 1}" for i in range(n)]
        + [f"c{i + 1}" for i in range(r)]
    )
    return Chart("M", tuple(coords))


def _swap_blocks(n: int, epsilon: int) -> dict[tuple[int, int], int]:
    """The entries of the endomorphism sending d/dx_i to d/dx_(n+i) and
    d/dx_(n+i) to eps * d/dx_i, for i < n."""
    return {**{(n + i, i): 1 for i in range(n)}, **{(i, n + i): epsilon for i in range(n)}}


def canonical_structure(
    n: int, r: int, epsilon: int, signature: str = RIEMANNIAN
) -> RContactStructure:
    """Minimal model: F swaps the a/b blocks (with eps), xi/eta sit on the c block.

    F(d/da_i) = d/db_i, F(d/db_i) = eps * d/da_i, F(d/dc_alpha) = 0,
    xi_alpha = d/dc_alpha, eta^alpha = dc_alpha (riemannian) or -dc_alpha
    (lorentzian); metric is diagonal +1 with -1 on the c block iff lorentzian.
    """
    if n < 1 or r < 1:
        raise StructureError("canonical structures need n >= 1 and r >= 1")
    if signature not in SIGNATURES:
        raise StructureError(f"unknown signature {signature!r}")
    chart = canonical_chart(n, r)
    f = TensorField.from_entries(chart, (1, 1), _swap_blocks(n, epsilon))
    xi = tuple(TensorField.basis_vector(chart, f"c{a + 1}") for a in range(r))
    eta_sign = _kappa(signature)
    eta = tuple(
        _signed(eta_sign, TensorField.basis_oneform(chart, f"c{a + 1}")) for a in range(r)
    )
    diag = [1] * (2 * n) + [eta_sign] * r
    metric = TensorField.from_entries(chart, (0, 2), {(i, i): v for i, v in enumerate(diag)})
    return RContactStructure(
        chart=chart,
        f=f,
        xi=xi,
        eta=eta,
        epsilon=epsilon,
        signature=signature,
        n=n,
        r=r,
        metric=metric,
    )


# -- model mutation -----------------------------------------------------------------


def conjugate_structure(
    structure: RContactStructure,
    u: PolyMatrix,
    u_inverse: Optional[PolyMatrix] = None,
) -> RContactStructure:
    """Pointwise frame change F -> U F U^-1, xi -> U xi, eta -> eta U^-1.

    Preserves every axiom residual exactly.  The inverse may be supplied
    when the caller already knows it; either way U * U^-1 = I is verified.
    """
    s = structure
    m = s.chart.dim
    if u.rows != m or u.cols != m:
        raise StructureError("conjugation matrix shape does not match the chart")
    if u.variables != s.chart.coords:
        raise StructureError("conjugation matrix lives on a different chart")
    if u_inverse is None:
        u_inverse = u.unimodular_inverse()
    if u @ u_inverse != PolyMatrix.identity(m, s.chart.coords):
        raise NotUnimodular("supplied inverse fails U * U^-1 = I")

    u_field = TensorField.endo_from_matrix(s.chart, u)
    u_inverse_field = TensorField.endo_from_matrix(s.chart, u_inverse)
    f_new = endo_compose(endo_compose(u_field, s.f), u_inverse_field)
    xi_new = tuple(endo_apply(u_field, x) for x in s.xi)
    eta_new = tuple(oneform_after_endo(w, u_inverse_field) for w in s.eta)
    metric_new = None
    if s.metric is not None:
        metric_new = metric_pullback(s.metric, u_inverse_field)
    return replace(s, f=f_new, xi=xi_new, eta=eta_new, metric=metric_new)


def random_unimodular(
    chart: Chart,
    rng: random.Random,
    max_shears: int = 4,
    max_degree: int = 2,
) -> tuple[PolyMatrix, PolyMatrix]:
    """Seeded product of elementary shears I + p*e_ij, with its exact inverse.

    Entry polynomials are monomials of total degree <= max_degree with small
    integer coefficients, so determinants stay at +1 and conjugated models
    remain desk-sized.
    """
    m = chart.dim
    # checked before any draw, so every valid call draws what it drew before
    if m < 2 or max_shears < 1 or max_degree < 0:
        raise StructureError(
            f"random_unimodular needs at least 2 coordinates (got {m}), "
            f"max_shears >= 1 (got {max_shears}) and max_degree >= 0 (got {max_degree})"
        )
    coeff_pool = (-2, -1, 1, 2)
    count = rng.randint(1, max_shears)
    factors: list[tuple[int, int, Poly]] = []
    for _ in range(count):
        i = rng.randrange(m)
        j = rng.randrange(m)
        while j == i:
            j = rng.randrange(m)
        degree = rng.randint(0, max_degree)
        exps = [0] * m
        for _ in range(degree):
            exps[rng.randrange(m)] += 1
        p = Poly(chart.coords, {tuple(exps): Fraction(rng.choice(coeff_pool))})
        factors.append((i, j, p))

    def shear(i: int, j: int, p: Poly) -> PolyMatrix:
        ident = PolyMatrix.identity(m, chart.coords)
        rows = [list(row) for row in ident.entries]
        rows[i][j] = rows[i][j] + p
        return PolyMatrix(rows)

    u = PolyMatrix.identity(m, chart.coords)
    for i, j, p in factors:
        u = u @ shear(i, j, p)
    u_inv = PolyMatrix.identity(m, chart.coords)
    for i, j, p in reversed(factors):
        u_inv = u_inv @ shear(i, j, -p)
    return u, u_inv


# -- sign-consistency lint -----------------------------------------------------------


def consistency_lint(family: str, epsilon: int, signature: str) -> list[str]:
    """Apply the squaring axiom to xi_beta symbolically and report the forced eps.

    For an axiom family F^2 = eps*I + p * sum xi(x)eta with pairing value
    kappa, the left side kills xi_beta while the right side gives
    (eps + p*kappa) * xi_beta, so the family admits models only when
    eps = -p*kappa.  The consistent rewrite chooses p = -eps*kappa and is
    therefore satisfiable for both eps.
    """
    if signature not in SIGNATURES:
        raise StructureError(f"unknown signature {signature!r}")
    if epsilon not in (-1, 1):
        raise StructureError("epsilon must be -1 or +1")
    try:
        p, kappa, tag = _squaring_axiom(family, signature, epsilon)
    except KeyError:
        raise StructureError(f"unknown axiom family {family!r}")
    rewrite = f"F^2 = eps*(I {'-' if kappa > 0 else '+'} sum xi(x)eta)"
    if family == CONSISTENT_FAMILY:
        return [
            f"[lint {tag}] {rewrite}: applied to xi_beta gives (eps - eps*kappa^2)*xi_beta = 0; "
            f"satisfiable for both eps, requested eps = {epsilon:+d} is CONSISTENT"
        ]
    forced = -p * kappa
    notes = [
        f"[lint {tag}] F^2 axiom applied to xi_beta gives (eps + ({p:+d})*({kappa:+d}))*xi_beta = 0, "
        f"forcing eps = {forced:+d}"
    ]
    if epsilon == forced:
        notes.append(f"[lint {tag}] requested eps = {epsilon:+d} is CONSISTENT")
    else:
        notes.append(
            f"[lint {tag}] requested eps = {epsilon:+d} is INCONSISTENT; "
            f"the consistent rewrite {rewrite} admits both eps"
        )
    return notes


# -- canonical eps-complex block and its eigenchecks -----------------------------------


@dataclass(frozen=True)
class EigenCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class EigenReport:
    epsilon: int
    entries: list[EigenCheck] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(e.passed for e in self.entries)


def canonical_complex(n: int, epsilon: int) -> tuple[TensorField, EigenReport]:
    """The block structure J(d/dx_i) = d/dy_i, J(d/dy_i) = eps*d/dx_i, with
    eps-complex eigenvector checks and the dual squaring check (J*)^2 = eps*I."""
    chart = Chart("C", tuple([f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)]))
    m = chart.dim
    j = TensorField.from_entries(chart, (1, 1), _swap_blocks(n, epsilon))
    report = EigenReport(epsilon=epsilon)

    def apply_j(vec: list[EpsComplex]) -> list[EpsComplex]:
        out = [EpsComplex(0, 0, epsilon) for _ in range(m)]
        for (i, k), value in j.entries.items():
            out[i] = out[i] + vec[k].scale(value.constant_value())
        return out

    half = Fraction(1, 2)
    for i in range(n):
        for im_sign, lam_im, label in (
            (-1, -epsilon, "-i*eps"),
            (1, epsilon, "+i*eps"),
        ):
            vec = [EpsComplex(0, 0, epsilon) for _ in range(m)]
            vec[i] = EpsComplex(half, 0, epsilon)
            vec[n + i] = EpsComplex(0, im_sign * half, epsilon)
            lam = EpsComplex(0, lam_im, epsilon)
            image = apply_j(vec)
            expected = [v * lam for v in vec]
            passed = all((a - b).is_zero() for a, b in zip(image, expected))
            handed = "-" if im_sign < 0 else "+"
            report.entries.append(
                EigenCheck(
                    name=f"J(1/2(dx{i + 1} {handed} i dy{i + 1})) eigenvalue {label}",
                    passed=passed,
                    detail=f"eigenvalue = (0 {'+' if lam_im >= 0 else '-'} {abs(lam_im)}i), eps = {epsilon:+d}",
                )
            )
    lam_sq = EpsComplex(0, -epsilon, epsilon) * EpsComplex(0, -epsilon, epsilon)
    report.entries.append(
        EigenCheck(
            name="eigenvalue squares back to eps",
            passed=lam_sq == EpsComplex(epsilon, 0, epsilon),
            detail=f"(-i*eps)^2 = {lam_sq.re} with eps = {epsilon:+d}",
        )
    )
    dual = endo_transpose(j)
    dual_sq = endo_compose(dual, dual)
    eps_identity = _signed(epsilon, TensorField.identity_endo(chart))
    report.entries.append(
        EigenCheck(
            name="(J*)^2 = eps*I",
            passed=(dual_sq - eps_identity).is_zero(),
            detail="dual endomorphism squares to eps times identity",
        )
    )
    return j, report
