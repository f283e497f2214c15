"""Lifted structure assembly, squaring verdicts, sign sweeps, action formulas."""

import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from liftcheck.algebra import Poly
from liftcheck.lifts import (
    COMPLETE,
    DEFAULT_FIBER_SUFFIX,
    HORIZONTAL,
    VERTICAL,
    Connection,
    LiftError,
    _contexts,
    lift_connection,
    verify_lift_interactions,
)
from liftcheck.structures import (
    RContactStructure,
    canonical_structure,
    conjugate_structure,
    random_unimodular,
)
from liftcheck.tensor import (
    Chart,
    TensorField,
    endo_apply,
    endo_compose,
    oneform_after_endo,
    oneform_apply,
    outer,
)
from liftcheck.theorems import (
    LiftedStructureSpec,
    _assemble_j,
    action_report,
    build_lifted_j,
    sign_sweep,
    theorem_spec,
    verify_action_formulas,
    verify_theorem,
)


def spec_for(structure, kind=COMPLETE, s=1, t=-1, conn=None):
    return LiftedStructureSpec(base=structure, lift_kind=kind, s=s, t=t, conn=conn)


def test_lifted_j_matrix_canonical_riemannian():
    # assembled column by column: rotation on (a,b) and (a_dot,b_dot) blocks,
    # d/dc -> d/dc_dot and d/dc_dot -> -d/dc
    s = canonical_structure(1, 1, -1, "riemannian")
    j = build_lifted_j(theorem_spec("4.1", s))
    # columns: a1 b1 c1 a1_dot b1_dot c1_dot; rows the same order
    expected = [
        [0, -1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, -1, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0],
    ]
    assert j == TensorField.endo(j.chart, expected)


def test_lorentzian_42_matrix_matches_riemannian_41():
    # the eta sign and the (s,t) signs cancel entry by entry
    riem = canonical_structure(1, 1, -1, "riemannian")
    lor = canonical_structure(1, 1, -1, "lorentzian")
    j1 = build_lifted_j(theorem_spec("4.1", riem))
    j2 = build_lifted_j(theorem_spec("4.2", lor))
    assert j1.comps == j2.comps


def test_degenerate_r_zero_gives_plain_complete_lift():
    chart = Chart("M", ("a1", "b1"))
    f = TensorField.endo(chart, [[0, -1], [1, 0]])
    base = RContactStructure(
        chart=chart, f=f, xi=(), eta=(), epsilon=-1, signature="riemannian", n=1, r=0
    )
    spec = spec_for(base)
    j = build_lifted_j(spec)
    from liftcheck.lifts import TangentChart, lift_endo

    assert j == lift_endo(f, COMPLETE, TangentChart.over(chart))
    assert verify_theorem(spec).passed


@pytest.mark.parametrize("tag,signature", [("4.1", "riemannian"), ("4.2", "lorentzian")])
def test_complete_theorems_on_canonical_models(tag, signature):
    for n, r in ((1, 1), (2, 1), (1, 2)):
        s = canonical_structure(n, r, -1, signature)
        verdict = verify_theorem(theorem_spec(tag, s))
        assert verdict.passed and verdict.residual.is_zero()


@pytest.mark.parametrize("tag,signature", [("4.3", "riemannian"), ("4.4", "lorentzian")])
def test_horizontal_theorems_flat_and_nonflat(tag, signature):
    s = canonical_structure(1, 1, -1, signature)
    assert verify_theorem(theorem_spec(tag, s)).passed  # flat by default
    # Gamma^c1_{a1 a1} = a1
    conn = Connection.from_entries(s.chart, {(2, 0, 0): s.chart.coordinate("a1")})
    assert verify_theorem(theorem_spec(tag, s, conn=conn)).passed


def test_horizontal_theorem_connection_independence():
    s = canonical_structure(1, 1, -1, "riemannian")
    rng = random.Random(21)
    for _ in range(4):
        entries = {}
        for _ in range(rng.randint(1, 5)):
            i, j, k = rng.randrange(3), rng.randrange(3), rng.randrange(3)
            terms = {
                tuple(rng.randint(0, 2) for _ in range(3)): Fraction(
                    rng.randint(-3, 3), rng.randint(1, 2)
                )
            }
            entries[(i, j, k)] = Poly(s.chart.coords, terms)
        conn = Connection.from_entries(s.chart, entries)
        assert verify_theorem(theorem_spec("4.3", s, conn=conn)).passed


def test_complete_and_horizontal_agree_for_flat_constant_data():
    s = canonical_structure(2, 1, -1, "riemannian")
    j_complete = build_lifted_j(theorem_spec("4.1", s))
    j_horizontal = build_lifted_j(theorem_spec("4.3", s))  # flat connection
    assert j_complete == j_horizontal


def test_theorems_on_conjugated_models():
    rng = random.Random(22)
    for signature, tag in (("riemannian", "4.1"), ("lorentzian", "4.2")):
        s = canonical_structure(1, 1, -1, signature)
        for _ in range(3):
            u, uinv = random_unimodular(s.chart, rng, max_shears=3, max_degree=2)
            conj = conjugate_structure(s, u, uinv)
            assert verify_theorem(theorem_spec(tag, conj)).passed


def test_failing_cell_produces_witness():
    s = canonical_structure(1, 1, -1, "riemannian")
    bad = spec_for(s, s=1, t=1)  # s*t != eps
    verdict = verify_theorem(bad)
    assert not verdict.passed
    assert verdict.witness is not None
    values = verdict.witness.mapping()
    assert any(
        comp.eval_at(values) != 0 for _, comp in verdict.residual.nonzero_items()
    )


def _differential_model(n, r, eps, signature, rng, mutant):
    """A conjugated model with n, r (r = 0 included) and, if ``mutant``, its F
    perturbed and, for r > 0, its eta rescaled by a non-constant factor."""
    if r:
        base = canonical_structure(n, r, eps, signature)
    else:
        chart = Chart("M", tuple(f"{p}{i + 1}" for p in "ab" for i in range(n)))
        z, one = chart.zero_poly(), chart.const(1)
        rows = [[z] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            rows[n + i][i], rows[i][n + i] = one, chart.const(eps)
        base = RContactStructure(
            chart=chart, f=TensorField.endo(chart, rows), xi=(), eta=(),
            epsilon=eps, signature=signature, n=n, r=0,
        )
    u, uinv = random_unimodular(base.chart, rng, max_shears=3, max_degree=1)
    model = conjugate_structure(base, u, uinv)
    if mutant:
        chart = model.chart
        bump = TensorField.endo(chart, [
            [chart.coordinate(chart.coords[0]) if (i, j) == (0, chart.dim - 1) else 0
             for j in range(chart.dim)]
            for i in range(chart.dim)
        ])
        # a non-constant eta(xi) makes eta^c(xi^c) nonzero, the one pairing
        # that J^2 reads and the paper's models make vanish
        factor = chart.const(2) + chart.coordinate(chart.coords[0])
        model = replace(model, f=model.f + bump, eta=tuple(w.scale(factor) for w in model.eta))
    return model


@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("eps,signature", [(-1, "riemannian"), (1, "riemannian"),
                                           (-1, "lorentzian"), (1, "lorentzian")])
def test_square_residual_matches_the_dense_square(r, eps, signature):
    """Every sweep cell's residual, read from (F^L)^2 and the rank-4r sum, is
    the dense endo_compose(J, J) - eps*I of the assembled J."""
    rng = random.Random(f"square-{r}-{eps}-{signature}")
    n = 1 if r > 1 else 2
    for mutant in (False, True):
        model = _differential_model(n, r, eps, signature, rng, mutant)
        chart = model.chart
        nonflat = Connection.from_entries(chart, {
            (0, 0, 1): chart.coordinate(chart.coords[-1]),
            (chart.dim - 1, 0, 0): chart.const(2),
        })
        for kind, conn in ((COMPLETE, None), (HORIZONTAL, None), (HORIZONTAL, nonflat)):
            sweep = sign_sweep(model, kind, conn=conn)
            for (s, t), entry in sweep.cells.items():
                j = build_lifted_j(spec_for(model, kind, s, t, lift_connection(kind, conn, chart)))
                dense = endo_compose(j, j) - TensorField.identity_endo(j.chart).scale(eps)
                assert entry.residual == dense, (r, eps, signature, mutant, kind, s, t)
                assert entry.passed == dense.is_zero()
            if mutant:
                assert not sweep.passing_cells()


def _pairing_residual(lifted, a, w, b, x, sign):
    value = oneform_apply(lifted[w].eta_l[int(a) - 1], lifted[x].xi_l[int(b) - 1])
    expected = {"+": 1, "-": -1}[sign] if sign and a == b else 0
    return value - TensorField.function(value.chart, expected)


# (entry name pattern, its residual from the named lifts); a lift is named by
# its letter: v, c or h
_TABLE_ROWS = [
    (re.compile(r"F\^(\w)\(xi_(\d+)\^(\w)\)$"),
     lambda lifted, f, a, x: endo_apply(lifted[f].f_lift, lifted[x].xi_l[int(a) - 1])),
    (re.compile(r"eta\^(\d+)(\w) o F\^(\w)$"),
     lambda lifted, a, w, f: oneform_after_endo(lifted[w].eta_l[int(a) - 1], lifted[f].f_lift)),
    (re.compile(r"eta\^(\d+)(\w)\(xi_(\d+)\^(\w)\)(?: - \(([+-])delta\))?$"), _pairing_residual),
]


def _direct_residual(lifted, name):
    """The residual of the interaction-table entry ``name``, computed from the
    lifts of the contexts by one tensor product, as its name spells it."""
    for pattern, direct in _TABLE_ROWS:
        match = pattern.match(name)
        if match:
            return direct(lifted, *match.groups())
    raise AssertionError(f"no direct product for entry {name!r}")


@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("eps,signature", [(-1, "riemannian"), (1, "riemannian"),
                                           (-1, "lorentzian"), (1, "lorentzian")])
def test_context_products_match_the_direct_products(r, eps, signature):
    """Every interaction-table residual and every J read from the lift
    context's products equals the direct product of the context's lifts; on
    valid models every block is zero, so only this test sees a product read
    from the wrong position."""
    rng = random.Random(f"products-{r}-{eps}-{signature}")
    n = 1 if r > 1 else 2
    for mutant in (False, True):
        model = _differential_model(n, r, eps, signature, rng, mutant)
        chart = model.chart
        if mutant and r > 1:
            # eta^1(xi_2) != eta^2(xi_1), so a pairing read transposed shows
            shifted = model.eta[0] + model.eta[1].scale(chart.coordinate(chart.coords[0]))
            model = replace(model, eta=(shifted,) + model.eta[1:])
        nonflat = Connection.from_entries(chart, {
            (0, 0, 1): chart.coordinate(chart.coords[-1]),
            (chart.dim - 1, 0, 0): chart.const(2),
        })
        for conn in (None, nonflat):
            contexts = _contexts(model, conn, DEFAULT_FIBER_SUFFIX)
            report = verify_lift_interactions(model, conn=conn, contexts=contexts)
            lifted = {"v": contexts(VERTICAL), "c": contexts(COMPLETE)}
            if conn is not None:
                lifted["h"] = contexts(HORIZONTAL)
            # complete: 5 rows of r entries, 4 of r^2; horizontal: 4 of r, 3 of r^2
            assert len(report.entries) == 5 * r + 4 * r * r + (4 * r + 3 * r * r if conn else 0)
            for entry in report.entries:
                assert entry.residual == _direct_residual(lifted, entry.name), (mutant, entry.name)

            for kind in (COMPLETE, HORIZONTAL) if conn else (COMPLETE,):
                ctx = contexts(kind)
                zero = TensorField.identity_endo(ctx.tangent.total).scale(0)
                v_sum = sum((outer(x, w) for x, w in zip(ctx.xi_v, ctx.eta_v)), zero)
                l_sum = sum((outer(x, w) for x, w in zip(ctx.xi_l, ctx.eta_l)), zero)
                for s in (-1, 1):
                    for t in (-1, 1):
                        expected = ctx.f_lift + v_sum.scale(s) + l_sum.scale(t)
                        assert _assemble_j(ctx, s, t) == expected, (mutant, kind, s, t)


# -- sign sweeps ------------------------------------------------------------------


def test_sweep_riemannian_contact():
    sweep = sign_sweep(canonical_structure(1, 1, -1, "riemannian"), COMPLETE)
    assert sweep.kappa == 1 and sweep.c == 1
    assert sorted(sweep.passing_cells()) == [(-1, 1), (1, -1)]
    assert sweep.matches_law


def test_sweep_lorentzian_contact():
    sweep = sign_sweep(canonical_structure(1, 1, -1, "lorentzian"), COMPLETE)
    assert sweep.kappa == -1 and sweep.c == -1
    assert sorted(sweep.passing_cells()) == [(-1, 1), (1, -1)]
    assert sweep.matches_law


def test_sweep_paracontact_consistent():
    sweep = sign_sweep(canonical_structure(1, 1, 1, "riemannian"), COMPLETE)
    assert sweep.kappa == 1 and sweep.c == -1
    assert sorted(sweep.passing_cells()) == [(-1, -1), (1, 1)]
    assert sweep.matches_law
    assert sweep.cells[1, -1].witness is not None


def test_sweep_law_holds_on_conjugated_variants():
    rng = random.Random(33)
    for eps, signature in ((-1, "riemannian"), (1, "riemannian"), (-1, "lorentzian")):
        base = canonical_structure(1, 1, eps, signature)
        u, uinv = random_unimodular(base.chart, rng, max_shears=3, max_degree=1)
        conj = conjugate_structure(base, u, uinv)
        sweep = sign_sweep(conj, COMPLETE)
        assert sweep.matches_law
        for (s, t), entry in sweep.cells.items():
            assert entry.passed == sweep.predicted(s, t)
            if not entry.passed:
                assert entry.witness is not None


def test_sweep_horizontal_matches_complete_pattern():
    s = canonical_structure(1, 1, -1, "riemannian")
    conn = Connection.from_entries(s.chart, {(0, 1, 1): s.chart.coordinate("b1")})
    sweep = sign_sweep(s, HORIZONTAL, conn=conn)
    assert sorted(sweep.passing_cells()) == [(-1, 1), (1, -1)]
    assert sweep.matches_law


# -- action formulas -----------------------------------------------------------------


def test_actions_eta_annihilated_field():
    # X = d/da1 has eta(X) = 0, so J X^v = (FX)^v and J X^c = (FX)^c
    s = canonical_structure(1, 1, -1, "riemannian")
    spec = theorem_spec("4.1", s)
    report = verify_action_formulas(spec, TensorField.basis_vector(s.chart, "a1"))
    assert report.overall
    from liftcheck.lifts import TangentChart, lift_vector, VERTICAL
    from liftcheck.tensor import endo_apply

    tangent = TangentChart.over(s.chart)
    j = build_lifted_j(spec)
    x = TensorField.basis_vector(s.chart, "a1")
    fx = endo_apply(s.f, x)
    assert endo_apply(j, lift_vector(x, VERTICAL, tangent)) == lift_vector(
        fx, VERTICAL, tangent
    )
    assert endo_apply(j, lift_vector(x, COMPLETE, tangent)) == lift_vector(
        fx, COMPLETE, tangent
    )


def test_actions_on_xi_derive_corrected_signs():
    s = canonical_structure(1, 1, -1, "riemannian")
    spec = theorem_spec("4.1", s)
    report = verify_action_formulas(spec, s.xi[0])
    assert report.overall
    names = [e.name for e in report.entries]
    assert "J(xi_1^v) - (-1)*xi_1^c" in names
    assert "J(xi_1^c) - (+1)*xi_1^v" in names


def test_action_report_emits_exactly_two_errata_for_41():
    s = canonical_structure(1, 1, -1, "riemannian")
    report = action_report(theorem_spec("4.1", s))
    assert report.overall
    errata = [n for n in report.notes if n.startswith("[erratum")]
    assert len(errata) == 2
    assert any("u-symbol" in n for n in errata)
    assert any("xi-v-sign" in n for n in errata)


def test_action_report_42_emits_sign_erratum_only():
    s = canonical_structure(1, 1, -1, "lorentzian")
    report = action_report(theorem_spec("4.2", s))
    assert report.overall
    errata = [n for n in report.notes if n.startswith("[erratum")]
    assert len(errata) == 1 and "xi-v-sign" in errata[0]


def test_spec_validation():
    s = canonical_structure(1, 1, -1, "riemannian")
    with pytest.raises(LiftError):
        LiftedStructureSpec(base=s, lift_kind=HORIZONTAL, s=1, t=-1)
    with pytest.raises(LiftError):
        LiftedStructureSpec(base=s, lift_kind=COMPLETE, s=2, t=-1)
    with pytest.raises(LiftError):
        theorem_spec("4.9", s)


# -- action reports: field roles, notes, recorded names -------------------------------


def test_field_role_labels():
    from liftcheck.theorems import _field_role

    s = canonical_structure(1, 1, -1, "riemannian")
    d_a1 = TensorField.basis_vector(s.chart, "a1")
    d_b1 = TensorField.basis_vector(s.chart, "b1")
    assert _field_role(d_a1, s) == ("d/da1", None)
    # xi_1 = d/dc1 here, and xi is matched first
    assert _field_role(s.xi[0], s) == ("xi_1", 0)
    assert _field_role(TensorField.basis_vector(s.chart, "c1"), s) == ("xi_1", 0)
    assert _field_role(d_a1.scale(2), s) == ("X", None)
    assert _field_role(d_a1 + d_b1, s) == ("X", None)
    for x in (d_a1.scale(2), d_a1 + d_b1):
        report = verify_action_formulas(theorem_spec("4.1", s), x)
        assert all(e.name.startswith("[X=X] ") for e in report.entries)


def test_single_field_action_notes():
    s = canonical_structure(1, 1, -1, "riemannian")
    spec = theorem_spec("4.1", s)
    plain = verify_action_formulas(spec, TensorField.basis_vector(s.chart, "a1"))
    assert not any("xi-v-sign" in n for n in plain.notes)
    assert [n.split("]")[0] for n in plain.notes] == ["[erratum post-4.1-u-symbol"]
    on_xi = verify_action_formulas(spec, s.xi[0])
    assert [n.split("]")[0] for n in on_xi.notes] == [
        "[erratum post-4.1-u-symbol", "[erratum post-4.1-xi-v-sign"
    ]


def _conjugated_riemannian():
    rng = random.Random(5)
    base = canonical_structure(1, 1, -1, "riemannian")
    u, uinv = random_unimodular(base.chart, rng, max_shears=3, max_degree=1)
    return conjugate_structure(base, u, uinv)


_FRAME_ACTIONS = {
    "c": "[X={x}] J(X^v) - [(FX)^v + (-1)*sum (eta X)^v xi^c]|"
         "[X={x}] J(X^c) - [(FX)^c + (+1)*sum (eta X)^v xi^v + (-1)*sum (eta X)^c xi^c]",
    "h": "[X={x}] J(X^v) - [(FX)^v + (-1)*sum (eta X)^v xi^h]|"
         "[X={x}] J(X^h) - [(FX)^h + (+1)*sum (eta X)^v xi^v]",
}
_U_SYMBOL_41 = (
    "[erratum post-4.1-u-symbol] catalogued displays write the xi factors as U_alpha^c, "
    "U_alpha^v, symbols defined nowhere; verified here under the presumption "
    "U_alpha = xi_alpha (presumption recorded, not asserted)"
)
_XI_V_SIGN = (
    "[erratum post-4.{tag}-xi-v-sign] catalogued J(xi_beta^v) = (+1)*xi_beta^{l} conflicts "
    "with its own delta contraction; derived J(xi_beta^v) = (-1)*xi_beta^{l} "
    "(residual verified zero)"
)
_ETA_H_43 = (
    "[note post-4.3-eta-h-term] catalogued X^h display carries a ((eta X))^h xi^h term; "
    "eta^h(X^h) = 0 identically and functions have no horizontal lift, so the derived "
    "display omits it"
)


def _frame_names(lift, labels):
    return [name.format(x=x) for x in labels for name in _FRAME_ACTIONS[lift].split("|")]


def test_action_report_on_conjugated_model_matches_recorded():
    # xi_1 = -2*c1 d/db1 + d/dc1 here, not a frame field; names and notes as recorded
    # before the report was built in one pass
    conj = _conjugated_riemannian()
    assert [str(c) for c in conj.xi[0].comps] == ["0", "-2*c1", "1"]
    labels = ("d/da1", "d/db1", "d/dc1", "xi_1")
    report = action_report(theorem_spec("4.1", conj))
    assert report.overall
    assert [e.name for e in report.entries] == _frame_names("c", labels) + [
        "J(xi_1^v) - (-1)*xi_1^c", "J(xi_1^c) - (+1)*xi_1^v"
    ]
    assert report.notes == [_U_SYMBOL_41, _XI_V_SIGN.format(tag=1, l="c")]

    conn = Connection.from_entries(conj.chart, {(2, 0, 0): conj.chart.coordinate("a1")})
    report = action_report(theorem_spec("4.3", conj, conn=conn))
    assert report.overall
    assert [e.name for e in report.entries] == _frame_names("h", labels) + [
        "J(xi_1^v) - (-1)*xi_1^h", "J(xi_1^h) - (+1)*xi_1^v"
    ]
    assert report.notes == [_ETA_H_43, _XI_V_SIGN.format(tag=3, l="h")]

    # eta rescaled by 2: the pairing is not +-1, so there are no xi rows or xi notes
    mutant = replace(conj, eta=tuple(w.scale(2) for w in conj.eta))
    report = action_report(theorem_spec("4.1", mutant))
    assert report.overall
    assert [e.name for e in report.entries] == _frame_names("c", labels)
    assert report.notes == [_U_SYMBOL_41]
