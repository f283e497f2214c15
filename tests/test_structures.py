"""Axiom checkers, canonical models, conjugation, lint, eps-complex eigenchecks."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import reference

from liftcheck.algebra import EpsComplex, NotUnimodular, Poly, PolyMatrix
from liftcheck.structures import (
    CONSISTENT,
    WITNESS_CAP,
    MissingMetric,
    StructureError,
    PAPER_LITERAL,
    canonical_complex,
    canonical_structure,
    check_axioms,
    check_metric,
    conjugate_structure,
    consistency_lint,
    contact_structure,
    find_witness,
    identity_entries,
    new_entry,
    random_unimodular,
)
from liftcheck.report import render_point, render_residual
from liftcheck.tensor import Chart, TensorField, endo_apply, endo_compose, outer


def test_identity_entries_run_the_indices_outermost():
    chart = Chart("M", ("x",))

    def residual(*index):
        # zero only at the first index
        return TensorField.function(chart, chart.const(sum(index)))

    table = [
        ("t1", 1, [("p{a}", residual), ("q{a}", residual)]),
        ("t2", 2, [("r{a}{b}", residual)]),
    ]
    entries = identity_entries(table, 2, seed=3)
    assert [(e.tag, e.name) for e in entries] == [
        ("t1", "p1"), ("t1", "q1"), ("t1", "p2"), ("t1", "q2"),
        ("t2", "r11"), ("t2", "r12"), ("t2", "r21"), ("t2", "r22"),
    ]
    assert [e.passed for e in entries] == [True, True, False, False, True, False, False, False]
    assert all((e.witness is None) == e.passed for e in entries)
    assert identity_entries(table, 0) == []
    # an unindexed identity has one entry, whatever r is
    zero = [("t0", 0, [("z", lambda: residual(0))])]
    assert [e.name for e in identity_entries(zero, 0)] == ["z"]
    assert [e.name for e in identity_entries(zero, 3)] == ["z"]


# perfbench's evaluator of printed polynomials, which imports no liftcheck code
_spec = importlib.util.spec_from_file_location(
    "perfbench_answers", Path(__file__).resolve().parent.parent / "perfbench" / "answers.py"
)
answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answers)

# every value the random witness search samples: k/d with |k| <= 9, 1 <= d <= 4
SAMPLE_GRID = sorted({Fraction(k, d) for k in range(-9, 10) for d in range(1, 5)})
WITNESS_CHART = Chart("M", ("x", "y"))


def grid_product(name: str, values) -> Poly:
    """prod (name - v) over the values: zero at every sample with name in them."""
    x = WITNESS_CHART.coordinate(name)
    out = WITNESS_CHART.const(1)
    for v in values:
        out = out * (x - WITNESS_CHART.const(v))
    return out


def assert_rendered_witness(poly: Poly, seed: int) -> None:
    """The entry of a nonzero residual fails with a witness at which the
    rendered residual, read back by perfbench's evaluator, is nonzero."""
    entry = new_entry("p", "t", TensorField.function(WITNESS_CHART, poly), seed)
    assert not entry.passed
    point = {name: Fraction(value) for name, value in render_point(entry.witness).items()}
    residual = render_residual(entry.residual)
    assert any(answers.evaluate(text, point) != 0 for text in residual.values())


def test_product_over_the_sample_grid_has_a_witness():
    p = grid_product("x", SAMPLE_GRID)
    assert len(SAMPLE_GRID) == 51 and p.total_degree() == 51 and len(p.terms) == 26
    assert_rendered_witness(p, seed=1729)
    # the fallback runs only after every random sample vanished
    witness = find_witness(TensorField.function(WITNESS_CHART, p), seed=1729)
    assert witness.values[0] not in SAMPLE_GRID


def test_the_descent_reads_the_first_nonzero_component():
    # two components in different variables, each zero at every sample value,
    # so every random sample vanishes and the descent's point depends on the
    # component it reads: 10 is the least integer off the grid, and the other
    # variable stays 0
    grid_x, grid_y = grid_product("x", SAMPLE_GRID), grid_product("y", SAMPLE_GRID)
    for first, second, point in ((grid_x, grid_y, (10, 0)), (grid_y, grid_x, (0, 10))):
        residual = TensorField.endo(WITNESS_CHART, [[0, first], [second, 0]])
        assert find_witness(residual, seed=1729).values == point


@settings(max_examples=40, deadline=None)
@given(
    terms=st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * 2), st.integers(-5, 5).filter(bool), min_size=1, max_size=4
    ),
    # a whole grid in both variables vanishes at every sample point
    roots=st.lists(
        st.tuples(st.sampled_from("xy"), st.one_of(
            st.just(tuple(SAMPLE_GRID)), st.lists(st.sampled_from(SAMPLE_GRID), max_size=6)
        )),
        max_size=2,
    ),
    seed=st.integers(0, 2**16),
)
@example(terms={(1, 1): 3}, roots=[("x", tuple(SAMPLE_GRID)), ("y", tuple(SAMPLE_GRID))], seed=0)
def test_every_nonzero_residual_gets_a_witness(terms, roots, seed):
    p = Poly(WITNESS_CHART.coords, terms)
    for name, values in roots:
        p = p * grid_product(name, values)
    assert_rendered_witness(p, seed)


@settings(max_examples=60, deadline=None)
@given(
    parts=st.lists(
        st.tuples(
            st.dictionaries(
                st.tuples(*[st.integers(0, 3)] * 2),
                st.fractions(-5, 5, max_denominator=6).filter(bool),
                max_size=4,
            ),
            # a factor x - x0 makes the component vanish at the first sample
            st.booleans(),
        ),
        min_size=4, max_size=4,
    ),
    seed=st.integers(0, 2**16),
)
@example(parts=[({(1, 0): Fraction(1, 3)}, True), ({}, False), ({}, False),
                ({(0, 2): Fraction(-2, 5), (0, 0): 1}, True)], seed=1729)
# components in disjoint variables, so each one's tables differ from those of
# all of them: x alone (vanishing at the first sample), then y alone or a constant
@example(parts=[({(3, 0): 2}, True), ({(0, 2): Fraction(1, 2), (0, 0): -1}, False), ({}, False),
                ({(0, 1): -3}, False)], seed=1729)
@example(parts=[({(1, 0): 4}, True), ({}, False), ({(0, 0): Fraction(-5, 6)}, False),
                ({(0, 3): 1}, False)], seed=7)
@example(parts=[({(0, 3): -1, (0, 0): 2}, False), ({(2, 0): Fraction(2, 3)}, True),
                ({(1, 0): 1}, False), ({}, False)], seed=0)
def test_find_witness_returns_the_first_sample_of_the_reference_loop(parts, seed):
    x0 = reference.sample_values(random.Random(seed), 2)[0]
    first = WITNESS_CHART.coordinate("x") - WITNESS_CHART.const(x0)
    comps = [Poly(WITNESS_CHART.coords, terms) * (first if vanish else 1) for terms, vanish in parts]
    residual = TensorField.endo(WITNESS_CHART, [comps[:2], comps[2:]])
    if residual.is_zero():
        return
    expected = reference.first_witness(
        [c.terms for _, c in residual.nonzero_items()], 2, seed, WITNESS_CAP
    )
    assert expected is not None
    assert find_witness(residual, seed).values == expected


def test_canonical_f_matrix():
    s = canonical_structure(1, 1, -1, "riemannian")
    expected = TensorField.endo(s.chart, [[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    assert s.f == expected
    assert s.chart.coords == ("a1", "b1", "c1")


def test_canonical_pairing_values():
    riem = canonical_structure(1, 1, -1, "riemannian")
    lor = canonical_structure(1, 1, -1, "lorentzian")
    from liftcheck.tensor import oneform_apply

    assert oneform_apply(riem.eta[0], riem.xi[0]).comps == Poly.const(1, riem.chart.coords)
    assert oneform_apply(lor.eta[0], lor.xi[0]).comps == Poly.const(-1, lor.chart.coords)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("signature", ["riemannian", "lorentzian"])
@pytest.mark.parametrize("mode", [PAPER_LITERAL, CONSISTENT])
def test_canonical_axioms_pass_eps_minus_one(n, r, signature, mode):
    s = canonical_structure(n, r, -1, signature)
    report = check_axioms(s, mode=mode)
    assert report.overall
    assert any("sampled rank(F)" in note for note in report.notes)


def test_paper_literal_squaring_fails_for_plus_one():
    # direct expansion: both sides applied to xi differ by (eps+1)*xi, so for
    # eps=+1 the squaring residual is -2 * xi (x) eta on the degenerate block
    s = canonical_structure(1, 1, 1, "riemannian")
    report = check_axioms(s, mode=PAPER_LITERAL)
    assert not report.overall
    failing = report.failed()
    assert len(failing) == 1
    entry = failing[0]
    assert entry.name.startswith("F^2")
    assert entry.residual == outer(s.xi[0], s.eta[0]).scale(-2)
    assert entry.witness is not None
    values = entry.witness.mapping()
    # the witness must actually expose a nonzero residual component
    assert any(
        comp.eval_at(values) != 0 for _, comp in entry.residual.nonzero_items()
    )


def test_consistent_mode_admits_paracontact():
    s = canonical_structure(1, 1, 1, "riemannian")
    assert check_axioms(s, mode=CONSISTENT).overall
    lor = canonical_structure(2, 1, 1, "lorentzian")
    assert check_axioms(lor, mode=CONSISTENT).overall


def test_check_metric_canonical():
    for signature in ("riemannian", "lorentzian"):
        s = canonical_structure(1, 2, -1, signature)
        report = check_metric(s)
        assert report.overall
    assert any("positive definite" in n for n in check_metric(
        canonical_structure(1, 1, -1, "riemannian")).notes)


def test_check_metric_missing():
    s = canonical_structure(1, 1, -1, "riemannian")
    stripped = contact_structure(
        s.chart, s.f, s.xi[0], s.eta[0], s.epsilon, s.signature
    )
    with pytest.raises(MissingMetric):
        check_metric(stripped)


@pytest.mark.parametrize("entries, named", [
    ({(0, 1): 3, (1, 0): -3}, "metric[1,2] != metric[2,1]"),
    # a twin that is zero, and the first pair in index order is named
    ({(2, 1): "a1", (0, 2): 1, (2, 0): 1}, "metric[2,3] != metric[3,2]"),
])
def test_a_metric_that_is_not_symmetric_is_refused(entries, named):
    s = canonical_structure(1, 1, -1, "riemannian")
    g = {(i, i): 1 for i in range(3)}
    g.update({k: s.chart.coordinate(v) if isinstance(v, str) else v for k, v in entries.items()})

    def with_metric(g):
        metric = TensorField.from_entries(s.chart, (0, 2), g)
        return contact_structure(s.chart, s.f, s.xi[0], s.eta[0], s.epsilon, s.signature, metric)

    with pytest.raises(StructureError) as err:
        with_metric(g)
    assert str(err.value) == f"metric is not symmetric: {named}"
    # with each entry's transpose made equal to it, the metric is taken
    with_metric({**g, **{k[::-1]: v for k, v in g.items() if k[0] > k[1]}})


def test_check_metric_rescaled_eta_mutant():
    # G stays the identity but eta doubles: the pullback residual picks up
    # exactly 3 * dc (x) dc on the degenerate block
    s = canonical_structure(1, 1, -1, "riemannian")
    mutant = contact_structure(
        s.chart, s.f, s.xi[0], s.eta[0].scale(2), s.epsilon, s.signature, s.metric
    )
    report = check_metric(mutant)
    assert not report.overall
    entry = report.entries[0]
    dc = TensorField.basis_oneform(s.chart, "c1")
    expected = TensorField.bilinear(
        s.chart, [[a * b for b in dc.comps] for a in dc.comps]
    ).scale(3)
    assert entry.residual == expected


def test_conjugation_by_identity_and_shear():
    s = canonical_structure(1, 1, -1, "riemannian")
    ident = PolyMatrix.identity(3, s.chart.coords)
    assert conjugate_structure(s, ident) == s

    # shear mixing a1 into c1 with a polynomial entry
    rows = [list(row) for row in ident.entries]
    rows[2][0] = Poly(s.chart.coords, {(2, 0, 0): 1})
    u = PolyMatrix(rows)
    conj = conjugate_structure(s, u)
    assert check_axioms(conj).overall
    assert check_metric(conj).overall
    from liftcheck.tensor import oneform_apply

    for a in range(s.r):
        for b in range(s.r):
            assert oneform_apply(conj.eta[a], conj.xi[b]) == oneform_apply(
                s.eta[a], s.xi[b]
            )


def test_conjugation_rejects_bad_inverse():
    s = canonical_structure(1, 1, -1, "riemannian")
    ident = PolyMatrix.identity(3, s.chart.coords)
    rows = [list(row) for row in ident.entries]
    rows[0][1] = Poly.const(1, s.chart.coords)
    u = PolyMatrix(rows)
    with pytest.raises(NotUnimodular):
        conjugate_structure(s, u, u)  # u is not its own inverse


def test_random_conjugations_preserve_all_residuals():
    rng = random.Random(99)
    s = canonical_structure(1, 2, -1, "lorentzian")
    for _ in range(6):
        u, uinv = random_unimodular(s.chart, rng, max_shears=4, max_degree=2)
        conj = conjugate_structure(s, u, uinv)
        assert check_axioms(conj).overall
        assert check_metric(conj).overall


def test_conjugation_preserves_failing_residuals_too():
    # a model that fails paper-literal squaring keeps failing after conjugation,
    # with the same failing identity
    rng = random.Random(123)
    s = canonical_structure(1, 1, 1, "riemannian")
    before = check_axioms(s, mode=PAPER_LITERAL)
    u, uinv = random_unimodular(s.chart, rng, max_shears=3, max_degree=2)
    conj = conjugate_structure(s, u, uinv)
    after = check_axioms(conj, mode=PAPER_LITERAL)
    assert [e.name for e in before.failed()] == [e.name for e in after.failed()]
    assert not after.overall
    # and the consistent-mode verdict stays green on both
    assert check_axioms(s, mode=CONSISTENT).overall
    assert check_axioms(conj, mode=CONSISTENT).overall


def test_conjugation_exercises_unimodular_inverse():
    rng = random.Random(5)
    s = canonical_structure(1, 1, -1, "riemannian")
    u, _ = random_unimodular(s.chart, rng, max_shears=3, max_degree=2)
    conj = conjugate_structure(s, u)  # inverse computed by Faddeev-LeVerrier
    assert check_axioms(conj).overall


def test_random_unimodular_refuses_a_chart_or_bounds_it_cannot_draw_from():
    # a one-coordinate chart has no pair i != j to shear, zero shears leave
    # nothing to draw from and a negative degree has no monomial; each is
    # refused before any draw, where the first hung and the second raised a
    # bare ValueError
    one, three = Chart("M", ("c1",)), canonical_structure(1, 1, -1, "riemannian").chart
    for chart, shears, degree in ((one, 4, 2), (three, 0, 2), (three, 4, -1)):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(StructureError):
            random_unimodular(chart, rng, max_shears=shears, max_degree=degree)
        assert rng.getstate() == state
    # a valid call draws the matrices it drew before the check
    u, u_inv = random_unimodular(three, random.Random(5), max_shears=3, max_degree=2)
    assert repr(u) == "PolyMatrix[1, 0, 0; -2*a1^2 - 2*c1, 1, -2*c1; 0, 0, 1]"
    assert repr(u_inv) == "PolyMatrix[1, 0, 0; 2*a1^2 + 2*c1, 1, 2*c1; 0, 0, 1]"


# -- lint ----------------------------------------------------------------------


def brute_force_forced_eps(family, signature):
    """Apply F^2 = eps*I + p*sum xi(x)eta to every xi on a canonical-type model
    and return the eps for which the residual vanishes, independently of lint."""
    from liftcheck.structures import _FAMILY_TABLE

    p, kappa, _tag = _FAMILY_TABLE[(family, signature)]
    # canonical model with the requested pairing: r = 1, n = 1
    s = canonical_structure(1, 1, -1, signature)
    admitted = []
    for eps in (-1, 1):
        ok = True
        rhs = TensorField.identity_endo(s.chart).scale(eps) + s.sum_outer().scale(p)
        f2 = endo_compose(s.f, s.f)
        for xi in s.xi:
            if not (endo_apply(f2, xi) - endo_apply(rhs, xi)).is_zero():
                ok = False
        if ok:
            admitted.append(eps)
    assert len(admitted) == 1
    return admitted[0]


@pytest.mark.parametrize(
    "family,signature,forced",
    [
        ("r-contact", "riemannian", -1),
        ("r-contact", "lorentzian", -1),
        ("contact", "riemannian", 1),
        ("contact", "lorentzian", 1),
    ],
)
def test_lint_forced_eps_matches_brute_force(family, signature, forced):
    assert brute_force_forced_eps(family, signature) == forced
    for eps in (-1, 1):
        notes = consistency_lint(family, eps, signature)
        assert f"forcing eps = {forced:+d}" in notes[0]
        if eps == forced:
            assert "is CONSISTENT" in notes[1]
        else:
            assert "INCONSISTENT" in notes[1]


def test_lint_consistent_family_admits_both():
    for eps in (-1, 1):
        for signature in ("riemannian", "lorentzian"):
            notes = consistency_lint("consistent", eps, signature)
            assert "satisfiable for both eps" in notes[0]
            # cross-check: the canonical model with that eps passes consistent mode
            s = canonical_structure(1, 1, eps, signature)
            assert check_axioms(s, mode=CONSISTENT).overall


# -- canonical eps-complex block -------------------------------------------------


def test_canonical_complex_squares():
    for eps in (-1, 1):
        j, report = canonical_complex(1, eps)
        ident = TensorField.identity_endo(j.chart)
        assert endo_compose(j, j) == ident.scale(eps)
        assert report.overall


def test_canonical_complex_eigenvalues():
    for eps in (-1, 1):
        _, report = canonical_complex(2, eps)
        minus = [e for e in report.entries if "-i*eps" in e.name]
        plus = [e for e in report.entries if "+i*eps" in e.name]
        assert len(minus) == 2 and all(e.passed for e in minus)
        assert len(plus) == 2 and all(e.passed for e in plus)
        dual = [e for e in report.entries if e.name == "(J*)^2 = eps*I"]
        assert len(dual) == 1 and dual[0].passed


def test_eigenvalue_square_is_eps_in_eps_arithmetic():
    for eps in (-1, 1):
        lam = EpsComplex(0, -eps, eps)
        assert lam * lam == EpsComplex(eps, 0, eps)
