"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every check is an exact polynomial identity (zero residual in
canonical form); there are no numeric tolerances anywhere.
"""

import json
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from liftcheck.algebra import EpsComplex, Poly
from liftcheck.definition import emit_definition, parse_definition
from liftcheck.lifts import (
    COMPLETE,
    HORIZONTAL,
    VERTICAL,
    Connection,
    TangentChart,
    lift_endo,
    lift_oneform,
    lift_vector,
    verify_lift_interactions,
)
from liftcheck.structures import (
    CONSISTENT,
    PAPER_LITERAL,
    canonical_complex,
    canonical_structure,
    check_axioms,
    check_metric,
    conjugate_structure,
    consistency_lint,
    contact_structure,
    random_unimodular,
)
from liftcheck.tensor import TensorField, endo_apply, endo_compose, oneform_apply, outer
from liftcheck.theorems import (
    action_report,
    build_lifted_j,
    sign_sweep,
    theorem_spec,
    verify_theorem,
)

ROOT = Path(__file__).resolve().parent.parent
DEFS = ROOT / "defs"
GOLDEN = ROOT / "tests" / "golden"

NR_GRID = [(n, r) for n in (1, 2, 3) for r in (1, 2, 3)]
SIGNATURES = ("riemannian", "lorentzian")


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {name}: FAIL")
        raise
    print(f"[criterion {number:02d}] {name}: PASS")


def conjugations(structure, count, seed_key, max_shears=4, max_degree=2):
    rng = random.Random(seed_key)
    out = []
    for _ in range(count):
        u, uinv = random_unimodular(structure.chart, rng, max_shears, max_degree)
        out.append(conjugate_structure(structure, u, uinv))
    return out


def test_criterion_01_lift_interaction_tables():
    with criterion(1, "lift-interaction tables, canonical + 20 conjugations"):
        for n, r in NR_GRID:
            for signature in SIGNATURES:
                base = canonical_structure(n, r, -1, signature)
                models = [base] + conjugations(base, 20, f"c1-{n}-{r}-{signature}")
                flat = Connection.flat(base.chart)
                for model in models:
                    report = verify_lift_interactions(model, conn=flat)
                    assert report.overall, (n, r, signature)
                # pairing values are the exact +delta / -delta expected per signature
                kappa = 1 if signature == "riemannian" else -1
                tangent = TangentChart.over(base.chart)
                for a in range(r):
                    for b in range(r):
                        value = oneform_apply(
                            lift_oneform(base.eta[a], VERTICAL, tangent),
                            lift_vector(base.xi[b], COMPLETE, tangent),
                        )
                        expected = kappa if a == b else 0
                        assert value.comps == tangent.total.const(expected)
        # one non-flat connection exercises the horizontal rows off the flat case
        for n, r in ((1, 1), (2, 2)):
            base = canonical_structure(n, r, -1, "riemannian")
            conn = Connection.from_entries(
                base.chart,
                {(base.chart.dim - 1, 0, 0): base.chart.coordinate("a1")},
            )
            for model in [base] + conjugations(base, 3, f"c1nf-{n}-{r}", 3, 2):
                assert verify_lift_interactions(model, conn=conn).overall


def test_criterion_02_square_of_complete_lift():
    with criterion(2, "(F^c)^2 = (F^2)^c and its xi/eta expansion pattern"):
        for n, r in NR_GRID:
            for signature in SIGNATURES:
                for eps, mode in ((-1, PAPER_LITERAL), (1, CONSISTENT)):
                    base = canonical_structure(n, r, eps, signature)
                    assert check_axioms(base, mode=mode).overall
                    tangent = TangentChart.over(base.chart)
                    f_c = lift_endo(base.f, COMPLETE, tangent)
                    square = endo_compose(f_c, f_c)
                    f2_c = lift_endo(endo_compose(base.f, base.f), COMPLETE, tangent)
                    assert square == f2_c
                    # expansion: eps*I + c * sum(xi^v(x)eta^c + xi^c(x)eta^v)
                    kappa = 1 if signature == "riemannian" else -1
                    c = -eps * kappa
                    expansion = TensorField.identity_endo(tangent.total).scale(eps)
                    for x, w in zip(base.xi, base.eta):
                        cross = outer(
                            lift_vector(x, VERTICAL, tangent),
                            lift_oneform(w, COMPLETE, tangent),
                        ) + outer(
                            lift_vector(x, COMPLETE, tangent),
                            lift_oneform(w, VERTICAL, tangent),
                        )
                        expansion = expansion + cross.scale(c)
                    assert square == expansion
                    if eps == -1:
                        # c = +1 for the riemannian pattern, -1 for the
                        # distributed-minus lorentzian pattern
                        assert c == (1 if signature == "riemannian" else -1)


def test_criterion_03_complete_lift_theorems():
    with criterion(3, "instances 4.1 and 4.2: J^2 + I = 0 exactly"):
        for n, r in NR_GRID:
            for signature, tag in (("riemannian", "4.1"), ("lorentzian", "4.2")):
                base = canonical_structure(n, r, -1, signature)
                models = [base] + conjugations(
                    base, 2, f"c3-{n}-{r}-{signature}", max_shears=3, max_degree=2
                )
                for model in models:
                    spec = theorem_spec(tag, model)
                    verdict = verify_theorem(spec)
                    assert verdict.passed and verdict.residual.is_zero(), (n, r, tag)
                    # J^2 + I = 0 spelled out, not just via the verdict
                    j = build_lifted_j(spec)
                    total_identity = TensorField.identity_endo(j.chart)
                    assert (endo_compose(j, j) + total_identity).is_zero()


def test_criterion_04_horizontal_lift_theorems():
    with criterion(4, "instances 4.3 and 4.4: flat plus 3 non-flat connections"):
        rng = random.Random("c4-connections")
        for n, r in ((1, 1), (2, 1), (2, 2)):
            for signature, tag in (("riemannian", "4.3"), ("lorentzian", "4.4")):
                base = canonical_structure(n, r, -1, signature)
                conns = [Connection.flat(base.chart)]
                m = base.chart.dim
                for _ in range(3):
                    entries = {}
                    for _ in range(rng.randint(2, 5)):
                        i, j, k = (
                            rng.randrange(m),
                            rng.randrange(m),
                            rng.randrange(m),
                        )
                        exps = [0] * m
                        for _ in range(rng.randint(0, 2)):  # degree <= 2
                            exps[rng.randrange(m)] += 1
                        entries[(i, j, k)] = Poly(
                            base.chart.coords, {tuple(exps): rng.choice((-2, -1, 1, 2))}
                        )
                    conns.append(Connection.from_entries(base.chart, entries))
                for conn in conns:
                    verdict = verify_theorem(theorem_spec(tag, base, conn=conn))
                    assert verdict.passed and verdict.residual.is_zero(), (n, r, tag)


def test_criterion_05_sign_ledger():
    with criterion(5, "(s,t) sweep matches the law s*t*kappa = -c in all cells"):
        cells = 0
        for signature in SIGNATURES:
            for eps in (-1, 1):
                base = canonical_structure(1, 1, eps, signature)
                assert check_axioms(base, mode=CONSISTENT).overall
                for kind in (COMPLETE, HORIZONTAL):
                    sweep = sign_sweep(base, kind)
                    assert sweep.kappa is not None and sweep.c is not None
                    assert sweep.matches_law, (signature, eps, kind)
                    for row in sweep.rows:
                        assert row.passed == sweep.predicted(row.s, row.t)
                        cells += 1
        assert cells == 32  # 4 structures x 2 lift kinds x 4 sign cells
        # the catalogued (+1,-1) choice: passes the eps=-1 contact cell ...
        riem = sign_sweep(canonical_structure(1, 1, -1, "riemannian"), COMPLETE)
        assert (1, -1) in riem.passing_cells()
        # ... and fails the eps=+1 consistent paracontact cell, with a witness
        para = sign_sweep(canonical_structure(1, 1, 1, "riemannian"), COMPLETE)
        assert (1, -1) not in para.passing_cells()
        witness = next(row.witness for row in para.rows if (row.s, row.t) == (1, -1))
        assert witness is not None
        spec = theorem_spec("4.1", canonical_structure(1, 1, 1, "riemannian"))
        residual = verify_theorem(spec).residual
        values = witness.mapping()
        assert any(
            comp.eval_at(values) != 0 for _, comp in residual.nonzero_items()
        )


def test_criterion_06_action_formulas_golden():
    with criterion(6, "action formulas: zero residuals, exactly two errata, golden"):
        base = canonical_structure(1, 1, -1, "riemannian")
        fields = [
            TensorField.basis_vector(base.chart, "a1"),
            TensorField.basis_vector(base.chart, "b1"),
            base.xi[0],
        ]
        report = action_report(theorem_spec("4.1", base), fields=fields)
        assert report.overall
        errata = [n for n in report.notes if n.startswith("[erratum")]
        assert len(errata) == 2
        assert any("u-symbol" in n for n in errata)
        assert any("xi-v-sign" in n for n in errata)
        # golden byte comparison through the CLI machine format
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "liftcheck",
                "run",
                str(GOLDEN / "actions_41.def"),
                "--format",
                "machine",
            ],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "actions_41.json").read_text(encoding="utf-8")


def test_criterion_07_metric_compatibility():
    with criterion(7, "metric compatibility residuals, plus the rescaled-eta mutant"):
        for n, r in ((1, 1), (2, 2), (3, 1)):
            for signature in SIGNATURES:
                base = canonical_structure(n, r, -1, signature)
                assert check_metric(base).overall, (n, r, signature)
        base = canonical_structure(1, 1, -1, "riemannian")
        mutant = contact_structure(
            base.chart,
            base.f,
            base.xi[0],
            base.eta[0].scale(2),
            base.epsilon,
            base.signature,
            base.metric,
        )
        report = check_metric(mutant)
        assert not report.overall
        dc = TensorField.basis_oneform(base.chart, "c1")
        predicted = TensorField.bilinear(
            base.chart, [[a * b for b in dc.comps] for a in dc.comps]
        ).scale(3)
        assert report.entries[0].residual == predicted


def test_criterion_08_consistency_lint():
    with criterion(8, "forced-eps lint, cross-checked by brute-force residuals"):
        expectations = {
            ("r-contact", "riemannian"): -1,   # tag 1.9
            ("r-contact", "lorentzian"): -1,   # tag 1.13
            ("contact", "riemannian"): 1,      # tag 1.6
            ("contact", "lorentzian"): 1,      # tag 1.10
        }
        for (family, signature), forced in expectations.items():
            for eps in (-1, 1):
                notes = consistency_lint(family, eps, signature)
                assert f"forcing eps = {forced:+d}" in notes[0]
                lint_ok = "is CONSISTENT" in notes[1]
                # brute force: apply the F^2 axiom to every xi_beta on a
                # canonical-pairing model and test the residual directly
                from liftcheck.structures import _FAMILY_TABLE

                p, kappa, _tag = _FAMILY_TABLE[(family, signature)]
                model = canonical_structure(2, 2, -1, signature)
                rhs = TensorField.identity_endo(model.chart).scale(eps) + (
                    model.sum_outer().scale(p)
                )
                f2 = endo_compose(model.f, model.f)
                brute_ok = all(
                    (endo_apply(f2, xi) - endo_apply(rhs, xi)).is_zero()
                    for xi in model.xi
                )
                assert lint_ok == brute_ok == (eps == forced), (family, signature, eps)
        for signature in SIGNATURES:
            for eps in (-1, 1):
                notes = consistency_lint("consistent", eps, signature)
                assert "satisfiable for both eps" in notes[0]
                assert check_axioms(
                    canonical_structure(1, 1, eps, signature), mode=CONSISTENT
                ).overall


def test_criterion_09_eps_complex_eigenchecks():
    with criterion(9, "eps-complex eigenvalues -i*eps / +i*eps and (J*)^2 = eps*I"):
        for eps in (-1, 1):
            for n in (1, 2):
                j, report = canonical_complex(n, eps)
                assert report.overall, (n, eps)
                assert endo_compose(j, j) == TensorField.identity_endo(j.chart).scale(eps)
            lam = EpsComplex(0, -eps, eps)
            assert lam * lam == EpsComplex(eps, 0, eps)


def test_criterion_10_cli_round_trip_demo_determinism():
    with criterion(10, "def round trips, demo exit 0, byte-identical machine reports"):
        def_files = sorted(DEFS.glob("*.def")) + sorted(GOLDEN.glob("*.def"))
        assert def_files
        for path in def_files:
            text = path.read_text(encoding="utf-8")
            defn = parse_definition(text)
            assert parse_definition(emit_definition(defn)) == defn, path.name
        demo = subprocess.run(
            [sys.executable, "-m", "liftcheck", "demo"],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert demo.returncode == 0
        assert "overall: PASS" in demo.stdout

        def machine_run():
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "liftcheck",
                    "run",
                    str(DEFS / "contact_n1_r1.def"),
                    "--format",
                    "machine",
                    "--seed",
                    "1729",
                ],
                capture_output=True,
                text=True,
                cwd=ROOT,
            )
            assert proc.returncode == 0
            return proc.stdout

        first = machine_run()
        second = machine_run()
        assert first == second
        json.loads(first)  # and it is well-formed
