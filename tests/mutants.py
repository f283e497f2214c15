"""Mutants of ``src/liftcheck`` that the tests must kill.

Each mutant is one exact text replacement in one file: the old text must
occur there exactly once, and with the new text in its place, ``pytest -x``
on the named tests must fail.  ``scripts/mutants.py`` runs them, each in a
copy of the tree.  A change that alters a mutant's old text updates its entry;
a change that finds a new way to break the code adds one here.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    breaks: str
    tests: tuple[str, ...]


MUTANTS = [
    # -- algebra ------------------------------------------------------------------
    Mutant(
        "plain-dot-square-undoubled", "src/liftcheck/algebra.py",
        "                n1 += n1\n", "                n1 += 0\n",
        "a square in the plain product loop adds each cross term once, not twice",
        ("tests/test_algebra.py::test_a_square_forms_each_cross_product_once",),
    ),
    Mutant(
        "dot-drops-right-denominator", "src/liftcheck/algebra.py",
        "den = lcm(den, a.den * b.den)", "den = lcm(den, a.den)",
        "a sum of products is written over a denominator that misses the right factors'",
        ("tests/test_algebra.py::test_fused_dot_products_by_hand",),
    ),
    Mutant(
        "contract-over-first-index", "src/liftcheck/algebra.py",
        "by_first.get(key[-1], ())", "by_first.get(key[0], ())",
        "the contraction kernel sums the left operand's first index, not its last",
        ("tests/test_tensor.py::test_rotation_sends_e1_to_e2",),
    ),
    # -- expr ---------------------------------------------------------------------
    Mutant(
        "unary-signs-keep-the-last", "src/liftcheck/expr.py",
        'negate ^= tok[1] == "-"', 'negate = tok[1] == "-"',
        "a run of unary signs takes the sign of its last one",
        ("tests/test_expr.py::test_long_unary_sign_chain",),
    ),
    Mutant(
        "parser-drops-a-coordinate-power", "src/liftcheck/expr.py",
        "key += atom * (1 if power is None else power)", "key += atom",
        "the general parser reads x^k as x",
        ("tests/test_expr.py::test_degree_cap_holds_up_to_and_including_max_degree",),
    ),
    Mutant(
        "reader-drops-a-coordinate-power", "src/liftcheck/expr.py",
        "got = factors[factor] = (unit * k, k)", "got = factors[factor] = (unit, k)",
        "the one-pass reader of printed sums reads x^k as x",
        ("tests/test_expr.py::test_basic_expression",),
    ),
    # -- lifts --------------------------------------------------------------------
    Mutant(
        "y-dot-derivative-drops-the-exponent", "src/liftcheck/lifts.py",
        "= n * e", "= n",
        "the fiber derivative of n x^e is n x^(e-1) y, not n e x^(e-1) y",
        ("tests/test_lifts.py::test_complete_lift_of_square",),
    ),
    Mutant(
        "kept-stores-nothing", "src/liftcheck/lifts.py",
        "hit = table[id(p)] = (p, fn(p))", "hit = (p, fn(p))",
        "the run table keeps no value, so a run embeds and differentiates a Poly per lift",
        ("tests/test_runner.py::test_a_run_embeds_and_differentiates_each_lifted_poly_once",),
    ),
    Mutant(
        "g-y-without-the-run-table", "src/liftcheck/lifts.py",
        '_kept(lambda c: _connection_matrix(c, tangent), run, "G_y")(conn)',
        "_connection_matrix(conn, tangent)",
        "every horizontal lift of a run builds its own G_y",
        ("tests/test_runner.py::test_run_tasks_builds_g_y_once",),
    ),
    Mutant(
        "horizontal-adds-g-y-t", "src/liftcheck/lifts.py",
        "g_t.items()}, negate=True)", "g_t.items()})",
        "a horizontal lift adds G_y T over an upper index instead of subtracting it",
        ("tests/test_lifts.py::test_horizontal_fiber_block_single_christoffel",),
    ),
    # -- tensor -------------------------------------------------------------------
    Mutant(
        "scale-by-a-function-on-another-chart", "src/liftcheck/tensor.py",
        "if value.valence != (0, 0) or value.chart != self.chart:",
        "if value.valence != (0, 0):",
        "a field scales by a function on another chart",
        ("tests/test_tensor.py::test_scale_by_a_function_on_another_chart_raises",),
    ),
    Mutant(
        "difference-adds-shared-entries", "src/liftcheck/tensor.py",
        "(a - b if negate else a + b)", "(a + b if negate else a + b)",
        "a difference of fields adds the components both sides hold",
        ("tests/test_tensor.py::test_sparse_fields_match_a_dense_reference",),
    ),
    # -- structures ---------------------------------------------------------------
    Mutant(
        "descent-on-the-last-component", "src/liftcheck/structures.py",
        "_descent_point(components[0])", "_descent_point(components[-1])",
        "the witness descent reads the last nonzero component, not the first",
        ("tests/test_structures.py::test_the_descent_reads_the_first_nonzero_component",),
    ),
    Mutant(
        "witness-needs-every-component", "src/liftcheck/structures.py",
        "if any(next(_numerators_at((c,), point.values)[1]) for c in components):",
        "if all(next(_numerators_at((c,), point.values)[1]) for c in components):",
        "a sample point is a witness only where every component is nonzero",
        ("tests/test_structures.py::test_find_witness_returns_the_first_sample_of_the_reference_loop",),
    ),
    # -- theorems -----------------------------------------------------------------
    Mutant(
        "square-residual-reads-st-as-s", "src/liftcheck/theorems.py",
        "s * t, d)", "s, d)",
        "a cell's J^2 residual signs the cross-half part D by s, not s*t",
        ("tests/test_theorems.py::test_square_residual_matches_the_dense_square",),
    ),
    Mutant(
        "verdict-lent-across-seeds", "src/liftcheck/theorems.py",
        "key[3] == seed and ", "",
        "a cell lends its witness to an equal residual checked under another seed",
        ("tests/test_theorems.py::test_a_verdict_lends_no_witness_across_seeds",),
    ),
    Mutant(
        "sigma-halves-swapped", "src/liftcheck/theorems.py",
        "(s,) * r + (t,) * r", "(t,) * r + (s,) * r",
        "J signs the v pairs by t and the L pairs by s",
        ("tests/test_theorems.py::test_lifted_j_matrix_canonical_riemannian",),
    ),
]
