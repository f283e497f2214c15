"""Task orchestration: one structure and one lift context per lift kind per run."""

import gc
import random
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from liftcheck import definition, lifts, runner, structures, tensor, theorems
from liftcheck.algebra import Poly
from liftcheck.definition import Task, parse_definition, structure_to_definition
from liftcheck.lifts import COMPLETE, HORIZONTAL, VERTICAL, Connection
from liftcheck.report import Report
from liftcheck.structures import canonical_structure
from liftcheck.tensor import TensorField

ROOT = Path(__file__).resolve().parent.parent

TASKS = [
    Task("check"),
    Task("lift"),
    Task("theorem", ("4.1",)),
    Task("theorem", ("4.3",)),
    Task("build-j", ("4.3",)),
    Task("sweep", ("horizontal",)),
]


def count_calls(monkeypatch, owner, name):
    """Count calls to ``owner.name`` wherever a liftcheck module looks it up."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (definition, lifts, runner, structures, theorems):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def fields_lifted(lift_calls, valence) -> dict:
    """The number of ``valence`` fields the counted ``lifts._lift`` calls lifted, by kind."""
    counts = {}
    for _, called_valence, fields, kind, *_ in lift_calls:
        if called_valence == valence:
            counts[kind] = counts.get(kind, 0) + len(fields)
    return counts


def test_run_tasks_builds_each_lift_once(monkeypatch):
    text = (ROOT / "defs" / "horizontal_nonflat.def").read_text(encoding="utf-8")
    defn = parse_definition(text)
    structure_builds = count_calls(monkeypatch, definition, "build_structure")
    lifted = count_calls(monkeypatch, lifts, "_lift")
    js = count_calls(monkeypatch, theorems, "_assemble_j")
    squares = count_calls(monkeypatch, tensor, "endo_compose")
    report = runner.run_tasks(defn, TASKS)
    assert report.overall
    assert len(structure_builds) == 1
    # F^c and F^h for the two contexts, and F^v for the interaction table
    assert fields_lifted(lifted, (1, 1)) == {VERTICAL: 1, COMPLETE: 1, HORIZONTAL: 1}
    # J(+1,-1) horizontal for build-j; the J^2 verdicts, the sweep and the
    # action formulas assemble none
    assert len(js) == 1
    # F^2 for the axioms, then (F^c)^2 and (F^h)^2, once per context
    assert len(squares) <= 3


def test_run_tasks_forms_each_context_product_once(monkeypatch):
    # r = 1 on a 3-coordinate chart; the test fields of the action formulas
    # are d/da1, d/db1 and d/dc1 = xi_1
    defn = parse_definition((ROOT / "defs" / "horizontal_nonflat.def").read_text(encoding="utf-8"))
    applied = count_calls(monkeypatch, tensor, "endo_apply")
    composed = count_calls(monkeypatch, tensor, "oneform_after_endo")
    paired = count_calls(monkeypatch, tensor, "oneform_apply")
    lifted = count_calls(monkeypatch, lifts, "_lift")
    applied_all = count_calls(monkeypatch, tensor, "_apply_all")
    paired_all = count_calls(monkeypatch, tensor, "_pairings")
    tasks = [Task("check"), Task("lift"), Task("theorem", ("4.1",)), Task("theorem", ("4.3",)),
             Task("sweep", ("complete",)), Task("sweep", ("horizontal",))]
    shared = runner._Shared(defn)
    report = Report(seed=structures.DEFAULT_SEED)
    for task in tasks:
        report.sections.extend(runner.run_task(defn, task, shared=shared))
    assert report.overall
    contexts = [shared.context(kind) for kind in (COMPLETE, HORIZONTAL)]
    # F(xi) for the axioms; F^L xi^v and F^L xi^L once per context, read by the
    # interaction tables, the J^2 residuals and the action rows of xi_1 alike;
    # the action formulas apply F and F^L in batched products, never J
    assert len(applied) == 1 + 2 * 2
    # eta o F for the axioms; eta^v o F^L and eta^L o F^L once per context;
    # eta^c o F^v, the one table row whose factors are in two contexts
    assert len(composed) == 1 + 2 * 2 + 1
    # eta(xi) for the axioms; eta(X) of the test fields is one batched product
    # per structure, and every lifted pairing one matrix product per context
    assert len(paired) == 1
    # xi^v, xi^c and xi^h for the contexts; the kind-free parts once for both
    # theorems: X^v of the 2 frame fields and (FX)^v of the 3 test fields; then
    # per context X^L of the 2 frame fields and (FX)^L of the 3 test fields
    assert fields_lifted(lifted, (1, 0)) == {kind: 1 + 2 + 3 for kind in lifts.LIFT_KINDS}
    # (eta X)^v once for both theorems, (eta X)^c in the complete context
    assert fields_lifted(lifted, (0, 0)) == {VERTICAL: 3, COMPLETE: 3}
    assert contexts[0].vertical is contexts[1].vertical is shared.context(VERTICAL)
    frames = [TensorField.basis_vector(defn.structure.chart, c) for c in ("a1", "b1")]
    for ctx, kind in zip(contexts, (COMPLETE, HORIZONTAL)):
        lifted = [args for args in applied if args[0] == ctx.f_lift]
        assert [x for _, x in lifted] == list(ctx.xi)
        # F^L and E = eta^v + eta^L act on the lifts of the frame fields in one
        # product each; the lifts of xi_1 read ctx.f_xi and ctx.pairing instead
        ys = [lifts.lift_vector(x, k, ctx.tangent, ctx.conn if k == kind else None)
              for x in frames for k in (VERTICAL, kind)]
        assert [list(xs) for f, xs in applied_all if f is ctx.f_lift] == [ys]
        # E(X) of the context's own lifts of xi is its pairing matrix
        pairings = [list(xs) for _, ws, xs in paired_all if ws == ctx.eta]
        assert sorted(pairings, key=len) == [list(ctx.xi), ys]


def test_run_tasks_builds_the_vertical_lifts_once(monkeypatch):
    text = (ROOT / "defs" / "horizontal_nonflat.def").read_text(encoding="utf-8")
    defn = parse_definition(text)
    lifted = count_calls(monkeypatch, lifts, "_lift")
    assert runner.run_tasks(defn, TASKS).overall
    # F^v and each eta^v serve the complete and horizontal contexts and the table
    assert fields_lifted(lifted, (1, 1))[VERTICAL] == 1
    assert fields_lifted(lifted, (0, 1))[VERTICAL] == defn.structure.r


def test_a_run_builds_one_tangent_chart(monkeypatch):
    # the parser's fiber-name check makes the chart, and every lift of the run reads it
    over, calls = lifts.TangentChart.over, []

    def counted(chart, suffix=lifts.DEFAULT_FIBER_SUFFIX):
        calls.append((chart, suffix))
        return over(chart, suffix)

    monkeypatch.setattr(lifts.TangentChart, "over", counted)
    defn = parse_definition((ROOT / "defs" / "horizontal_nonflat.def").read_text(encoding="utf-8"))
    assert runner.run_tasks(defn, TASKS + [Task("actions", ("4.3",))]).overall
    assert calls == [(defn.chart, defn.fiber_suffix)]
    assert runner._Shared(defn).context(VERTICAL).tangent is defn.tangent


def test_run_tasks_builds_g_y_once(monkeypatch):
    defn = parse_definition((ROOT / "defs" / "horizontal_nonflat.def").read_text(encoding="utf-8"))
    shared = runner._Shared(defn)
    for task in TASKS:
        runner.run_task(defn, task, shared=shared)
    horizontal = shared.context(HORIZONTAL)
    # the horizontal context's lifts and the action formulas' horizontal
    # lifts read one G_y, kept on the run's connection
    assert list(horizontal.conn.memo) == [horizontal.tangent]
    # building G_y is what reads the fiber coordinates y^k
    fibers = []
    fiber_poly = lifts.TangentChart.fiber_poly
    monkeypatch.setattr(
        lifts.TangentChart, "fiber_poly", lambda self, k: fibers.append(k) or fiber_poly(self, k)
    )
    lifts.lift_vector(shared.structure.xi[0], HORIZONTAL, horizontal.tangent, horizontal.conn)
    assert fibers == []


def test_shared_contexts_are_freed_without_a_gc_pass():
    # a reference cycle would keep every lift of a run alive until the cyclic
    # collector runs, and raise the peak memory of many runs in one process
    defn = parse_definition((ROOT / "defs" / "horizontal_nonflat.def").read_text(encoding="utf-8"))
    gc.disable()
    try:
        shared = runner._Shared(defn)
        context = weakref.ref(shared.context(COMPLETE))
        del shared
        assert context() is None
    finally:
        gc.enable()


def grid_definition():
    """A conjugated n = 1, r = 1 model with a polynomial connection and a task
    of each kind, as the benchmark's model grid builds them: every run of it
    reads one Definition, its tangent chart and its connection."""
    base = canonical_structure(1, 1, -1)
    u, u_inv = structures.random_unimodular(base.chart, random.Random(5), 3, 2)
    a1, c1 = base.chart.coordinate("a1"), base.chart.coordinate("c1")
    conn = Connection.from_entries(base.chart, {(2, 0, 1): a1 * c1, (0, 2, 2): c1})
    return structure_to_definition(structures.conjugate_structure(base, u, u_inv), conn=conn,
                                   tasks=TASKS + [Task("sweep", ("complete",))])


def test_a_run_embeds_and_differentiates_each_lifted_poly_once(monkeypatch):
    defn = grid_definition()
    # G_y is kept on the connection across runs; built here, it is not counted
    lifts._connection_matrix(defn.connection, defn.tangent)
    lifted = count_calls(monkeypatch, lifts, "_lift")
    derived = count_calls(monkeypatch, lifts, "_y_dot_derivative")
    extend, embedded = Poly.extend, []
    monkeypatch.setattr(Poly, "extend", lambda p, coords: embedded.append(p) or extend(p, coords))

    def bases(kinds) -> list[int]:
        """The id of every distinct base Poly the run lifted with one of ``kinds``."""
        return sorted({id(c) for _, _, fields, kind, *_ in lifted if kind in kinds
                       for t in fields for c in t.entries.values()})

    counts = []
    for _ in range(2):
        del lifted[:], derived[:], embedded[:]
        runner.run_tasks(defn, defn.tasks)
        assert sorted(map(id, embedded)) == bases(lifts.LIFT_KINDS)
        assert sorted(id(p) for p, _ in derived) == bases((COMPLETE,))
        counts.append((len(embedded), len(derived)))
    # the run tables die with their run: the second run forms them again
    assert counts[0] == counts[1]


def test_runs_of_one_definition_leave_no_objects_behind():
    # a run table kept on anything that outlives its run, such as a key of the
    # connection's memo, would keep the lifts of every run alive
    defn = grid_definition()
    s = defn.structure
    bases = [c for t in (s.f, s.metric, *s.xi, *s.eta) for c in t.entries.values()]
    held = sum(map(sys.getrefcount, bases))
    alive = []
    for _ in range(3):
        runner.run_tasks(defn, defn.tasks)
        gc.collect()
        alive.append(len(gc.get_objects()))
        # a table that outlives its run, even one filled only once, holds its keys
        assert sum(map(sys.getrefcount, bases)) == held
    assert alive[2] == alive[0]


@pytest.mark.parametrize("signature", ["riemannian", "lorentzian"])
def test_shared_run_matches_tasks_run_alone(signature):
    # a rescaled eta fails the pairing, so J^2 fails and the theorem and the
    # sweep share verdicts that carry witnesses
    base = canonical_structure(1, 1, -1, signature)
    mutant = replace(base, eta=tuple(w.scale(2) for w in base.eta))
    conn = Connection.from_entries(base.chart, {(2, 0, 0): base.chart.coordinate("a1")})
    tags = ("4.1", "4.3") if signature == "riemannian" else ("4.2", "4.4")
    tasks = [
        Task("check"),
        Task("lift"),
        Task("theorem", (tags[0],)),
        Task("theorem", (tags[1],)),
        Task("build-j", (tags[1],)),
        Task("verify", ("horizontal", "1", "1")),
        Task("sweep", ("horizontal",)),
        Task("sweep", ("complete",)),
    ]
    defn = structure_to_definition(mutant, conn=conn, tasks=tasks)
    shared = runner.run_tasks(defn, tasks, seed=7)
    alone = Report(seed=7)
    for task in tasks:
        alone.sections.extend(runner.run_task(defn, task, seed=7))
    assert not shared.overall
    assert shared.render_machine() == alone.render_machine()


def test_run_tasks_empty_and_missing_structure():
    defn = parse_definition("chart M x y\ntask check\n")
    assert runner.run_tasks(defn, []).sections == []
    with pytest.raises(runner.TaskError, match="no structure block"):
        runner.run_tasks(defn, defn.tasks)


@pytest.mark.parametrize("task, message", [
    (Task("verify", ("4.9",)), "needs a theorem tag or a lift kind"),
    (Task("verify", ("4.1", "1", "-1")), "takes no lift kind or signs"),
    (Task("build-j", ("complete", "2", "1")), "signs s t in -1/[+]1"),
    (Task("sweep"), "takes 1..1 arguments"),
    (Task("sweep", ("vertical",)), "needs complete or horizontal"),
    (Task("prove", ()), "unknown task 'prove'"),
])
def test_run_task_validates_the_task(task, message):
    """A task handed to the runner directly is checked as its .def line would be."""
    defn = parse_definition((ROOT / "defs" / "contact_n1_r1.def").read_text(encoding="utf-8"))
    with pytest.raises(definition.DefinitionError, match=message) as raised:
        runner.run_tasks(defn, [Task("check"), task])
    assert raised.value.line is None


# the result tag each catalogued theorem's J^2 verdict is reported under
RESULT_TAGS = {"4.1": "2.8", "4.2": "2.15", "4.3": "2.22", "4.4": "2.22"}


@pytest.mark.parametrize("tag", sorted(RESULT_TAGS))
def test_j2_entry_is_tagged_by_the_cell_checked(tag):
    defn = parse_definition((ROOT / "defs" / "horizontal_nonflat.def").read_text(encoding="utf-8"))
    kind, s, t, _, _ = theorems.THEOREMS[tag]
    (by_tag,) = runner.run_task(defn, Task("verify", (tag,)))
    (by_cell,) = runner.run_task(defn, Task("verify", (kind, str(s), str(t))))
    theorem = runner.run_task(defn, Task("theorem", (tag,)))[0]
    # one entry and one signs note, whichever way the cell is named
    assert by_tag.entries == by_cell.entries == theorem.entries
    assert by_tag.notes == by_cell.notes == theorem.notes
    assert [e.tag for e in by_cell.entries] == [RESULT_TAGS[tag]]


@pytest.mark.parametrize("kind", [COMPLETE, HORIZONTAL])
@pytest.mark.parametrize("s, t", [(1, 1), (-1, -1)])
def test_j2_entry_of_an_uncatalogued_cell_is_tagged_j2(kind, s, t):
    defn = parse_definition((ROOT / "defs" / "horizontal_nonflat.def").read_text(encoding="utf-8"))
    (section,) = runner.run_task(defn, Task("verify", (kind, str(s), str(t))))
    assert [e.tag for e in section.entries] == ["J^2"]

