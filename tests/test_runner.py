"""Task orchestration: one structure and one lift context per lift kind per run."""

import gc
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from liftcheck import definition, lifts, runner, structures, tensor, theorems
from liftcheck.definition import Task, parse_definition, structure_to_definition
from liftcheck.lifts import COMPLETE, HORIZONTAL, VERTICAL, Connection
from liftcheck.report import Report
from liftcheck.structures import canonical_structure

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


def test_run_tasks_builds_each_lift_once(monkeypatch):
    text = (ROOT / "defs" / "horizontal_nonflat.def").read_text(encoding="utf-8")
    defn = parse_definition(text)
    structure_builds = count_calls(monkeypatch, definition, "build_structure")
    endo_lifts = count_calls(monkeypatch, lifts, "lift_endo")
    js = count_calls(monkeypatch, theorems, "_assemble_j")
    squares = count_calls(monkeypatch, tensor, "endo_compose")
    report = runner.run_tasks(defn, TASKS)
    assert report.overall
    assert len(structure_builds) == 1
    # F^c and F^h for the two contexts, and F^v for the interaction table
    assert len(endo_lifts) <= 3
    # J(+1,-1) complete and horizontal, for the action formulas and build-j;
    # the J^2 verdicts and the sweep assemble none
    assert len(js) <= 2
    # F^2 for the axioms, then (F^c)^2 and (F^h)^2, once per context
    assert len(squares) <= 3


def test_run_tasks_forms_each_context_product_once(monkeypatch):
    # r = 1 on a 3-coordinate chart; the test fields of the action formulas
    # are d/da1, d/db1 and d/dc1 = xi_1
    defn = parse_definition((ROOT / "defs" / "horizontal_nonflat.def").read_text(encoding="utf-8"))
    applied = count_calls(monkeypatch, tensor, "endo_apply")
    composed = count_calls(monkeypatch, tensor, "oneform_after_endo")
    paired = count_calls(monkeypatch, tensor, "oneform_apply")
    tasks = [Task("check"), Task("lift"), Task("theorem", ("4.1",)), Task("theorem", ("4.3",)),
             Task("sweep", ("complete",)), Task("sweep", ("horizontal",))]
    assert runner.run_tasks(defn, tasks).overall
    shared = runner._Shared(defn)
    contexts = [shared.context(kind) for kind in (COMPLETE, HORIZONTAL)]
    # F(xi) for the axioms; F^L xi^v and F^L xi^L once per context, read by the
    # interaction tables and the J^2 residuals alike; then J X^v, J X^L and F X
    # for each of the 3 test fields of each theorem
    assert len(applied) == 1 + 2 * 2 + 2 * 3 * 3
    # eta o F for the axioms; eta^v o F^L and eta^L o F^L once per context;
    # eta^c o F^v, the one table row whose factors are in two contexts
    assert len(composed) == 1 + 2 * 2 + 1
    # eta(xi) for the axioms, then eta(X) for each test field of each theorem;
    # every lifted pairing comes from one matrix product per context
    assert len(paired) == 1 + 2 * 3
    for ctx in contexts:
        lifted = [args for args in applied if args[0] == ctx.f_lift]
        assert [x for _, x in lifted] == list(ctx.xi)


def test_run_tasks_builds_the_vertical_lifts_once(monkeypatch):
    text = (ROOT / "defs" / "horizontal_nonflat.def").read_text(encoding="utf-8")
    defn = parse_definition(text)
    endo_lifts = count_calls(monkeypatch, lifts, "lift_endo")
    oneform_lifts = count_calls(monkeypatch, lifts, "lift_oneform")
    assert runner.run_tasks(defn, TASKS).overall
    # F^v and each eta^v serve the complete and horizontal contexts and the table
    assert [args[1] for args in endo_lifts].count(VERTICAL) == 1
    assert [args[1] for args in oneform_lifts].count(VERTICAL) == defn.structure.r


def test_run_tasks_builds_g_y_once(monkeypatch):
    defn = parse_definition((ROOT / "defs" / "horizontal_nonflat.def").read_text(encoding="utf-8"))
    shared = runner._Shared(defn)
    for task in TASKS:
        runner.run_task(defn, task, shared=shared)
    horizontal = shared.context(HORIZONTAL)
    # the horizontal context's lifts and the action formulas' horizontal
    # lifts read one G_y, kept on the run's connection
    assert list(horizontal.conn.memo) == [horizontal.tangent]
    builds = count_calls(monkeypatch, lifts, "_fiber_sum")
    lifts.lift_vector(shared.structure.xi[0], HORIZONTAL, horizontal.tangent, horizontal.conn)
    assert builds == []


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

