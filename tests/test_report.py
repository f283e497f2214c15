"""The machine report writer and emitter against ``json.dumps(doc, indent=2)``,
and the residual renderer."""

import gc
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import liftcheck
from liftcheck import report as report_module
from liftcheck.algebra import Poly
from liftcheck.lifts import COMPLETE
from liftcheck.report import (
    Report, Section, _emit, render_point, render_residual, section_from_check, section_from_j,
)
from liftcheck.structures import CheckEntry, canonical_structure, new_entry
from liftcheck.tensor import VALENCES, Chart, Point, TensorField
from liftcheck.theorems import LiftedStructureSpec, action_report, build_lifted_j

GOLDEN = Path(__file__).resolve().parent / "golden"


def emitted(doc) -> str:
    out: list[str] = []
    _emit(doc, "\n", out)
    return "".join(out)


# quotes, backslashes, control characters, non-ASCII and lone surrogates,
# mixed with any code point, surrogates included
specials = st.sampled_from(
    ['"', "\\", "\x00", "\b", "\n", "\t", "\x1f", "\x7f", "é", " ", "\ud800",
     "\udfff", "\U0001f600"]
)
strings = st.lists(specials | st.characters(exclude_categories=()), max_size=8).map("".join)
scalars = strings | st.integers(-(10**30), 10**30) | st.booleans() | st.none()
docs = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(strings, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(docs)
def test_emitter_writes_what_json_dumps_writes(doc):
    assert emitted(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_emitter_rewrites_every_golden_report(path):
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert emitted(doc) + "\n" == json.dumps(doc, indent=2) + "\n" == text


def reference_doc(report: Report) -> dict:
    """The document of ``report`` in the shape of the machine report: a section's
    entries, rows and notes only when it has some, in this key order."""
    def section_doc(section: Section) -> dict:
        doc = {"task": section.task, "title": section.title, "passed": section.passed,
               "informational": section.informational}
        if section.entries:
            doc["entries"] = [
                {"name": e.name, "tag": e.tag, "passed": e.passed,
                 "residual": render_residual(e.residual), "witness": render_point(e.witness)}
                for e in section.entries
            ]
        if section.rows:
            doc["rows"] = section.rows
        if section.notes:
            doc["notes"] = section.notes
        return doc

    return {"tool": "liftcheck", "version": liftcheck.__version__, "seed": report.seed,
            "overall": report.overall, "sections": [section_doc(s) for s in report.sections]}


@st.composite
def check_entries(draw):
    """An entry on a chart with any coordinate names: a passing one, a failing
    one with a witness and two or more residual components, or any mix of a
    zero or nonzero residual, a witness or none, and a verdict."""
    shape = draw(st.sampled_from(["passing", "failing", "any"]))
    coords = draw(st.lists(strings.filter(bool), min_size=1, max_size=3, unique=True))
    chart = Chart("M", tuple(coords))
    valence = draw(st.sampled_from(VALENCES[1:] if shape == "failing" else VALENCES))
    coefficients = st.fractions(-5, 5, max_denominator=3).filter(bool)
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * chart.dim), coefficients,
                            min_size=1, max_size=3)
    keys = st.tuples(*[st.integers(0, chart.dim - 1)] * sum(valence))
    size = {"passing": (0, 0), "failing": (min(2, chart.dim), 4), "any": (0, 4)}[shape]
    comps = draw(st.dictionaries(keys, terms.map(lambda t: Poly(chart.coords, t)),
                                 min_size=size[0], max_size=size[1]))
    residual = TensorField.from_entries(chart, valence, comps)
    points = st.lists(coefficients | st.just(0), min_size=chart.dim, max_size=chart.dim)
    points = points.map(lambda values: Point(chart, values))
    witness = draw({"passing": st.none(), "failing": points, "any": st.none() | points}[shape])
    passed = shape == "passing" or (shape == "any" and draw(st.booleans()))
    return CheckEntry(draw(strings), draw(strings), residual, passed, witness)


rows = st.lists(st.dictionaries(strings, scalars | st.dictionaries(strings, scalars, max_size=2),
                                max_size=4), max_size=3)
sections = st.builds(
    Section, task=strings, title=strings, passed=st.booleans(),
    entries=st.lists(check_entries(), max_size=3), notes=st.lists(strings, max_size=3),
    rows=rows, informational=st.booleans(),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.builds(Report, seed=st.integers(-(10**12), 10**12), sections=st.lists(sections, max_size=3)))
@example(Report(seed=0))
@example(Report(seed=3, sections=[Section("check", "no entries", True)]))
def test_machine_writer_writes_what_json_dumps_writes(report):
    assert report.render_machine() == json.dumps(reference_doc(report), indent=2) + "\n"


def test_a_passing_entry_is_written_without_rendering_its_residual(monkeypatch):
    base = canonical_structure(1, 1, -1)
    passing = action_report(LiftedStructureSpec(base=base, lift_kind=COMPLETE, s=1, t=-1))
    chart = base.chart
    failing = new_entry("f", "t", TensorField.vector(chart, [chart.coordinate("a1"), 0, 2]), 1)
    report = Report(seed=1, sections=[
        section_from_check("actions", "actions", passing),
        Section("check", "failing", False, entries=[failing]),
    ])
    assert passing.overall and passing.entries and not failing.passed
    expected = json.dumps(reference_doc(report), indent=2) + "\n"
    rendered = []
    render = report_module.render_residual
    monkeypatch.setattr(report_module, "render_residual",
                        lambda residual: rendered.append(residual) or render(residual))
    assert report.render_machine() == expected
    assert rendered == [failing.residual]


@pytest.mark.parametrize("doc", [1.5, {"a": [1, 2.0]}, {1: "a"}, {"a": {1, 2}}, [b"x"], (1, 2)],
                         ids=["float", "nested-float", "int-key", "set", "bytes", "tuple"])
def test_emitter_refuses_any_other_type(doc):
    with pytest.raises(TypeError):
        emitted(doc)


def test_render_machine_leaves_no_cyclic_garbage():
    report = Report(seed=1, sections=[Section("check", "check", True, notes=["a", "b"])])
    gc.collect()
    gc.disable()
    try:
        report.render_machine()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_each_distinct_component_of_a_residual_is_printed_once(monkeypatch):
    chart = Chart("M", ("x", "y", "z"))
    x, y, _ = (Poly.variable(v, chart.coords) for v in chart.coords)
    shared = x * y - 3
    # two equal Polys built apart, one Poly under two labels, two equal
    # constants built apart, and one component equal to no other
    residual = TensorField.from_entries(chart, (1, 1), {
        (0, 0): x + 1, (0, 1): 1 + x, (0, 2): shared, (1, 0): shared,
        (1, 1): 2, (1, 2): 2, (2, 2): y,
    })
    assert residual.entries[0, 0] is not residual.entries[0, 1]
    assert residual.entries[1, 1] is not residual.entries[1, 2]
    printed = []
    original = Poly.__str__
    monkeypatch.setattr(Poly, "__str__", lambda self: printed.append(self) or original(self))
    rendered = render_residual(residual)
    assert sorted(map(original, printed)) == ["2", "x + 1", "x*y - 3", "y"]
    assert rendered == {",".join(label): original(poly) for label, poly in residual.nonzero_items()}


def test_each_distinct_component_of_j_is_printed_once(monkeypatch):
    base = canonical_structure(1, 1, -1, "riemannian")
    j = build_lifted_j(LiftedStructureSpec(base=base, lift_kind=COMPLETE, s=1, t=-1))
    components = [poly for _, poly in j.nonzero_items()]
    # six components, three of them -1 and three 1
    assert len(components) == 6 and len(set(components)) == 2
    printed = []
    original = Poly.__str__
    monkeypatch.setattr(Poly, "__str__", lambda self: printed.append(self) or original(self))
    section = section_from_j("build-j", "build-j: complete (s=+1, t=-1)", j)
    assert len(printed) == 2 and set(printed) == set(components)
    assert section.rows == [{"component": ",".join(label), "value": original(poly)}
                            for label, poly in j.nonzero_items()]
