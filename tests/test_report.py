"""The machine report emitter against ``json.dumps(doc, indent=2)``, and the
residual renderer."""

import gc
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from liftcheck.algebra import Poly
from liftcheck.lifts import COMPLETE
from liftcheck.report import Report, Section, _emit, render_residual, section_from_j
from liftcheck.structures import canonical_structure
from liftcheck.tensor import Chart, TensorField
from liftcheck.theorems import LiftedStructureSpec, build_lifted_j

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
