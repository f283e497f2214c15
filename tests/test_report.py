"""The machine report emitter against ``json.dumps(doc, indent=2)``."""

import gc
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from liftcheck.report import Report, Section, _emit

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
