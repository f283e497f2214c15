"""Definition format: parsing, diagnostics, emission round trip, assembly."""

from dataclasses import replace
from pathlib import Path

import pytest

from liftcheck.definition import (
    Definition,
    DefinitionError,
    Task,
    build_connection,
    build_structure,
    emit_definition,
    parse_definition,
    structure_to_definition,
)
from liftcheck.runner import run_tasks
from liftcheck.structures import canonical_structure, check_axioms
from liftcheck.tensor import TensorField

DEFS_DIR = Path(__file__).resolve().parent.parent / "defs"

MINIMAL = "chart M x y\n"

CANONICAL = """\
# canonical contact model
chart M a1 b1 c1

structure
  epsilon -1
  signature riemannian
  n 1
  r 1
  F[1,2] = -1
  F[2,1] = 1
  xi[1,3] = 1
  eta[1,3] = 1
end

task check
"""


def test_minimal_chart_only():
    defn = parse_definition(MINIMAL)
    assert defn.chart.name == "M"
    assert defn.chart.coords == ("x", "y")
    assert defn.tasks == []
    assert defn.structure is None


def test_canonical_definition_checks_out():
    defn = parse_definition(CANONICAL)
    structure = build_structure(defn)
    canon = canonical_structure(1, 1, -1, "riemannian")
    assert structure.f == canon.f
    assert structure.xi == canon.xi
    assert structure.eta == canon.eta
    assert structure.metric is None
    assert check_axioms(structure).overall
    assert defn.tasks == [Task("check")]


def test_undeclared_coordinate_is_located():
    bad = CANONICAL.replace("F[1,2] = -1", "F[1,2] = q")
    with pytest.raises(DefinitionError) as err:
        parse_definition(bad)
    assert "q" in str(err.value)
    assert err.value.line == 9
    assert err.value.column is not None


def test_bad_indices_and_tasks():
    with pytest.raises(DefinitionError, match="out of range"):
        parse_definition(CANONICAL.replace("F[1,2]", "F[1,9]"))
    with pytest.raises(DefinitionError, match="unknown task"):
        parse_definition(MINIMAL + "task dance\n")
    with pytest.raises(DefinitionError, match="theorem tag"):
        parse_definition(MINIMAL + "task theorem 9.9\n")
    with pytest.raises(DefinitionError, match="not closed"):
        parse_definition("chart M x y\nstructure\n  epsilon -1\n")
    with pytest.raises(DefinitionError, match="chart declaration must come first"):
        parse_definition("task check\n")


def test_dimension_mismatch_reported():
    bad = CANONICAL.replace("n 1", "n 2")
    with pytest.raises(DefinitionError, match="2n \\+ r"):
        build_structure(parse_definition(bad))


def test_connection_block():
    text = (
        "chart M a1 b1 c1\n"
        "connection symmetric\n"
        "  Gamma[3,1,1] = a1\n"
        "  Gamma[1,1,2] = c1^2\n"
        "end\n"
    )
    defn = parse_definition(text)
    conn = build_connection(defn)
    assert conn is not None and conn.symmetric
    idx = {name: i for i, name in enumerate(defn.chart.coords)}
    assert conn.gamma[idx["c1"]][idx["a1"]][idx["a1"]] == defn.chart.coordinate("a1")
    # symmetric completion fills the mirrored slot
    assert conn.gamma[0][0][1] == conn.gamma[0][1][0]


def test_emit_parse_round_trip_inline():
    defn = parse_definition(CANONICAL)
    again = parse_definition(emit_definition(defn))
    assert again == defn


@pytest.mark.parametrize("path", sorted(DEFS_DIR.glob("*.def")), ids=lambda p: p.name)
def test_shipped_defs_round_trip(path):
    text = path.read_text(encoding="utf-8")
    defn = parse_definition(text)
    again = parse_definition(emit_definition(defn))
    assert again == defn


def test_structure_to_definition_round_trip():
    s = canonical_structure(2, 1, -1, "lorentzian")
    defn = structure_to_definition(s, tasks=[Task("check"), Task("sweep", ("complete",))])
    rebuilt = build_structure(parse_definition(emit_definition(defn)))
    assert rebuilt == s


def test_all_zero_metric_survives_the_round_trip():
    # a metric block whose every entry is 0 is still a metric: emission keeps
    # one zero entry, so the reparsed structure is checked against it too
    s = canonical_structure(1, 1, -1, "riemannian")
    zero = TensorField.bilinear(s.chart, [[s.chart.zero_poly()] * 3 for _ in range(3)])
    for defn in (
        structure_to_definition(replace(s, metric=zero), tasks=[Task("check")]),
        parse_definition(CANONICAL.replace("end\n", "  metric[2,2] = 0\nend\n")),
    ):
        text = emit_definition(defn)
        assert "  metric[1,1] = 0\n" in text
        again = parse_definition(text)
        assert build_structure(again).metric == zero
        before = run_tasks(defn, defn.tasks).render_machine()
        assert "check: metric compatibility" in before
        assert run_tasks(again, again.tasks).render_machine() == before


# (line of CANONICAL, its replacement, the exact message with its location)
STRUCTURE_ERRORS = {
    "F-index": ("F[1,2] = -1", "F[1,4] = -1", "F index out of range 1..3 (line 9)"),
    "F-index-zero": ("F[1,2] = -1", "F[0,2] = -1", "F index out of range 1..3 (line 9)"),
    "xi-component": (
        "xi[1,3] = 1", "xi[1,4] = 1", "xi component index out of range 1..3 (line 11)"
    ),
    "eta-component": (
        "eta[1,3] = 1", "eta[1,0] = 1", "eta component index out of range 1..3 (line 12)"
    ),
    "metric-index": (
        "eta[1,3] = 1", "eta[1,3] = 1\n  metric[4,1] = 1",
        "metric index out of range 1..3 (line 13)",
    ),
    # the family index is checked once r is known, at the structure line
    "xi-family": ("xi[1,3] = 1", "xi[2,3] = 1", "xi/eta family index out of range 1..1 (line 4)"),
    "eta-family": (
        "eta[1,3] = 1", "eta[0,3] = 1", "xi/eta family index out of range 1..1 (line 4)"
    ),
    "index-count": ("F[1,2] = -1", "F[1] = -1", "expected 2 comma-separated indices (line 9)"),
    "unknown-field": ("F[2,1] = 1", "zeta[2,1] = 1", "unknown structure field 'zeta' (line 10)"),
    "unknown-line": ("F[2,1] = 1", "zeta 1", "unknown structure field 'zeta' (line 10)"),
    # the right-hand side is read before the field name and the indices
    "unknown-field-bad-rhs": (
        "F[2,1] = 1", "zeta[2,1] = q", "unknown coordinate 'q' (line 10, column 15)"
    ),
    "bad-index-bad-rhs": ("F[2,1] = 1", "F[2,9] = q", "unknown coordinate 'q' (line 10, column 12)"),
}


@pytest.mark.parametrize("case", sorted(STRUCTURE_ERRORS))
def test_structure_block_messages(case):
    old, new, message = STRUCTURE_ERRORS[case]
    assert old in CANONICAL
    with pytest.raises(DefinitionError) as err:
        parse_definition(CANONICAL.replace(old, new))
    assert str(err.value) == message


def test_metric_of_zero_entries_is_still_a_metric():
    defn = parse_definition(CANONICAL.replace("eta[1,3] = 1", "eta[1,3] = 1\n  metric[1,1] = 0"))
    assert defn.structure.metric_entries == {(0, 0): defn.chart.zero_poly()}
    metric = build_structure(defn).metric
    assert metric is not None and metric.valence == (0, 2) and metric.is_zero()
    assert parse_definition(CANONICAL).structure.metric_entries is None


@pytest.mark.parametrize("text, message", [
    ("chart M a1 b-1 c1\n", "coordinate 'b-1' is not a name (line 1)"),
    ("chart M 1a\n", "coordinate '1a' is not a name (line 1)"),
    ("\nchart M a1 b1*c1\n", "coordinate 'b1*c1' is not a name (line 2)"),
    ("fiber_suffix -x\nchart M a1\n", "fiber_suffix '-x' has a non-name character (line 1)"),
    ("chart M a1\nfiber_suffix ^2\n", "fiber_suffix '^2' has a non-name character (line 2)"),
])
def test_coordinates_and_fiber_names_must_be_names(text, message):
    with pytest.raises(DefinitionError) as err:
        parse_definition(text)
    assert str(err.value) == message


def test_names_of_every_kind_are_accepted():
    defn = parse_definition("chart M _x α2 b_1\nfiber_suffix 1\n")
    assert defn.chart.coords == ("_x", "α2", "b_1")
    assert defn.fiber_suffix == "1"

