"""Definition format: parsing, diagnostics, emission round trip, assembly."""

from dataclasses import replace
from pathlib import Path

import pytest

from liftcheck import definition
from liftcheck.cli import main
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
from liftcheck.expr import parse_poly
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
    with pytest.raises(DefinitionError) as err:
        parse_definition(bad)
    assert str(err.value) == "chart dim 3 != 2n + r = 5 (line 4)"


def test_r_past_the_chart_is_refused_before_anything_sized_by_r(monkeypatch, tmp_path, capsys):
    made = []
    make = TensorField.from_entries

    def counted(chart, valence, entries):
        made.append(valence)
        assert len(made) < 10, "a field was made for each alpha of r"
        return make(chart, valence, entries)

    monkeypatch.setattr(TensorField, "from_entries", counted)
    path = tmp_path / "huge_r.def"
    path.write_text(CANONICAL.replace("r 1\n", "r 1000000000\n"), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        "liftcheck: error: chart dim 3 != 2n + r = 1000000002 (line 4)\n"
    )


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
    a1, c1 = defn.chart.coordinate("a1"), defn.chart.coordinate("c1")
    # symmetric completion fills the mirrored slot
    assert conn.entries == {
        (idx["c1"], idx["a1"], idx["a1"]): a1, (0, 0, 1): c1**2, (0, 1, 0): c1**2,
    }


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


def test_a_fiber_suffix_round_trips():
    # a suffix other than the default is written back, so the reparsed file
    # lifts to the same fiber coordinates and reports the same
    text = (DEFS_DIR / "horizontal_nonflat.def").read_text(encoding="utf-8")
    text = text.replace("chart M a1 b1 c1\n", "chart M a1 b1 c1\nfiber_suffix _p\n")
    defn = parse_definition(text)
    assert defn.fiber_suffix == "_p"
    emitted = emit_definition(defn)
    assert "\nfiber_suffix _p\n" in emitted
    again = parse_definition(emitted)
    assert again == defn
    report = run_tasks(defn, defn.tasks).render_machine()
    assert "a1_p" in report
    assert run_tasks(again, again.tasks).render_machine() == report


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
    metric = defn.structure.metric
    assert metric is not None and metric.valence == (0, 2) and metric.is_zero()
    assert parse_definition(CANONICAL).structure.metric is None


# (line of CANONICAL, its replacement, the exact message with both locations)
REPEATED_ENTRIES = {
    "F": ("F[2,1] = 1", "F[2,1] = 1\n  F[2,1] = 2", "F[2,1] repeats F[2,1] of line 10 (line 11)"),
    "F-spaced": ("F[2,1] = 1", "F[2,1] = 1\n  F[ 2, 1 ] = 1", "F[2,1] repeats F[2,1] of line 10 (line 11)"),
    "eta-zero-padded": (
        "eta[1,3] = 1", "eta[1,3] = 1\n  eta[1,03] = 0", "eta[1,3] repeats eta[1,3] of line 12 (line 13)"
    ),
    "metric": (
        "eta[1,3] = 1", "eta[1,3] = 1\n  metric[1,2] = 1\n  metric[1,2] = 1",
        "metric[1,2] repeats metric[1,2] of line 13 (line 14)",
    ),
}


@pytest.mark.parametrize("case", sorted(REPEATED_ENTRIES))
def test_a_repeated_structure_entry_is_located_at_its_second_line(case):
    old, new, message = REPEATED_ENTRIES[case]
    assert old in CANONICAL
    with pytest.raises(DefinitionError) as err:
        parse_definition(CANONICAL.replace(old, new))
    assert str(err.value) == message


# a header line given twice, read like a repeated entry
REPEATED_HEADERS = {
    "epsilon": (
        "epsilon -1", "epsilon -1\n  epsilon 1", "epsilon 1 repeats epsilon -1 of line 5 (line 6)"
    ),
    "signature": (
        "signature riemannian", "signature riemannian\n  signature lorentzian",
        "signature lorentzian repeats signature riemannian of line 6 (line 7)",
    ),
    "mode": (
        "r 1", "r 1\n  mode consistent\n  mode consistent",
        "mode consistent repeats mode consistent of line 9 (line 10)",
    ),
    "n": ("n 1", "n 1\n  n 1", "n 1 repeats n 1 of line 7 (line 8)"),
    "r-spaced": ("r 1", "r 1\n  r   2", "r 2 repeats r 1 of line 8 (line 9)"),
    "fiber_suffix": (
        "chart M a1 b1 c1", "chart M a1 b1 c1\nfiber_suffix _d\nfiber_suffix _e",
        "fiber_suffix _e repeats fiber_suffix _d of line 3 (line 4)",
    ),
}


@pytest.mark.parametrize("case", sorted(REPEATED_HEADERS))
def test_a_repeated_header_line_is_located_at_its_second_line(case):
    old, new, message = REPEATED_HEADERS[case]
    assert old in CANONICAL
    with pytest.raises(DefinitionError) as err:
        parse_definition(CANONICAL.replace(old, new))
    assert str(err.value) == message


def test_a_second_epsilon_is_not_checked_in_place_of_the_first(tmp_path, capsys):
    text = (DEFS_DIR / "contact_n1_r1.def").read_text(encoding="utf-8")
    path = tmp_path / "two_epsilons.def"
    path.write_text(text.replace("epsilon -1\n", "epsilon -1\n  epsilon 1\n"), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        "liftcheck: error: epsilon 1 repeats epsilon -1 of line 5 (line 6)\n"
    )


def _connection_text(kind, *entries):
    return "".join(
        ["chart M a1 b1 c1\n", f"connection {kind}\n"]
        + [f"  {entry}\n" for entry in entries] + ["end\n"]
    )


@pytest.mark.parametrize("kind, entries, message", [
    # the lower indices of a symmetric connection commute
    ("symmetric", ("Gamma[3,1,2] = a1", "Gamma[3,2,1] = b1"),
     "Gamma[3,2,1] repeats Gamma[3,1,2] of line 3 (line 4)"),
    ("symmetric", ("Gamma[1,1,1] = a1", "Gamma[3,1,1] = a1", "Gamma[1,1,1] = a1"),
     "Gamma[1,1,1] repeats Gamma[1,1,1] of line 3 (line 5)"),
    ("general", ("Gamma[2,3,1] = a1", "Gamma[2,3,1] = b1"),
     "Gamma[2,3,1] repeats Gamma[2,3,1] of line 3 (line 4)"),
])
def test_a_repeated_connection_entry_is_located_at_its_second_line(kind, entries, message):
    with pytest.raises(DefinitionError) as err:
        parse_definition(_connection_text(kind, *entries))
    assert str(err.value) == message


def test_a_general_connection_keeps_both_orders_of_its_lower_indices():
    defn = parse_definition(_connection_text("general", "Gamma[3,1,2] = a1", "Gamma[3,2,1] = b1"))
    a1, b1 = defn.chart.coordinate("a1"), defn.chart.coordinate("b1")
    assert defn.connection.entries == {(2, 0, 1): a1, (2, 1, 0): b1}
    assert parse_definition(emit_definition(defn)) == defn


def test_symmetric_gamma_round_trips_to_its_lower_index_order():
    defn = parse_definition(_connection_text("symmetric", "Gamma[3,2,1] = a1"))
    text = emit_definition(defn)
    assert "  Gamma[3,1,2] = a1\n" in text and "Gamma[3,2,1]" not in text
    assert parse_definition(text) == defn


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



# -- each distinct right-hand side is read once per definition ------------------------

TWINS = """\
chart M a1 b1 c1

connection general
  Gamma[3,1,2] = a1*b1 - 1/2*c1^2
  Gamma[3,2,1] = a1*b1 - 1/2*c1^2
  Gamma[1,1,1] = (a1 + c1)^3
end

structure
  epsilon -1
  signature riemannian
  n 1
  r 1
  F[1,2] = -1
  F[2,1] = 1
  xi[1,3] = 1
  eta[1,3] = 1
  metric[1,1] = 1
  metric[1,2] = (a1 + c1)^3
  metric[2,1] = (a1 + c1)^3
  metric[2,2] = 1
  metric[3,3] = 1
end
"""


def test_equal_right_hand_sides_are_read_once(monkeypatch):
    texts = []
    parse = definition.parse_poly
    monkeypatch.setattr(
        definition, "parse_poly", lambda text, coords: texts.append(text) or parse(text, coords)
    )
    defn = parse_definition(TWINS)
    assert sorted(texts) == sorted(["a1*b1 - 1/2*c1^2", "(a1 + c1)^3", "-1", "1"])
    coords, s = defn.chart.coords, defn.structure
    gamma, metric = defn.connection.entries, s.metric.entries
    # a general connection's twins, a symmetric metric's and one text in both blocks
    assert gamma[2, 0, 1] is gamma[2, 1, 0]
    assert gamma[2, 0, 1] == parse_poly("a1*b1 - 1/2*c1^2", coords)
    assert metric[0, 1] is metric[1, 0] is gamma[0, 0, 0]
    assert metric[0, 1] == parse_poly("(a1 + c1)^3", coords)
    assert s.f.entries[1, 0] is s.xi[0].entries[2,] is metric[2, 2]
    assert metric[2, 2] == parse_poly("1", coords)


@pytest.mark.parametrize("rhs", ["a1 +* b1", "(a1+b1+c1)^120", "a1^1001"])
def test_a_repeated_bad_right_hand_side_fails_at_its_first_line(rhs):
    # a text is kept only once it has parsed, so the first line to hold a bad
    # or capped text reports it, with the column it reports when read alone
    twice = CANONICAL.replace("end\n", f"  metric[1,2] = {rhs}\n  metric[2,1] = {rhs}\nend\n")
    once = CANONICAL.replace("end\n", f"  metric[1,2] = {rhs}\nend\n")
    errors = []
    for text in (twice, once):
        with pytest.raises(DefinitionError) as err:
            parse_definition(text)
        errors.append(err.value)
    assert str(errors[0]) == str(errors[1])
    assert errors[0].line == 13 and errors[0].column > len("  metric[1,2] = ")


def test_two_parses_share_no_entry():
    def values(defn):
        s = defn.structure
        fields = (s.f, s.metric, *s.xi, *s.eta)
        return [*defn.connection.entries.values(), *(c for t in fields for c in t.entries.values())]

    first, second = parse_definition(TWINS), parse_definition(TWINS)
    assert first == second
    assert not {id(c) for c in values(first)} & {id(c) for c in values(second)}
