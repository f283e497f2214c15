"""Immutable values: every route that builds one keeps its write guard, and
each survives pickle, ``copy.copy`` and ``copy.deepcopy`` equal and guarded."""

import copy
import dataclasses
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from liftcheck import algebra, tensor
from liftcheck.algebra import EpsComplex, Poly, PolyMatrix
from liftcheck.definition import parse_definition
from liftcheck.expr import parse_poly
from liftcheck.runner import run_tasks
from liftcheck.structures import CheckEntry, canonical_structure, new_entry
from liftcheck.tensor import VALENCES, Chart, TensorField

ROOT = Path(__file__).resolve().parent.parent
XY = ("x", "y")
CHART = Chart("M", XY)
X, Y = (Poly.variable(v, XY) for v in XY)


def copies(value) -> list:
    """``value`` through pickle at every protocol, copy.copy and copy.deepcopy."""
    pickled = [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return pickled + [copy.copy(value), copy.deepcopy(value)]


def assert_guarded(value, names, message) -> None:
    """Writing any of ``names`` on ``value`` raises ``AttributeError(message)``
    and leaves the attribute as it was."""
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=f"^{message}$"):
            setattr(value, name, before)
        assert getattr(value, name) is before


def field_of(valence) -> TensorField:
    """A field of ``valence`` on CHART with a zero and a rational component."""
    rank = sum(valence)
    comps = [Fraction(1, 3) * X * Y - 2, 0]
    if rank == 0:
        return TensorField(CHART, valence, comps[0])
    if rank == 1:
        return TensorField(CHART, valence, comps)
    return TensorField(CHART, valence, [comps, [Y**2, X - Fraction(1, 2)]])


def failing_entry() -> CheckEntry:
    residual = TensorField(CHART, (1, 0), [X * Y - 1, 0])
    return new_entry("F xi_1", "1.2", residual, seed=7)


POLY_PARTS = ("variables", "nums", "den")
FIELD_PARTS = ("chart", "valence", "entries")


@pytest.mark.parametrize("value", [
    Poly(XY, {(2, 1): Fraction(3, 7), (0, 1): -2, (0, 0): Fraction(1, 2)}),
    Poly.zero(XY),
], ids=["rational", "zero"])
def test_a_poly_round_trips_equal_and_guarded(value):
    for twin in copies(value):
        assert type(twin) is Poly
        assert twin == value and hash(twin) == hash(value) and str(twin) == str(value)
        assert_guarded(twin, POLY_PARTS, "Poly is immutable")


def test_eps_complex_and_poly_matrix_round_trip_equal_and_guarded():
    z = EpsComplex(Fraction(1, 2), -3, 1)
    matrix = PolyMatrix.from_values([[X, Fraction(1, 2)], [0, X * Y - 1]], XY)
    for twin in copies(z):
        assert twin == z and type(twin) is EpsComplex
        assert_guarded(twin, ("re", "im", "epsilon"), "EpsComplex is immutable")
    for twin in copies(matrix):
        assert twin == matrix and type(twin) is PolyMatrix
        assert_guarded(twin, ("rows", "cols", "entries", "variables"), "PolyMatrix is immutable")


@pytest.mark.parametrize("valence", VALENCES)
def test_a_field_of_each_valence_round_trips_equal_and_guarded(valence):
    value = field_of(valence)
    assert value.entries
    for twin in copies(value):
        assert type(twin) is TensorField
        assert twin == value and repr(twin) == repr(value)
        assert_guarded(twin, FIELD_PARTS, "TensorField is immutable")
        for c in twin.entries.values():
            assert_guarded(c, POLY_PARTS, "Poly is immutable")


def test_structures_and_entries_round_trip_equal_and_frozen():
    structure = canonical_structure(n=1, r=2, epsilon=-1, signature="riemannian")
    entry = failing_entry()
    assert not entry.passed and entry.witness is not None
    for value, name, field in ((structure, "epsilon", "f"), (entry, "passed", "residual")):
        for twin in copies(value):
            assert twin == value and repr(twin) == repr(value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(twin, name, getattr(twin, name))
            assert_guarded(getattr(twin, field), FIELD_PARTS, "TensorField is immutable")


def test_a_report_round_trips_to_the_same_machine_text():
    defn = parse_definition((ROOT / "defs" / "rcontact_n2_r2.def").read_text(encoding="utf-8"))
    report = run_tasks(defn, defn.tasks)
    text = report.render_machine()
    for twin in copies(report):
        assert twin == report
        assert twin.render_machine() == text


def test_every_route_builds_a_guarded_poly():
    terms = {(1, 0): Fraction(2, 3), (0, 2): -1}
    unit_y = algebra._unit(2, 1)
    built = [
        Poly(XY, terms), Poly(XY), Poly.const(Fraction(5, 2), XY), Poly.variable("y", XY),
        X + Y, X - X, -X, X * Y, X * Fraction(1, 3), (X + Y) ** 3, (X * Y**2).diff("y"),
        X.extend(("x", "y", "z")),
        parse_poly("x^2 - 1/2*y + 3", XY),
        algebra._reduced(XY, {unit_y: 4, 0: 6}, 8),
    ]
    for value in built:
        assert type(value) is Poly
        assert_guarded(value, POLY_PARTS, "Poly is immutable")
    assert built[-1].nums == {unit_y: 2, 0: 3} and built[-1].den == 4


def test_every_route_builds_a_guarded_field():
    a, b = field_of((1, 1)), field_of((1, 1)).scale(X)
    stacked = tensor._stack([field_of((1, 0)), field_of((1, 0)).scale(2)])
    built = [
        a, TensorField.from_entries(CHART, (0, 1), {(1,): Y}), TensorField.zero(CHART, (0, 2)),
        TensorField.identity_endo(CHART), a + b, a - b, -a, a.scale(Y),
        tensor.endo_compose(a, b), *tensor._unstack(CHART, (1, 0), stacked, 2),
    ]
    for value in built:
        assert type(value) is TensorField
        assert_guarded(value, FIELD_PARTS, "TensorField is immutable")


@pytest.mark.parametrize("residual", [
    TensorField.zero(CHART, (1, 0)),
    TensorField(CHART, (1, 0), [X * Y - 1, 0]),
], ids=["passing", "failing"])
def test_new_entry_makes_the_entry_the_constructor_makes(residual):
    entry = new_entry("F xi_1", "1.2", residual, seed=7)
    made = CheckEntry(name="F xi_1", tag="1.2", residual=residual, passed=entry.passed,
                      witness=entry.witness)
    assert type(entry) is CheckEntry
    assert entry == made and repr(entry) == repr(made)
    assert list(vars(entry).items()) == list(vars(made).items())
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.passed = not entry.passed
    renamed = dataclasses.replace(entry, name="F xi_2")
    assert renamed == dataclasses.replace(made, name="F xi_2")
    assert (renamed.name, renamed.residual, renamed.witness) == ("F xi_2", residual, entry.witness)
