"""Report assembly: one internal tree rendered as human text or machine JSON.

Both renderings come from the same Section values, polynomials are printed
in canonical form, and all randomness upstream is seeded, so identical
inputs produce byte-identical machine reports.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from dataclasses import dataclass, field
from typing import Optional

from . import __version__ as _pkg_version
from .algebra import Poly
from .structures import CheckEntry, CheckReport, RContactStructure
from .tensor import Point, TensorField
from .theorems import SignSweep


def _printed(items) -> list[tuple[str, str]]:
    """(label, text) of each (label tuple, Poly) of a field's nonzero items.
    Poly hashes and compares by value, so each distinct component is printed
    once, through a table local to the call."""
    texts: dict[Poly, str] = {}
    out = []
    for label, poly in items:
        text = texts.get(poly)
        if text is None:
            text = texts[poly] = str(poly)
        out.append((",".join(label), text))
    return out


def render_residual(residual: TensorField) -> dict[str, str] | str:
    items = residual.nonzero_items()
    if not items:
        return "0"
    return {label or "scalar": text for label, text in _printed(items)}


def render_point(point: Optional[Point]) -> Optional[dict[str, str]]:
    if point is None:
        return None
    return {name: str(value) for name, value in zip(point.chart.coords, point.values)}


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _object(value: Optional[dict[str, str]] | str) -> str:
    """A rendered residual or witness as the value of an entry's key: "0",
    null, or a nonempty str-to-str object."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return _quote(value)
    items = ",".join(f"\n            {_quote(k)}: {_quote(v)}" for k, v in value.items())
    return f"{{{items}\n          }}"


def _entry(e: CheckEntry) -> str:
    """One item of a section's entries, as ``json.dumps(doc, indent=2)`` writes
    it.  A zero residual with no witness, as every passing entry has, is
    written without rendering either."""
    if e.residual.entries or e.witness is not None:
        residual, witness = _object(render_residual(e.residual)), _object(render_point(e.witness))
    else:
        residual, witness = '"0"', "null"
    # an f-string, not str.format, which parses its template on every call
    return (f'\n        {{\n          "name": {_quote(e.name)},\n          "tag": {_quote(e.tag)},'
            f'\n          "passed": {_bool(e.passed)},\n          "residual": {residual},'
            f'\n          "witness": {witness}\n        }}')


@dataclass
class Section:
    task: str
    title: str
    passed: bool
    entries: list[CheckEntry] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    informational: bool = False


@dataclass
class Report:
    seed: int
    sections: list[Section] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(s.passed for s in self.sections if not s.informational)

    def render_machine(self) -> str:
        """The report as ``json.dumps(doc, indent=2)`` writes its document, plus
        a newline, written level by level through fixed templates."""
        out = [f'{{\n  "tool": "liftcheck",\n  "version": {_quote(_pkg_version)},'
               f'\n  "seed": {int.__repr__(self.seed)},\n  "overall": {_bool(self.overall)},'
               f'\n  "sections": ']
        sep = "["
        for section in self.sections:
            out.append(f'{sep}\n    {{\n      "task": {_quote(section.task)},'
                       f'\n      "title": {_quote(section.title)},'
                       f'\n      "passed": {_bool(section.passed)},'
                       f'\n      "informational": {_bool(section.informational)}')
            if section.entries:
                out.append(f',\n      "entries": [{",".join(map(_entry, section.entries))}\n      ]')
            for key, value in (("rows", section.rows), ("notes", section.notes)):
                if value:
                    out.append(f',\n      "{key}": ')
                    _emit(value, "\n      ", out)
            out.append("\n    }")
            sep = ","
        out.append("\n  ]\n}\n" if self.sections else "[]\n}\n")
        return "".join(out)

    def render_human(self) -> str:
        lines: list[str] = []
        for section in self.sections:
            lines.append(f"== {section.title} ==")
            width = max((len(e.name) for e in section.entries), default=0)
            for e in section.entries:
                verdict = "PASS" if e.passed else "FAIL"
                lines.append(f"  [{e.tag}] {e.name.ljust(width)}  {verdict}")
                if not e.passed:
                    residual = render_residual(e.residual)
                    if isinstance(residual, dict):
                        shown = list(residual.items())[:3]
                        for label, poly in shown:
                            lines.append(f"        residual[{label}] = {poly}")
                        extra = len(residual) - len(shown)
                        if extra > 0:
                            lines.append(f"        ... {extra} more nonzero components")
                    inner = ", ".join(f"{k}={v}" for k, v in render_point(e.witness).items())
                    lines.append(f"        witness: ({inner})")
            for row in section.rows:
                cells = ", ".join(f"{k}={v}" for k, v in row.items())
                lines.append(f"  {cells}")
            for note in section.notes:
                lines.append(f"  note: {note}")
            tagline = "INFO" if section.informational else (
                "PASS" if section.passed else "FAIL"
            )
            lines.append(f"  section: {tagline}")
            lines.append("")
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _emit(value, indent: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, indent=2)`` writes
    it, ``indent`` being the newline and indentation of its own line.

    A plain recursive function: the encoder that ``json.dumps`` runs with
    ``indent`` leaves a cycle of closures behind on every call.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, sep = indent + "  ", "{"
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"a machine report key must be a str, not {type(key).__name__}")
            head = f"{sep}{inner}{_quote(key)}: "
            # a str or bool value is written in its key's append, with no call
            if isinstance(item, str):
                out.append(head + _quote(item))
            elif item is True or item is False:
                out.append(head + ("true" if item else "false"))
            else:
                out.append(head)
                _emit(item, inner, out)
            sep = ","
        out.append(indent + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner, sep = indent + "  ", "["
        for item in value:
            out.append(sep + inner)
            _emit(item, inner, out)
            sep = ","
        out.append(indent + "]")
    else:
        raise TypeError(f"a machine report cannot hold a {type(value).__name__}")


def section_from_check(task: str, title: str, check: CheckReport) -> Section:
    return Section(
        task=task,
        title=title,
        passed=check.overall,
        entries=list(check.entries),
        notes=list(check.notes),
    )


def section_from_sweep(
    task: str, title: str, sweep: SignSweep, structure: RContactStructure
) -> Section:
    rows = []
    for (s, t), entry in sweep.cells.items():
        doc = {
            "s": s,
            "t": t,
            "epsilon": structure.epsilon,
            "signature": structure.signature,
            "passed": entry.passed,
            "predicted": sweep.predicted(s, t),
        }
        witness = render_point(entry.witness)
        if witness is not None:
            doc["witness"] = witness
        rows.append(doc)
    return Section(
        task=task,
        title=title,
        passed=True,
        rows=rows,
        notes=list(sweep.notes),
        informational=True,
    )


def section_from_j(task: str, title: str, j: TensorField) -> Section:
    rows = [{"component": label, "value": text} for label, text in _printed(j.nonzero_items())]
    return Section(task=task, title=title, passed=True, rows=rows)
