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


@dataclass
class EntryView:
    name: str
    tag: str
    passed: bool
    residual: dict[str, str] | str
    witness: Optional[dict[str, str]]

    @classmethod
    def from_entry(cls, entry: CheckEntry) -> "EntryView":
        return cls(
            name=entry.name,
            tag=entry.tag,
            passed=entry.passed,
            residual=render_residual(entry.residual),
            witness=render_point(entry.witness),
        )

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "tag": self.tag,
            "passed": self.passed,
            "residual": self.residual,
            "witness": self.witness,
        }


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


@dataclass
class Section:
    task: str
    title: str
    passed: bool
    entries: list[EntryView] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    informational: bool = False

    def to_doc(self) -> dict:
        doc: dict = {
            "task": self.task,
            "title": self.title,
            "passed": self.passed,
            "informational": self.informational,
        }
        if self.entries:
            doc["entries"] = [e.to_doc() for e in self.entries]
        if self.rows:
            doc["rows"] = self.rows
        if self.notes:
            doc["notes"] = self.notes
        return doc


@dataclass
class Report:
    seed: int
    sections: list[Section] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(s.passed for s in self.sections if not s.informational)

    def to_doc(self) -> dict:
        return {
            "tool": "liftcheck",
            "version": _pkg_version,
            "seed": self.seed,
            "overall": self.overall,
            "sections": [s.to_doc() for s in self.sections],
        }

    def render_machine(self) -> str:
        out: list[str] = []
        _emit(self.to_doc(), "\n", out)
        out.append("\n")
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
                    if isinstance(e.residual, dict):
                        shown = list(e.residual.items())[:3]
                        for label, poly in shown:
                            lines.append(f"        residual[{label}] = {poly}")
                        extra = len(e.residual) - len(shown)
                        if extra > 0:
                            lines.append(f"        ... {extra} more nonzero components")
                    inner = ", ".join(f"{k}={v}" for k, v in e.witness.items())
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
        entries=[EntryView.from_entry(e) for e in check.entries],
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
