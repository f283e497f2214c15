"""Report assembly: one internal tree rendered as human text or machine JSON.

Both renderings come from the same Section values, polynomials are printed
in canonical form, and all randomness upstream is seeded, so identical
inputs produce byte-identical machine reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from . import __version__ as _pkg_version
from .structures import CheckEntry, CheckReport
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


def render_residual(residual: TensorField) -> dict[str, str] | str:
    items = residual.nonzero_items()
    if not items:
        return "0"
    return {",".join(label) or "scalar": str(poly) for label, poly in items}


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
        return json.dumps(self.to_doc(), indent=2) + "\n"

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


def section_from_check(task: str, title: str, check: CheckReport) -> Section:
    return Section(
        task=task,
        title=title,
        passed=check.overall,
        entries=[EntryView.from_entry(e) for e in check.entries],
        notes=list(check.notes),
    )


def section_from_sweep(task: str, title: str, sweep: SignSweep) -> Section:
    rows = []
    for row in sweep.rows:
        predicted = sweep.predicted(row.s, row.t)
        doc = {
            "s": row.s,
            "t": row.t,
            "epsilon": row.epsilon,
            "signature": row.signature,
            "passed": row.passed,
            "predicted": predicted,
        }
        witness = render_point(row.witness)
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
    rows = [
        {"component": ",".join(label), "value": str(poly)}
        for label, poly in j.nonzero_items()
    ]
    return Section(task=task, title=title, passed=True, rows=rows)
