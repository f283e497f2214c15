"""Reader and writer for the line-oriented `.def` structure definition format.

A definition file declares one chart, an optional connection, one structure
and a task list::

    # canonical contact model
    chart M a1 b1 c1
    fiber_suffix _dot          # optional, default _dot

    connection symmetric       # optional block, sparse entries, 1-based indices
      Gamma[3,1,1] = a1
    end

    structure
      epsilon -1
      signature riemannian
      mode paper-literal       # optional: paper-literal | consistent
      n 1
      r 1
      F[1,2] = -1              # F^row_col, sparse, defaults 0
      F[2,1] = 1
      xi[1,3] = 1              # xi[alpha, component]
      eta[1,3] = 1
      metric[1,1] = 1          # optional; metric present iff any entry given
      metric[2,2] = 1
      metric[3,3] = 1
    end

    task check
    task lift complete
    task theorem 4.1
    task build-j complete 1 -1
    task verify complete 1 -1
    task sweep complete

All polynomial right-hand sides are infix expressions over the declared
coordinates.  Each entry may be given once; in a symmetric connection
``Gamma[i,k,j]`` is the entry ``Gamma[i,j,k]``.  So may each header line:
``fiber_suffix`` and a structure's ``epsilon``, ``signature``, ``mode``, ``n``
and ``r``.  Parsing builds the structure and the connection, and
``emit_definition(parse_definition(text))`` reparses to an equal Definition.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import repeat
from typing import Optional

from .algebra import Poly
from .expr import ParseError, is_name, parse_poly
from .lifts import COMPLETE, DEFAULT_FIBER_SUFFIX, HORIZONTAL, Connection, LiftError, TangentChart
from .structures import (
    AXIOM_MODES,
    PAPER_LITERAL,
    RContactStructure,
    SIGNATURES,
    StructureError,
)
from .tensor import Chart, TensorField, _stack
from .theorems import THEOREMS


class DefinitionError(ValueError):
    """Parse or validation failure with a 1-based line (and column) location;
    a task built from command-line flags has none."""

    def __init__(self, message: str, line: int | None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:
        if self.line is None:
            return self.args[0]
        where = f"line {self.line}"
        if self.column is not None:
            where += f", column {self.column}"
        return f"{self.args[0]} ({where})"


@dataclass(frozen=True)
class Task:
    kind: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        return " ".join(("task", self.kind) + self.args)


@dataclass
class Definition:
    """A parsed ``.def`` file: the chart, the connection and the structure its
    blocks build (None when a block is absent), the structure block's axiom
    mode and the task list."""

    chart: Chart
    fiber_suffix: str = DEFAULT_FIBER_SUFFIX
    connection: Optional[Connection] = None
    structure: Optional[RContactStructure] = None
    mode: str = PAPER_LITERAL
    tasks: list[Task] = field(default_factory=list)

    @cached_property
    def tangent(self) -> TangentChart:
        """The tangent chart of the chart and fiber suffix, made on first read
        and read by every lift of a run; ``LiftError`` when a fiber name is a
        base name."""
        return TangentChart.over(self.chart, self.fiber_suffix)


# The entry families of a structure block, in emission order: the name written
# in the file, what its two indices mean, the valence of its fields, and
# whether the family is optional.  An "index" family is one m x m field, both
# indices over the chart.  A "component index" family is one field per
# alpha = 1..r, the first index alpha (checked once r is known), the second a
# chart index.  Each family is the structure's attribute of the lower-cased
# name.  An optional family is present iff some line of it was read, even one
# whose value is 0.  The parser and the emitter are the only readers.
_FAMILIES = (
    ("F", "index", (1, 1), False),
    ("xi", "component index", (1, 0), False),
    ("eta", "component index", (0, 1), False),
    ("metric", "index", (0, 2), True),
)


_ENTRY_RE = re.compile(r"^(\w+)\[([0-9,\s]+)\]\s*=\s*(.+)$")

_TASK_ARITY = {
    "check": (0, 0),
    "lift": (0, 1),
    "build-j": (1, 3),
    "verify": (1, 3),
    "theorem": (1, 1),
    "sweep": (1, 1),
    "actions": (1, 1),
}


def _strip_comment(raw: str) -> str:
    cut = raw.find("#")
    return raw if cut < 0 else raw[:cut]


def _rhs_offset(raw_line: str) -> int:
    """0-based column where the right-hand side after '=' starts."""
    body = _strip_comment(raw_line)
    eq = body.find("=")
    if eq < 0:
        return 0
    tail = body[eq + 1 :]
    return eq + 1 + (len(tail) - len(tail.lstrip()))


def _natural(text: str, message: str, lineno: int) -> int:
    """``text`` as a natural number, or ``message`` at ``lineno``: ASCII digits
    only, since ``str.isdigit`` also accepts "²" and "٣"."""
    if not (text.isascii() and text.isdigit()):
        raise DefinitionError(message, lineno)
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise DefinitionError(f"integer of {len(text)} digits is too long", lineno) from None


def _parse_indices(text: str, count: int, lineno: int) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    message = f"expected {count} comma-separated indices"
    if len(parts) != count:
        raise DefinitionError(message, lineno)
    return tuple(_natural(p, message, lineno) for p in parts)


def _parse_rhs(rhs: str, coords, lineno: int, offset: int) -> Poly:
    try:
        return parse_poly(rhs, coords)
    except ParseError as exc:
        raise DefinitionError(exc.args[0], lineno, offset + exc.column + 1) from exc


def validate_task(kind: str, args: tuple[str, ...], lineno: int | None = None) -> Task:
    """The task ``kind args`` once its arguments are checked; the one check of a
    task, read from a ``task`` line at ``lineno`` or built from command-line flags."""
    if kind not in _TASK_ARITY:
        raise DefinitionError(f"unknown task {kind!r}", lineno)
    lo, hi = _TASK_ARITY[kind]
    if not (lo <= len(args) <= hi):
        raise DefinitionError(f"task {kind!r} takes {lo}..{hi} arguments", lineno)
    if kind in ("theorem", "actions"):
        if args[0] not in THEOREMS:
            raise DefinitionError(
                f"unknown theorem tag {args[0]!r} (expected one of {', '.join(THEOREMS)})",
                lineno,
            )
    if kind in ("build-j", "verify"):
        if args[0] in THEOREMS:
            if len(args) != 1:
                raise DefinitionError(
                    f"task {kind!r} with a theorem tag takes no lift kind or signs", lineno
                )
        elif args[0] in (COMPLETE, HORIZONTAL):
            if len(args) != 3 or any(a not in ("1", "-1", "+1") for a in args[1:]):
                raise DefinitionError(
                    f"task {kind!r} needs a lift kind plus signs s t in -1/+1", lineno
                )
        else:
            raise DefinitionError(
                f"task {kind!r} needs a theorem tag or a lift kind", lineno
            )
    if kind == "sweep" and args[0] not in (COMPLETE, HORIZONTAL):
        raise DefinitionError("task 'sweep' needs complete or horizontal", lineno)
    if kind == "lift" and args and args[0] not in (COMPLETE, HORIZONTAL):
        raise DefinitionError(
            "task 'lift' takes no argument, or complete, or horizontal", lineno
        )
    return Task(kind, args)


def _block(rows, head: str, start: int) -> list[tuple[int, str, str]]:
    """The rows of the block opened at line ``start``, read from ``rows`` up
    to its ``end`` line."""
    body = []
    for row in rows:
        if row[2] == "end":
            return body
        body.append(row)
    raise DefinitionError(f"{head} block not closed with 'end'", start)


def _once(seen: dict, key, text: str, lineno: int) -> None:
    """Keep ``text`` at ``lineno`` under ``key`` in ``seen``, the lines read
    so far; a line with a key read before names the first one."""
    if key in seen:
        first_line, first = seen[key]
        raise DefinitionError(f"{text} repeats {first} of line {first_line}", lineno)
    seen[key] = (lineno, text)


def _read_entry(row, chart: Chart, meanings: dict[str, str], arity: int, seen: dict, texts: dict,
                unknown: str, symmetric: bool = False) -> tuple[str, tuple[int, ...], Poly]:
    """(name, 0-based indices, value) of the entry line ``name[i,...] = expr``.

    ``meanings`` maps each family name to what its indices mean (see
    ``_FAMILIES``); ``unknown`` is the message, formatted with the line's first
    word, for a line of no family.  ``seen`` maps each entry read so far to its
    line and text; with ``symmetric`` the last two indices commute, so
    ``Gamma[i,k,j]`` repeats ``Gamma[i,j,k]``.  ``texts`` maps each right-hand
    side parsed so far in this definition to its value, so an equal one is
    read once; a text that fails to parse is never stored.
    """
    lineno, raw, line = row
    match = _ENTRY_RE.match(line)
    if not match:
        raise DefinitionError(unknown.format(line.split()[0]), lineno)
    name, rhs = match.group(1, 3)
    value = texts.get(rhs)
    if value is None:
        value = texts[rhs] = _parse_rhs(rhs, chart.coords, lineno, _rhs_offset(raw))
    meaning = meanings.get(name)
    if meaning is None:
        raise DefinitionError(unknown.format(name), lineno)
    idx = _parse_indices(match.group(2), arity, lineno)
    if any(v < 1 or v > chart.dim for v in (idx if meaning == "index" else idx[1:])):
        raise DefinitionError(f"{name} {meaning} out of range 1..{chart.dim}", lineno)
    text = f"{name}[{','.join(map(str, idx))}]"
    _once(seen, (name, idx[0], *sorted(idx[1:])) if symmetric else (name, *idx), text, lineno)
    return name, tuple(v - 1 for v in idx), value


def parse_definition(text: str) -> Definition:
    chart: Optional[Chart] = None
    fiber_suffix = DEFAULT_FIBER_SUFFIX
    connection: Optional[Connection] = None
    structure: Optional[RContactStructure] = None
    mode = PAPER_LITERAL
    tasks: list[Task] = []
    seen: dict = {}
    texts: dict[str, Poly] = {}  # right-hand side -> value, for this call only

    lines = text.splitlines()
    # (line number, raw line, line less comment and outer blanks) of each
    # non-blank line; a block reads its body from the same iterator
    rows = (
        (lineno, raw, line)
        for lineno, raw in enumerate(lines, 1)
        if (line := _strip_comment(raw).strip())
    )
    for lineno, _, line in rows:
        words = line.split()
        head = words[0]

        if head == "chart":
            if chart is not None:
                raise DefinitionError("duplicate chart declaration", lineno)
            if len(words) < 3:
                raise DefinitionError("chart needs a name and coordinates", lineno)
            for word in words[2:]:
                if not is_name(word):
                    raise DefinitionError(f"coordinate {word!r} is not a name", lineno)
            try:
                chart = Chart(words[1], tuple(words[2:]))
            except ValueError as exc:
                raise DefinitionError(str(exc), lineno) from exc
            chart_line = lineno
            continue

        if head == "fiber_suffix":
            _once(seen, head, " ".join(words), lineno)
            if len(words) != 2:
                raise DefinitionError("fiber_suffix needs one value", lineno)
            # a coordinate name plus the suffix must again be a name
            if not is_name("_" + words[1]):
                raise DefinitionError(f"fiber_suffix {words[1]!r} has a non-name character", lineno)
            fiber_suffix = words[1]
            continue

        if chart is None:
            raise DefinitionError("chart declaration must come first", lineno)

        if head == "connection":
            if connection is not None:
                raise DefinitionError("duplicate connection block", lineno)
            if len(words) > 2 or (len(words) == 2 and words[1] not in ("symmetric", "general")):
                raise DefinitionError("connection takes optional 'symmetric' or 'general'", lineno)
            symmetric = len(words) < 2 or words[1] == "symmetric"
            entries = {}
            for row in _block(rows, head, lineno):
                _, idx, value = _read_entry(
                    row, chart, {"Gamma": "index"}, 3, seen, texts,
                    "expected 'Gamma[i,j,k] = expr' or 'end'", symmetric,
                )
                entries[idx] = value
            connection = Connection.from_entries(chart, entries, symmetric)
            continue

        if head == "structure":
            if structure is not None:
                raise DefinitionError("duplicate structure block", lineno)
            structure, mode = _read_structure(_block(rows, head, lineno), lineno, chart, texts)
            continue

        if head == "task":
            if len(words) < 2:
                raise DefinitionError("task needs a kind", lineno)
            tasks.append(validate_task(words[1], tuple(words[2:]), lineno))
            continue

        raise DefinitionError(f"unknown directive {head!r}", lineno)

    if chart is None:
        raise DefinitionError("missing chart declaration", len(lines) or 1)
    defn = Definition(chart, fiber_suffix, connection, structure, mode, tasks)
    try:
        defn.tangent  # making it checks that no fiber name is a base name
    except LiftError as exc:
        # at the fiber_suffix line, if there is one
        raise DefinitionError(str(exc), seen.get("fiber_suffix", (chart_line,))[0]) from exc
    return defn


def _read_structure(body, start: int, chart: Chart, texts: dict) -> tuple[RContactStructure, str]:
    """The structure and axiom mode of the block opened at line ``start``;
    ``texts`` as for ``_read_entry``."""
    epsilon: Optional[int] = None
    signature: Optional[str] = None
    mode = PAPER_LITERAL
    sizes: dict[str, int] = {}
    meanings = {name: meaning for name, meaning, _, _ in _FAMILIES}
    entries: dict[str, dict[tuple[int, int], Poly]] = {}
    seen: dict = {}

    for row in body:
        lineno, _, line = row
        words = line.split()
        head = words[0]
        if head in ("epsilon", "signature", "mode", "n", "r"):
            _once(seen, head, " ".join(words), lineno)
        if head == "epsilon":
            if len(words) != 2 or words[1] not in ("-1", "1", "+1"):
                raise DefinitionError("epsilon must be -1 or +1", lineno)
            epsilon = int(words[1])
            continue
        if head == "signature":
            if len(words) != 2 or words[1] not in SIGNATURES:
                raise DefinitionError(
                    f"signature must be one of {', '.join(SIGNATURES)}", lineno
                )
            signature = words[1]
            continue
        if head == "mode":
            if len(words) != 2 or words[1] not in AXIOM_MODES:
                raise DefinitionError(
                    f"mode must be one of {', '.join(AXIOM_MODES)}", lineno
                )
            mode = words[1]
            continue
        if head in ("n", "r"):
            value = words[1] if len(words) == 2 else ""
            sizes[head] = _natural(value, f"{head} must be a nonnegative integer", lineno)
            continue
        name, idx, value = _read_entry(row, chart, meanings, 2, seen, texts, "unknown structure field {!r}")
        entries.setdefault(name, {})[idx] = value

    if epsilon is None or signature is None or len(sizes) < 2:
        raise DefinitionError(
            "structure block needs epsilon, signature, n and r", start
        )
    n, r = sizes["n"], sizes["r"]
    per_alpha = [name for name, meaning in meanings.items() if meaning != "index"]
    if any(not 0 <= alpha < r for name in per_alpha for alpha, _ in entries.get(name, ())):
        raise DefinitionError(f"{'/'.join(per_alpha)} family index out of range 1..{r}", start)

    fields = {}
    for name, meaning, valence, optional in _FAMILIES:
        family = entries.get(name)
        if family is None and optional:
            fields[name.lower()] = None
        elif meaning == "index":
            fields[name.lower()] = TensorField.from_entries(chart, valence, family or {})
        else:
            per_alpha: dict[int, dict] = {}
            for (alpha, b), value in (family or {}).items():
                per_alpha.setdefault(alpha, {})[b,] = value
            # lazy, so that RContactStructure checks 2n + r = m before any of
            # the r fields is made
            make = partial(TensorField.from_entries, chart, valence)
            fields[name.lower()] = map(make, map(per_alpha.get, range(r), repeat({})))
    try:
        structure = RContactStructure(
            chart=chart, epsilon=epsilon, signature=signature, n=n, r=r, **fields
        )
    except StructureError as exc:
        raise DefinitionError(str(exc), start) from exc
    return structure, mode


# -- accessors of the built objects ---------------------------------------------------


def build_structure(defn: Definition) -> RContactStructure:
    """The structure the definition's block built."""
    if defn.structure is None:
        raise DefinitionError("definition has no structure block", 1)
    return defn.structure


def build_connection(defn: Definition) -> Optional[Connection]:
    """The connection the definition's block built, or None without one."""
    return defn.connection


# -- canonical emission ---------------------------------------------------------------


def emit_definition(defn: Definition) -> str:
    """The ``.def`` text of ``defn``: the nonzero components of each field, a
    symmetric connection's with j <= k only."""
    out: list[str] = []
    out.append("chart " + defn.chart.name + " " + " ".join(defn.chart.coords))
    if defn.fiber_suffix != DEFAULT_FIBER_SUFFIX:
        out.append(f"fiber_suffix {defn.fiber_suffix}")
    conn = defn.connection
    if conn is not None:
        out.append("")
        out.append("connection " + ("symmetric" if conn.symmetric else "general"))
        for (i, j, k), val in sorted(conn.entries.items()):
            if not (conn.symmetric and j > k):
                out.append(f"  Gamma[{i + 1},{j + 1},{k + 1}] = {val}")
        out.append("end")
    s = defn.structure
    if s is not None:
        out.append("")
        out.append("structure")
        out.append(f"  epsilon {s.epsilon}")
        out.append(f"  signature {s.signature}")
        if defn.mode != PAPER_LITERAL:
            out.append(f"  mode {defn.mode}")
        out.append(f"  n {s.n}")
        out.append(f"  r {s.r}")
        for name, meaning, _, optional in _FAMILIES:
            value = getattr(s, name.lower())
            if value is None:
                continue
            entries = value.entries if meaning == "index" else _stack(value)
            lines = [f"  {name}[{a + 1},{b + 1}] = {val}" for (a, b), val in sorted(entries.items())]
            # an optional family is present iff some line of it is written
            if optional and not lines:
                lines = [f"  {name}[1,1] = 0"]
            out.extend(lines)
        out.append("end")
    if defn.tasks:
        out.append("")
        for task in defn.tasks:
            out.append(str(task))
    return "\n".join(out) + "\n"


def structure_to_definition(
    structure: RContactStructure,
    mode: str = PAPER_LITERAL,
    conn: Optional[Connection] = None,
    tasks: Optional[list[Task]] = None,
) -> Definition:
    """Definition of an in-memory structure (used by the demo and tests)."""
    return Definition(structure.chart, connection=conn, structure=structure, mode=mode,
                      tasks=list(tasks or []))
