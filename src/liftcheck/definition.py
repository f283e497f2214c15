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
coordinates.  ``emit_definition(parse_definition(text))`` reparses to an
equal Definition.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .algebra import Poly
from .expr import ParseError, is_name, parse_poly
from .lifts import COMPLETE, DEFAULT_FIBER_SUFFIX, HORIZONTAL, Connection
from .structures import (
    AXIOM_MODES,
    PAPER_LITERAL,
    RContactStructure,
    SIGNATURES,
    StructureError,
)
from .tensor import Chart, TensorField
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
class StructureBlock:
    epsilon: int
    signature: str
    mode: str
    n: int
    r: int
    f_entries: dict[tuple[int, int], Poly]
    xi_entries: dict[tuple[int, int], Poly]
    eta_entries: dict[tuple[int, int], Poly]
    metric_entries: Optional[dict[tuple[int, int], Poly]]


@dataclass
class Definition:
    chart: Chart
    fiber_suffix: str = DEFAULT_FIBER_SUFFIX
    connection_entries: Optional[dict[tuple[int, int, int], Poly]] = None
    connection_symmetric: bool = True
    structure: Optional[StructureBlock] = None
    tasks: list[Task] = field(default_factory=list)


# The entry families of a structure block, in emission order: the name written
# in the file, what its two indices mean, the field made from its rows, and
# whether the family is optional.  An "index" family is one m x m field, both
# indices over the chart.  A "component index" family is one field per
# alpha = 1..r, the first index alpha (checked once r is known), the second a
# chart index.  Each family is kept as ``<name>_entries`` on the StructureBlock
# and as ``<name>`` on the structure, with the name lower-cased.  An optional
# family is present iff some line of it was read, even one whose value is 0.
_FAMILIES = (
    ("F", "index", TensorField.endo, False),
    ("xi", "component index", TensorField.vector, False),
    ("eta", "component index", TensorField.oneform, False),
    ("metric", "index", TensorField.bilinear, True),
)
_MEANINGS = {name: meaning for name, meaning, _, _ in _FAMILIES}
_PER_ALPHA = "/".join(name for name, meaning, _, _ in _FAMILIES if meaning != "index")


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


def _is_natural(text: str) -> bool:
    """True for a run of ASCII digits; ``str.isdigit`` also accepts "²" and "٣"."""
    return text.isascii() and text.isdigit()


def _parse_indices(text: str, count: int, lineno: int) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count or not all(_is_natural(p) for p in parts):
        raise DefinitionError(f"expected {count} comma-separated indices", lineno)
    return tuple(int(p) for p in parts)


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


def parse_definition(text: str) -> Definition:
    chart: Optional[Chart] = None
    fiber_suffix = DEFAULT_FIBER_SUFFIX
    connection_entries: Optional[dict[tuple[int, int, int], Poly]] = None
    connection_symmetric = True
    structure: Optional[StructureBlock] = None
    tasks: list[Task] = []

    lines = text.splitlines()
    i = 0
    while i < len(lines):
        lineno = i + 1
        line = _strip_comment(lines[i]).strip()
        i += 1
        if not line:
            continue
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
            continue

        if head == "fiber_suffix":
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
            if connection_entries is not None:
                raise DefinitionError("duplicate connection block", lineno)
            if len(words) > 2 or (len(words) == 2 and words[1] not in ("symmetric", "general")):
                raise DefinitionError("connection takes optional 'symmetric' or 'general'", lineno)
            connection_symmetric = len(words) < 2 or words[1] == "symmetric"
            connection_entries = {}
            while True:
                if i >= len(lines):
                    raise DefinitionError("connection block not closed with 'end'", lineno)
                inner_no = i + 1
                inner = _strip_comment(lines[i]).strip()
                i += 1
                if not inner:
                    continue
                if inner == "end":
                    break
                match = _ENTRY_RE.match(inner)
                if not match or match.group(1) != "Gamma":
                    raise DefinitionError(
                        "expected 'Gamma[i,j,k] = expr' or 'end'", inner_no
                    )
                idx = _parse_indices(match.group(2), 3, inner_no)
                if any(v < 1 or v > chart.dim for v in idx):
                    raise DefinitionError(
                        f"Gamma index out of range 1..{chart.dim}", inner_no
                    )
                key = (idx[0] - 1, idx[1] - 1, idx[2] - 1)
                connection_entries[key] = _parse_rhs(
                    match.group(3), chart.coords, inner_no, _rhs_offset(lines[i - 1])
                )
            continue

        if head == "structure":
            if structure is not None:
                raise DefinitionError("duplicate structure block", lineno)
            structure = _parse_structure_block(lines, i, chart)
            i = structure[1]
            structure = structure[0]
            continue

        if head == "task":
            if len(words) < 2:
                raise DefinitionError("task needs a kind", lineno)
            tasks.append(validate_task(words[1], tuple(words[2:]), lineno))
            continue

        raise DefinitionError(f"unknown directive {head!r}", lineno)

    if chart is None:
        raise DefinitionError("missing chart declaration", len(lines) or 1)
    return Definition(
        chart=chart,
        fiber_suffix=fiber_suffix,
        connection_entries=connection_entries,
        connection_symmetric=connection_symmetric,
        structure=structure,
        tasks=tasks,
    )


def _parse_structure_block(lines, i, chart) -> tuple[StructureBlock, int]:
    epsilon: Optional[int] = None
    signature: Optional[str] = None
    mode = PAPER_LITERAL
    n: Optional[int] = None
    r: Optional[int] = None
    entries: dict[str, dict[tuple[int, int], Poly]] = {}
    start = i

    while True:
        if i >= len(lines):
            raise DefinitionError("structure block not closed with 'end'", start)
        lineno = i + 1
        line = _strip_comment(lines[i]).strip()
        i += 1
        if not line:
            continue
        if line == "end":
            break
        words = line.split()
        head = words[0]
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
            if len(words) != 2 or not _is_natural(words[1]):
                raise DefinitionError(f"{head} must be a nonnegative integer", lineno)
            if head == "n":
                n = int(words[1])
            else:
                r = int(words[1])
            continue
        match = _ENTRY_RE.match(line)
        if not match:
            raise DefinitionError(f"unknown structure field {head!r}", lineno)
        name = match.group(1)
        value = _parse_rhs(match.group(3), chart.coords, lineno, _rhs_offset(lines[i - 1]))
        meaning = _MEANINGS.get(name)
        if meaning is None:
            raise DefinitionError(f"unknown structure field {name!r}", lineno)
        idx = _parse_indices(match.group(2), 2, lineno)
        if any(v < 1 or v > chart.dim for v in (idx if meaning == "index" else idx[1:])):
            raise DefinitionError(f"{name} {meaning} out of range 1..{chart.dim}", lineno)
        entries.setdefault(name, {})[(idx[0] - 1, idx[1] - 1)] = value

    if epsilon is None or signature is None or n is None or r is None:
        raise DefinitionError(
            "structure block needs epsilon, signature, n and r", start
        )
    for name, meaning, _, optional in _FAMILIES:
        family = entries.setdefault(name, None if optional else {})
        if meaning != "index" and any(not 0 <= alpha < r for alpha, _ in family):
            raise DefinitionError(f"{_PER_ALPHA} family index out of range 1..{r}", start)
    block = StructureBlock(
        epsilon=epsilon, signature=signature, mode=mode, n=n, r=r,
        **{f"{name.lower()}_entries": entries[name] for name in _MEANINGS},
    )
    return block, i


# -- assembly into engine objects ---------------------------------------------------


def build_structure(defn: Definition) -> RContactStructure:
    if defn.structure is None:
        raise DefinitionError("definition has no structure block", 1)
    block = defn.structure
    chart = defn.chart
    m = chart.dim
    if 2 * block.n + block.r != m:
        raise DefinitionError(
            f"chart dim {m} != 2n + r = {2 * block.n + block.r}", 1
        )
    z = chart.zero_poly()

    def dense(entries: dict[tuple[int, int], Poly], rows: int) -> list[list[Poly]]:
        out = [[z] * m for _ in range(rows)]
        for (a, b), val in entries.items():
            out[a][b] = val
        return out

    fields = {}
    for name, meaning, make, _ in _FAMILIES:
        entries = getattr(block, f"{name.lower()}_entries")
        if entries is None:
            fields[name.lower()] = None
        elif meaning == "index":
            fields[name.lower()] = make(chart, dense(entries, m))
        else:
            fields[name.lower()] = tuple(make(chart, row) for row in dense(entries, block.r))
    try:
        return RContactStructure(
            chart=chart,
            epsilon=block.epsilon,
            signature=block.signature,
            n=block.n,
            r=block.r,
            **fields,
        )
    except StructureError as exc:
        raise DefinitionError(str(exc), 1) from exc


def build_connection(defn: Definition) -> Optional[Connection]:
    if defn.connection_entries is None:
        return None
    return Connection.from_entries(
        defn.chart, defn.connection_entries, defn.connection_symmetric
    )


# -- canonical emission ---------------------------------------------------------------


def emit_definition(defn: Definition) -> str:
    out: list[str] = []
    out.append("chart " + defn.chart.name + " " + " ".join(defn.chart.coords))
    if defn.fiber_suffix != DEFAULT_FIBER_SUFFIX:
        out.append(f"fiber_suffix {defn.fiber_suffix}")
    if defn.connection_entries is not None:
        out.append("")
        out.append(
            "connection " + ("symmetric" if defn.connection_symmetric else "general")
        )
        for (a, b, c) in sorted(defn.connection_entries):
            val = defn.connection_entries[(a, b, c)]
            out.append(f"  Gamma[{a + 1},{b + 1},{c + 1}] = {val}")
        out.append("end")
    if defn.structure is not None:
        block = defn.structure
        out.append("")
        out.append("structure")
        out.append(f"  epsilon {block.epsilon}")
        out.append(f"  signature {block.signature}")
        if block.mode != PAPER_LITERAL:
            out.append(f"  mode {block.mode}")
        out.append(f"  n {block.n}")
        out.append(f"  r {block.r}")
        for name, _, _, optional in _FAMILIES:
            entries = getattr(block, f"{name.lower()}_entries")
            lines = [
                f"  {name}[{a + 1},{b + 1}] = {val}"
                for (a, b), val in sorted((entries or {}).items()) if not val.is_zero()
            ]
            # an optional family is present iff some line of it is written
            if optional and entries is not None and not lines:
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
    """Definition equivalent of an in-memory structure (used by the demo and tests)."""
    chart = structure.chart

    def sparse(rows) -> dict[tuple[int, int], Poly]:
        return {
            (i, j): c for i, row in enumerate(rows) for j, c in enumerate(row) if not c.is_zero()
        }

    families = {}
    for name, meaning, _, _ in _FAMILIES:
        value = getattr(structure, name.lower())
        if value is None:
            families[f"{name.lower()}_entries"] = None
        else:
            rows = value.comps if meaning == "index" else [x.comps for x in value]
            families[f"{name.lower()}_entries"] = sparse(rows)
    connection_entries = None
    if conn is not None:
        connection_entries = {}
        for i in range(chart.dim):
            for j in range(chart.dim):
                for k in range(chart.dim):
                    entry = conn.gamma[i][j][k]
                    if entry.is_zero():
                        continue
                    if conn.symmetric and j > k:
                        continue
                    connection_entries[(i, j, k)] = entry
    block = StructureBlock(
        epsilon=structure.epsilon,
        signature=structure.signature,
        mode=mode,
        n=structure.n,
        r=structure.r,
        **families,
    )
    return Definition(
        chart=chart,
        connection_entries=connection_entries,
        connection_symmetric=conn.symmetric if conn else True,
        structure=block,
        tasks=list(tasks or []),
    )
