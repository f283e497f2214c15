"""Task orchestration: execute a definition's tasks and assemble the report."""

from __future__ import annotations

from typing import Optional, Sequence

from .definition import Definition, DefinitionError, Task, build_connection, build_structure
from .lifts import Connection, LiftContext, _contexts, verify_lift_interactions
from .structures import (
    DEFAULT_SEED,
    PAPER_LITERAL,
    R_CONTACT_FAMILY,
    CONSISTENT_FAMILY,
    check_axioms,
    check_metric,
    consistency_lint,
)
from .report import (
    Report,
    Section,
    section_from_check,
    section_from_j,
    section_from_sweep,
    section_from_verdict,
)
from .theorems import (
    THEOREM_SIGNS,
    LiftedStructureSpec,
    action_report,
    build_lifted_j,
    sign_sweep,
    verify_theorem,
)

# result tags for the catalogued theorem instances
_VERDICT_TAGS = {"4.1": "2.8", "4.2": "2.15", "4.3": "2.22", "4.4": "2.22"}


class TaskError(ValueError):
    """A task cannot run against this definition (missing structure, metric, ...)."""


class _Shared:
    """The structure and one lift context per lift kind, which every task of
    a run reads; horizontal uses the declared connection, or the flat one, and
    every kind shares the vertical lifts."""

    def __init__(self, defn: Definition):
        try:
            self.structure = build_structure(defn)
        except DefinitionError as exc:
            raise TaskError(str(exc)) from exc
        self.conn = build_connection(defn) or Connection.flat(defn.chart)
        self.suffix = defn.fiber_suffix
        self.context = _contexts(self.structure, self.conn, self.suffix)

    def spec(self, kind: str, s: int, t: int) -> tuple[LiftedStructureSpec, LiftContext]:
        ctx = self.context(kind)
        return LiftedStructureSpec(self.structure, kind, s, t, ctx.conn, self.suffix), ctx


def _spec_from_args(shared: _Shared, args: tuple[str, ...]) -> tuple[LiftedStructureSpec, LiftContext, str]:
    if args[0] in THEOREM_SIGNS:
        return (*shared.spec(*THEOREM_SIGNS[args[0]]), args[0])
    kind, s, t = args[0], int(args[1]), int(args[2])
    return (*shared.spec(kind, s, t), f"{kind} (s={s:+d}, t={t:+d})")


def run_task(
    defn: Definition,
    task: Task,
    seed: int = DEFAULT_SEED,
    mode_override: Optional[str] = None,
    *,
    shared: Optional[_Shared] = None,
) -> list[Section]:
    shared = shared or _Shared(defn)
    structure = shared.structure
    mode = mode_override or (defn.structure.mode if defn.structure else PAPER_LITERAL)

    if task.kind == "check":
        report = check_axioms(structure, mode=mode, seed=seed)
        family = R_CONTACT_FAMILY if mode == PAPER_LITERAL else CONSISTENT_FAMILY
        report.notes.extend(
            consistency_lint(family, structure.epsilon, structure.signature)
        )
        sections = [
            section_from_check(
                "check",
                f"check: axioms (mode={mode}, eps={structure.epsilon:+d}, "
                f"signature={structure.signature})",
                report,
            )
        ]
        if structure.metric is not None:
            sections.append(
                section_from_check(
                    "check",
                    "check: metric compatibility",
                    check_metric(structure, seed=seed),
                )
            )
        return sections

    if task.kind == "lift":
        which = task.args[0] if task.args else "both"
        conn = None
        if which in ("horizontal", "both"):
            conn = shared.conn
        report = verify_lift_interactions(
            structure, conn=conn, suffix=defn.fiber_suffix, seed=seed, contexts=shared.context
        )
        return [
            section_from_check(
                "lift", f"lift: interaction identities ({which})", report
            )
        ]

    if task.kind == "build-j":
        spec, ctx, label = _spec_from_args(shared, task.args)
        j = build_lifted_j(spec, ctx=ctx)
        return [section_from_j("build-j", f"build-j: {label}", j)]

    if task.kind == "verify":
        spec, ctx, label = _spec_from_args(shared, task.args)
        verdict = verify_theorem(spec, seed=seed, ctx=ctx)
        tag = _VERDICT_TAGS.get(task.args[0], "J^2")
        return [section_from_verdict("verify", f"verify: {label}", verdict, tag=tag)]

    if task.kind == "theorem":
        tag = task.args[0]
        spec, ctx = shared.spec(*THEOREM_SIGNS[tag])
        verdict = verify_theorem(spec, seed=seed, ctx=ctx)
        sections = [
            section_from_verdict(
                "theorem",
                f"theorem {tag}: J^2 = eps*I",
                verdict,
                tag=_VERDICT_TAGS[tag],
            )
        ]
        actions = action_report(spec, seed=seed, ctx=ctx)
        sections.append(
            section_from_check(
                "theorem", f"theorem {tag}: action formulas", actions
            )
        )
        return sections

    if task.kind == "actions":
        tag = task.args[0]
        spec, ctx = shared.spec(*THEOREM_SIGNS[tag])
        return [
            section_from_check(
                "actions",
                f"actions {tag}: derived displays",
                action_report(spec, seed=seed, ctx=ctx),
            )
        ]

    if task.kind == "sweep":
        kind = task.args[0]
        ctx = shared.context(kind)
        sweep = sign_sweep(
            structure, kind, conn=ctx.conn, suffix=defn.fiber_suffix, seed=seed, ctx=ctx
        )
        return [
            section_from_sweep("sweep", f"sweep: {kind} lift sign ledger", sweep)
        ]

    raise TaskError(f"unknown task kind {task.kind!r}")


def run_tasks(
    defn: Definition,
    tasks: Sequence[Task],
    seed: int = DEFAULT_SEED,
    mode_override: Optional[str] = None,
) -> Report:
    """Run ``tasks`` in order; they share one structure and one lift context
    per lift kind, which are dropped when the run returns."""
    report = Report(seed=seed)
    if not tasks:
        return report
    shared = _Shared(defn)
    for task in tasks:
        report.sections.extend(
            run_task(defn, task, seed=seed, mode_override=mode_override, shared=shared)
        )
    return report
