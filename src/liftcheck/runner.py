"""Task orchestration: execute a definition's tasks and assemble the report."""

from __future__ import annotations

from typing import Optional, Sequence

from .definition import (
    Definition,
    DefinitionError,
    Task,
    build_connection,
    build_structure,
    validate_task,
)
from .lifts import COMPLETE, HORIZONTAL, LiftContext, _contexts, verify_lift_interactions
from .structures import (
    AXIOM_MODES,
    DEFAULT_SEED,
    CheckReport,
    check_axioms,
    check_metric,
    consistency_lint,
)
from .report import Report, Section, section_from_check, section_from_j, section_from_sweep
from .theorems import (
    THEOREMS,
    LiftedStructureSpec,
    action_report,
    build_lifted_j,
    sign_sweep,
    verify_theorem,
)


class TaskError(ValueError):
    """A task cannot run against this definition (missing structure, metric, ...)."""


class _Shared:
    """The structure and one lift context per lift kind, which every task of
    a run reads; the horizontal one is over the declared connection, if any,
    and every kind shares the vertical lifts."""

    def __init__(self, defn: Definition):
        try:
            self.structure = build_structure(defn)
        except DefinitionError as exc:
            raise TaskError(str(exc)) from exc
        self.suffix = defn.fiber_suffix
        self.context = _contexts(self.structure, build_connection(defn), defn.tangent)

    def spec(self, kind: str, s: int, t: int) -> tuple[LiftedStructureSpec, LiftContext]:
        ctx = self.context(kind)
        return LiftedStructureSpec(self.structure, kind, s, t, ctx.conn, self.suffix), ctx


def _spec_from_args(shared: _Shared, args: tuple[str, ...]) -> tuple[LiftedStructureSpec, LiftContext, str]:
    """The spec of a theorem tag, or of a lift kind and signs, with its label."""
    if args[0] in THEOREMS:
        return (*shared.spec(*THEOREMS[args[0]][:3]), args[0])
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
    """The sections of one task; a malformed task raises the ``DefinitionError``
    its ``.def`` line would, without a location."""
    validate_task(task.kind, task.args)
    shared = shared or _Shared(defn)
    structure = shared.structure
    mode = mode_override or defn.mode

    if task.kind == "check":
        report = check_axioms(structure, mode=mode, seed=seed)
        report.notes.extend(
            consistency_lint(AXIOM_MODES[mode], structure.epsilon, structure.signature)
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
        # the horizontal table is checked unless only the complete one is asked for
        conn = None if which == COMPLETE else shared.context(HORIZONTAL).conn
        report = verify_lift_interactions(
            structure, conn=conn, suffix=defn.fiber_suffix, seed=seed, contexts=shared.context
        )
        return [
            section_from_check(
                "lift", f"lift: interaction identities ({which})", report
            )
        ]

    if task.kind in ("build-j", "verify", "theorem", "actions"):
        spec, ctx, label = _spec_from_args(shared, task.args)

    if task.kind == "build-j":
        j = build_lifted_j(spec, ctx=ctx)
        return [section_from_j("build-j", f"build-j: {label}", j)]

    if task.kind in ("verify", "theorem"):
        entry = verify_theorem(spec, seed=seed, ctx=ctx)
        title = f"verify: {label}" if task.kind == "verify" else f"theorem {label}: J^2 = eps*I"
        signs = (
            f"signs: s = {spec.s:+d}, t = {spec.t:+d}; "
            f"eps = {structure.epsilon:+d}, signature = {structure.signature}"
        )
        sections = [section_from_check(task.kind, title, CheckReport([entry], [signs]))]
        if task.kind == "theorem":
            actions = action_report(spec, seed=seed, ctx=ctx)
            sections.append(
                section_from_check("theorem", f"theorem {label}: action formulas", actions)
            )
        return sections

    if task.kind == "actions":
        return [
            section_from_check(
                "actions",
                f"actions {label}: derived displays",
                action_report(spec, seed=seed, ctx=ctx),
            )
        ]

    # the one kind left: sweep
    kind = task.args[0]
    ctx = shared.context(kind)
    sweep = sign_sweep(
        structure, kind, conn=ctx.conn, suffix=defn.fiber_suffix, seed=seed, ctx=ctx
    )
    return [section_from_sweep("sweep", f"sweep: {kind} lift sign ledger", sweep, structure)]


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
