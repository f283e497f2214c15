"""Command-line interface.

Subcommands: check, lift, build-j, verify, sweep, run, demo.  All but demo
take a `.def` definition file.  Each of check, lift, build-j, verify and
sweep runs one task built from its flags and checked by the validator of
`.def` task lines, so a request is accepted or refused alike on both paths.
Exit status is 0 when every non-informational verdict passes, 1 when some
verdict fails, 2 on usage, definition or input errors (a file that is not
UTF-8 text included).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from .algebra import AlgebraError
from .definition import (
    DefinitionError,
    Task,
    parse_definition,
    structure_to_definition,
    validate_task,
)
from .expr import ParseError
from .lifts import COMPLETE, HORIZONTAL, Connection
from .runner import TaskError, run_tasks
from .report import Report, Section
from .structures import (
    CONSISTENT,
    DEFAULT_SEED,
    PAPER_LITERAL,
    canonical_structure,
)
from .theorems import THEOREMS


def _add_common(parser: argparse.ArgumentParser, needs_file: bool = True) -> None:
    if needs_file:
        parser.add_argument("definition", help="path to a .def definition file")
        parser.add_argument(
            "--mode",
            choices=(PAPER_LITERAL, CONSISTENT),
            default=None,
            help="override the definition's axiom mode",
        )
    parser.add_argument(
        "--format",
        choices=("human", "machine"),
        default="human",
        help="report rendering (default: human)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"seed for witness search and sampling (default: {DEFAULT_SEED})",
    )


def make_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False here and on every subparser: an option is taken only
    # as spelled, so `run ... --s 5` is refused rather than read as `--seed 5`
    parser = argparse.ArgumentParser(
        prog="liftcheck",
        allow_abbrev=False,
        description=(
            "Exact verification of almost r-contact structure axioms and of the "
            "almost complex / paracomplex structures their lifts induce on the "
            "tangent-bundle chart."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = partial(sub.add_parser, allow_abbrev=False)
    # each task subcommand's ``task_args`` maps its flags to the arguments of
    # the task line it stands for; the task validator judges them

    p = add_parser("check", help="verify structure axioms (and metric if present)")
    _add_common(p)
    p.set_defaults(task_args=lambda args: ())

    p = add_parser("lift", help="verify the lift interaction identity tables")
    _add_common(p)
    p.add_argument(
        "--kind",
        default="both",
        help=f"{COMPLETE}: the complete table alone; {HORIZONTAL} or both (the default): "
        f"the complete and the horizontal table",
    )
    p.set_defaults(task_args=lambda args: () if args.kind == "both" else (args.kind,))

    for name, summary in (
        ("build-j", "assemble the lifted candidate structure J"),
        ("verify", "verify J^2 = eps*I for a lifted structure"),
    ):
        p = add_parser(name, help=summary)
        _add_common(p)
        p.add_argument(
            "--theorem",
            help=f"catalogued instance, one of {', '.join(THEOREMS)} (sets lift kind and signs)",
        )
        p.add_argument("--lift", help=f"{COMPLETE} or {HORIZONTAL}")
        p.add_argument("--s", help="sign s, -1 or +1")
        p.add_argument("--t", help="sign t, -1 or +1")
        p.set_defaults(task_args=lambda args: tuple(
            v for v in (args.theorem, args.lift, args.s, args.t) if v is not None
        ))

    p = add_parser("sweep", help="verdicts for all four (s,t) sign cells")
    _add_common(p)
    p.add_argument("--lift", default=COMPLETE, help=f"{COMPLETE} (default) or {HORIZONTAL}")
    p.set_defaults(task_args=lambda args: (args.lift,))

    p = add_parser("run", help="execute the definition file's own task list")
    _add_common(p)
    p.set_defaults(task_args=None)

    p = add_parser(
        "demo", help="end-to-end pipeline on built-in canonical models"
    )
    _add_common(p, needs_file=False)
    return parser


def _demo_report(seed: int) -> Report:
    """The corollary pipeline: base axioms, lift tables, all four lifted
    structures, and the sign sweeps, on built-in canonical models."""
    riem = canonical_structure(1, 1, -1, "riemannian")
    conn = Connection.from_entries(riem.chart, {(2, 0, 0): riem.chart.coordinate("a1")})
    # (definition, title, notes, theorem tags); a case with theorems also
    # checks the lift tables
    cases = [
        (
            structure_to_definition(riem, conn=conn),
            "canonical riemannian contact model (n=1, r=1, eps=-1)",
            [
                "pipeline: check -> lift -> theorem 4.1 -> theorem 4.3 -> sweep",
                "connection: Gamma[c1,a1,a1] = a1 (plus its symmetric pair)",
            ],
            ("4.1", "4.3"),
        ),
        (
            structure_to_definition(canonical_structure(1, 1, -1, "lorentzian")),
            "canonical lorentzian contact model (n=1, r=1, eps=-1)",
            ["pipeline: check -> lift -> theorem 4.2 -> theorem 4.4 -> sweep"],
            ("4.2", "4.4"),
        ),
        (
            structure_to_definition(canonical_structure(1, 1, 1, "riemannian"), mode=CONSISTENT),
            "canonical paracontact model (n=1, r=1, eps=+1, consistent mode)",
            ["pipeline: check -> sweep; the sweep locates the paracomplex sign cells"],
            (),
        ),
    ]
    report = Report(seed=seed)
    for defn, title, notes, tags in cases:
        report.sections.append(
            Section(task="demo", title=f"demo: {title}", passed=True, notes=notes)
        )
        tasks = [Task("check")]
        if tags:
            tasks += [Task("lift")] + [Task("theorem", (tag,)) for tag in tags]
        tasks.append(Task("sweep", (COMPLETE,)))
        report.sections.extend(run_tasks(defn, tasks, seed=seed).sections)
    report.sections.append(
        Section(
            task="demo",
            title="demo: conclusion",
            passed=report.overall,
            notes=[
                "every lifted structure J verified J^2 = eps*I exactly: the tangent "
                "bundle of each base model carries an almost complex structure for "
                "eps = -1 and an almost paracomplex structure for eps = +1 (at the "
                "sign cells the sweep reports)"
            ],
        )
    )
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "demo":
            report = _demo_report(args.seed)
        else:
            try:
                text = Path(args.definition).read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise TaskError(f"{args.definition}: not UTF-8 text at byte {exc.start}") from None
            defn = parse_definition(text)
            if args.task_args is None:
                tasks = defn.tasks
            else:
                tasks = [validate_task(args.command, args.task_args(args))]
            if not tasks:
                raise TaskError("definition file declares no tasks")
            report = run_tasks(defn, tasks, seed=args.seed, mode_override=args.mode)
        text = report.render_machine() if args.format == "machine" else report.render_human()
    except (DefinitionError, ParseError, TaskError, AlgebraError, OSError) as exc:
        print(f"liftcheck: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # str() of an int of more than sys.get_int_max_str_digits() digits
        if "integer string conversion" not in str(exc):
            raise
        print(
            f"liftcheck: error: a coefficient has more than {sys.get_int_max_str_digits()} "
            "digits and cannot be printed",
            file=sys.stderr,
        )
        return 2

    sys.stdout.write(text)
    return 0 if report.overall else 1


if __name__ == "__main__":
    raise SystemExit(main())
