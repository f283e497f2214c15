"""Hostile-input fuzz: mutated definition files and command lines through ``cli.main``.

Every shipped and golden ``.def`` file is a seed text.  A mutant replaces,
deletes or repeats lines, and splices tokens into them: the tokens of those
files plus short hostile ones.  Whatever the text, ``cli.main(["run", path])``
must return 0 (pass), 1 (fail) or 2 (located input error) within the alarm,
with no uncaught exception.

A command line is a subcommand (or none, or an unknown one), a path (a
definition file, a directory, a missing file, the null device, or none) and
options with valid and invalid values, ``--seed`` negative, huge or not an
integer, and abbreviations of options, in any order.  ``cli.main`` must
return, or exit through argparse with, 0, 1 or 2 within the alarm.
"""

import contextlib
import io
import os
import signal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from liftcheck.cli import main

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "defs").glob("*.def")) + sorted((ROOT / "tests" / "golden").glob("*.def"))
TEXTS = [path.read_text(encoding="utf-8") for path in SOURCES]
LINES = sorted({line for text in TEXTS for line in text.splitlines()})
HOSTILE = [
    # indices out of range, zero or past the chart and the family count
    "Gamma[0,1,1]", "Gamma[9,1,1]", "Gamma[1,1,99]", "F[0,1]", "F[1,99]", "F[7,7]",
    "xi[9,3]", "eta[0,3]", "metric[99,1]",
    # fiber suffixes, some of which make a fiber name a base name
    "fiber_suffix", "_dot", "1", "-x", "^2",
    # sign runs
    "--1", "+-+-1", "- - -", "-+-+-+a1",
    # two-digit exponents
    "^10", "^99", "a1^99", "(a1+b1)^12", "c1^-10",
]
TOKENS = sorted({word for text in TEXTS for word in text.split()}) + HOSTILE
# seconds one example may take
ALARM = 5


@st.composite
def mutants(draw):
    """A seed text with one to four line or token mutations."""
    lines = draw(st.sampled_from(TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            lines.append("")
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["replace", "delete", "repeat", "splice", "glue"]))
        if op == "replace":
            lines[i] = draw(st.sampled_from(LINES))
        elif op == "delete":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        else:
            # a token as a word of its own, or glued to the end of one
            words = lines[i].split(" ")
            j = draw(st.integers(0, len(words) - (op == "glue")))
            token = draw(st.sampled_from(TOKENS))
            if op == "splice":
                words.insert(j, token)
            else:
                words[j] += token
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


class Alarm(Exception):
    pass


def _ring(signum, frame):
    raise Alarm(f"example ran past {ALARM} s")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def exit_code(argv):
    """``cli.main(argv)``'s return value, or the code argparse exits with,
    with the output discarded and the alarm set."""
    previous = signal.signal(signal.SIGALRM, _ring)
    signal.setitimer(signal.ITIMER_REAL, ALARM)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


needs_timer = pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs a real-time interval timer")


@needs_timer
@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=mutants())
def test_a_mutated_definition_exits_0_1_or_2(workdir, text):
    path = workdir / "mutant.def"
    path.write_text(text, encoding="utf-8")
    assert exit_code(["run", str(path)]) in (0, 1, 2)


# the options each subcommand takes besides --format and --seed, and the
# valid values of each; any option may get a value from BAD
ACCEPTS = {
    "check": ["--mode"],
    "lift": ["--mode", "--kind"],
    "build-j": ["--mode", "--theorem", "--lift", "--s", "--t"],
    "verify": ["--mode", "--theorem", "--lift", "--s", "--t"],
    "sweep": ["--mode", "--lift"],
    "run": ["--mode"],
    "demo": [],
}
VALUES = {
    "--format": ["human", "machine"],
    "--mode": ["paper-literal", "consistent"],
    "--kind": ["complete", "horizontal", "both"],
    "--theorem": ["4.1", "4.2", "4.3", "4.4"],
    "--lift": ["complete", "horizontal"],
    "--s": ["-1", "+1", "1"],
    "--t": ["-1", "+1", "1"],
}
BAD = ["", "vertical", "json", "4.5", "0", "-2", "x"]
# prefixes of options, each with the values of the option it abbreviates; the
# parser takes an option only as spelled
ABBREVIATIONS = {"--se": "--seed", "--form": "--format", "--mo": "--mode", "--ki": "--kind",
                 "--th": "--theorem", "--li": "--lift"}
# negative, huge, and not integers
SEEDS = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["1.5", "-0", "1e3", "0x10", "seven", "", "--format"]),
)
# a directory, a missing file and the null device
ODD_PATHS = [str(ROOT / "defs"), str(ROOT / "defs" / "no-such-file.def"), os.devnull]


@st.composite
def command_lines(draw):
    """A subcommand, now and then an unknown one or none, a path, mostly a
    definition file, and up to four options, mostly ones the subcommand takes,
    now and then abbreviated."""
    command = draw(st.sampled_from(sorted(ACCEPTS)))
    options = sorted(VALUES) if not draw(st.integers(0, 9)) else ACCEPTS[command] + ["--format"]
    if not draw(st.integers(0, 4)):
        options += sorted(ABBREVIATIONS)
    args = []
    if command in ("build-j", "verify") and draw(st.booleans()):
        # a theorem tag, which these need unless they name a lift kind
        args += ["--theorem", draw(st.sampled_from(VALUES["--theorem"]))]
    for option in draw(st.lists(st.sampled_from(options + ["--seed"]), max_size=4)):
        full = ABBREVIATIONS.get(option, option)
        if full == "--seed":
            args += [option, draw(SEEDS)]
        else:
            args += [option, draw(st.sampled_from(VALUES[full] if draw(st.integers(0, 4)) else BAD))]
    paths = [str(path) for path in SOURCES] if draw(st.integers(0, 4)) else ODD_PATHS
    # a path nine times in ten, but one time in ten for demo, which takes none
    if (command == "demo") == (not draw(st.integers(0, 9))):
        args.insert(2 * draw(st.integers(0, len(args) // 2)), draw(st.sampled_from(paths)))
    if draw(st.integers(0, 19)):
        args.insert(0, command)
    elif draw(st.booleans()):
        args.insert(0, draw(st.sampled_from(["bogus", "-h"])))
    return args


@needs_timer
@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=command_lines())
def test_any_command_line_exits_0_1_or_2(argv):
    assert exit_code(argv) in (0, 1, 2)
