"""Hostile-input fuzz: mutated definition files through ``liftcheck run``.

Every shipped and golden ``.def`` file is a seed text.  A mutant replaces,
deletes or repeats lines, and splices tokens into them: the tokens of those
files plus short hostile ones.  Whatever the text, ``cli.main(["run", path])``
must return 0 (pass), 1 (fail) or 2 (located input error) within the alarm,
with no uncaught exception.
"""

import contextlib
import io
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


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs a real-time interval timer")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=mutants())
def test_a_mutated_definition_exits_0_1_or_2(workdir, text):
    path = workdir / "mutant.def"
    path.write_text(text, encoding="utf-8")
    previous = signal.signal(signal.SIGALRM, _ring)
    signal.setitimer(signal.ITIMER_REAL, ALARM)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", str(path)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
