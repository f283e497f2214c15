"""CLI behavior: exit codes, report formats, determinism, demo pipeline."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from liftcheck import cli
from liftcheck.algebra import NotUnimodular
from liftcheck.cli import main
from liftcheck.definition import parse_definition
from liftcheck.expr import MAX_DEGREE, MAX_NESTING
from liftcheck.report import Report

ROOT = Path(__file__).resolve().parent.parent
DEFS = ROOT / "defs"
CONTACT = str(DEFS / "contact_n1_r1.def")


def run_cli(*argv, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "liftcheck", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=timeout,
    )
    return proc


def test_check_passes_with_exit_zero(capsys):
    code = main(["check", CONTACT])
    out = capsys.readouterr().out
    assert code == 0
    assert "check: axioms" in out
    assert "FAIL" not in out


def test_verify_theorem_41(capsys):
    code = main(["verify", CONTACT, "--theorem", "4.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[2.8]" in out and "PASS" in out


@pytest.mark.parametrize("flags", [
    ["--theorem", "4.1"],
    ["--lift", "complete", "--s", "1", "--t", "-1"],
    ["--lift", "complete", "--s", "+1", "--t", "-1"],
])
def test_verify_spellings_of_one_cell_report_one_entry(flags, capsys):
    assert main(["verify", CONTACT, *flags, "--format", "machine"]) == 0
    (section,) = json.loads(capsys.readouterr().out)["sections"]
    assert section["entries"] == [{
        "name": "J^2 - (-1)*I", "tag": "2.8", "passed": True, "residual": "0", "witness": None,
    }]


def test_verify_bad_sign_cell_fails(capsys):
    code = main(["verify", CONTACT, "--lift", "complete", "--s", "1", "--t", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "witness" in out


def test_sweep_is_informational(capsys):
    para = str(DEFS / "paracontact_consistent_n1_r1.def")
    code = main(["sweep", para, "--lift", "complete"])
    out = capsys.readouterr().out
    assert code == 0
    assert "passed=False" in out  # failing cells reported, exit still 0
    assert "matches the law" in out


def test_run_executes_file_tasks(capsys):
    code = main(["run", CONTACT])
    out = capsys.readouterr().out
    assert code == 0
    for marker in ("check: axioms", "lift: interaction", "theorem 4.1", "sweep"):
        assert marker in out


def test_machine_format_is_valid_json(capsys):
    code = main(["run", CONTACT, "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "liftcheck"
    assert doc["overall"] is True
    tasks = [s["task"] for s in doc["sections"]]
    assert "check" in tasks and "sweep" in tasks


def test_machine_reports_byte_identical_across_runs():
    a = run_cli("run", CONTACT, "--format", "machine", "--seed", "7")
    b = run_cli("run", CONTACT, "--format", "machine", "--seed", "7")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.encode() == b.stdout.encode()


def test_build_j_lists_nonzero_components(capsys):
    code = main(["build-j", CONTACT, "--theorem", "4.1"])
    out = capsys.readouterr().out
    assert code == 0
    # d/dc1 maps into the fiber direction and d/dc1_dot back with a sign
    assert "component=c1_dot,c1, value=1" in out
    assert "component=c1,c1_dot, value=-1" in out


def test_demo_pipeline(capsys):
    code = main(["demo"])
    out = capsys.readouterr().out
    assert code == 0
    assert "demo: conclusion" in out
    assert "overall: PASS" in out


def test_missing_file_and_bad_definition(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.def")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.def"
    bad.write_text("chart M x y\ntask check\n", encoding="utf-8")
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "no structure block" in err


def test_mode_override_flips_verdict(capsys):
    para = str(DEFS / "paracontact_consistent_n1_r1.def")
    assert main(["check", para]) == 0  # file says consistent mode
    capsys.readouterr()
    code = main(["check", para, "--mode", "paper-literal"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_console_script_entry_point():
    proc = run_cli("demo", "--format", "machine")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["overall"] is True


GOLDEN = ROOT / "tests" / "golden"
# (argv, golden file, exit status)
GOLDEN_RUNS = [(["run", str(path), "--format", "machine"], f"run_{path.stem}.json", 0)
               for path in sorted(DEFS.glob("*.def"))]
GOLDEN_RUNS.append((["demo", "--format", "machine"], "demo.json", 0))
# r = 2 with a rescaled eta and a non-flat connection: pins the order of the
# axiom and lift tables past r = 1, and the witnesses of their FAIL entries
LIFT_N2_R2 = str(GOLDEN / "lift_n2_r2.def")
GOLDEN_RUNS.append((["run", LIFT_N2_R2, "--format", "machine"], "lift_n2_r2.json", 1))
# r = 0 over a non-flat connection: every sum over xi and eta is empty
GOLDEN_RUNS.append(
    (["run", str(GOLDEN / "run_horizontal_r0.def"), "--format", "machine"], "run_horizontal_r0.json", 0)
)
# r = 2, conjugated, over a non-flat connection: both lift kinds' sweeps past r = 1
GOLDEN_RUNS.append(
    (["run", str(GOLDEN / "sweep_n1_r2.def"), "--format", "machine"], "sweep_n1_r2.json", 0)
)
# a sampled rank below dim - r and a metric that is not positive definite: the
# note branches of the rank count and of the Sylvester test
GOLDEN_RUNS.append(
    (["run", str(GOLDEN / "notes_low_rank.def"), "--format", "machine"], "notes_low_rank.json", 1)
)
HUMAN_GOLDEN_RUNS = [(["run", LIFT_N2_R2], "lift_n2_r2.txt", 1)]


def _assert_golden(argv, golden, status, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == status
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("argv, golden, status", GOLDEN_RUNS, ids=[g for _, g, _ in GOLDEN_RUNS])
def test_machine_report_matches_golden(argv, golden, status, capsys):
    _assert_golden(argv, golden, status, capsys)


@pytest.mark.parametrize(
    "argv, golden, status", HUMAN_GOLDEN_RUNS, ids=[g for _, g, _ in HUMAN_GOLDEN_RUNS]
)
def test_human_report_matches_golden(argv, golden, status, capsys):
    _assert_golden(argv, golden, status, capsys)


def test_non_utf8_definition_is_an_input_error(tmp_path):
    binary = tmp_path / "bin.def"
    binary.write_bytes(b"chart M a\n\xff\xfe\x00binary")
    proc = run_cli("run", str(binary))
    assert proc.returncode == 2
    assert proc.stderr == f"liftcheck: error: {binary}: not UTF-8 text at byte 10\n"
    assert "Traceback" not in proc.stderr


def test_algebra_errors_exit_two(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise NotUnimodular("determinant is not a nonzero constant")

    monkeypatch.setattr(cli, "run_tasks", fail)
    code = main(["check", CONTACT])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "liftcheck: error: determinant is not a nonzero constant\n"
    assert "Traceback" not in captured.err


def test_deep_nesting_is_a_located_input_error(tmp_path):
    deep = tmp_path / "deep.def"
    text = Path(CONTACT).read_text(encoding="utf-8")
    entry = "  F[1,2] = -1\n"
    assert text.splitlines(keepends=True)[8] == entry
    deep.write_text(text.replace(entry, "  F[1,2] = " + "(" * 3000 + "-1" + ")" * 3000 + "\n"),
                    encoding="utf-8")
    proc = run_cli("run", str(deep))
    assert proc.returncode == 2
    # the first parenthesis sits at column 12, the one past the cap MAX_NESTING further
    assert proc.stderr == (f"liftcheck: error: parentheses nested deeper than {MAX_NESTING} "
                           f"(line 9, column {12 + MAX_NESTING})\n")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("expression, degree, column", [
    ("a1^100000000", 100000000, 14),
    ("(a1+b1)^3000", 3000, 19),
], ids=["power-of-a-coordinate", "power-of-a-sum"])
def test_degree_past_the_cap_is_a_located_input_error(tmp_path, expression, degree, column):
    # both ran past a 15 s timeout before the cap; the timeout here only keeps
    # a regression from hanging the suite
    bad = tmp_path / "degree.def"
    text = Path(CONTACT).read_text(encoding="utf-8")
    entry = "  F[1,2] = -1\n"
    assert entry in text
    bad.write_text(text.replace(entry, f"  F[1,2] = {expression}\n"), encoding="utf-8")
    proc = run_cli("check", str(bad), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == (f"liftcheck: error: total degree {degree} exceeds the cap of "
                           f"{MAX_DEGREE} (line 9, column {column})\n")


@pytest.mark.parametrize("entry, replacement, message", [
    ("  F[1,2] = -1\n", "  F[1,2] = a1^²\n", "unexpected character '²' (line 9, column 15)"),
    ("  F[1,2] = -1\n", "  F[1,2] = a1^٣\n", "unexpected character '٣' (line 9, column 15)"),
    ("  n 1\n", "  n ¹\n", "n must be a nonnegative integer (line 7)"),
], ids=["superscript-exponent", "arabic-indic-exponent", "superscript-n"])
def test_non_ascii_digits_are_located_input_errors(tmp_path, entry, replacement, message):
    bad = tmp_path / "digits.def"
    text = Path(CONTACT).read_text(encoding="utf-8")
    assert entry in text
    bad.write_text(text.replace(entry, replacement, 1), encoding="utf-8")
    proc = run_cli("run", str(bad))
    assert proc.returncode == 2
    assert proc.stderr == f"liftcheck: error: {message}\n"
    assert "Traceback" not in proc.stderr


def test_demo_takes_no_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo", "--mode", "consistent"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode consistent" in capsys.readouterr().err


# (subcommand, abbreviation of one of its options, a value): argparse takes a
# unique prefix of an option unless told not to; --s is a prefix of --seed
# alone on these, while on verify and build-j it is the sign s itself
ABBREVIATED = [
    (command, abbreviation, value)
    for command in ("run", "check", "lift", "sweep", "verify", "build-j", "demo")
    for abbreviation, value in (("--s", "5"), ("--se", "5"), ("--form", "machine"), ("--mo", "consistent"))
    if not (abbreviation == "--s" and command in ("verify", "build-j"))
]


@pytest.mark.parametrize("command, abbreviation, value", ABBREVIATED)
def test_an_abbreviated_option_is_a_usage_error(command, abbreviation, value, capsys):
    argv = [command] + ([] if command == "demo" else [CONTACT]) + [abbreviation, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {abbreviation} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "build-j"])
def test_the_sign_options_are_not_abbreviations(command, monkeypatch, capsys):
    seen = []

    def record(defn, tasks, seed, **kwargs):
        seen.append((tasks, seed))
        return Report(seed=seed)

    monkeypatch.setattr(cli, "run_tasks", record)
    assert main([command, CONTACT, "--lift", "complete", "--s", "1", "--t", "-1"]) == 0
    (((task,), seed),) = seen
    assert task.args == ("complete", "1", "-1") and seed == cli.DEFAULT_SEED


def _with_task_line(line: str) -> str:
    return Path(CONTACT).read_text(encoding="utf-8") + line + "\n"


# (subcommand and its flags, the .def task line they stand for)
FLAG_TASKS = [
    (["check"], "task check"),
    (["lift"], "task lift"),
    (["lift", "--kind", "horizontal"], "task lift horizontal"),
    (["build-j", "--theorem", "4.3"], "task build-j 4.3"),
    (["build-j", "--lift", "horizontal", "--s", "-1", "--t", "+1"], "task build-j horizontal -1 +1"),
    (["verify", "--theorem", "4.1"], "task verify 4.1"),
    (["verify", "--lift", "complete", "--s", "1", "--t", "-1"], "task verify complete 1 -1"),
    (["sweep"], "task sweep complete"),
    (["sweep", "--lift", "horizontal"], "task sweep horizontal"),
]


@pytest.mark.parametrize("flags, line", FLAG_TASKS, ids=[line for _, line in FLAG_TASKS])
def test_flags_build_the_task_of_the_def_line(flags, line, monkeypatch, capsys):
    seen = []

    def record(defn, tasks, **kwargs):
        seen.extend(tasks)
        return Report(seed=0)

    monkeypatch.setattr(cli, "run_tasks", record)
    assert main([flags[0], CONTACT, *flags[1:]]) == 0
    assert seen == parse_definition(_with_task_line(line)).tasks[-1:]


# (subcommand and flags that conflict, the same request as a .def task line)
CONFLICTS = [
    (["verify", "--theorem", "4.1", "--lift", "horizontal", "--s", "-1", "--t", "1"],
     "task verify 4.1 horizontal -1 1"),
    (["verify", "--theorem", "4.1", "--s", "-1", "--t", "1"], "task verify 4.1 -1 1"),
    (["build-j", "--theorem", "4.2", "--lift", "complete"], "task build-j 4.2 complete"),
    (["verify", "--lift", "complete", "--s", "2", "--t", "1"], "task verify complete 2 1"),
    (["verify", "--s", "1", "--t", "-1"], "task verify 1 -1"),
    (["verify"], "task verify"),
    (["lift", "--kind", "vertical"], "task lift vertical"),
    (["sweep", "--lift", "vertical"], "task sweep vertical"),
]


@pytest.mark.parametrize("flags, line", CONFLICTS, ids=[line for _, line in CONFLICTS])
def test_conflicting_flags_fail_like_the_def_line(flags, line, tmp_path, capsys):
    assert main([flags[0], CONTACT, *flags[1:]]) == 2
    via_flags = capsys.readouterr().err
    text = _with_task_line(line)
    path = tmp_path / "conflict.def"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    via_line = capsys.readouterr().err
    assert via_flags.startswith("liftcheck: error: task ")
    assert via_line == via_flags[:-1] + f" (line {len(text.splitlines())})\n"


@pytest.mark.parametrize("old, new, message", [
    ("chart M a1 b1 c1", "chart M a1 b-1 c1", "coordinate 'b-1' is not a name (line 2)"),
    ("chart M a1 b1 c1", "chart M a1 b1 c1\nfiber_suffix -x",
     "fiber_suffix '-x' has a non-name character (line 3)"),
])
def test_names_that_do_not_read_back_are_located_input_errors(tmp_path, old, new, message):
    # b-1 and a1-x would be printed in residual labels and read back as differences
    text = Path(CONTACT).read_text(encoding="utf-8")
    assert text.splitlines()[1] == old
    bad = tmp_path / "bad.def"
    bad.write_text(text.replace(old, new), encoding="utf-8")
    proc = run_cli("run", str(bad))
    assert proc.returncode == 2
    assert proc.stderr == f"liftcheck: error: {message}\n"



def test_a_metric_that_is_not_symmetric_exits_two_at_the_structure_line(tmp_path, capsys):
    # it passed every check before: both metric entries, the Sylvester note and
    # the overall verdict, with exit 0
    text = Path(CONTACT).read_text(encoding="utf-8")
    assert text.splitlines()[3] == "structure"
    bad = tmp_path / "asymmetric.def"
    bad.write_text(text.replace("  metric[3,3] = 1\n",
                                "  metric[3,3] = 1\n  metric[1,2] = 3\n  metric[2,1] = -3\n"),
                   encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "liftcheck: error: metric is not symmetric: metric[1,2] != metric[2,1] (line 4)\n"
    )


CLASH_STRUCTURE = """
structure
  epsilon -1
  signature riemannian
  n 1
  r 2
  F[1,2] = -1
  F[2,1] = 1
  xi[1,3] = 1
  xi[2,4] = 1
  eta[1,3] = 1
  eta[2,4] = 1
end

task lift
"""


@pytest.mark.parametrize("header, fiber, line", [
    ("chart M a b c a_dot", "a_dot", 1),
    ("chart M a b c a_x\n# the suffix comes after the chart\nfiber_suffix _x", "a_x", 3),
    ("fiber_suffix _x\nchart M a b c a_x", "a_x", 1),
])
def test_a_fiber_name_clash_is_located(tmp_path, capsys, header, fiber, line):
    # a fiber coordinate named like a base one is reported at the fiber_suffix
    # line, or at the chart line with the default suffix
    path = tmp_path / "clash.def"
    path.write_text(header + "\n" + CLASH_STRUCTURE, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"liftcheck: error: fiber names collide with base names: [{fiber!r}] (line {line})\n"
    )


# ``int`` reads and ``str`` prints at most this many digits (0: any number)
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "7" * (INT_DIGITS + 1)


@pytest.mark.skipif(not INT_DIGITS, reason="this interpreter reads integers of any length")
@pytest.mark.parametrize("fmt", ["human", "machine"])
@pytest.mark.parametrize("old, new, message", [
    # one digit more than a literal may have, refused at its "^" before it is computed
    ("  F[1,2] = -1", f"  F[1,2] = 10^{INT_DIGITS}",
     f"a power has a coefficient of more than {INT_DIGITS} digits (line 9, column 14)"),
    # read, but too long to print once F^2 is formed
    ("  F[1,2] = -1", f"  F[1,2] = 10^{INT_DIGITS - 1}",
     f"a coefficient has more than {INT_DIGITS} digits and cannot be printed"),
    ("  F[1,2] = -1", f"  F[1,2] = {TOO_LONG}",
     f"integer of {len(TOO_LONG)} digits is too long (line 9, column 12)"),
    ("  F[1,2] = -1", f"  F[1,{TOO_LONG}] = -1", f"integer of {len(TOO_LONG)} digits is too long (line 9)"),
    ("  n 1", f"  n {TOO_LONG}", f"integer of {len(TOO_LONG)} digits is too long (line 7)"),
])
def test_integers_too_long_for_python_are_input_errors(tmp_path, fmt, old, new, message):
    # int() and str() raise ValueError past the limit, which left as a
    # traceback would exit 1, the status of a failed verdict
    text = Path(CONTACT).read_text(encoding="utf-8")
    assert old in text.splitlines()
    bad = tmp_path / "long.def"
    bad.write_text(text.replace(old, new), encoding="utf-8")
    proc = run_cli("check", str(bad), "--format", fmt)
    assert proc.returncode == 2
    assert proc.stderr == f"liftcheck: error: {message}\n"
