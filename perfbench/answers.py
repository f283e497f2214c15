"""Known-answer checks for liftcheck machine reports.

Each workload builds its inputs so that the right verdict is known in
advance (a conjugated model satisfies every axiom; a scaled eta breaks the
pairing; a perturbed F breaks the squaring identity).  These checks compare
a rendered ``--format machine`` report against that answer and re-check
every witness with this module's own evaluator of the rendered residual
text.  Nothing here imports ``liftcheck``, so a defect in its polynomial
arithmetic cannot hide a wrong witness.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Mapping, Optional

_NUMBER = re.compile(r"\d+(?:/\d+)?$")
_NAME = re.compile(r"[A-Za-z_]\w*$")


def parse_terms(text: str) -> list[tuple[Fraction, list[tuple[str, int]]]]:
    """Terms of a canonically printed polynomial, e.g. ``-3/2*a1^2*b1 + c1 - 1``."""
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r" ([+-]) ", text)
    signs = [sign] + [1 if op == "+" else -1 for op in pieces[1::2]]
    terms = []
    for sign, body in zip(signs, pieces[0::2]):
        coeff = Fraction(sign)
        powers: list[tuple[str, int]] = []
        for factor in body.split("*"):
            if _NUMBER.match(factor):
                coeff *= Fraction(factor)
                continue
            name, _, exp = factor.partition("^")
            if not _NAME.match(name) or (exp and not exp.isdigit()):
                raise ValueError(f"malformed factor {factor!r} in {text!r}")
            powers.append((name, int(exp) if exp else 1))
        terms.append((coeff, powers))
    return terms


def evaluate(text: str, point: Mapping[str, Fraction]) -> Fraction:
    """Exact value of a printed polynomial at a point (variable -> value)."""
    total = Fraction(0)
    for coeff, powers in parse_terms(text):
        for name, exp in powers:
            coeff *= point[name] ** exp
        total += coeff
    return total


def _witness_problem(residual, witness) -> Optional[str]:
    if witness is None:
        return "FAIL without a witness"
    if not isinstance(residual, dict) or not residual:
        return "FAIL with a zero residual"
    point = {name: Fraction(value) for name, value in witness.items()}
    if all(evaluate(poly, point) == 0 for poly in residual.values()):
        return "witness evaluates to zero on every residual component"
    return None


def report_problems(doc: dict) -> list[str]:
    """Checks that hold for every report: verdicts agree with residuals, and
    every FAIL carries a witness at which its residual is nonzero."""
    problems = []
    for section in doc["sections"]:
        title = section["title"]
        for entry in section.get("entries", []):
            where = f"{title} / {entry['name']}"
            if entry["passed"]:
                if entry["residual"] != "0" or entry["witness"] is not None:
                    problems.append(f"{where}: PASS with a nonzero residual or a witness")
            else:
                problem = _witness_problem(entry["residual"], entry["witness"])
                if problem:
                    problems.append(f"{where}: {problem}")
        if not section["informational"] and section.get("entries"):
            if section["passed"] != all(e["passed"] for e in section["entries"]):
                problems.append(f"{title}: section verdict disagrees with its entries")
        for row in section.get("rows", []):
            if "passed" in row and not row["passed"] and "witness" not in row:
                problems.append(f"{title}: failing sweep cell without a witness")
    overall = all(s["passed"] for s in doc["sections"] if not s["informational"])
    if doc["overall"] != overall:
        problems.append("overall verdict disagrees with the sections")
    return problems


def _sweep_law_problems(doc: dict) -> list[str]:
    """For eps = -1 models that satisfy the axioms, J^2 = -I exactly in the
    cells with s*t = -1, and the engine's own prediction agrees."""
    problems = []
    sweeps = [s for s in doc["sections"] if s["task"] == "sweep"]
    if not sweeps:
        problems.append("no sweep section")
    for section in sweeps:
        for row in section["rows"]:
            expected = row["s"] * row["t"] == -1
            if row["passed"] != expected or row["predicted"] != expected:
                problems.append(
                    f"{section['title']}: cell (s={row['s']}, t={row['t']}) "
                    f"passed={row['passed']} predicted={row['predicted']}, expected {expected}"
                )
    return problems


def _axiom_entries(doc: dict) -> list[dict]:
    for section in doc["sections"]:
        if section["title"].startswith("check: axioms"):
            return section["entries"]
    return []


def verdict_problems(text: str, expect: dict) -> list[str]:
    """Problems with one rendered machine report against its known answer.

    ``expect["answer"]`` is one of
      ``pass``          every verdict passes and the sweep follows s*t = -1;
      ``pairing_fail``  the diagonal pairing axioms fail (eta scaled by 2);
      ``squaring_fail`` the squaring axiom and theorem 4.1 fail, the other
                        axioms and the lift table pass (F perturbed).
    """
    try:
        doc = json.loads(text)
        problems = report_problems(doc)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    answer = expect["answer"]
    if answer == "pass":
        if not doc["overall"]:
            problems.append("expected overall PASS")
        problems += _sweep_law_problems(doc)
    elif answer == "pairing_fail":
        if doc["overall"]:
            problems.append("expected overall FAIL")
        diagonal = [
            e for e in _axiom_entries(doc)
            if re.match(r"eta\^(\d+)\(xi_\1\)", e["name"])
        ]
        if not diagonal or any(e["passed"] for e in diagonal):
            problems.append("expected every diagonal pairing axiom to FAIL")
    elif answer == "squaring_fail":
        if doc["overall"]:
            problems.append("expected overall FAIL")
        axioms = _axiom_entries(doc)
        if not axioms:
            problems.append("no axiom section")
        for e in axioms:
            if e["passed"] == e["name"].startswith("F^2"):
                problems.append(f"axiom {e['name']}: passed={e['passed']} is wrong")
        for section in doc["sections"]:
            if section["task"] == "lift" and not section["passed"]:
                problems.append("expected the lift table to PASS")
            if section["title"].startswith("theorem 4.1: J^2") and section["passed"]:
                problems.append("expected theorem 4.1 to FAIL")
    else:
        raise ValueError(f"unknown expected answer {answer!r}")
    return problems


def cli_problems(returncode: int, stdout: str, expect: dict) -> list[str]:
    """A CLI job exits 0, matches its golden file if it has one, and its
    report passes ``report_problems``."""
    problems = []
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    golden = expect.get("golden")
    if golden is not None and stdout != golden:
        problems.append("output differs from the golden file")
    try:
        problems += report_problems(json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable report: {exc!r}")
    return problems
