"""Seeded inputs for the workloads, and the code that runs one job.

Every workload is a list of jobs drawn from the seed.  The engine sees only
the generated inputs: a ``Definition`` (model_grid) or the text of a
``.def`` file (degree_stress).  ``cli_cold`` lists the command lines whose
cold processes the traced run times.  Each job carries the answer known
from how it was built; ``answers.py`` checks the output against it.

Draws are balanced (the grid's shapes and the degree_stress exponents are
the same for every seed; the seed draws coefficients, signs and order) so
that two seeds give different inputs of the same overall size, and a
run-to-run difference in speed reflects the program rather than the luck of
the draw.

Engine calls go through module attributes (``runner.run_tasks``, not a
name imported from it) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from liftcheck import definition, expr, runner, structures
from liftcheck.algebra import Poly, PolyMatrix
from liftcheck.lifts import Connection

import answers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
)}

SIGNATURES = ("riemannian", "lorentzian")
COEFFS = (-2, -1, 1, 2)
THEOREMS = {"riemannian": ("4.1", "4.3"), "lorentzian": ("4.2", "4.4")}
MODELS_PER_CELL = 4           # per (n, r, signature); a quarter of a cell are mutants
GRID_CONNECTION_ENTRIES = 2
# degree_stress jobs.  Their cost grows steeply with k and depends on where
# the shear sits, so every seed uses the same exponents and shear positions;
# the seed varies the linear form L, the signs, the engine seed and the order.
FAIL_KS = (12, 14, 16, 17, 19, 21, 22, 24)  # F[1,2] = -1 +- L^k, L = a1 +- b1 +- c1
# (k, row, col): shear entry +- L^k.  These shears move the xi/eta direction;
# shears inside the a/b block make J^2 hundreds of times slower at the same k.
# An odd number of jobs puts the median on one job's samples, not between two
# jobs whose costs differ by a tenth.
PASS_SHEARS = ((10, 0, 2), (11, 2, 1), (12, 1, 2), (13, 2, 0), (14, 0, 2),
               (15, 0, 2), (16, 2, 1), (17, 1, 2), (18, 2, 0))


@dataclass
class Job:
    key: str          # stable name of the input, also used in traces
    payload: object   # (Definition, seed) | (text, seed) | argv
    expect: dict      # known answer, see answers.verdict_problems / cli_problems


# -- model_grid ------------------------------------------------------------------


def _monomial(chart, shape: random.Random, rng: random.Random, max_degree: int) -> Poly:
    """A monomial whose exponents come from ``shape`` and coefficient from ``rng``."""
    exps = [0] * chart.dim
    for _ in range(shape.randint(0, max_degree)):
        exps[shape.randrange(chart.dim)] += 1
    return Poly(chart.coords, {tuple(exps): Fraction(rng.choice(COEFFS))})


def _connection(chart, shape: random.Random, rng: random.Random, entries: int) -> Connection:
    m = chart.dim
    return Connection.from_entries(
        chart,
        {
            (shape.randrange(m), shape.randrange(m), shape.randrange(m)): _monomial(chart, shape, rng, 2)
            for _ in range(entries)
        },
    )


def _shear(chart, i: int, j: int, p: Poly) -> PolyMatrix:
    rows = [list(row) for row in PolyMatrix.identity(chart.dim, chart.coords).entries]
    rows[i][j] = p
    return PolyMatrix(rows)


def _conjugated(base, shape: random.Random, rng: random.Random, shears: int, max_degree: int):
    """``base`` conjugated by ``shears`` shears I + p*e_ij of degree <= max_degree,
    as ``structures.random_unimodular`` draws them, but with the positions and
    exponents drawn from ``shape`` and only the coefficients from ``rng``."""
    chart = base.chart
    u = u_inv = PolyMatrix.identity(chart.dim, chart.coords)
    for _ in range(shears):
        i, j = shape.sample(range(chart.dim), 2)
        p = _monomial(chart, shape, rng, max_degree)
        u, u_inv = u @ _shear(chart, i, j, p), _shear(chart, i, j, -p) @ u_inv
    return structures.conjugate_structure(base, u, u_inv)


def _grid_definition(structure, conn):
    first, horizontal = THEOREMS[structure.signature]
    tasks = [
        definition.Task("check"),
        definition.Task("lift", ()),
        definition.Task("theorem", (first,)),
        definition.Task("theorem", (horizontal,)),
        definition.Task("build-j", (horizontal,)),
        definition.Task("sweep", ("horizontal",)),
    ]
    return definition.structure_to_definition(structure, conn=conn, tasks=tasks)


def heavy_case():
    """The heavy case recorded in ROADMAP: n=3, r=3 riemannian, seed 11,
    up to 6 shears of degree <= 3, a 2-entry polynomial connection.

    ROADMAP does not record the connection's entries; these give J 287 zero
    components of 324, against 289 there.
    """
    rng = random.Random(11)
    base = structures.canonical_structure(3, 3, -1, "riemannian")
    u, u_inv = structures.random_unimodular(base.chart, rng, 6, 3)
    model = structures.conjugate_structure(base, u, u_inv)
    return model, _connection(base.chart, rng, rng, 2)


def model_grid(seed: int) -> list[Job]:
    """The heavy case, then every grid model in a seeded order.

    The cost of a model depends on where its shears and connection entries
    sit and on their degrees far more than on their coefficients.  So the
    shapes (shear count, positions, exponents, which models are mutants) come
    from one fixed stream, and the seed draws the coefficients, the engine
    seed and the order: two seeds give different inputs of the same size,
    and a run-to-run difference in speed reflects the program and the host
    rather than the luck of the draw.
    """
    shape = random.Random("model_grid:shapes")
    rng = random.Random(f"model_grid:{seed}")
    model, conn = heavy_case()
    jobs = [Job("heavy-n3r3-riemannian", (_grid_definition(model, conn), 1729), {"answer": "pass"})]
    grid = []
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            cell = [(sig, copy) for sig in SIGNATURES for copy in range(MODELS_PER_CELL)]
            mutants = set(shape.sample(cell, len(cell) // 4))
            for sig, copy in cell:
                base = structures.canonical_structure(n, r, -1, sig)
                k = shape.randint(1, 6)
                model = _conjugated(base, shape, rng, k, 3)
                mutant = (sig, copy) in mutants
                if mutant:
                    model = replace(model, eta=tuple(w.scale(2) for w in model.eta))
                defn = _grid_definition(model, _connection(base.chart, shape, rng, GRID_CONNECTION_ENTRIES))
                key = f"n{n}r{r}-{sig}-{copy}-shears{k}" + ("-mutant" if mutant else "")
                answer = "pairing_fail" if mutant else "pass"
                grid.append(Job(key, (defn, rng.randrange(1, 2**31)), {"answer": answer}))
    rng.shuffle(grid)
    return jobs + grid   # the heavy case first: it is also the warm-up job


# -- degree_stress -----------------------------------------------------------------

_CONTACT_TEXT = """\
# canonical contact model, n=1, r=1, eps=-1{comment}
chart M a1 b1 c1

structure
  epsilon -1
  signature riemannian
  n 1
  r 1
  F[1,2] = {f12}
  F[2,1] = 1
  xi[1,3] = 1
  eta[1,3] = 1
  metric[1,1] = 1
  metric[2,2] = 1
  metric[3,3] = 1
end

task check
task lift complete
task theorem 4.1
task sweep complete
"""
_STRESS_TASKS = [
    definition.Task("check"),
    definition.Task("lift", ("complete",)),
    definition.Task("theorem", ("4.1",)),
    definition.Task("sweep", ("complete",)),
]


def _linear_form(rng: random.Random) -> str:
    return "a1" + "".join(rng.choice("+-") + c for c in ("b1", "c1"))


def _sheared_contact_text(power: str, row: int, col: int) -> str:
    base = structures.canonical_structure(1, 1, -1, "riemannian")
    chart = base.chart
    p = expr.parse_poly(power, chart.coords)
    rows = [list(r) for r in PolyMatrix.identity(chart.dim, chart.coords).entries]
    inv = [list(r) for r in rows]
    rows[row][col] = p
    inv[row][col] = -p
    model = structures.conjugate_structure(base, PolyMatrix(rows), PolyMatrix(inv))
    defn = definition.structure_to_definition(model, tasks=_STRESS_TASKS)
    return definition.emit_definition(defn)


def degree_stress(seed: int) -> list[Job]:
    rng = random.Random(f"degree_stress:{seed}")
    jobs = []
    for k in FAIL_KS:
        f12 = f"-1 {rng.choice('+-')} ({_linear_form(rng)})^{k}"
        text = _CONTACT_TEXT.format(comment=", F perturbed", f12=f12)
        jobs.append(Job(f"perturbed-k{k}", (text, rng.randrange(1, 2**31)), {"answer": "squaring_fail"}))
    for k, row, col in PASS_SHEARS:
        power = f"{rng.choice(('', '-'))}({_linear_form(rng)})^{k}"
        key = f"sheared-k{k}-at{row + 1}{col + 1}"
        jobs.append(Job(key, (_sheared_contact_text(power, row, col), rng.randrange(1, 2**31)),
                        {"answer": "pass"}))
    rest = jobs[1:]
    rng.shuffle(rest)
    return jobs[:1] + rest   # the cheapest job first: it is also the warm-up job


# -- cli_cold ----------------------------------------------------------------------------


def cli_cold(seed: int) -> list[Job]:
    rng = random.Random(f"cli_cold:{seed}")
    jobs = []
    for path in sorted((ROOT / "defs").glob("*.def")):
        argv = ["run", str(path), "--format", "machine", "--seed", str(rng.randrange(1, 2**31))]
        jobs.append(Job(f"run-{path.stem}", argv, {}))
    golden_dir = ROOT / "tests" / "golden"
    golden = (golden_dir / "actions_41.json").read_text(encoding="utf-8")
    # the golden report was made with the default seed, so this job keeps it
    jobs.append(Job("run-actions_41", ["run", str(golden_dir / "actions_41.def"), "--format", "machine"],
                    {"golden": golden}))
    jobs.append(Job("demo", ["demo", "--format", "machine", "--seed", str(rng.randrange(1, 2**31))], {}))
    rest = jobs[:-2] + jobs[-1:]
    rng.shuffle(rest)
    return jobs[-2:-1] + rest


GENERATORS = {"model_grid": model_grid, "degree_stress": degree_stress}


# -- running one job -------------------------------------------------------------------


def run_definition_job(job: Job):
    """One closed-loop job in process: (parse,) run every task, render."""
    source, seed = job.payload
    defn = definition.parse_definition(source) if isinstance(source, str) else source
    return runner.run_tasks(defn, defn.tasks, seed=seed).render_machine()


def run_cli_process(job: Job, timeout: float):
    """One cold ``python -m liftcheck`` process; returns (exit status, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "liftcheck", *job.payload],
        cwd=ROOT, env=CLI_ENV, capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout


def problems(job: Job, output) -> list[str]:
    """Answer-check problems of one job's output."""
    if isinstance(job.payload, list):
        return answers.cli_problems(*output, job.expect)
    return answers.verdict_problems(output, job.expect)
