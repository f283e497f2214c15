"""Orchestration of one benchmark run; see ``run.py`` for the command line."""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from liftcheck import lifts, tensor, theorems

import workloads
from tracing import Tracer

OUT = workloads.ROOT / ".perfbench-out"
SETUP_REPS = 5
JOB_LIMIT_S = 30.0
PROBE_ROUNDS = 4
NOISE_PROBE_REPS = 15
REF_S = 0.004      # the reference kernel's nominal time, see reference_kernel
REF_REPS = 3       # kernels per reference sample
REF_WINDOW = 4     # a time is scaled by the median of 2 * REF_WINDOW + 2 samples around it
HEAVY_REPS = 3
MIN_TAIL_BEYOND = 10

# ROADMAP baseline for the heavy case, in seconds
HEAVY_BASELINE = {
    "lifts": 0.0215, "j_assembly": 0.0232, "j_square": 0.0014,
    "verify_theorem": 0.049, "sign_sweep": 0.082, "action_report": 0.309,
}


clock = time.perf_counter


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_LIMIT_S} s")


def _reference_poly(seed: int, terms: int) -> dict:
    rng = random.Random(seed)
    poly: dict = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, 3) for _ in range(4))
        poly[exps] = poly.get(exps, 0) + Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return poly


_REF_FACTORS = (_reference_poly(1, 24), _reference_poly(2, 24))


def reference_kernel() -> float:
    """Seconds for a fixed product of two sparse polynomials on plain dicts.

    It shares no code with liftcheck, so no change to liftcheck moves it, and
    it does the kind of work liftcheck's algebra does (tuple keys, dict
    updates, Fraction arithmetic), so a slow phase of a shared host slows it
    the way it slows the jobs.
    """
    left, right = _REF_FACTORS
    start = clock()
    out: dict = {}
    for ea, ca in left.items():
        for eb, cb in right.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return clock() - start


def reference_sample() -> float:
    return statistics.median(reference_kernel() for _ in range(REF_REPS))


def scale(times: list[float], before: list[int], refs: list[float]) -> list[float]:
    """Times at the nominal host speed.

    ``refs[before[i]]`` was sampled just before ``times[i]`` and the next
    sample just after it; each time is multiplied by ``REF_S`` over the median
    of the samples around it, so a phase in which the host runs the reference
    kernel at half speed does not double the times measured in it.
    """
    return [
        t * REF_S / statistics.median(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 2])
        for t, i in zip(times, before)
    ]


def noise_probe() -> float:
    """Median time of the reference kernel; recorded as metadata only."""
    return statistics.median(reference_kernel() for _ in range(NOISE_PROBE_REPS))


def time_process(argv: list[str]) -> float:
    start = clock()
    subprocess.run(argv, cwd=workloads.ROOT, env=workloads.CLI_ENV, capture_output=True,
                   timeout=JOB_LIMIT_S, check=True)
    return clock() - start


def import_probe() -> float:
    return time_process([sys.executable, "-c", "import liftcheck.cli"])


# -- running jobs ------------------------------------------------------------------------


def execute(job):
    """Run one job under the time limit; returns its output."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    try:
        return workloads.run_definition_job(job)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Loop:
    """One closed-loop client: times and outputs of every job it sent.

    A reference sample (see ``scale``) is taken before every job and after
    the last one of each pass.  The first output of each job is kept for the
    answer check; a later run of the same job must repeat it byte for byte.
    """

    def __init__(self, jobs, tracer=None, first=None):
        self.jobs, self.tracer = jobs, tracer
        self.first = {} if first is None else first   # job index -> first output
        self.times: list[float] = []                  # seconds per completed run
        self.before: list[int] = []                   # index in refs of the sample before each time
        self.refs: list[float] = []                   # reference samples, in the order taken
        self.attempted = 0
        self.failures: list[str] = []
        self.differing: list[str] = []                # runs that did not repeat the first output
        self.passes = 0
        self.elapsed = 0.0

    def one_pass(self) -> None:
        start = clock()
        for index, job in enumerate(self.jobs):
            if self.tracer is not None:
                self.tracer.job = f"{self.passes}/{index}:{job.key}"
            self.attempted += 1
            self.refs.append(reference_sample())
            t0 = clock()
            try:
                output = execute(job)
            except Exception as exc:  # a failing job is counted, and the run goes on
                self.failures.append(f"{job.key}: {exc!r}")
                continue
            self.times.append(clock() - t0)
            self.before.append(len(self.refs) - 1)
            if self.first.setdefault(index, output) != output:
                self.differing.append(f"{job.key}: output differs from the run's first output")
        self.refs.append(reference_sample())
        self.elapsed += clock() - start
        self.passes += 1

    def run_for(self, seconds: float) -> None:
        """Whole passes over the job list, as many as come closest to ``seconds``
        of scaled job time.  The tail percentile depends on the number of
        samples, so the number of passes must not depend on the host's speed.
        Jobs that fail add no job time, so wall time bounds the run as well."""
        self.one_pass()
        while self.elapsed < 2 * seconds:
            busy = sum(self.scaled_times())
            if busy + busy / self.passes / 2 >= seconds:
                break
            self.one_pass()

    def scaled_times(self) -> list[float]:
        return scale(self.times, self.before, self.refs)

    @property
    def jobs_per_s(self) -> float:
        """Completed jobs per second of scaled job time: one client, back to back."""
        return len(self.times) / sum(self.scaled_times())

    def check(self) -> tuple[int, list[str]]:
        """(wrong runs, problems): answer checks of each job's first output,
        plus the runs that did not repeat it."""
        wrong, found = len(self.differing), list(self.differing)
        for index, output in self.first.items():
            problems = workloads.problems(self.jobs[index], output)
            wrong += bool(problems)
            found += [f"{self.jobs[index].key}: {p}" for p in problems]
        return wrong, found


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= MIN_TAIL_BEYOND:
        return ordered[-1], 100
    pct = 100 * (n - MIN_TAIL_BEYOND) // n
    rank = max(1, -(-pct * n // 100))
    return ordered[rank - 1], pct


# -- end-to-end run ------------------------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    generate = workloads.GENERATORS[workload]
    setups, refs = [], [reference_sample()]
    for _ in range(SETUP_REPS):
        start = clock()
        import_probe()
        jobs = generate(seed)
        execute(jobs[0])
        setups.append(clock() - start)
        refs.append(reference_sample())
    scaled_setups = scale(setups, list(range(SETUP_REPS)), refs)
    loop = Loop(jobs)
    loop.run_for(seconds)
    wrong, problems = loop.check()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = loop.scaled_times()
    n = len(samples)
    p50 = statistics.median(samples) if samples else float("nan")
    tail_s, tail_pct = tail(samples) if samples else (float("nan"), 0)
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s",
                    f"median of {SETUP_REPS} set-ups, unscaled {statistics.median(setups):.4f} s"),
        "jobs_per_s": (loop.jobs_per_s if n else 0.0, "1/s",
                       f"{n} jobs in {loop.elapsed:.2f} s, {loop.passes} passes of {len(jobs)}"),
        "job_s.p50": (p50, "s", f"n={n}, unscaled {statistics.median(loop.times):.4f} s" if n else ""),
        "job_s.tail": (tail_s, "s", f"p{tail_pct}, n={n}"),
        "peak_rss_mb": (peak_mb, "MB", ""),
    }
    host = {
        "setups_s": setups,
        "reference_s": {"nominal": REF_S, "setup": refs, "median": statistics.median(loop.refs),
                        "quartiles": statistics.quantiles(loop.refs, n=4)},
    }
    return {
        "metrics": metrics, "attempted": loop.attempted, "failed": len(loop.failures),
        "wrong": wrong, "problems": loop.failures + problems, "meta": host,
    }


# -- traced run ---------------------------------------------------------------------------


def cli_probe(seed: int) -> tuple[dict, int, list[str], list[str]]:
    """Cold ``python -m liftcheck`` processes over ``workloads.cli_cold``.

    Rounds interleave the three kinds of process, and ``work_s`` pairs each
    job with the import time of its own round, so that a slow phase of the
    host lands on both sides of the difference.  Returns the metrics, the
    number of jobs run, the failed jobs and the answer-check problems.
    """
    interpreter, imported, process, work, failures, problems = [], [], [], [], [], []
    first: dict = {}
    jobs = workloads.cli_cold(seed)
    for _ in range(PROBE_ROUNDS):
        interpreter.append(time_process([sys.executable, "-c", "pass"]))
        imported.append(import_probe())
        for job in jobs:
            start = clock()
            try:
                output = workloads.run_cli_process(job, JOB_LIMIT_S)
            except subprocess.TimeoutExpired:
                failures.append(f"{job.key}: exceeded {JOB_LIMIT_S} s")
                continue
            process.append(clock() - start)
            if output[0] not in (0, 1):
                failures.append(f"{job.key}: exit status {output[0]}")
            work.append(process[-1] - imported[-1])
            found = workloads.problems(job, output) if job.key not in first else (
                [] if first[job.key] == output else ["output differs from the run's first output"])
            first.setdefault(job.key, output)
            problems += [f"{job.key}: {p}" for p in found]
    median = statistics.median
    metrics = {
        "cli.process_s": (median(process), "s", "median per cli job"),
        "cli.interpreter_s": (median(interpreter), "s", "python -c pass"),
        "cli.import_s": (median(imported), "s", "python -c 'import liftcheck.cli'"),
        "cli.work_s": (median(work), "s", "job process minus import, paired by round"),
    }
    return metrics, PROBE_ROUNDS * len(jobs), failures, problems


def heavy_case_times() -> tuple[dict, int]:
    """Untraced times of the ROADMAP heavy case through public functions."""
    model, conn = workloads.heavy_case()
    spec = theorems.theorem_spec("4.3", model, conn=conn)

    def build_lifts():
        tangent = lifts.TangentChart.over(model.chart)
        lifts.lift_endo(model.f, spec.lift_kind, tangent, conn)
        for x in model.xi:
            lifts.lift_vector(x, lifts.VERTICAL, tangent)
            lifts.lift_vector(x, spec.lift_kind, tangent, conn)
        for w in model.eta:
            lifts.lift_oneform(w, lifts.VERTICAL, tangent)
            lifts.lift_oneform(w, spec.lift_kind, tangent, conn)

    j = theorems.build_lifted_j(spec)
    calls = {
        "lifts": build_lifts,
        "build_lifted_j": lambda: theorems.build_lifted_j(spec),
        "j_square": lambda: tensor.endo_compose(j, j),
        "verify_theorem": lambda: theorems.verify_theorem(spec, seed=1729),
        "sign_sweep": lambda: theorems.sign_sweep(model, spec.lift_kind, conn=conn, seed=1729),
        "action_report": lambda: theorems.action_report(spec, seed=1729),
    }
    times = {}
    for name, call in calls.items():
        reps = []
        for _ in range(HEAVY_REPS):
            start = clock()
            call()
            reps.append(clock() - start)
        times[name] = statistics.median(reps)
    times["j_assembly"] = times.pop("build_lifted_j") - times["lifts"]
    zeros = sum(c.is_zero() for row in j.comps for c in row)
    return times, zeros


def layer_metrics(tracer, jobs: int) -> dict:
    spans = tracer.span_totals()
    out = {}

    def span(name, what):
        calls, inclusive, self_s = spans.get(name, (0, 0.0, 0.0))
        value, unit = {"calls": (calls, "count"), "self_s": (self_s, "s"), "s": (inclusive, "s")}[what]
        out[f"{name}.{what}"] = (value, unit, "")

    for name, whats in [
        ("algebra.poly_mul", ("calls", "self_s")), ("algebra.poly_add", ("calls", "self_s")),
        ("algebra.poly_new", ("calls",)), ("algebra.poly_pow", ("calls", "self_s")),
        ("algebra.poly_eval", ("calls", "self_s")), ("algebra.matmul", ("calls", "self_s")),
    ]:
        calls, _, self_s = tracer.agg.get(name, (0, 0.0, 0.0))
        for what in whats:
            out[f"{name}.{what}"] = (calls, "count", "") if what == "calls" else (self_s, "s", "")
    out["algebra.poly_mul.terms_out"] = (tracer.counts["algebra.poly_mul.terms_out"], "count", "")
    span("expr.parse_poly", "calls")
    span("expr.parse_poly", "self_s")
    span("definition.parse_definition", "self_s")
    span("definition.build_structure", "calls")
    span("definition.build_connection", "calls")
    for fn in ("endo_compose", "endo_apply", "oneform_apply", "oneform_after_endo",
               "outer", "metric_pullback", "field_arith"):
        span(f"tensor.{fn}", "calls")
        span(f"tensor.{fn}", "self_s")
    for fn in ("lift_endo", "lift_vector", "lift_oneform"):
        span(f"lifts.{fn}", "calls")
        span(f"lifts.{fn}", "self_s")
    span("lifts.lift_function", "calls")
    span("lifts.tangent_chart", "calls")
    in_jobs = sum(1 for s in tracer.spans if s[0] == "lifts.lift_endo" and s[4] != "setup")
    out["lifts.lift_endo.per_job"] = (in_jobs / jobs, "calls/job", "")
    span("lifts.verify_lift_interactions", "self_s")
    for fn in ("check_axioms", "check_metric"):
        span(f"structures.{fn}", "self_s")
    span("structures.find_witness", "calls")
    found = tracer.counts["structures.find_witness.found"]
    searches = spans.get("structures.find_witness", (0,))[0]
    out["structures.find_witness.found"] = (found, "count", "")
    out["structures.find_witness.found_ratio"] = (found / searches if searches else 0.0, "ratio", "")
    span("structures.find_witness", "self_s")
    span("structures.conjugate_structure", "self_s")
    span("theorems.build_lifted_j", "self_s")
    span("theorems.verify_theorem", "self_s")
    j_square = tracer.self_under("tensor.endo_compose", {"theorems.verify_theorem", "theorems.sign_sweep"})
    out["theorems.j_square.self_s"] = (j_square, "s", "endo_compose under verify_theorem or sign_sweep")
    span("theorems.sign_sweep", "self_s")
    span("theorems.action_report", "self_s")
    span("theorems.verify_action_formulas", "calls")
    span("report.render_residual", "calls")
    span("report.render_residual", "self_s")
    span("report.render_machine", "self_s")
    out["report.bytes_out"] = (tracer.counts["report.bytes_out"], "bytes", "")
    span("runner.run_task", "calls")
    for kind in ("check", "lift", "build-j", "theorem", "sweep"):
        span(f"runner.run_task.{kind}", "s")
    return out


def traced_run(workload: str, seed: int) -> dict:
    plain_jobs = workloads.GENERATORS[workload](seed)
    metrics, cli_jobs, cli_failures, cli_problems = cli_probe(seed)
    heavy, zeros = heavy_case_times()
    for name, value in heavy.items():
        metrics[f"heavy.{name}_s"] = (value, "s", f"ROADMAP baseline {HEAVY_BASELINE[name]} s")

    execute(plain_jobs[0])  # warm-up
    plain = Loop(plain_jobs)
    plain.one_pass()

    tracer = Tracer()
    tracer.install()
    try:
        jobs = workloads.GENERATORS[workload](seed)
        traced = Loop(jobs, tracer=tracer, first=dict(plain.first))
        traced.one_pass()
    finally:
        tracer.uninstall()

    wrong, problems = plain.check()
    problems += traced.differing + cli_problems
    metrics.update(layer_metrics(tracer, len(jobs)))
    overhead = traced.jobs_per_s / plain.jobs_per_s if traced.times and plain.times else 0.0
    metrics["trace.overhead"] = (overhead, "ratio", "traced / untraced jobs_per_s")
    failures = plain.failures + traced.failures + cli_failures
    meta = {
        "workload": workload, "seed": seed, "jobs": [j.key for j in jobs],
        "untraced_jobs_per_s": plain.jobs_per_s if plain.times else None,
        "traced_jobs_per_s": traced.jobs_per_s if traced.times else None,
        "heavy_case_j_zero_components": zeros,
    }
    path = OUT / f"trace-{workload}-seed{seed}.json.gz"
    tracer.write(path, meta)
    return {
        "metrics": metrics, "attempted": plain.attempted + traced.attempted + cli_jobs,
        "failed": len(failures), "wrong": wrong + len(traced.differing) + len(cli_problems),
        "problems": failures + problems,
        "meta": {**meta, "trace_file": str(path.relative_to(workloads.ROOT)), "spans": len(tracer.spans)},
    }


# -- main ------------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description="liftcheck benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    noise_before = noise_probe()
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    noise_after = noise_probe()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, note) in result["metrics"].items():
        print(f"  {name:40s} {value:>14.6g} {unit:9s} {note}")
    attempted = result["attempted"]
    for name, count in (("failed_share", result["failed"]), ("wrong_verdict_share", result["wrong"])):
        print(f"  {name:40s} {count / attempted:>14.6g} {'share':9s} {count}/{attempted}")
    for problem in result["problems"][:20]:
        print(f"  PROBLEM {problem}")
    meta = {**result["meta"], "noise_probe_s": {"before": noise_before, "after": noise_after}}
    print("meta " + json.dumps(meta))
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in result["metrics"].items()},
    }))
    return 0 if correct else 1
