"""Tests of the benchmark itself.  Run with ``python -m pytest perfbench``."""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import answers  # noqa: E402
import bench  # noqa: E402
import workloads  # noqa: E402
from liftcheck import definition  # noqa: E402
from liftcheck.algebra import Poly  # noqa: E402
from tracing import Tracer  # noqa: E402

DETERMINISTIC = (".calls", ".terms_out", ".find_witness.found", ".bytes_out")


def small(workload, jobs):
    """A few quick jobs of each workload, so each test takes seconds."""
    if workload == "model_grid":
        return [j for j in jobs if j.key.startswith("n1r1")][:3]
    return [min((j for j in jobs if j.key.startswith(p)), key=lambda j: len(j.payload[0]))
            for p in ("perturbed", "sheared")]


def traced_counts(workload, seed):
    tracer = Tracer()
    tracer.install()
    try:
        jobs = small(workload, workloads.GENERATORS[workload](seed))
        loop = bench.Loop(jobs, tracer=tracer)
        loop.one_pass()
    finally:
        tracer.uninstall()
    assert not loop.failures
    assert loop.check() == (0, [])
    metrics = bench.layer_metrics(tracer, len(jobs))
    return {name: value for name, (value, _, _) in metrics.items() if name.endswith(DETERMINISTIC)}


def test_traced_counts_repeat_exactly():
    original_mul = Poly.__mul__
    for workload in workloads.GENERATORS:
        first = traced_counts(workload, 5)
        assert first == traced_counts(workload, 5)
        assert first["runner.run_task.calls"] > 0
    assert Poly.__mul__ is original_mul and Poly.__rmul__ is original_mul


def fingerprint(jobs):
    out = []
    for job in jobs:
        if isinstance(job.payload, list):
            out.append(" ".join(job.payload))
            continue
        source, seed = job.payload
        text = source if isinstance(source, str) else definition.emit_definition(source)
        out.append(f"{text}\nseed {seed}")
    return out


def test_seed_changes_inputs():
    for workload, generate in [*workloads.GENERATORS.items(), ("cli_cold", workloads.cli_cold)]:
        assert fingerprint(generate(1)) == fingerprint(generate(1)), workload
        assert fingerprint(generate(1)) != fingerprint(generate(2)), workload


def test_evaluator_is_exact():
    point = {"a1": Fraction(3, 2), "b1": Fraction(-2), "c1": Fraction(1, 3)}
    assert answers.evaluate("-3/2*a1^2*b1 + c1 - 1", point) == Fraction(3, 2) * Fraction(9, 4) * 2 + Fraction(1, 3) - 1
    assert answers.evaluate("0", point) == 0


def test_model_grid_check_flags_corruption():
    jobs = workloads.model_grid(3)
    good = next(j for j in jobs if j.expect["answer"] == "pass" and j.key.startswith("n1"))
    mutant = next(j for j in jobs if j.expect["answer"] == "pairing_fail")
    good_out, mutant_out = bench.execute(good), bench.execute(mutant)
    assert workloads.problems(good, good_out) == []
    assert workloads.problems(mutant, mutant_out) == []
    # a mutant verdict reported for an unmutated model, and the reverse
    assert workloads.problems(mutant, good_out)
    assert workloads.problems(good, mutant_out)
    doc = json.loads(mutant_out)
    entry = next(e for s in doc["sections"] for e in s.get("entries", []) if not e["passed"])
    entry["witness"] = None
    assert workloads.problems(mutant, json.dumps(doc))
    doc = json.loads(good_out)
    sweep = next(s for s in doc["sections"] if s["task"] == "sweep")
    sweep["rows"][0]["passed"] = not sweep["rows"][0]["passed"]
    assert workloads.problems(good, json.dumps(doc))


def test_degree_stress_check_flags_zero_witness():
    jobs = workloads.degree_stress(3)
    perturbed = min((j for j in jobs if j.expect["answer"] == "squaring_fail"), key=lambda j: len(j.payload[0]))
    out = bench.execute(perturbed)
    assert workloads.problems(perturbed, out) == []
    doc = json.loads(out)
    squaring = next(e for s in doc["sections"] for e in s.get("entries", []) if e["name"].startswith("F^2"))
    assert not squaring["passed"]
    # the residual is a multiple of (a1 +- b1 +- c1)^k, zero at the origin
    squaring["witness"] = {name: "0" for name in squaring["witness"]}
    assert any("evaluates to zero" in p for p in workloads.problems(perturbed, json.dumps(doc)))
    assert workloads.problems(workloads.Job("x", None, {"answer": "pass"}), out)
    # a later run that does not repeat the first output byte for byte
    loop = bench.Loop([perturbed], first={0: out + " "})
    loop.one_pass()
    assert loop.check()[0] == 1 and "differs" in loop.check()[1][0]


def test_cli_cold_check_flags_changed_output():
    jobs = {j.key: j for j in workloads.cli_cold(3)}
    golden = jobs["run-actions_41"]
    status, out = workloads.run_cli_process(golden, 60)
    assert workloads.problems(golden, (status, out)) == []
    assert workloads.problems(golden, (status, out.replace("true", "false", 1)))
    assert workloads.problems(golden, (2, out))


def test_scale_cancels_host_speed():
    # the reference kernel takes its nominal time for ten samples, then twice that
    refs = [bench.REF_S] * 10 + [2 * bench.REF_S] * 10
    # the same job, timed once in each phase
    assert bench.scale([0.5, 1.0], [0, 18], refs) == [0.5, 0.5]
