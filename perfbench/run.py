"""liftcheck benchmark: seeded closed-loop workloads, timed end to end and traced per module.

Usage (from the repository root)::

    python3 perfbench/run.py --workload model_grid --seed 1 --seconds 32 --trace 0

Workloads (see ``workloads.py``):

  model_grid     conjugated (n, r) <= (3, 3) models of both signatures, a
                 quarter of them mutants, with sparse polynomial connections;
                 the first job is the ROADMAP heavy case
  degree_stress  n=1, r=1 contact model text with (a1 +- b1 +- c1)^k entries:
                 8 perturbed (FAIL), 9 conjugated by a high-degree shear (PASS)

Both are in-process workloads.  Cold start is measured by the traced run
instead: one fresh ``python -m liftcheck`` per job over ``defs/*.def``, the
golden ``actions_41`` report and ``demo`` (``workloads.cli_cold``), with
the same answer checks, gives the ``cli.*`` metrics.

One client sends one job at a time and waits for its verdict.  A run sets up
five times (import in a fresh interpreter, input generation, one warm-up
job) and reports the median as ``setup_s``; it then runs as many whole
passes over the job list as come closest to ``--seconds`` of scaled job time
(see below).  Every output is checked against the answer known from how its
input was built, outside the timed region; ``failed_share`` and
``wrong_verdict_share`` are printed, and any failure makes ``correct`` false.

On a shared host the speed of the machine itself moves by a third over
minutes, the same for the benchmark's own fixed code as for liftcheck.  So
the timed run also times a fixed reference kernel (``bench.reference_kernel``,
no liftcheck code) before every job and around every set-up, and reports
each time scaled to the host speed at which that kernel takes
``bench.REF_S``: seconds on a steady host of that speed.  The unscaled
times and the reference samples are printed on the human-readable lines and
in the ``meta`` line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead times the
cold CLI processes and the ROADMAP heavy case, then runs one untraced and
one traced pass over the same jobs, wrapping the public
functions of every ``src/liftcheck`` module, and prints the per-layer
metrics; the trace itself goes to ``.perfbench-out/``.  Per-layer counts
depend only on the seed.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit status
is 1 when any answer check fails or any job fails, and 2 when the liftcheck
sources are missing.  The benchmark's own tests: ``python -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    """Put this checkout's ``src`` first on the path, or stop with status 2."""
    if not (SRC / "liftcheck" / "__init__.py").is_file():
        print(f"perfbench: liftcheck sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import liftcheck

    if Path(liftcheck.__file__).resolve().parent != SRC / "liftcheck":
        print(f"perfbench: imported liftcheck from {liftcheck.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
