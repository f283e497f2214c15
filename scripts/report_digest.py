"""SHA-256 of the machine reports of the benchmark's in-process workloads.

Runs every job of model_grid, then degree_stress, for seed 1 and then seed
2, through ``perfbench/workloads.py`` (read only), and prints the SHA-256 of
the concatenated ``--format machine`` reports.  A change that must keep every
report byte-identical keeps this digest.  Run from the repository root::

    python scripts/report_digest.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def report_digest(seeds=(1, 2)) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        for name in ("model_grid", "degree_stress"):
            for job in workloads.GENERATORS[name](seed):
                digest.update(workloads.run_definition_job(job).encode("utf-8"))
    return digest.hexdigest()


if __name__ == "__main__":
    print(report_digest())
