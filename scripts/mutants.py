"""Run the mutants of ``tests/mutants.py``: each must be killed by its tests.

For each mutant, one at a time, the tree the tests read (``src/``,
``tests/``, ``defs/``, ``perfbench/`` and ``pyproject.toml``) is copied to a
temporary directory.  The mutant's old text must occur exactly once in its
file, so the list follows the code; its named tests must pass on the copy as
it is; then the old text is replaced by the new one, and ``pytest -x`` on
those tests must fail.  Exits 1 when any mutant survives or is stale.  Run
from anywhere::

    python scripts/mutants.py
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "tests", "defs", "perfbench", "pyproject.toml")


def load_mutants() -> list:
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def pytest(tree: Path, tests) -> int:
    """The exit status of ``pytest -x`` on ``tests`` in the copied tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def check(mutant) -> str:
    """The outcome: "killed", or why the mutant fails the run."""
    with tempfile.TemporaryDirectory(prefix="liftcheck-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in TREE:
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, tree / part, ignore=ignore)
            else:
                shutil.copy(ROOT / part, tree / part)
        path = tree / mutant.file
        text = path.read_text(encoding="utf-8")
        if (count := text.count(mutant.old)) != 1:
            return f"STALE: the old text occurs {count} times in {mutant.file}"
        if (code := pytest(tree, mutant.tests)) != 0:
            return f"STALE: its tests exit {code} on the unmutated tree"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        code = pytest(tree, mutant.tests)
        # 1 is a failed test; any other status (a collection error, no test
        # collected) is no kill
        if code == 1:
            return "killed"
        return "SURVIVED" if code == 0 else f"NOT KILLED: its tests exit {code}"


def main() -> int:
    mutants = load_mutants()
    failed = 0
    for mutant in mutants:
        start = time.perf_counter()
        outcome = check(mutant)
        failed += outcome != "killed"
        print(f"{outcome:<10} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{failed} of {len(mutants)} mutants not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
