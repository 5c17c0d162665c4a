"""Golden-check every benchmark input: the 64 input seeds of each perfbench workload.

    PYTHONPATH=src python tests/golden_all_inputs.py

Run from the repository root.  Each input seed runs one pipeline through
``workloads.prepare``/``run_pipeline``/``check``, the path that
``perfbench/run.py`` times, in a fresh temporary directory.  One line is
printed per failing input, then a total; the exit status is 1 if any input
fails.  pytest does not collect this file, because its name does not start
with ``test_``: the 192 pipelines take minutes, too long for tier-1, where
``tests/test_perfbench_golden.py`` checks input seed 0 of each workload.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads


def check_input(name: str, seed: int, golden: dict) -> list:
    """The golden mismatches of one workload's input seed; empty when it matches."""
    with tempfile.TemporaryDirectory(prefix="afafed-golden-") as tmp:
        inputs = workloads.prepare(name, seed, tmp)
        out_dir = str(Path(tmp) / "out")
        workloads.run_pipeline(inputs, out_dir)
        return workloads.check(inputs, out_dir, golden)


def main() -> int:
    golden = workloads.load_golden()
    failed = checked = 0
    for name in sorted(workloads.WORKLOADS):
        for seed in range(workloads.GOLDEN_SEEDS):
            problems = check_input(name, seed, golden)
            checked += 1
            if problems:
                failed += 1
                print(f"{name} input seed {seed}: " + "; ".join(problems), flush=True)
    print(f"{checked - failed} of {checked} inputs match the golden file")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
