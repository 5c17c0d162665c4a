"""Golden-check every benchmark input: the 64 input seeds of each perfbench workload.

    PYTHONPATH=src python tests/golden_all_inputs.py [WORKLOAD ...] [--seeds A-B]

Run from the repository root.  With no arguments every input of the three
workloads is checked; workload names and an inclusive seed range such as
``--seeds 0-7`` narrow the check to a subset.  An unknown workload or a
seed range outside 0-63 exits with status 2 and names it.

Each input seed runs one pipeline through
``workloads.prepare``/``run_pipeline``/``check``, the path that
``perfbench/run.py`` times, in a fresh temporary directory.  One line is
printed per failing input, then a total; the exit status is 1 if any input
fails.  pytest does not collect this file, because its name does not start
with ``test_``: the 192 pipelines take minutes, too long for tier-1, where
``tests/test_perfbench_golden.py`` checks input seed 0 of each workload.
"""

from __future__ import annotations

import argparse
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


def seed_range(text: str) -> range:
    """``A-B`` as the inclusive range of input seeds A..B."""
    first, sep, last = text.partition("-")
    try:
        seeds = range(int(first), int(last) + 1) if sep else None
    except ValueError:
        seeds = None
    if not seeds or seeds.start < 0 or seeds.stop > workloads.GOLDEN_SEEDS:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a range A-B with 0 <= A <= B < {workloads.GOLDEN_SEEDS}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Golden-check perfbench inputs.")
    parser.add_argument("names", nargs="*", metavar="WORKLOAD",
                        help=f"workloads to check (default: all of {sorted(workloads.WORKLOADS)})")
    parser.add_argument("--seeds", type=seed_range, default=range(workloads.GOLDEN_SEEDS),
                        help="inclusive input seed range A-B (default: 0-%d)"
                             % (workloads.GOLDEN_SEEDS - 1))
    args = parser.parse_args(argv)
    for name in args.names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; known: {sorted(workloads.WORKLOADS)}")
    golden = workloads.load_golden()
    failed = checked = 0
    for name in sorted(set(args.names) or workloads.WORKLOADS):
        for seed in args.seeds:
            problems = check_input(name, seed, golden)
            checked += 1
            if problems:
                failed += 1
                print(f"{name} input seed {seed}: " + "; ".join(problems), flush=True)
    print(f"{checked - failed} of {checked} inputs match the golden file")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
