"""Regenerate golden.json: one fingerprint per workload and input seed.

    python3 perfbench/make_golden.py [--workload NAME ...]

Run from the repository root, only on a commit whose outputs are known to be
right; the benchmark's correctness check compares every later run to these
entries.  Entries of workloads not named are kept as they are.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    names = args.workload or list(workloads.WORKLOADS)
    golden = workloads.load_golden() if workloads.GOLDEN_PATH.exists() else {}
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    for name in names:
        entries = {}
        for seed in range(workloads.GOLDEN_SEEDS):
            work = tempfile.mkdtemp(prefix="golden-", dir=str(tmp_root))
            try:
                inputs = workloads.prepare(name, seed, work)
                workloads.run_pipeline(inputs, f"{work}/out")
                entries[str(seed)] = workloads.fingerprint(f"{work}/out")
            finally:
                shutil.rmtree(work)
            if inputs.trace_end is not None and entries[str(seed)]["final_time"] >= inputs.trace_end:
                raise SystemExit(f"{name} seed {seed}: the traces end before the run does")
            print(f"{name} seed {seed}: {entries[str(seed)]['trajectory_sha256'][:16]}",
                  flush=True)
        golden[name] = entries
    tmp_root.rmdir()
    write_golden(golden)
    return 0


def write_golden(golden: dict) -> None:
    """Write golden.json with one line per workload and input seed."""
    blocks = []
    for name in sorted(golden):
        entries = golden[name]
        lines = [f"  {json.dumps(seed)}: {json.dumps(entries[seed], sort_keys=True)}"
                 for seed in sorted(entries, key=int)]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
