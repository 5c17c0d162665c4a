"""Run one workload pipeline in a fresh process and print its peak RSS.

    python3 perfbench/rss_child.py --workload NAME --config CONFIG --out DIR

The parent (run.py) prepares the inputs, starts this process, waits for it,
and golden-checks what it wrote to DIR.  The figure includes the interpreter
and the numpy/yaml imports, as a user's ``afafed run`` process would.  It is
the kernel's high-water mark of this process image (VmHWM).  ``ru_maxrss``
would not do: Linux carries it across fork and exec, so it reports the
parent's resident set whenever that is the larger one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    inputs = workloads.Inputs(workloads.WORKLOADS[args.workload], -1, args.config)
    workloads.run_pipeline(inputs, args.out)
    print(json.dumps({"peak_rss_mb": peak_rss_kib() / 1024.0}))
    return 0


def peak_rss_kib() -> int:
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main())
