"""afafed benchmark: host time of the harness path, end to end and per layer.

    python3 perfbench/run.py --workload k100-eval --seed 1 --seconds 25 --trace 0

Run from the repository root.  The simulator is imported from ``src/`` of
the checkout this file sits in.  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it measures the
per-layer metrics with the wrappers of ``tracer.py`` installed.  Every
pipeline's outputs are checked against ``golden.json``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
All times are host seconds from ``time.perf_counter``, rescaled to a fixed
reference machine speed by ``speed.py``; simulated time is only checked,
never reported as speed.  See README.md for the design.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# share of --seconds spent on set-up-only repetitions, which add samples to
# the set-up median without the cost of a whole pipeline
SETUP_SHARE = 0.1
MIN_SETUPS = 5
MIN_PIPELINES = 3
CHILD_TIMEOUT_S = 150


class Runs:
    """Attempted and failed pipelines of one benchmark run."""

    def __init__(self, golden) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def checked(self, inputs, run: Callable[[str], object], out_dir: str):
        """Run one pipeline into out_dir and golden-check what it wrote.

        Returns the pipeline's result, or None if it raised.  A pipeline that
        raised or whose outputs differ from the golden entry counts as failed;
        the time of one that completed is kept either way.
        """
        import workloads

        self.attempted += 1
        try:
            value = run(out_dir)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        problems = workloads.check(inputs, out_dir, self.golden)
        if problems:
            self.failed += 1
            print(f"golden check failed ({inputs.workload.name}, input seed "
                  f"{inputs.input_seed}): " + "; ".join(problems), file=sys.stderr)
        return value

    def pipeline(self, inputs, out_dir: str):
        import workloads

        gc.collect()
        return self.checked(inputs, lambda d: workloads.run_pipeline(inputs, d), out_dir)


def _median(values: List[float], what: str) -> float:
    if not values:
        raise RuntimeError(f"no successful sample of {what}")
    return statistics.median(values)


def peak_rss_child(inputs, out_dir: str) -> float:
    """Peak resident set in MB of a fresh process that runs the pipeline once."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "rss_child.py"), "--workload", inputs.workload.name,
         "--config", inputs.config_path, "--out", out_dir],
        cwd=str(ROOT), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"peak-RSS child exited with {proc.returncode}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_mb"])


def timed_run(runs: Runs, inputs: list, seconds: float,
              work: str) -> Dict[str, Tuple[float, str]]:
    """End-to-end metrics, tracing off, rescaled to reference speed.

    Set-ups and pipelines cycle through the run's inputs in turn.
    """
    import workloads

    speed = Speedometer()
    start = time.perf_counter()
    setups: List[Tuple[float, float]] = []     # (host seconds, scale)
    while len(setups) < MIN_SETUPS or time.perf_counter() < start + SETUP_SHARE * seconds:
        here = inputs[len(setups) % len(inputs)]
        setups.append(speed.measure(lambda: workloads.setup_once(here)))
    timings = []
    out_dir = os.path.join(work, "out")
    for i in itertools.count():
        if len(timings) >= MIN_PIPELINES and time.perf_counter() >= start + seconds:
            break
        here = inputs[i % len(inputs)]
        timing, scale = speed.measure(lambda: runs.pipeline(here, out_dir))
        if timing is not None:
            timings.append((timing, scale))
        elif not timings and runs.failed >= MIN_PIPELINES:
            break
    setups += [(t.setup_s, scale) for t, scale in timings]
    rss = runs.checked(inputs[0], lambda d: peak_rss_child(inputs[0], d),
                       os.path.join(work, "child"))
    if rss is None:
        raise RuntimeError("the peak-RSS child failed")
    print(f"# {len(timings)} pipelines, {len(setups)} set-ups, "
          f"{time.perf_counter() - start:.1f} s; machine at "
          f"{_median([s for _, s in setups], 'speed'):.3f} of reference speed; host medians: "
          f"setup {_median([h for h, _ in setups], 'set-up'):.4g} s, "
          f"wall {_median([t.wall_s for t, _ in timings], 'pipeline'):.4g} s", file=sys.stderr)
    return {
        "setup_s": (_median([h * s for h, s in setups], "set-up"), "s"),
        "aggs_per_s": (_median([t.aggregations / (t.run_s * s) for t, s in timings], "run"),
                       "1/s"),
        "wall_s": (_median([t.wall_s * s for t, s in timings], "pipeline"), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def traced_run(runs: Runs, inputs: list, seconds: float,
               work: str) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from traced pipelines, plus the tracing overhead.

    Only the run's first input is traced, so that the counts of all traced
    pipelines must repeat exactly.  Untraced and traced pipelines alternate,
    so each traced one has an untraced neighbour run at nearly the same
    machine speed; trace_overhead is the median ratio within these pairs,
    minus one.  Times are medians, rescaled to reference speed like the
    end-to-end times.
    """
    from tracer import Tracer

    speed = Speedometer()
    tracer = Tracer()
    start = time.perf_counter()
    out_dir = os.path.join(work, "out")
    ratios: List[float] = []
    snapshots: List[Dict[str, Tuple[float, str]]] = []
    while len(snapshots) < 2 or time.perf_counter() < start + seconds:
        plain, plain_scale = speed.measure(lambda: runs.pipeline(inputs[0], out_dir))
        tracer.reset()
        with tracer:
            traced, scale = speed.measure(lambda: runs.pipeline(inputs[0], out_dir))
        if plain is None or traced is None:
            break
        ratios.append(traced.wall_s * scale / (plain.wall_s * plain_scale))
        snapshots.append({name: (value * scale if unit == "s" else value, unit)
                          for name, (value, unit) in tracer.metrics().items()})
    for name in tracer.absent:
        print(f"absent: {name} (its metrics read 0)")
    if not snapshots:
        raise RuntimeError("no traced pipeline succeeded")
    first = snapshots[0]
    for snap in snapshots[1:]:
        moved = [k for k, (v, unit) in snap.items() if unit != "s" and v != first[k][0]]
        if moved:
            runs.failed += 1
            print("traced counts differ between identical pipelines: " + ", ".join(moved),
                  file=sys.stderr)
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median(snap[name][0] for snap in snapshots)
        metrics[name] = (value, unit)
    metrics["trace_overhead"] = (statistics.median(ratios) - 1.0, "ratio")
    print(f"# {len(snapshots)} untraced/traced pipeline pairs, "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return metrics


def main(argv: List[str] | None = None) -> int:
    # only the checkout's own sources count: an installed afafed must not
    # stand in for a missing src/
    if not (SRC / "afafed" / "__init__.py").is_file():
        print(f"perfbench: no afafed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=str(tmp_root))
    try:
        inputs = []
        for iseed in workloads.input_seeds(args.seed):
            directory = os.path.join(work, f"input-{iseed}")
            os.mkdir(directory)
            inputs.append(workloads.prepare(args.workload, iseed, directory))
        runs = Runs(workloads.load_golden())
        measure = traced_run if args.trace else timed_run
        metrics = measure(runs, inputs, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass   # another run still uses it

    seeds = [i.input_seed for i in (inputs[:1] if args.trace else inputs)]
    print(f"workload {args.workload}, seed {args.seed} (input seeds "
          f"{', '.join(map(str, seeds))}), trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(f"  {'error_rate':36s} {runs.failed / runs.attempted:.6g} fraction "
          f"({runs.failed} of {runs.attempted} pipelines failed)")
    print(json.dumps({
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
