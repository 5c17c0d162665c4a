"""Workload inputs, the timed harness pipeline, and the golden output check.

Every workload runs the path a user of ``afafed run``/``afafed profile``
takes: ``harness.load_config`` -> ``harness.build_experiment`` ->
``SimulationEngine.run`` -> profiling epilogue and ``profiler.finalize``
(profile mode only) -> ``harness.write_outputs``.  All functions are looked
up on their modules at call time, so the tracer's wrappers see these calls.

The workload seed picks ``SEEDS_PER_RUN`` of the ``GOLDEN_SEEDS`` input
seeds (``input_seeds``); ``golden.json`` holds the expected outputs for each
input seed, so every run can check what it produced.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np
import yaml

from afafed import harness, profiler

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEEDS = 64
# A run cycles through this many input seeds.  How much work one aggregation
# takes differs between input seeds (on k100-lossy-noeval the interquartile
# range of iterations_total over 32 seeds is 4 % of its median, because drops
# are random); averaging over several seeds per run keeps that variation from
# dominating the spread between runs.
SEEDS_PER_RUN = 4

# metrics.csv columns that define the simulated trajectory; they must not
# move by a single bit.  The evaluation columns that follow them may move at
# the ULP level when a change reorders a sum.
TRAJECTORY_COLUMNS = 7
EVAL_REL_TOL = 1e-12
ESTIMATE_REL_TOL = 1e-9
# rows of each evaluation column kept in the golden file besides its fsum
EVAL_SAMPLES = 9

# k8-trace-profile: arrival traces the benchmark writes from the seed
TRACE_COWORKERS = 8
TRACE_DIM = 5
TRACE_RATE = 50.0          # mean arrivals per virtual second, per coworker
TRACE_DURATION = 40.0      # virtual seconds covered; runs end near 11
TRACE_CLASS_SEP = 2.0
TRACE_SKEWED = 4           # coworkers 0..3 see only one class


@dataclass(frozen=True)
class Workload:
    name: str
    doc: Dict[str, Any]
    profile: bool = False
    traces: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("k100-eval", {
            "preset": "table_a1",
            "model": {"kind": "quadratic"},
            "eval": {"every": 1},
            "sim": {"T": 250},
        }),
        Workload("k100-lossy-noeval", {
            "preset": "table_a1",
            "eval": {"every": 0},
            "link": {"p_loss": 0.3, "rate_jitter": 0.2, "downlink_delay": 0.01},
            "sim": {"T": 500},
        }),
        Workload("k8-trace-profile", {
            "preset": "table_a1_small",
            "model": {"kind": "logistic", "dim": TRACE_DIM},
            "eval": {"every": 1},
            "sim": {"T": 500},
        }, profile=True, traces=True),
    )
}


@dataclass(frozen=True)
class Inputs:
    """A workload's generated inputs: the config file and its trace coverage."""

    workload: Workload
    input_seed: int
    config_path: str
    trace_end: Optional[float] = None   # earliest last arrival over all traces


def input_seeds(seed: int) -> List[int]:
    """The input seeds a run with workload seed ``seed`` cycles through."""
    return [(SEEDS_PER_RUN * seed + i) % GOLDEN_SEEDS for i in range(SEEDS_PER_RUN)]


def write_traces(seed: int, directory: str) -> tuple[List[str], float]:
    """Write label-skewed, dense arrival traces, one file per coworker.

    Arrivals are a Poisson stream of rate TRACE_RATE up to TRACE_DURATION.
    Examples come from two Gaussian clusters split along a shared direction;
    the first TRACE_SKEWED coworkers see only class ``cid % 2``.  Returns the
    paths and the earliest last-arrival time over the files.
    """
    root = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    direction = root.standard_normal(TRACE_DIM)
    direction /= np.linalg.norm(direction)
    paths, ends = [], []
    for cid in range(TRACE_COWORKERS):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7, cid + 1)))
        n = int(TRACE_RATE * TRACE_DURATION * 1.2)
        times = np.cumsum(rng.exponential(1.0 / TRACE_RATE, size=n))
        times = times[times <= TRACE_DURATION]
        m = len(times)
        if cid < TRACE_SKEWED:
            labels = np.full(m, cid % 2)
        else:
            labels = rng.integers(0, 2, size=m)
        signs = 2.0 * labels - 1.0
        X = rng.standard_normal((m, TRACE_DIM)) + np.outer(signs * (TRACE_CLASS_SEP / 2), direction)
        path = os.path.join(directory, f"trace_{cid}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# seed {seed} coworker {cid}: time,x1..x{TRACE_DIM},label\n")
            for t, x, label in zip(times, X, labels):
                fh.write(f"{t:.6f}," + ",".join(f"{v:.6f}" for v in x) + f",{label}\n")
        paths.append(path)
        ends.append(float(f"{times[-1]:.6f}"))
    return paths, min(ends)


def prepare(name: str, iseed: int, directory: str) -> Inputs:
    """Generate the workload's inputs for input seed ``iseed`` under ``directory``."""
    workload = WORKLOADS[name]
    doc = copy.deepcopy(workload.doc)
    doc["sim"]["seed"] = iseed
    trace_end = None
    if workload.traces:
        paths, trace_end = write_traces(iseed, directory)
        doc["arrivals"] = {"kind": "trace", "trace": paths}
    config_path = os.path.join(directory, "config.yaml")
    with open(config_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)
    return Inputs(workload, iseed, config_path, trace_end)


# ---------------- the timed pipeline ---------------- #


@dataclass(frozen=True)
class Timing:
    setup_s: float      # load_config + build_experiment
    run_s: float        # SimulationEngine.run
    wall_s: float       # config file -> outputs on disk
    aggregations: int


def setup_once(inputs: Inputs) -> float:
    """Host seconds from config file to a ready engine."""
    t0 = time.perf_counter()
    cfg = harness.load_config(inputs.config_path)
    harness.build_experiment(cfg, enable_profiling=inputs.workload.profile)
    return time.perf_counter() - t0


def run_pipeline(inputs: Inputs, out_dir: str) -> Timing:
    """Run the workload once, as ``afafed run``/``profile`` does, into out_dir."""
    profile = inputs.workload.profile
    t0 = time.perf_counter()
    cfg = harness.load_config(inputs.config_path)
    exp = harness.build_experiment(cfg, enable_profiling=profile)
    t1 = time.perf_counter()
    result = exp.engine.run(
        aggregations=cfg["sim"]["T"],
        horizon=cfg["sim"]["horizon"],
        event_budget=cfg["sim"]["event_budget"],
    )
    t2 = time.perf_counter()
    estimates = None
    if profile and result.profiling_log is not None and result.profiling_log.samples > 0:
        exp.engine.run_profiling_epilogue()
        estimates = profiler.finalize(result.profiling_log, exp.engine.server.lambdas)
    harness.write_outputs(out_dir, exp, result, estimates)
    t3 = time.perf_counter()
    return Timing(t1 - t0, t2 - t1, t3 - t0, result.aggregations)


# ---------------- golden check ---------------- #

_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _eval_column(values: List[Optional[float]]) -> Optional[Dict[str, Any]]:
    present = [v for v in values if v is not None]
    if not present:
        return None
    n = len(values)
    picks = sorted({round(i * (n - 1) / (EVAL_SAMPLES - 1)) for i in range(EVAL_SAMPLES)})
    return {"fsum": math.fsum(present), "rows": picks, "values": [values[i] for i in picks]}


def fingerprint(out_dir: str) -> Dict[str, Any]:
    """What the golden file records about one run's metrics.csv and summary.yaml."""
    digest = hashlib.sha256()
    risk: List[Optional[float]] = []
    grad: List[Optional[float]] = []
    with open(os.path.join(out_dir, "metrics.csv"), "r", encoding="utf-8") as fh:
        header = fh.readline()
        digest.update(",".join(header.rstrip("\n").split(",")[:TRAJECTORY_COLUMNS]).encode())
        for line in fh:
            fields = line.rstrip("\n").split(",")
            digest.update(("\n" + ",".join(fields[:TRAJECTORY_COLUMNS])).encode())
            risk.append(float(fields[7]) if fields[7] else None)
            grad.append(float(fields[8]) if fields[8] else None)
    with open(os.path.join(out_dir, "summary.yaml"), "r", encoding="utf-8") as fh:
        summary = yaml.load(fh, Loader=_Loader)
    return {
        "rows": len(risk),
        "trajectory_sha256": digest.hexdigest(),
        "global_risk": _eval_column(risk),
        "grad_sqnorm": _eval_column(grad),
        "aggregations": summary["aggregations"],
        "iterations_total": summary["iterations_total"],
        "uplink_attempts": summary["uplink"]["attempts"],
        "uplink_drops": summary["uplink"]["drops"],
        "stall_events": summary["stall_events"],
        "accepted": summary["per_coworker"]["accepted"],
        "final_time": summary["final_time"],
        "estimates": summary.get("estimates"),
    }


def _close(a: Any, b: Any, rel: float) -> bool:
    """Equal, except that numbers may differ by rel relative (rel=0: exactly)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= rel * max(abs(a), abs(b))
    return a == b


def compare(got: Dict[str, Any], want: Dict[str, Any]) -> List[str]:
    """Mismatches between a fingerprint and its golden entry; empty when they agree.

    The trajectory digest and every counter must match exactly; the
    evaluation columns within EVAL_REL_TOL; profiling estimates within
    ESTIMATE_REL_TOL.
    """
    tolerance = {"global_risk": EVAL_REL_TOL, "grad_sqnorm": EVAL_REL_TOL,
                 "estimates": ESTIMATE_REL_TOL}
    return [f"{key}: got {got.get(key)!r}, golden {want.get(key)!r}"
            for key in sorted(set(got) | set(want))
            if not _close(got.get(key), want.get(key), tolerance.get(key, 0.0))]


def load_golden() -> Dict[str, Dict[str, Any]]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(inputs: Inputs, out_dir: str, golden: Dict[str, Dict[str, Any]]) -> List[str]:
    """Golden-check one run's outputs; also require the traces to outlast the run."""
    got = fingerprint(out_dir)
    want = golden.get(inputs.workload.name, {}).get(str(inputs.input_seed))
    if want is None:
        return [f"no golden entry for {inputs.workload.name} input seed {inputs.input_seed}"]
    problems = compare(got, want)
    if inputs.trace_end is not None and not got["final_time"] < inputs.trace_end:
        problems.append(f"traces end at {inputs.trace_end} before the run ends "
                        f"at {got['final_time']}")
    return problems
