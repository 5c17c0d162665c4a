"""Per-layer counts and host time for a traced run, from wrappers installed here.

A layer is an afafed module.  Each traced function is replaced, for the
duration of a ``with Tracer():`` block, by a wrapper that counts its calls
and accumulates inclusive and self time (inclusive minus the time spent in
other wrapped calls it made).  Modules bind several of these functions by
``from``-import (``network_sim`` imports ``admit`` and the ``global_*_arrays``
functions, ``coworker`` imports ``sample_minibatch`` and
``minibatch_gradient``), so the wrapper replaces every binding of the
function object in every loaded afafed module, not only the defining one.

A function that no longer exists is listed in ``Tracer.absent`` and its
metrics read 0; the tracer does not fail.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

EVENT_KINDS = (
    "data_arrival", "cluster_complete", "uplink_delivery",
    "downlink_delivery", "fairness_broadcast", "timer_expiry",
)

Metric = Tuple[float, str]   # (value, unit)


def _nbytes(obj: Any) -> int:
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(o) for o in obj)
    return int(getattr(obj, "nbytes", 0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wraps the public functions of each afafed layer while the block runs."""

    def __init__(self) -> None:
        self.absent: List[str] = []   # functions not found at the last install
        self._patches: List[Tuple[Any, str, Any]] = []
        self._stack: List[float] = []
        self.reset()

    def reset(self) -> None:
        """Zero every counter; called before each traced pipeline."""
        self.spans: Dict[str, List[float]] = {}   # label -> [calls, inclusive, self]
        self.counts: Counter = Counter()
        self.run_result: Any = None

    # ---------------- installation ---------------- #

    def __enter__(self) -> "Tracer":
        hooks: List[Tuple[str, str, str, Optional[Callable[[tuple, Any], None]]]] = [
            # (span label, module, function or Class.method, result hook)
            ("network_sim.run", "network_sim", "SimulationEngine.run", self._on_run),
            ("network_sim.push", "network_sim", "EventQueue.push", self._on_push),
            ("network_sim.pop", "network_sim", "EventQueue.pop", self._on_pop),
            ("harness.engine_init", "network_sim", "SimulationEngine.__init__", None),
            ("profiler.epilogue", "network_sim", "SimulationEngine.run_profiling_epilogue", None),
            ("coworker.iteration", "coworker", "run_single_iteration", self._on_iteration),
            ("coworker.finalize_cluster", "coworker", "finalize_cluster", None),
            ("coworker.downlink", "coworker", "handle_downlink", None),
            ("coworker.timer", "coworker", "handle_timer_expiry", None),
            ("coworker.broadcast", "coworker", "handle_fairness_broadcast", None),
            ("stream_manager.admit", "stream_manager", "admit", self._on_evict),
            ("stream_manager.sample", "stream_manager", "sample_minibatch", None),
            ("stream_manager.evict", "stream_manager", "evict_oldest_if_surplus", self._on_evict),
            ("model_core.minibatch_grad", "model_core", "minibatch_gradient", None),
            ("model_core.stack", "model_core", "stack_examples", None),
            ("model_core.global_risk", "model_core", "global_risk_arrays", self._on_eval),
            ("model_core.global_grad", "model_core", "global_gradient_arrays", self._on_eval),
            ("server.process_uplink", "server", "process_uplink", self._on_aggregation),
            ("profiler.record", "profiler", "record_aggregation", None),
            ("profiler.finalize", "profiler", "finalize", None),
            ("harness.load_config", "harness", "load_config", None),
            ("harness.generate_shards", "harness", "generate_shards", None),
            ("harness.read_trace", "harness", "read_arrival_trace", None),
            ("harness.write_outputs", "harness", "write_outputs", self._on_outputs),
        ]
        self.absent = []
        for label, module_name, qualname, hook in hooks:
            module = importlib.import_module(f"afafed.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrap(label, original, hook)
            if owner_name:
                self._patch(owner, attr, wrapper)
            else:
                self._patch_bindings(original, wrapper)
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_bindings(self, original: Any, wrapper: Any) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "afafed" or n.startswith("afafed."))]
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                self._patch(module, attr, wrapper)

    def _wrap(self, label: str, fn: Callable, hook: Optional[Callable[[tuple, Any], None]]):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                if stack:
                    stack[-1] += clock() - t0
                raise
            t1 = clock()
            if hook is not None:
                hook(args, out)
            children = stack.pop()
            if stack:
                # the hook's own time counts as the parent's child time, so
                # it inflates no layer's self time
                stack[-1] += clock() - t0
            span = self.spans.setdefault(label, [0, 0.0, 0.0])
            span[0] += 1
            span[1] += t1 - t0
            span[2] += (t1 - t0) - children
            return out

        return wrapper

    # ---------------- result hooks ---------------- #

    def _on_run(self, args: tuple, result: Any) -> None:
        self.run_result = result

    def _on_push(self, args: tuple, event: Any) -> None:
        self.counts["queue_peak"] = max(self.counts["queue_peak"], len(args[0]))

    def _on_pop(self, args: tuple, event: Any) -> None:
        if event is not None:
            self.counts[f"events.{event.kind.value}"] += 1

    def _on_iteration(self, args: tuple, ok: Any) -> None:
        if ok:
            self.counts["iterations"] += 1

    def _on_evict(self, args: tuple, evicted: Any) -> None:
        if evicted is not None:
            self.counts["evictions"] += 1

    def _on_eval(self, args: tuple, out: Any) -> None:
        self.counts["eval_bytes"] += _nbytes(args[2]) if len(args) > 2 else 0

    def _on_aggregation(self, args: tuple, record: Any) -> None:
        if record.lambda_changed:
            self.counts["lambda_changes"] += 1

    def _on_outputs(self, args: tuple, out: Any) -> None:
        out_dir = args[0]
        self.counts["output_bytes"] += sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in ("metrics.csv", "summary.yaml")
        )

    # ---------------- metrics ---------------- #

    def _calls(self, *labels: str) -> int:
        return int(sum(self.spans.get(label, (0, 0.0, 0.0))[0] for label in labels))

    def _incl(self, *labels: str) -> float:
        return sum(self.spans.get(label, (0, 0.0, 0.0))[1] for label in labels)

    def _self(self, *labels: str) -> float:
        return sum(self.spans.get(label, (0, 0.0, 0.0))[2] for label in labels)

    def metrics(self) -> Dict[str, Metric]:
        """Per-layer metrics of the pipeline traced since the last reset."""
        c = self.counts
        res = self.run_result
        attempts = getattr(res, "uplink_attempts", 0)
        drops = getattr(res, "uplink_drops", 0)
        aggregations = self._calls("server.process_uplink")
        clusters = self._calls("coworker.finalize_cluster")
        events = sum(c[f"events.{k}"] for k in EVENT_KINDS)
        stale = (c["events.cluster_complete"] - clusters
                 + c["events.timer_expiry"] - self._calls("coworker.timer"))
        accepted_iters = sum(getattr(res, "iters_per_acceptance", ()))
        out: Dict[str, Metric] = {
            "network_sim.events": (events, "count"),
        }
        for kind in EVENT_KINDS:
            out[f"network_sim.events.{kind}"] = (c[f"events.{kind}"], "count")
        out.update({
            "network_sim.queue_ops": (self._calls("network_sim.push", "network_sim.pop"), "count"),
            "network_sim.queue_s": (self._incl("network_sim.push", "network_sim.pop"), "s"),
            "network_sim.queue_peak": (c["queue_peak"], "count"),
            "network_sim.self_s": (
                self._self("network_sim.run", "network_sim.push", "network_sim.pop"), "s"),
            "network_sim.stale_ratio": (_ratio(stale, events), "ratio"),
            "network_sim.uplink_attempts": (attempts, "count"),
            "network_sim.uplink_drops": (drops, "count"),
            "network_sim.delivery_ratio": (_ratio(attempts - drops, attempts), "ratio"),
            "coworker.iterations": (c["iterations"], "count"),
            "coworker.iter_s": (self._incl("coworker.iteration"), "s"),
            "coworker.iter_self_s": (self._self("coworker.iteration"), "s"),
            "coworker.clusters": (clusters, "count"),
            "coworker.cluster_yield": (_ratio(aggregations, clusters), "ratio"),
            "coworker.iter_yield": (_ratio(accepted_iters, c["iterations"]), "ratio"),
            "coworker.broadcasts_applied": (self._calls("coworker.broadcast"), "count"),
            "coworker.broadcast_s": (self._incl("coworker.broadcast"), "s"),
            "coworker.downlinks": (self._calls("coworker.downlink"), "count"),
            "coworker.timeouts": (self._calls("coworker.timer"), "count"),
            "coworker.stalls": (getattr(res, "stall_events", 0), "count"),
            "stream_manager.admits": (self._calls("stream_manager.admit"), "count"),
            "stream_manager.admit_s": (self._incl("stream_manager.admit"), "s"),
            "stream_manager.samples": (self._calls("stream_manager.sample"), "count"),
            "stream_manager.sample_s": (self._incl("stream_manager.sample"), "s"),
            "stream_manager.evictions": (c["evictions"], "count"),
            "model_core.minibatch_grads": (self._calls("model_core.minibatch_grad"), "count"),
            "model_core.minibatch_grad_s": (self._incl("model_core.minibatch_grad"), "s"),
            "model_core.stack_calls": (self._calls("model_core.stack"), "count"),
            "model_core.stack_s": (self._incl("model_core.stack"), "s"),
            "model_core.evals": (
                self._calls("model_core.global_risk", "model_core.global_grad"), "count"),
            "model_core.eval_s": (
                self._incl("model_core.global_risk", "model_core.global_grad"), "s"),
            "model_core.eval_bytes": (c["eval_bytes"], "B"),
            "server.aggregations": (aggregations, "count"),
            "server.aggregate_s": (self._incl("server.process_uplink"), "s"),
            "server.lambda_changes": (c["lambda_changes"], "count"),
            "server.lambda_change_ratio": (_ratio(c["lambda_changes"], aggregations), "ratio"),
            "profiler.records": (self._calls("profiler.record"), "count"),
            "profiler.s": (
                self._incl("profiler.record", "profiler.epilogue", "profiler.finalize"), "s"),
            "harness.config_s": (self._incl("harness.load_config"), "s"),
            "harness.data_s": (self._incl("harness.generate_shards", "harness.read_trace"), "s"),
            "harness.engine_init_s": (self._incl("harness.engine_init"), "s"),
            "harness.output_s": (self._incl("harness.write_outputs"), "s"),
            "harness.output_bytes": (c["output_bytes"], "B"),
        })
        return out
