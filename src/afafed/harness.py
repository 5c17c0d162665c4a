"""Experiment assembly: config files, synthetic data, presets, and outputs.

Configs are YAML with one section per concern (model, topology, data,
buffer, arrivals, adaptive, mixing, link, sim, eval).  A preset fills every
key; the config file overrides individual keys; the CLI can override the
seed.  Runs write a fixed-header per-aggregation CSV plus a YAML summary, so
two runs of the same config and seed can be compared byte for byte.
"""

from __future__ import annotations

import copy
import csv
import io
import math
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
import yaml

from . import bounds as bnd
from .coworker import AdaptiveConfig
from .errors import ConfigError
from .model_core import LossKind, LossModel, uniform_weights
from .network_sim import (
    ArrivalProcess,
    ComputeModel,
    CoworkerSetup,
    LinkModel,
    RunResult,
    SimulationEngine,
)
from .profiler import ParameterEstimates, finalize
from .server import MixingConfig

CSV_HEADER = [
    "t", "time", "sender", "age", "beta",
    "lambda_checksum", "fairness_index", "global_risk", "grad_sqnorm",
]

_DEFAULTS: Dict[str, Any] = {
    "model": {"kind": "quadratic", "dim": 5, "noise_std": 0.05, "class_sep": 2.0},
    "topology": {
        "categories": [
            {"count": 3, "speed": 50e7, "rate": 100e4, "p_loss": 0.0},
            {"count": 3, "speed": 25e7, "rate": 50e4, "p_loss": 0.0},
            {"count": 2, "speed": 1.0e7, "rate": 2e4, "p_loss": 0.0},
        ],
    },
    "data": {"shard_size": 64, "partition": "iid", "classes_per_coworker": 2},
    "buffer": {"capacity": 64, "minibatch": 16},
    "arrivals": {"kind": "poisson", "rate": 5.0, "interval": 0.0, "trace": None},
    "compute": {"cycles_per_iter": 1.0e7},
    "adaptive": {
        "iter_max": 5, "omega_a": 2.0, "omega_c": 1.0,
        "b0": 1.0, "gamma": 0.1, "eta_min": 0.01, "eta_max": 0.5,
    },
    "mixing": {
        "beta_min": 0.001, "beta_max": 0.9, "de": 0.0,
        "phi": "power", "alpha": 0.5, "hinge_b": 4, "fairness_margin": 4.0,
    },
    "link": {
        "p_loss": None, "downlink_delay": 0.0, "payload_bits": None,
        "timer_factor": 3.0, "rate_jitter": 0.0,
    },
    "sim": {"seed": 1, "T": 200, "horizon": None, "event_budget": None},
    "eval": {"every": 1},
}


def presets() -> Dict[str, Dict[str, Any]]:
    """Named starting points; table_a1_small is the desk-scale default."""
    small = copy.deepcopy(_DEFAULTS)
    full = copy.deepcopy(_DEFAULTS)
    full["topology"]["categories"] = [
        {"count": 30, "speed": 50e7, "rate": 100e4, "p_loss": 0.0},
        {"count": 40, "speed": 25e7, "rate": 50e4, "p_loss": 0.0},
        {"count": 30, "speed": 1.0e7, "rate": 2e4, "p_loss": 0.0},
    ]
    full["adaptive"]["iter_max"] = 30
    full["sim"]["T"] = 2000
    return {"table_a1_small": small, "table_a1": full}


def _deep_merge(base: Dict[str, Any], override: Dict[str, Any], path: str = "") -> Dict[str, Any]:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(doc: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Apply preset then per-key overrides; returns the fully resolved dict."""
    doc = dict(doc or {})
    preset_name = doc.pop("preset", "table_a1_small")
    table = presets()
    if preset_name not in table:
        raise ConfigError(f"preset: unknown preset {preset_name!r}; choose from {sorted(table)}")
    resolved = _deep_merge(table[preset_name], doc)
    resolved["preset"] = preset_name
    return resolved


def load_config(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return resolve_config(doc)


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {message}")


def _as_float(value: Any, key: str, nullable: bool = False) -> Optional[float]:
    if value is None:
        if nullable:
            return None
        raise ConfigError(f"{key}: expected a number, got null")
    if isinstance(value, bool):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return out


def _as_int(value: Any, key: str, nullable: bool = False) -> Optional[int]:
    out = _as_float(value, key, nullable)
    if out is None:
        return None
    if not out.is_integer():
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return int(out)


# YAML 1.1 parses unsigned exponents like 1.0e7 as strings, so every numeric
# key is coerced here, with errors that name the offending key
_NUMERIC_SCHEMA: Dict[str, Dict[str, type]] = {
    "model": {"dim": int, "noise_std": float, "class_sep": float},
    "data": {"shard_size": int, "classes_per_coworker": int},
    "buffer": {"capacity": int, "minibatch": int},
    "arrivals": {"rate": float, "interval": float},
    "compute": {"cycles_per_iter": float},
    "adaptive": {"iter_max": int, "omega_a": float, "omega_c": float,
                 "b0": float, "gamma": float, "eta_min": float, "eta_max": float},
    "mixing": {"beta_min": float, "beta_max": float, "de": float,
               "alpha": float, "hinge_b": float, "fairness_margin": float},
    "link": {"downlink_delay": float, "payload_bits": float,
             "timer_factor": float, "rate_jitter": float},
    "sim": {"seed": int, "T": int, "horizon": float, "event_budget": int},
    "eval": {"every": int},
}
# numeric keys whose null is meaningful: no such stop condition, the
# payload size derived from model.dim, or no rate/interval for an arrival
# law that does not use it (link.p_loss is handled on its own)
_NULLABLE = {"sim.T", "sim.horizon", "sim.event_budget", "link.payload_bits",
             "arrivals.rate", "arrivals.interval"}


def _coerce_config(cfg: Dict[str, Any]) -> Dict[str, Any]:
    """Copy the resolved config with all numeric leaves cast to numbers."""
    out = copy.deepcopy(cfg)
    for section, fields in _NUMERIC_SCHEMA.items():
        node = out.get(section)
        if not isinstance(node, dict):
            raise ConfigError(f"{section}: must be a mapping")
        for key, kind in fields.items():
            if key in node:
                cast = _as_int if kind is int else _as_float
                dotted = f"{section}.{key}"
                node[key] = cast(node[key], dotted, dotted in _NULLABLE)
    topo = out.get("topology")
    if not isinstance(topo, dict) or not isinstance(topo.get("categories"), list):
        raise ConfigError("topology.categories: must be a list of category mappings")
    for i, cat in enumerate(topo["categories"]):
        if not isinstance(cat, dict):
            raise ConfigError(f"topology.categories[{i}]: must be a mapping")
        for key, kind in (("count", int), ("speed", float),
                          ("rate", float), ("p_loss", float)):
            if key in cat:
                cast = _as_int if kind is int else _as_float
                cat[key] = cast(cat[key], f"topology.categories[{i}].{key}")
    if topo.get("K") is not None:
        topo["K"] = _as_int(topo["K"], "topology.K")
    p_loss = out["link"].get("p_loss")
    if isinstance(p_loss, (list, tuple)):
        out["link"]["p_loss"] = [_as_float(v, f"link.p_loss[{i}]")
                                 for i, v in enumerate(p_loss)]
    else:
        out["link"]["p_loss"] = _as_float(p_loss, "link.p_loss", nullable=True)
    return out


def set_by_path(doc: Dict[str, Any], dotted: str, value: Any) -> None:
    """Set a nested key given a dotted path like mixing.beta_max."""
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"{dotted}: no such configuration section {part!r}")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"{dotted}: no such configuration key")
    node[parts[-1]] = value


# ---------------- data generation ---------------- #


def _data_rng(seed: int, domain: int, cid: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(domain, cid)))


Shard = Tuple[np.ndarray, np.ndarray]     # (X, y): (m, d) features, (m,) targets


def generate_shards(cfg: Dict[str, Any]) -> List[Shard]:
    """Per-coworker synthetic (X, y) shards, deterministic in the seed.

    Quadratic runs draw features from a standard normal and label them with a
    shared ground-truth vector plus Gaussian noise.  Logistic runs draw two
    Gaussian clusters; the label-skew partition restricts each coworker to a
    fixed subset of the classes.
    """
    seed = cfg["sim"]["seed"]
    kind = cfg["model"]["kind"]
    dim = cfg["model"]["dim"]
    n = cfg["data"]["shard_size"]
    k_total = sum(cat["count"] for cat in cfg["topology"]["categories"])
    partition = cfg["data"]["partition"]
    _require(partition in ("iid", "label_skew"), "data.partition",
             f"unknown partition {partition!r}")

    if kind == "quadratic":
        _require(partition == "iid", "data.partition",
                 "label_skew requires the logistic model (regression has no classes)")
        w_true = _data_rng(seed, 11).standard_normal(dim)
        noise = cfg["model"]["noise_std"]
        shards = []
        for cid in range(k_total):
            rng = _data_rng(seed, 10, cid)
            X = rng.standard_normal((n, dim))
            y = X @ w_true + noise * rng.standard_normal(n)
            shards.append((X, y))
        return shards

    # logistic: two Gaussian clusters split by a shared direction
    sep = cfg["model"]["class_sep"]
    direction = _data_rng(seed, 11).standard_normal(dim)
    direction /= np.linalg.norm(direction)
    classes = cfg["data"]["classes_per_coworker"]
    _require(1 <= classes <= 2, "data.classes_per_coworker",
             f"binary model has 2 classes, got {classes}")
    shards = []
    for cid in range(k_total):
        rng = _data_rng(seed, 10, cid)
        if partition == "iid" or classes == 2:
            labels = rng.integers(0, 2, size=n)
        else:
            labels = np.full(n, cid % 2)
        signs = 2.0 * labels - 1.0
        X = rng.standard_normal((n, dim)) + np.outer(signs * (sep / 2.0), direction)
        shards.append((X, labels.astype(np.float64)))
    return shards


def read_arrival_trace(path: str) -> Tuple[Tuple[float, ...], Shard]:
    """Parse an arrival trace: one `time,x1,..,xd,label` line per example.

    Every line must have as many fields as the first one.
    """
    values: List[float] = []
    width = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if len(fields) < 3:
                raise ConfigError(
                    f"{path}:{lineno}: need arrival_time, at least one feature, and a label"
                )
            if not width:
                width = len(fields)
            elif len(fields) != width:
                raise ConfigError(
                    f"{path}:{lineno}: {len(fields)} fields, but the first example has {width}"
                )
            try:
                values.extend([float(f) for f in fields])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    if not values:
        raise ConfigError(f"{path}: trace file holds no examples")
    rows = np.array(values).reshape(-1, width)
    return tuple(rows[:, 0].tolist()), (rows[:, 1:-1].copy(), rows[:, -1].copy())


# ---------------- experiment assembly ---------------- #


@dataclass
class Experiment:
    """A fully wired engine plus the pieces needed for summaries."""

    cfg: Dict[str, Any]
    model: LossModel
    engine: SimulationEngine


def _per_coworker_loss(cfg: Dict[str, Any], k_total: int) -> List[float]:
    categories = cfg["topology"]["categories"]
    base: List[float] = []
    for cat in categories:
        base.extend([float(cat.get("p_loss", 0.0))] * cat["count"])
    override = cfg["link"]["p_loss"]
    if override is None:
        return base
    if isinstance(override, (int, float)):
        return [float(override)] * k_total
    _require(len(override) == k_total, "link.p_loss",
             f"need {k_total} entries, got {len(override)}")
    return [float(p) for p in override]


def build_experiment(
    cfg: Dict[str, Any],
    enable_profiling: bool = False,
    record_wbar: bool = False,
    eval_weights: Optional[np.ndarray] = None,
    iteration_hook=None,
    aggregation_hook=None,
) -> Experiment:
    """Validate the resolved config and construct the simulation engine."""
    cfg = _coerce_config(cfg)
    kind = cfg["model"]["kind"]
    _require(kind in ("quadratic", "logistic"), "model.kind", f"unknown loss {kind!r}")
    dim = cfg["model"]["dim"]
    _require(dim >= 1, "model.dim", "dimension must be at least 1")
    model = LossModel(LossKind(kind), dim)

    categories = cfg["topology"]["categories"]
    _require(bool(categories), "topology.categories", "need at least one category")
    for i, cat in enumerate(categories):
        _require(cat.get("count", 0) >= 1, f"topology.categories[{i}].count", "must be >= 1")
        _require(cat.get("speed", 0) > 0, f"topology.categories[{i}].speed", "must be positive")
        _require(cat.get("rate", 0) > 0, f"topology.categories[{i}].rate", "must be positive")
    k_total = sum(cat["count"] for cat in categories)
    declared = cfg["topology"].get("K")
    if declared is not None:
        _require(declared == k_total, "topology.K",
                 f"declared {declared} but categories sum to {k_total}")

    losses = _per_coworker_loss(cfg, k_total)
    for i, p in enumerate(losses):
        _require(0.0 <= p <= 1.0, f"link.p_loss[{i}]", "must lie in [0, 1]")

    payload_bits = cfg["link"]["payload_bits"]
    if payload_bits is None:
        payload_bits = 64.0 * (dim + 2)

    arrivals_cfg = cfg["arrivals"]
    trace_paths = arrivals_cfg.get("trace")
    trace_data: Optional[List[Tuple[Tuple[float, ...], Shard]]] = None
    if arrivals_cfg["kind"] == "trace":
        _require(trace_paths is not None, "arrivals.trace", "trace arrivals need a file path")
        if isinstance(trace_paths, str):
            trace_paths = [trace_paths] * k_total
        _require(len(trace_paths) == k_total, "arrivals.trace",
                 f"need {k_total} paths, got {len(trace_paths)}")
        trace_data = [read_arrival_trace(p) for p in trace_paths]
        for path, (_, (X, _)) in zip(trace_paths, trace_data):
            _require(X.shape[1] == dim, "arrivals.trace",
                     f"{path} has {X.shape[1]} features per example, but model.dim is {dim}")

    if trace_data is not None:
        shards = [shard for _, shard in trace_data]
    else:
        shards = generate_shards(cfg)

    try:
        adaptive = AdaptiveConfig(
            iter_max=cfg["adaptive"]["iter_max"],
            omega_a=cfg["adaptive"]["omega_a"],
            omega_c=cfg["adaptive"]["omega_c"],
            b0=cfg["adaptive"]["b0"],
            gamma=cfg["adaptive"]["gamma"],
            eta_min=cfg["adaptive"]["eta_min"],
            eta_max=cfg["adaptive"]["eta_max"],
        )
    except ValueError as exc:
        raise ConfigError(f"adaptive: {exc}") from None
    try:
        mixing = MixingConfig(
            beta_min=cfg["mixing"]["beta_min"],
            beta_max=cfg["mixing"]["beta_max"],
            de=cfg["mixing"]["de"],
            phi_kind=cfg["mixing"]["phi"],
            phi_alpha=cfg["mixing"]["alpha"],
            phi_hinge_b=cfg["mixing"]["hinge_b"],
            fairness_margin=cfg["mixing"]["fairness_margin"],
        )
    except ValueError as exc:
        raise ConfigError(f"mixing: {exc}") from None

    setups: List[CoworkerSetup] = []
    cid = 0
    for cat_idx, cat in enumerate(categories):
        for _ in range(cat["count"]):
            try:
                link = LinkModel(
                    p_loss=losses[cid],
                    rate=float(cat["rate"]),
                    payload_bits=float(payload_bits),
                    downlink_delay=float(cfg["link"]["downlink_delay"]),
                    rate_jitter=float(cfg["link"]["rate_jitter"]),
                )
                compute = ComputeModel(
                    speed=float(cat["speed"]),
                    cycles_per_iteration=float(cfg["compute"]["cycles_per_iter"]),
                )
                if trace_data is not None:
                    arrivals = ArrivalProcess(kind="trace", times=trace_data[cid][0])
                else:
                    arrivals = ArrivalProcess(
                        kind=arrivals_cfg["kind"],
                        rate=float(arrivals_cfg["rate"] or 0.0),
                        interval=float(arrivals_cfg["interval"] or 0.0),
                    )
            except ValueError as exc:
                raise ConfigError(f"topology.categories[{cat_idx}]: {exc}") from None
            try:
                setups.append(CoworkerSetup(
                    shard=shards[cid],
                    link=link,
                    compute=compute,
                    arrivals=arrivals,
                    capacity=cfg["buffer"]["capacity"],
                    minibatch=cfg["buffer"]["minibatch"],
                ))
            except ValueError as exc:
                raise ConfigError(f"buffer: {exc}") from None
            cid += 1

    _require(cfg["eval"]["every"] >= 0, "eval.every", "must be non-negative")
    timer_factor = cfg["link"]["timer_factor"]
    _require(timer_factor > 0, "link.timer_factor",
             "must be positive")
    sim = cfg["sim"]
    _require(sim["T"] is None or sim["T"] >= 0, "sim.T", "must be non-negative")
    unbounded = sim["horizon"] is None and sim["event_budget"] is None
    _require(sim["T"] is not None or not unbounded,
             "sim.T", "need at least one of sim.T, sim.horizon and sim.event_budget")
    # with every uplink lost no aggregation ever happens, while Poisson
    # arrivals and retries keep the calendar busy: the run would never stop
    _require(not (sim["T"] and unbounded and all(p == 1.0 for p in losses)),
             "sim.T", "unreachable: every coworker has p_loss 1.0; "
             "set sim.horizon or sim.event_budget")

    w0 = np.zeros(dim)
    try:
        engine = SimulationEngine(
            model=model,
            setups=setups,
            adaptive=adaptive,
            mixing=mixing,
            w0=w0,
            seed=cfg["sim"]["seed"],
            eval_every=cfg["eval"]["every"],
            eval_weights=eval_weights,
            record_wbar=record_wbar,
            enable_profiling=enable_profiling,
            timer_factor=timer_factor,
            iteration_hook=iteration_hook,
            aggregation_hook=aggregation_hook,
        )
    except ValueError as exc:
        raise ConfigError(f"buffer: {exc}") from None
    return Experiment(cfg=cfg, model=model, engine=engine)


def run_experiment(
    cfg: Dict[str, Any],
    enable_profiling: bool = False,
    record_wbar: bool = False,
) -> Tuple[Experiment, RunResult, Optional[ParameterEstimates]]:
    """Build, run to the configured stop condition, optionally profile."""
    exp = build_experiment(cfg, enable_profiling=enable_profiling, record_wbar=record_wbar)
    result = exp.engine.run(
        aggregations=cfg["sim"]["T"],
        horizon=cfg["sim"]["horizon"],
        event_budget=cfg["sim"]["event_budget"],
    )
    estimates = None
    if enable_profiling and result.profiling_log is not None and result.profiling_log.samples > 0:
        exp.engine.run_profiling_epilogue()
        estimates = finalize(result.profiling_log, exp.engine.server.lambdas)
    return exp, result, estimates


# ---------------- outputs ---------------- #


def _fmt(value: Optional[float]) -> str:
    # repr(float(x)) is the shortest exact round-trip form
    return "" if value is None else repr(float(value))


def metrics_csv_text(rows: Sequence) -> str:
    """Render the per-aggregation rows with the fixed header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([
            r.t, _fmt(r.time), r.sender, r.age, _fmt(r.beta),
            _fmt(r.lambda_checksum), _fmt(r.fairness_index),
            _fmt(r.global_risk), _fmt(r.grad_sqnorm),
        ])
    return buf.getvalue()


def _plain(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays so YAML stays readable."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def summarize(exp: Experiment, result: RunResult,
              estimates: Optional[ParameterEstimates]) -> Dict[str, Any]:
    """Assemble the run summary written next to the metrics CSV."""
    engine = exp.engine
    accepted_total = int(result.accepted_by.sum())
    access = (result.accepted_by / accepted_total) if accepted_total else result.accepted_by * 0.0
    iters = np.array(result.iters_per_acceptance, dtype=np.float64)
    evaluated = [r for r in result.rows if r.grad_sqnorm is not None]
    summary: Dict[str, Any] = {
        "aggregations": result.aggregations,
        "final_time": result.final_time,
        "events_processed": result.events_processed,
        "iterations_total": result.iterations_total,
        "stall_events": result.stall_events,
        "uplink": {
            "attempts": result.uplink_attempts,
            "drops": result.uplink_drops,
            "delivered": result.uplink_attempts - result.uplink_drops,
        },
        "per_coworker": {
            "accepted": result.accepted_by.tolist(),
            "access_prob": access.tolist(),
        },
        "iter_moments": {
            "i_bar": float(iters.mean()) if iters.size else None,
            "i2_bar": float((iters**2).mean()) if iters.size else None,
        },
        "lambdas_final": engine.server.lambdas.tolist(),
        "final_risk": result.rows[-1].global_risk if result.rows else None,
        "mean_grad_sqnorm": (
            float(np.mean([r.grad_sqnorm for r in evaluated])) if evaluated else None
        ),
        "seed": exp.cfg["sim"]["seed"],
        "config": exp.cfg,
    }
    if estimates is not None:
        summary["estimates"] = {
            "c_hat": estimates.c_hat,
            "gamma_hat": estimates.gamma_hat,
            "a_hat": estimates.a_hat,
            "k0": estimates.k0,
            "feasible": list(estimates.feasible),
            "samples": estimates.samples,
            "f0_hat": estimates.f0_hat,
            "f_star_hat": estimates.f_star_hat,
            "zeta_hat": estimates.zeta_hat,
        }
    return _plain(summary)


def write_outputs(out_dir: str, exp: Experiment, result: RunResult,
                  estimates: Optional[ParameterEstimates]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(metrics_csv_text(result.rows))
    with open(os.path.join(out_dir, "summary.yaml"), "w", encoding="utf-8") as fh:
        yaml.safe_dump(summarize(exp, result, estimates), fh, sort_keys=True)


# ---------------- bound evaluation from a parameter file ---------------- #


def evaluate_bounds(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate the rate bounds from a parameter mapping (see README)."""
    params = doc.get("bound", doc)
    required = ["zeta", "f0", "f_star", "c", "gamma", "a",
                "epsilon", "beta_min", "beta_max", "horizon"]
    missing = [k for k in required if k not in params]
    if missing:
        raise ConfigError(f"bound: missing keys {missing}")
    try:
        inputs = bnd.BoundInputs(
            zeta=float(params["zeta"]), f0=float(params["f0"]),
            f_star=float(params["f_star"]), c=float(params["c"]),
            gamma=float(params["gamma"]), a=float(params["a"]),
            epsilon=float(params["epsilon"]), beta_min=float(params["beta_min"]),
            beta_max=float(params["beta_max"]), horizon=int(params["horizon"]),
        )
    except ValueError as exc:
        raise ConfigError(f"bound: {exc}") from None
    out: Dict[str, Any] = {
        "beta_max_admissible": bnd.beta_max_admissible(inputs),
        "clipped": bnd.bound_clipped_beta(inputs),
    }
    beta = float(params.get("beta", params["beta_max"]))
    try:
        out["constant"] = bnd.bound_constant_beta(inputs, beta)
        out["constant_beta"] = beta
    except ValueError as exc:
        out["constant"] = None
        out["constant_refused"] = str(exc)
    scaled = params.get("scaled")
    if scaled is not None:
        needed = ["c0", "gamma0", "a0", "sigma_sq_bar", "i_bar", "i2_bar"]
        missing = [k for k in needed if k not in scaled]
        if missing:
            raise ConfigError(f"bound.scaled: missing keys {missing}")
        try:
            res = bnd.bound_scaled(
                inputs, float(scaled["c0"]), float(scaled["gamma0"]), float(scaled["a0"]),
                float(scaled["sigma_sq_bar"]), float(scaled["i_bar"]), float(scaled["i2_bar"]),
            )
        except ValueError as exc:
            raise ConfigError(f"bound.scaled: {exc}") from None
        out["scaled"] = {
            "bound": res.bound,
            "beta_max_admissible": res.beta_max_admissible,
            "c": res.c, "gamma": res.gamma, "a": res.a,
        }
    return _plain(out)
