"""Config resolution, data generation, outputs, and the CLI."""

import csv
import copy
import dataclasses
import enum
import io
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import afafed
from afafed import cli, harness, network_sim
from afafed.errors import ConfigError, NumericDivergenceError
from afafed.harness import (
    CONFIG_SCHEMA,
    CSV_HEADER,
    build_experiment,
    evaluate_bounds,
    generate_shards,
    load_config,
    metrics_csv_text,
    presets,
    read_arrival_trace,
    resolve_config,
    run_experiment,
    set_by_path,
    summarize,
    write_outputs,
)
from afafed.model_core import GlobalEvaluator, uniform_weights
from afafed.network_sim import ArrivalProcess, SimulationEngine
from afafed.profiler import ParameterEstimates
from reference_evaluation import reference_global_gradient, reference_global_risk
import test_golden_trace as golden_trace
from test_shared_arrays import FreezeHandedOnArrays


def small_doc(**sections):
    """A two-coworker desk-scale config document (pre-resolution)."""
    doc = {
        "topology": {"categories": [
            {"count": 2, "speed": 1e7, "rate": 1e5, "p_loss": 0.0},
        ]},
        "data": {"shard_size": 16},
        "buffer": {"capacity": 16, "minibatch": 8},
        "model": {"dim": 3},
        "sim": {"T": 10, "seed": 3},
    }
    for name, patch in sections.items():
        doc.setdefault(name, {}).update(patch)
    return doc


# ---------------- config resolution ---------------- #


def test_defaults_fill_every_section():
    cfg = resolve_config({})
    assert cfg["preset"] == "table_a1_small"
    assert cfg["adaptive"]["iter_max"] == 5
    assert cfg["mixing"]["beta_max"] == 0.9
    assert sum(c["count"] for c in cfg["topology"]["categories"]) == 8


def test_override_merges_without_clobbering_siblings():
    cfg = resolve_config({"mixing": {"beta_max": 0.5}})
    assert cfg["mixing"]["beta_max"] == 0.5
    assert cfg["mixing"]["beta_min"] == 0.001  # sibling untouched


def test_full_preset_is_larger():
    cfg = resolve_config({"preset": "table_a1"})
    assert sum(c["count"] for c in cfg["topology"]["categories"]) == 100
    assert cfg["adaptive"]["iter_max"] == 30
    assert cfg["sim"]["T"] == 2000


def test_unknown_preset_is_a_config_error():
    with pytest.raises(ConfigError, match="preset"):
        resolve_config({"preset": "table_b9"})


def test_presets_are_independent_copies():
    presets()["table_a1_small"]["sim"]["T"] = 77
    assert resolve_config({})["sim"]["T"] == 200


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(small_doc()))
    cfg = load_config(str(path))
    assert cfg["sim"]["T"] == 10
    assert cfg["buffer"]["minibatch"] == 8
    assert cfg["eval"]["every"] == 1  # default survived


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(str(path))


def test_set_by_path():
    cfg = resolve_config({})
    set_by_path(cfg, "mixing.beta_max", 0.25)
    assert cfg["mixing"]["beta_max"] == 0.25
    with pytest.raises(ConfigError, match="no such configuration key"):
        set_by_path(cfg, "mixing.nonsense", 1)
    with pytest.raises(ConfigError, match="no such configuration section"):
        set_by_path(cfg, "nonsense.beta_max", 1)


@pytest.mark.parametrize("patch, key_path", [
    ({"model": {"kind": "hinge"}}, "model.kind"),
    ({"model": {"dim": 0}}, "model.dim"),
    ({"buffer": {"minibatch": 32}}, "buffer"),          # exceeds capacity 16
    ({"link": {"p_loss": 1.5}}, r"link.p_loss: must be <= 1"),
    ({"link": {"p_loss": [0.1, -0.2]}}, r"link.p_loss\[1\]: must be >= 0"),
    ({"link": {"p_loss": [0.1, 0.2, 0.3]}}, "link.p_loss"),
    # categories of 2 and 1 coworkers: the fault is named by the key the config sets
    ({"topology": {"categories": [{"count": 2, "speed": 1e7, "rate": 1e5, "p_loss": 0.0},
                                  {"count": 1, "speed": 1e7, "rate": 1e5, "p_loss": -0.2}]}},
     r"topology.categories\[1\].p_loss: must be >= 0"),
    ({"topology": {"categories": [{"count": 2, "speed": 1e7, "rate": 1e5, "p_loss": 1.5},
                                  {"count": 1, "speed": 1e7, "rate": 1e5}]}},
     r"topology.categories\[0\].p_loss: must be <= 1"),
    ({"data": {"partition": "label_skew"}}, "data.partition"),
    ({"data": {"partition": "dirichlet"}}, "data.partition"),
    ({"topology": {"K": 5}}, r"topology.K: unknown key; known keys are \['categories'\]"),
    ({"adaptive": {"eta_min": 0.9}}, "adaptive"),       # above eta_max
    ({"mixing": {"beta_min": 0.0}}, "mixing"),
    ({"sim": {"T": -1}}, "sim.T"),
    ({"sim": {"seed": -1}}, "sim.seed"),
    ({"sim": {"seed": 2**63}}, "sim.seed"),
])
def test_validation_errors_name_the_key(patch, key_path):
    cfg = resolve_config(small_doc(**patch))
    with pytest.raises(ConfigError, match=key_path):
        build_experiment(cfg)


def test_yaml_unsigned_exponents_build_cleanly(tmp_path):
    # YAML 1.1 parses 1.0e7 (no exponent sign) as a string; the harness must
    # coerce it rather than crash comparing str to int
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "topology:\n"
        "  categories:\n"
        "    - {count: 2, speed: 1.0e7, rate: 1.0e5}\n"
        "buffer: {capacity: 16, minibatch: 8}\n"
        "data: {shard_size: 16}\n"
        "sim: {T: 3, seed: '5'}\n"
    )
    cfg = load_config(str(path))
    assert isinstance(cfg["topology"]["categories"][0]["speed"], str)  # YAML quirk
    exp, result, _ = run_experiment(cfg)
    assert result.aggregations == 3
    assert exp.cfg["topology"]["categories"][0]["speed"] == 1.0e7
    assert exp.cfg["sim"]["seed"] == 5


def test_stop_conditions_written_as_yaml_strings_run(tmp_path):
    # YAML reads 1.0e1 as a string; the run must take the checked numbers
    doc = small_doc()
    del doc["sim"]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc) + "sim: {T: 1.0e1, horizon: 1.0e3, "
                    "event_budget: 1.0e5, seed: 3}\n")
    exp, result, _ = run_experiment(load_config(str(path)))
    assert result.aggregations == 10
    assert exp.cfg["sim"] == {"T": 10, "horizon": 1000.0, "event_budget": 100000, "seed": 3}


def test_non_numeric_values_name_the_key():
    cfg = resolve_config(small_doc())
    cfg["topology"]["categories"][0]["speed"] = "fast"
    with pytest.raises(ConfigError, match=r"topology.categories\[0\].speed"):
        build_experiment(cfg)
    cfg = resolve_config(small_doc(sim={"T": 12.5}))
    with pytest.raises(ConfigError, match="sim.T.*integer"):
        build_experiment(cfg)
    cfg = resolve_config(small_doc(mixing={"beta_max": True}))
    with pytest.raises(ConfigError, match="mixing.beta_max"):
        build_experiment(cfg)


def test_coercion_does_not_mutate_the_callers_config():
    cfg = resolve_config(small_doc())
    cfg["compute"]["cycles_per_iter"] = "1.0e7"
    exp = build_experiment(cfg)
    assert cfg["compute"]["cycles_per_iter"] == "1.0e7"       # untouched
    assert exp.cfg["compute"]["cycles_per_iter"] == 1.0e7     # echoed coerced


def test_bad_category_speed_names_the_index():
    doc = small_doc()
    doc["topology"]["categories"].append({"count": 1, "speed": 0.0, "rate": 1e5})
    with pytest.raises(ConfigError, match=r"topology.categories\[1\].speed"):
        build_experiment(resolve_config(doc))


@st.composite
def small_configs(draw):
    """Small valid run configs: K <= 6, T <= 30, always an event budget."""
    counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                  .filter(lambda c: sum(c) <= 6))
    beta_min = draw(st.floats(0.001, 0.5))
    return {
        "model": {"dim": 3},
        "topology": {"categories": [
            {"count": n, "speed": draw(st.sampled_from([2e6, 1e7, 5e7])),
             "rate": draw(st.sampled_from([1e4, 1e5])), "p_loss": draw(st.floats(0.0, 0.5))}
            for n in counts
        ]},
        "data": {"shard_size": 16},
        "buffer": {"capacity": 16, "minibatch": 8},
        "adaptive": {"eta_max": draw(st.sampled_from([0.1, 0.5]) | st.floats(0.02, 0.5))},
        "arrivals": draw(st.sampled_from([{"kind": "poisson", "rate": 5.0},
                                          {"kind": "periodic", "interval": 0.2}])),
        "link": {"p_loss": draw(st.none() | st.floats(0.0, 0.9)),
                 "downlink_delay": draw(st.floats(0.0, 0.2))},
        "mixing": {"phi": draw(st.sampled_from(["power", "exponential", "hinge"])),
                   "beta_min": beta_min, "beta_max": draw(st.floats(beta_min, 1.0))},
        "sim": {"seed": draw(st.integers(0, 2**16)), "T": draw(st.integers(1, 30)),
                "event_budget": draw(st.integers(1, 4000))},
    }


def _run_recording(cfg):
    """Run to T or the budget; a divergence ends the run early.

    Returns the run result (None on a divergence), the metrics rows and
    (lambdas, beta) per aggregation recorded so far, and the divergence
    message (None without one).  Every array the engine shares is made
    read-only once handed on, so an in-place write to one raises.
    """
    seen = []
    exp = build_experiment(cfg)
    FreezeHandedOnArrays(exp.engine)
    exp.engine.observers.append(SimpleNamespace(on_aggregation=lambda engine, record: seen.append(
        (engine.server.lambdas.copy(), record.beta))))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = exp.engine.run(aggregations=cfg["sim"]["T"],
                                    event_budget=cfg["sim"]["event_budget"])
    except NumericDivergenceError as exc:
        return None, exp.engine.rows, seen, str(exc)
    return result, result.rows, seen, None


# a lone coworker that loses most uplinks diverges at the default eta_max
DIVERGING_DOC = {
    "model": {"dim": 3},
    "topology": {"categories": [{"count": 1, "speed": 1e7, "rate": 1e4}]},
    "data": {"shard_size": 16},
    "buffer": {"capacity": 16, "minibatch": 8},
    "link": {"p_loss": 0.75},
    "mixing": {"beta_min": 0.5, "beta_max": 1.0},
    "sim": {"seed": 7, "T": 30, "event_budget": 4000},
}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_configs())
@example(DIVERGING_DOC)
def test_random_valid_configs_keep_the_protocol_invariants(doc):
    cfg = resolve_config(doc)
    mixing, sim = cfg["mixing"], cfg["sim"]
    result, rows, seen, diverged = _run_recording(cfg)

    # a NumericDivergenceError is a legitimate end of a run (a lone lossy
    # coworker can diverge at the default eta_max); the aggregations recorded
    # before it must still keep the invariants
    if diverged is None:
        assert result.aggregations == sim["T"] or result.events_processed == sim["event_budget"]
        assert result.aggregations <= sim["T"] and result.events_processed <= sim["event_budget"]
    assert len(rows) <= sim["T"]
    assert len(seen) == len(rows)
    for lambdas, beta in seen:
        assert lambdas.min() >= 0.0 and abs(lambdas.sum() - 1.0) <= 1e-12
        assert mixing["beta_min"] <= beta <= mixing["beta_max"]
    times = [r.time for r in rows]
    assert times == sorted(times)
    assert all(r.age >= 0 for r in rows)
    _, again, _, diverged_again = _run_recording(cfg)
    assert metrics_csv_text(again) == metrics_csv_text(rows)
    assert diverged_again == diverged


def _run_in_parts(engine, stops, sim):
    """Run to each stop in turn, within T and the config's budget.

    A stop is ``("aggregations", n)``, ``("budget", n)`` or ``("horizon",
    x)``: n more aggregations, n more calendar events or x more virtual time
    than where the engine stands; None runs on to T.  Returns the last
    run's result, or the message of a divergence, which ends the run.
    """
    T, budget = sim["T"], sim["event_budget"]
    try:
        for stop in stops:
            kind, amount = stop or ("aggregations", T)
            if kind == "aggregations":
                result = engine.run(aggregations=min(engine.server.t + amount, T),
                                    event_budget=budget)
            elif kind == "budget":
                result = engine.run(aggregations=T, event_budget=min(
                    engine.events_processed + amount, budget))
            else:
                result = engine.run(aggregations=T, horizon=engine.now + amount,
                                    event_budget=budget)
    except NumericDivergenceError as exc:
        return str(exc)
    return result


def _copies(exp):
    """A pickled and a deep copy of a stopped experiment: its engine and its
    evaluation observer, copied together so that the copied engine's
    observer is the copied evaluation."""
    both = (exp.engine, exp.evaluation)
    return [dataclasses.replace(exp, engine=engine, evaluation=evaluation)
            for engine, evaluation in (pickle.loads(pickle.dumps(both)), copy.deepcopy(both))]


def _comparable(value):
    """A comparable form of a run value: arrays and floats by their bits,
    random streams by their state and the fields a dataclass compares."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _comparable(getattr(value, f.name))
                for f in dataclasses.fields(value) if f.compare}
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, np.random.Generator):
        return value.bit_generator.state
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_comparable(v) for v in value]
    if isinstance(value, dict):
        return {k: _comparable(v) for k, v in value.items()}
    if hasattr(value, "__dict__") and not isinstance(value, enum.Enum):
        return _comparable(vars(value))
    return value


def _run_state(exp):
    """Everything a stopped engine holds for the rest of its run, and the
    evaluation observer's carried gradient and final risk; not the
    evaluator's work buffers."""
    engine, evaluation = exp.engine, exp.evaluation
    skip = {"observers", "_on_iteration", "_on_aggregation"}
    return _comparable(({k: v for k, v in vars(engine).items() if k not in skip},
                        evaluation._pending, evaluation._next_grad_sq, evaluation.final_risk))


_STOPS = st.one_of(st.tuples(st.just("aggregations"), st.integers(1, 20)),
                   st.tuples(st.just("budget"), st.integers(1, 300)),
                   st.tuples(st.just("horizon"), st.floats(0.01, 3.0)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_configs(), st.integers(1, 3), st.integers(1, 5), st.integers(10, 60),
       st.lists(_STOPS, min_size=1, max_size=3))
def test_a_split_run_equals_one_uninterrupted_run(doc, every, chunk, T, stops):
    # evaluation on, in chunks of 1-5 models, so that the flush at each stop
    # falls inside a chunk, and rounds of any size; the rows and every state
    # field must not show where the run was stopped, by an aggregation
    # count, a budget or a horizon, nor that a pickled or deep copy of the
    # stopped engine and its observers ran on in its place
    doc = {**doc, "eval": {"every": every}, "sim": {**doc["sim"], "T": T, "event_budget": 5000}}
    cfg = resolve_config(doc)
    with pytest.MonkeyPatch.context() as patch, \
            np.errstate(over="ignore", invalid="ignore"):
        patch.setattr(network_sim, "_EVAL_CHUNK", chunk)
        patch.setattr(network_sim, "_ROUND_MIN", 1)
        whole, split = build_experiment(cfg), build_experiment(cfg)
        whole_result = _run_in_parts(whole.engine, [None], cfg["sim"])
        runs = []           # (experiment, result) of each copy, then of the split run
        for i, stop in enumerate(stops):
            result = _run_in_parts(split.engine, [stop], cfg["sim"])
            if isinstance(result, str):         # diverged: the run ends here
                break
            runs += [(c, _run_in_parts(c.engine, stops[i + 1:] + [None], cfg["sim"]))
                     for c in _copies(split)]
        else:
            result = _run_in_parts(split.engine, [None], cfg["sim"])
        runs.append((split, result))
    for exp, result in runs:
        assert _comparable(result) == _comparable(whole_result)
        assert metrics_csv_text(exp.engine.rows) == metrics_csv_text(whole.engine.rows)
        assert _run_state(exp) == _run_state(whole)


def test_rows_recorded_before_a_divergence_keep_their_eval_columns():
    # the engine evaluates in chunks; the flush when run() raises fills the
    # rows that were still pending
    cfg = resolve_config({**DIVERGING_DOC, "eval": {"every": 1}})
    engine = build_experiment(cfg).engine
    models = []
    engine.observers.append(SimpleNamespace(on_aggregation=lambda engine, record: models.append(
        (engine.server.w_global.copy(), engine.server.lambdas.copy()))))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericDivergenceError):
        engine.run(aggregations=cfg["sim"]["T"], event_budget=cfg["sim"]["event_budget"])
    assert 0 < len(engine.rows) == len(models)
    uniform = uniform_weights(len(engine.runtimes))
    w_before = engine.w0
    for row, (w_after, lambdas) in zip(engine.rows, models):
        g = reference_global_gradient(engine.model, w_before, engine.data, uniform)
        risk = reference_global_risk(engine.model, w_after, engine.data, lambdas)
        assert row.grad_sqnorm == pytest.approx(float(g @ g), rel=1e-12)
        assert row.global_risk == pytest.approx(risk, rel=1e-12)
        w_before = w_after


# ---------------- data generation ---------------- #


def test_shards_are_deterministic_in_the_seed():
    cfg = resolve_config(small_doc())
    a = generate_shards(cfg)
    b = generate_shards(cfg)
    for (Xa, ya), (Xb, yb) in zip(a, b):
        np.testing.assert_array_equal(Xa, Xb)
        np.testing.assert_array_equal(ya, yb)
    cfg2 = resolve_config(small_doc(sim={"seed": 4}))
    c = generate_shards(cfg2)
    assert not np.array_equal(a[0][0], c[0][0])


def reference_stream(seed, domain, cid):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(domain, cid)))


@pytest.mark.parametrize("doc", [
    small_doc(model={"noise_std": 0.3}),
    small_doc(model={"kind": "logistic", "class_sep": 1.5},
              data={"partition": "label_skew", "classes_per_coworker": 1}),
])
def test_shards_are_drawn_from_their_reference_streams(doc):
    # the shared truth or direction from (11, 0), coworker cid's shard from (10, cid)
    cfg = resolve_config(doc)
    seed, n, dim = cfg["sim"]["seed"], cfg["data"]["shard_size"], cfg["model"]["dim"]
    shared = reference_stream(seed, 11, 0).standard_normal(dim)
    for cid, (X, y) in enumerate(generate_shards(cfg)):
        rng = reference_stream(seed, 10, cid)
        if cfg["model"]["kind"] == "quadratic":
            X_ref = rng.standard_normal((n, dim))
            y_ref = X_ref @ shared + 0.3 * rng.standard_normal(n)
        else:
            y_ref = np.full(n, float(cid % 2))
            X_ref = rng.standard_normal((n, dim)) + np.outer(
                (2.0 * y_ref - 1.0) * 0.75, shared / np.linalg.norm(shared))
        np.testing.assert_array_equal(X, X_ref)
        np.testing.assert_array_equal(y, y_ref)


def test_shards_have_configured_shape():
    cfg = resolve_config(small_doc())
    shards = generate_shards(cfg)
    assert len(shards) == 2
    assert all(X.shape == (16, 3) and y.shape == (16,) for X, y in shards)


def test_coworkers_get_distinct_draws():
    shards = generate_shards(resolve_config(small_doc()))
    assert not np.array_equal(shards[0][0], shards[1][0])


def test_logistic_iid_labels_are_binary():
    cfg = resolve_config(small_doc(model={"kind": "logistic"}))
    shards = generate_shards(cfg)
    labels = {float(v) for _, y in shards for v in y}
    assert labels == {0.0, 1.0}


def test_label_skew_gives_single_class_shards():
    cfg = resolve_config(small_doc(
        model={"kind": "logistic"},
        data={"partition": "label_skew", "classes_per_coworker": 1},
    ))
    shards = generate_shards(cfg)
    assert set(shards[0][1].tolist()) == {0.0}
    assert set(shards[1][1].tolist()) == {1.0}


def test_label_skew_with_two_classes_keeps_both():
    cfg = resolve_config(small_doc(
        model={"kind": "logistic"},
        data={"partition": "label_skew", "classes_per_coworker": 2},
    ))
    shards = generate_shards(cfg)
    assert set(shards[0][1].tolist()) == {0.0, 1.0}


def test_classes_per_coworker_bounds():
    # the schema bounds the key for every model; the quadratic preset once
    # ran with -3, because only generated logistic shards checked it
    for kind, classes, bound in [("logistic", 3, "<= 2"), ("quadratic", -3, ">= 1")]:
        cfg = resolve_config(small_doc(
            model={"kind": kind}, data={"classes_per_coworker": classes},
        ))
        with pytest.raises(ConfigError, match=f"^data.classes_per_coworker: must be {bound}$"):
            build_experiment(cfg)


# ---------------- arrival traces ---------------- #


TRACE_TEXT = """\
# time, x1, x2, label
0.5, 1.0, 2.0, 3.0

1.25, -1.0, 0.5, 0.0
2.0, 0.0, 0.0, 1.0
"""


def test_trace_parsing(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(TRACE_TEXT)
    times, (X, y) = read_arrival_trace(str(path))
    assert times == (0.5, 1.25, 2.0)
    np.testing.assert_array_equal(X, [[1.0, 2.0], [-1.0, 0.5], [0.0, 0.0]])
    np.testing.assert_array_equal(y, [3.0, 0.0, 1.0])


def test_trace_malformed_line_reports_position(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("0.5, 1.0, 2.0\n0.7, oops, 1.0\n")
    with pytest.raises(ConfigError, match="trace.csv:2"):
        read_arrival_trace(str(path))


def test_trace_short_line_and_empty_file(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("0.5, 1.0\n")
    with pytest.raises(ConfigError, match="short.csv:1"):
        read_arrival_trace(str(short))
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing here\n")
    with pytest.raises(ConfigError, match="no examples"):
        read_arrival_trace(str(empty))


def test_trace_ragged_row_reports_position(tmp_path):
    # rows are stacked into one array, so a row of another width must be
    # refused rather than reshaped into the wrong columns
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("# t,x1,x2,label\n0.5, 1.0, 2.0, 1.0\n\n0.7, 1.0, 2.0, 3.0, 1.0\n")
    with pytest.raises(ConfigError, match="ragged.csv:4: 5 fields, but the first example has 4"):
        read_arrival_trace(str(ragged))


def test_trace_comment_after_data_is_skipped(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("0.5, 1.0, 2.0, 1.0  # first\n0.75, 3.0, 4.0, 0.0#second\n")
    times, (X, y) = read_arrival_trace(str(path))
    assert times == (0.5, 0.75)
    np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(y, [1.0, 0.0])


@pytest.mark.parametrize("field", ["1_0", "\u0661"])     # Arabic-Indic digit one
def test_trace_numbers_only_python_reads_are_refused_with_numpys_message(tmp_path, field):
    # float() accepts both, so the line scan finds no fault and numpy's message stands
    assert float(field) in (10.0, 1.0)
    path = tmp_path / "trace.csv"
    path.write_text(f"0.5, 1.0, 2.0, 1.0\n0.7, {field}, 2.0, 1.0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: could not convert string")):
        read_arrival_trace(str(path))


def test_trace_whitespace_only_line_reports_position(tmp_path):
    path = tmp_path / "trace.csv"
    for blank in ("  ", "\t", "  # indented comment"):
        path.write_text(f"0.5, 1.0, 2.0, 1.0\n{blank}\n0.7, 1.0, 2.0, 1.0\n")
        with pytest.raises(ConfigError, match="trace.csv:2: a line holding only whitespace"):
            read_arrival_trace(str(path))


@pytest.mark.parametrize("lineno, column, value", [
    (1, 0, "nan"), (20, 0, "inf"), (6, 1, "nan"), (3, 3, "-inf"),
])
def test_trace_non_finite_values_report_position(tmp_path, lineno, column, value):
    lines = [[f"{0.1 * (i + 1)}", "1.0", "2.0", "0.0"] for i in range(20)]
    lines[lineno - 1][column] = value
    path = tmp_path / "trace.csv"
    path.write_text("".join(", ".join(fields) + "\n" for fields in lines))
    with pytest.raises(ConfigError, match=f"trace.csv:{lineno}: times, features and labels "
                                          f"must be finite"):
        read_arrival_trace(str(path))


def test_trace_times_must_be_finite_and_non_negative():
    for times in ((float("nan"), 1.0), (0.0, float("inf")), (-1.0, 0.0)):
        with pytest.raises(ValueError, match="finite and non-negative"):
            ArrivalProcess(kind="trace", times=times)
    with pytest.raises(ValueError, match="non-decreasing"):
        ArrivalProcess(kind="trace", times=(0.0, 2.0, 1.0))
    assert ArrivalProcess(kind="trace", times=(0.0, 0.0)).times == (0.0, 0.0)


def _trace_config(tmp_path, kind, edit):
    """A 2-coworker trace config over 20 examples, the lines changed by ``edit``."""
    lines = [[f"{0.05 * (i + 1)}", f"{(-1.0) ** i}", "0.5", f"{float(i % 2)}"]
             for i in range(20)]
    edit(lines)
    trace = tmp_path / "trace.csv"
    trace.write_text("".join(",".join(fields) + "\n" for fields in lines))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"model: {{kind: {kind}, dim: 2}}\n"
                   f"arrivals: {{kind: trace, trace: {trace}}}\n"
                   "topology: {categories: [{count: 2, speed: 1.0e+7, rate: 1.0e+5}]}\n"
                   "buffer: {capacity: 8, minibatch: 4}\nsim: {T: 5}\n")
    return cfg


def _set(row, column, value):
    return lambda lines: lines[row].__setitem__(column, value)


def _relabel(lines):
    for fields in lines:
        fields[-1] = "2.0"


@pytest.mark.parametrize("edit, message", [
    (_set(0, 0, "nan"), "trace.csv:1: times, features"),
    (_set(19, 0, "inf"), "trace.csv:20: times, features"),
    (_set(0, 0, "-1.0"), "trace.csv: trace arrival times must be finite and non-negative, "
                         "but arrival 0 is at -1.0"),
    (_set(4, 2, "nan"), "trace.csv:5: times, features"),
    (_relabel, "trace.csv: logistic labels must be 0 or 1, but example 0 has label 2.0"),
], ids=["nan-time", "inf-last-time", "negative-time", "nan-feature", "label-2"])
def test_cli_refuses_trace_values_the_simulator_cannot_use(tmp_path, capsys, edit, message):
    # each of these once ran with a NaN-time event on the calendar, ended as a
    # protocol error or a divergence, or minimised a loss unbounded below
    cfg = _trace_config(tmp_path, "logistic", edit)
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_experiment(load_config(str(cfg)))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: arrivals.trace: ") and message in err


def test_quadratic_trace_labels_are_not_restricted(tmp_path):
    cfg = _trace_config(tmp_path, "quadratic", _relabel)
    y = build_experiment(load_config(str(cfg))).engine.runtimes[0].state.buffer.y
    np.testing.assert_array_equal(y, 2.0)


def test_trace_feature_count_must_match_model_dim(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text("".join(f"{0.1 * (i + 1)}, 1.0, 2.0, 0.0\n" for i in range(20)))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"model: {{dim: 3}}\narrivals: {{kind: trace, trace: {path}}}\n"
                   "sim: {T: 5}\n")
    with pytest.raises(ConfigError, match="arrivals.trace: .*trace.csv has 2 features"):
        build_experiment(load_config(str(cfg)))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "configuration error: arrivals.trace:" in capsys.readouterr().err


@pytest.mark.parametrize("kind, partition, message", [
    ("logistic", "bogus", "unknown partition 'bogus'"),
    ("quadratic", "label_skew",
     "label_skew requires the logistic model (regression has no classes)"),
])
def test_the_partition_rules_hold_for_trace_data(tmp_path, capsys, kind, partition, message):
    # both once built, because only the shard generator checked the partition
    cfg = _trace_config(tmp_path, kind, lambda lines: None)
    cfg.write_text(cfg.read_text() + f"data: {{partition: {partition}}}\n")
    with pytest.raises(ConfigError, match=f"^data\\.partition: {re.escape(message)}$"):
        build_experiment(load_config(str(cfg)))
    out = tmp_path / "x"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: data.partition: {message}\n"
    assert not out.exists()


def test_trace_arrivals_feed_the_buffer_from_the_file(tmp_path):
    path = tmp_path / "trace.csv"
    lines = [f"{0.1 * (i + 1)}, {float(i)}, 0.0, {float(i)}" for i in range(12)]
    path.write_text("\n".join(lines) + "\n")
    doc = small_doc(
        arrivals={"kind": "trace", "trace": str(path)},
        buffer={"capacity": 4, "minibatch": 2},
        model={"dim": 2},
    )
    exp = build_experiment(resolve_config(doc))
    buf = exp.engine.runtimes[0].state.buffer
    X, y = buf.X, buf.y
    np.testing.assert_array_equal(y, np.arange(12.0))
    np.testing.assert_array_equal(X[:, 0], np.arange(12.0))
    # each coworker's first time from the file is on the calendar, and its
    # law gives the rest, then inf
    engine = exp.engine
    for cid, rt in enumerate(engine.runtimes):
        assert [ev.time for ev in engine.queue._heap if ev.coworker == cid] == [0.1]
        assert [rt.law.time_of(i, 0.0, None) for i in range(1, 13)] == [
            0.1 * (i + 1) for i in range(1, 12)] + [math.inf]


@pytest.mark.parametrize("trace", ["a.csv", ["a.csv", "b.csv"] * 3], ids=["one", "two"])
def test_each_distinct_trace_file_is_parsed_once(tmp_path, monkeypatch, trace):
    monkeypatch.chdir(tmp_path)
    offsets = {"a.csv": 0.0, "b.csv": 100.0}
    for name, offset in offsets.items():
        Path(name).write_text("".join(
            f"{offset + 0.1 * (i + 1)}, {offset + i}, 0.0, {offset + i}\n" for i in range(12)))
    parsed = []

    def counting(path):
        parsed.append(path)
        return read_arrival_trace(path)

    monkeypatch.setattr(harness, "read_arrival_trace", counting)
    doc = small_doc(arrivals={"kind": "trace", "trace": trace}, model={"dim": 2},
                    topology={"categories": [{"count": 6, "speed": 1e7, "rate": 1e5}]},
                    buffer={"capacity": 4, "minibatch": 2})
    engine = build_experiment(resolve_config(doc)).engine
    names = trace if isinstance(trace, list) else [trace] * 6
    assert sorted(parsed) == sorted(set(names))
    # each coworker of a file follows its times, after the first on the
    # calendar, and reads its own copy of its rows
    first = sorted((ev.time, ev.coworker) for ev in engine.queue._heap)
    assert first == sorted((offsets[name] + 0.1, cid) for cid, name in enumerate(names))
    for rt, name in zip(engine.runtimes, names):
        assert [rt.law.time_of(i, 0.0, None) for i in range(1, 13)] == [
            offsets[name] + 0.1 * (i + 1) for i in range(1, 12)] + [math.inf]
        np.testing.assert_array_equal(rt.state.buffer.y, np.arange(12.0) + offsets[name])
    assert len(engine.data.y) == 6 * 12


def test_trace_kind_requires_a_path():
    doc = small_doc(arrivals={"kind": "trace"})
    with pytest.raises(ConfigError, match="arrivals.trace"):
        build_experiment(resolve_config(doc))


# the directory's reason is the operating system's wording
@pytest.mark.parametrize("name, reason", [("missing.csv", "No such file or directory"),
                                          ("a_directory", ".+")], ids=["missing", "directory"])
def test_a_trace_path_that_cannot_be_opened_is_a_fault_of_arrivals_trace(
        tmp_path, capsys, name, reason):
    (tmp_path / "a_directory").mkdir()
    path = str(tmp_path / name)
    doc = small_doc(arrivals={"kind": "trace", "trace": path})
    with pytest.raises(ConfigError, match=rf"^arrivals\.trace: {re.escape(path)}: {reason}$"):
        build_experiment(resolve_config(doc))
    rc = cli.main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"configuration error: arrivals.trace: {path}: ")


# ---------------- experiment wiring and outputs ---------------- #


def test_payload_bits_default_tracks_dimension():
    exp = build_experiment(resolve_config(small_doc()))
    assert exp.engine.runtimes[0].link.payload_bits == 64.0 * (3 + 2)
    exp2 = build_experiment(resolve_config(small_doc(link={"payload_bits": 128})))
    assert exp2.engine.runtimes[0].link.payload_bits == 128.0


def test_run_experiment_reaches_the_configured_count():
    exp, result, estimates = run_experiment(resolve_config(small_doc()))
    assert result.aggregations == 10
    assert len(result.rows) == 10
    assert estimates is None


def test_metrics_csv_shape_and_round_trip():
    _, result, _ = run_experiment(resolve_config(small_doc()))
    text = metrics_csv_text(result.rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 11
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == result.rows[0].time  # repr round-trips exactly
    assert float(first[4]) == result.rows[0].beta


def csv_writer_text(rows):
    """metrics.csv as ``csv.writer`` renders it, each float as repr(float(x))
    and None as an empty cell: the reference for ``metrics_csv_text``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        cells = (getattr(r, name) for name in CSV_HEADER)
        writer.writerow(["" if v is None else repr(float(v)) if isinstance(v, float) else v
                         for v in cells])
    return buf.getvalue()


def test_metrics_csv_has_the_bytes_of_a_csv_writer_rendering():
    _, result, _ = run_experiment(resolve_config(small_doc(eval={"every": 3})))
    rows = result.rows
    assert any(r.global_risk is None for r in rows) and any(r.grad_sqnorm is None for r in rows)
    last = rows[-1]
    rows = rows + [
        # one evaluation column set without the other, and floats at the
        # ends of the range
        dataclasses.replace(last, t=last.t + 1, beta=0.1 / 3, global_risk=0.25,
                            grad_sqnorm=None),
        dataclasses.replace(last, t=last.t + 2, time=1e-300, beta=1.0,
                            lambda_checksum=2.0 / 3, fairness_index=1.0, global_risk=None,
                            grad_sqnorm=1.5e300),
    ]
    assert metrics_csv_text(rows) == csv_writer_text(rows)
    assert metrics_csv_text([]) == csv_writer_text([])


@pytest.mark.parametrize("name", sorted(golden_trace.CASES))
def test_every_row_field_is_a_python_int_or_float(name):
    # the metrics writer converts nothing: β, the times, the checksum, the
    # index and the evaluation columns reach it as Python numbers, with the
    # golden digests unchanged
    case = golden_trace.CASES[name]
    _, result, _ = run_experiment(resolve_config(case["doc"]),
                                  enable_profiling=case.get("profile", False))
    for r in result.rows:
        for field in CSV_HEADER:
            value = getattr(r, field)
            assert type(value) in (int, float) or (
                value is None and field in ("global_risk", "grad_sqnorm")), (r.t, field)
    assert (golden_trace._trajectory_sha(result.rows)
            == golden_trace.GOLDEN[name]["trajectory_sha256"])


def test_summary_contents_and_final_risk_recompute():
    exp, result, _ = run_experiment(resolve_config(small_doc()))
    summary = summarize(exp, result, None)
    assert summary["aggregations"] == 10
    assert summary["uplink"]["attempts"] >= 10
    assert sum(summary["per_coworker"]["accepted"]) == 10
    assert sum(summary["per_coworker"]["access_prob"]) == pytest.approx(1.0)
    assert summary["config"]["sim"]["seed"] == 3
    assert summary["numpy"] == np.__version__       # the trace's draws depend on it
    direct = reference_global_risk(
        exp.engine.model, exp.engine.server.w_global, exp.engine.data,
        np.asarray(summary["lambdas_final"]),
    )
    assert summary["final_risk"] == pytest.approx(direct, rel=1e-12)
    assert summary["final_risk"] == result.rows[-1].global_risk    # the last row was due


def test_eval_disabled_leaves_risk_columns_empty():
    exp, result, _ = run_experiment(resolve_config(small_doc(eval={"every": 0})))
    assert all(r.global_risk is None for r in result.rows)
    text = metrics_csv_text(result.rows)
    assert text.strip().split("\n")[1].endswith(",,")
    assert summarize(exp, result, None)["final_risk"] is None


def test_final_risk_is_set_when_the_last_row_was_not_due():
    exp, result, _ = run_experiment(resolve_config(small_doc(eval={"every": 3})))
    assert [r.t for r in result.rows if r.global_risk is not None] == [3, 6, 9]
    assert result.rows[-1].t == 10
    # bit for bit: the final risk is the run's own evaluator at the final model
    engine = exp.engine
    server = engine.server
    direct = exp.evaluation.evaluator(server.w_global, server.lambdas, False)[0]
    assert summarize(exp, result, None)["final_risk"] == direct
    assert direct == pytest.approx(reference_global_risk(
        engine.model, server.w_global, engine.data, server.lambdas), rel=1e-12)


@pytest.mark.parametrize("every, stops", [(1, [10]), (3, [10]), (3, [0]), (2, [4, 7])])
def test_final_risk_is_the_stop_models_risk_bit_for_bit(every, stops):
    # the final risk comes from the stack evaluated on stop, at whatever slot
    # the stop model took there: after a due row, after one that was not
    # due, with no aggregation and after a split run
    exp = build_experiment(resolve_config(small_doc(eval={"every": every})))
    engine = exp.engine
    for stop in stops:
        engine.run(aggregations=stop)
    server = engine.server
    assert server.t == len(engine.rows) == stops[-1]
    alone = GlobalEvaluator(engine.model, engine.data, uniform_weights(len(engine.runtimes)))
    assert exp.evaluation.final_risk == alone(server.w_global, server.lambdas, False)[0]
    assert exp.evaluation.final_risk == pytest.approx(reference_global_risk(
        engine.model, server.w_global, engine.data, server.lambdas), rel=1e-12)


@pytest.mark.parametrize("sim, reason", [
    ({"T": 10}, "T_reached"),
    ({"T": None, "horizon": 0.5}, "horizon"),
    ({"T": None, "event_budget": 40}, "budget"),
])
def test_stop_reason_names_the_condition_that_ended_the_run(sim, reason):
    exp, result, _ = run_experiment(resolve_config(small_doc(sim=sim)))
    assert result.stop_reason == reason
    assert summarize(exp, result, None)["stop_reason"] == reason


def test_stop_reason_is_drained_when_a_trace_never_warms_up(tmp_path):
    # three arrivals cannot fill an 8-row minibatch: no coworker ever starts
    path = tmp_path / "trace.csv"
    path.write_text("".join(f"{0.1 * (i + 1)}, 1.0, 0.0, 0.0, 1.0\n" for i in range(3)))
    doc = small_doc(arrivals={"kind": "trace", "trace": str(path)})
    exp, result, _ = run_experiment(resolve_config(doc))
    summary = summarize(exp, result, None)
    assert (summary["aggregations"], summary["stop_reason"]) == (0, "drained")


def test_write_outputs_is_reproducible(tmp_path):
    cfg = resolve_config(small_doc())
    for sub in ("a", "b"):
        exp, result, estimates = run_experiment(cfg)
        write_outputs(str(tmp_path / sub), exp, result, estimates)
    a_metrics = (tmp_path / "a" / "metrics.csv").read_bytes()
    b_metrics = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a_metrics == b_metrics
    assert (tmp_path / "a" / "summary.yaml").read_bytes() == \
        (tmp_path / "b" / "summary.yaml").read_bytes()


def test_the_summary_written_is_the_summary_returned(tmp_path):
    # the summary is built from plain values, so its file reads back as it
    exp, result, estimates = run_experiment(resolve_config(small_doc(eval={"every": 1})),
                                            enable_profiling=True)
    summary = write_outputs(str(tmp_path), exp, result, estimates)
    assert estimates is not None and summary["final_risk"] is not None
    assert harness.read_yaml(str(tmp_path / "summary.yaml")) == summary


def test_profiled_run_emits_estimates():
    _, result, estimates = run_experiment(resolve_config(small_doc()),
                                          enable_profiling=True)
    assert estimates is not None
    assert estimates.samples == 10
    assert estimates.f0_hat is not None
    assert estimates.zeta_hat is None or estimates.zeta_hat >= 0.0


def test_summary_estimates_hold_exactly_the_estimate_fields():
    exp, result, estimates = run_experiment(resolve_config(small_doc()),
                                            enable_profiling=True)
    block = summarize(exp, result, estimates)["estimates"]
    assert set(block) == {f.name for f in dataclasses.fields(ParameterEstimates)}
    feasible = block["feasible"]
    assert type(feasible) is list and len(feasible) == 3
    assert all(type(flag) is bool for flag in feasible)


# ---------------- bound evaluation ---------------- #


BOUND_DOC = {
    "zeta": 2.0, "f0": 1.5, "f_star": 0.5, "c": 0.5, "gamma": 1.0,
    "a": 1.0, "epsilon": 0.5, "beta_min": 0.01, "beta_max": 0.9,
    "horizon": 100,
}


def test_evaluate_bounds_happy_path():
    doc = dict(BOUND_DOC, beta=0.05)
    out = evaluate_bounds({"bound": doc})
    # 2 * c * eps / (zeta * (1 + gamma^2)) = 0.5 / 4
    assert out["beta_max_admissible"] == pytest.approx(0.125)
    assert out["constant"] > 0.0
    assert out["clipped"] > 0.0
    assert out["constant_beta"] == 0.05


def test_evaluate_bounds_missing_keys():
    doc = dict(BOUND_DOC)
    del doc["zeta"], doc["horizon"]
    with pytest.raises(ConfigError, match="missing keys.*zeta"):
        evaluate_bounds(doc)


def test_evaluate_bounds_refuses_inadmissible_constant():
    out = evaluate_bounds(dict(BOUND_DOC))  # default beta = beta_max = 0.9
    assert out["constant"] is None
    assert "admissibility" in out["constant_refused"]
    assert out["clipped"] > 0.0  # clipped variant never refuses


def test_evaluate_bounds_scaled_block():
    doc = dict(BOUND_DOC)
    doc["scaled"] = {"c0": 0.5, "gamma0": 1.0, "a0": 1.0,
                     "sigma_sq_bar": 1.0, "i_bar": 1.0, "i2_bar": 1.0}
    out = evaluate_bounds(doc)
    assert out["scaled"]["bound"] == pytest.approx(out["clipped"], rel=1e-12)
    doc["scaled"]["i2_bar"] = 0.5  # violates Jensen
    with pytest.raises(ConfigError, match="bound.scaled"):
        evaluate_bounds(doc)


def test_evaluate_bounds_scaled_block_holds_exactly_the_scaled_result():
    doc = dict(BOUND_DOC, scaled={"c0": 0.5, "gamma0": 1.0, "a0": 1.0,
                                  "sigma_sq_bar": 1.0, "i_bar": 1.0, "i2_bar": 1.0})
    scaled = evaluate_bounds(doc)["scaled"]
    assert list(scaled) == ["bound", "beta_max_admissible", "c", "gamma", "a"]


# ---------------- command line ---------------- #


def write_cfg(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_doc())
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "summary.yaml").exists()
    stdout = capsys.readouterr().out
    assert "aggregations=10" in stdout
    summary = yaml.safe_load((out / "summary.yaml").read_text())
    assert summary["aggregations"] == 10


def test_cli_seed_override_changes_the_trace(tmp_path):
    cfg = write_cfg(tmp_path, small_doc())
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "s3")])
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "s9"), "--seed", "9"])
    a = (tmp_path / "s3" / "metrics.csv").read_text()
    b = (tmp_path / "s9" / "metrics.csv").read_text()
    assert a != b
    summary = yaml.safe_load((tmp_path / "s9" / "summary.yaml").read_text())
    assert summary["seed"] == 9


def test_cli_profile_prints_estimates(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_doc())
    assert cli.main(["profile", "--config", cfg, "--out", str(tmp_path / "p")]) == 0
    stdout = capsys.readouterr().out
    assert "estimates:" in stdout
    summary = yaml.safe_load((tmp_path / "p" / "summary.yaml").read_text())
    assert "estimates" in summary


def test_cli_bad_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_doc(buffer={"minibatch": 999}))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    ("arrivals: {rate: .nan}\n", "arrivals.rate"),
    ("compute: {cycles_per_iter: .nan}\n", "compute.cycles_per_iter"),
    ("link: {timer_factor: -1}\n", "link.timer_factor"),
    ("link: {p_loss: 1.0}\nsim: {T: 5}\n", "sim.T"),
    ("sim: {T: null}\n", "sim.T"),
    ("compute: {cycles_per_iter: null}\n", "compute.cycles_per_iter"),
    ("link: {downlink_delay: null}\n", "link.downlink_delay"),
    ("topology: {categories: [{count: 2, speed: null, rate: 1.0e+5}]}\n",
     "topology.categories[0].speed"),
    ("arrivals: {kind: periodic, interval: null}\nsim: {T: 3}\n", "arrivals.interval"),
    ("arrivals: {rate: 0}\nsim: {T: 3}\n", "arrivals.rate"),
    ("data: {shard_size: 0}\nsim: {T: 3}\n", "data.shard_size"),
    ("sim: {T: 3, seed: -1}\n", "sim.seed"),
    ("sim: {T: 3, horizon: -1}\n", "sim.horizon"),
    ("sim: {T: 3, event_budget: -1}\n", "sim.event_budget"),
    ("arrivals: {trace: 5}\nsim: {T: 3}\n", "arrivals.trace"),
    ("sim: {T: 3, TT: 5}\n", "sim.TT"),
    ("simm: {T: 3}\n", "simm"),
    ("topology: {categories: [{count: 2, speed: 1.0e+7, rate: 1.0e+5, pl: 0.3}]}\n",
     "topology.categories[0].pl"),
    # integers numpy cannot index; refused before anything is allocated
    ("data: {shard_size: 1.0e+30}\nsim: {T: 3}\n", "data.shard_size"),
    ("model: {dim: 1.0e+30}\nsim: {T: 3}\n", "model.dim"),
    ("buffer: {capacity: 9223372036854775808}\nsim: {T: 3}\n", "buffer.capacity"),
    # arrival laws a float clock cannot carry; they once ran forever
    ("arrivals: {kind: periodic, interval: 1.0e-300}\nsim: {T: 3}\n", "arrivals.interval"),
    ("arrivals: {rate: 1.0e+300}\nsim: {T: 3}\n", "arrivals.rate"),
    # an integer key that once ran with a fraction, or a range checked only
    # for logistic data
    ("mixing: {phi: hinge, hinge_b: 2.5}\nsim: {T: 3}\n", "mixing.hinge_b"),
    ("data: {classes_per_coworker: -3}\nsim: {T: 3}\n", "data.classes_per_coworker"),
    # a negative spread or separation once ran as if it were positive
    ("model: {noise_std: -1}\nsim: {T: 3}\n", "model.noise_std"),
    ("model: {kind: logistic, class_sep: -2}\nsim: {T: 3}\n", "model.class_sep"),
    # cycles_per_iter / speed underflows to an iteration of no duration
    ("compute: {cycles_per_iter: 1.0e-300}\n"
     "topology: {categories: [{count: 2, speed: 1.0e+300, rate: 1.0e+5}]}\nsim: {T: 3}\n",
     "compute"),
    # arrays numpy refuses at once (7.11 PiB of ring, 728 TiB of shard),
    # which once ended in a raw MemoryError
    ("buffer: {capacity: 1.0e+15}\nsim: {T: 3}\n", "buffer"),
    ("model: {dim: 1.0e+14}\nsim: {T: 3}\n", "model.dim"),
    # 10**12 iterations in a cluster, one Python step each: a trace run hung,
    # and a Poisson one was refused as arrivals.rate; the schema refuses
    # both before the trace file is opened
    ("arrivals: {kind: trace, trace: absent.csv}\nmodel: {kind: logistic}\n"
     "adaptive: {iter_max: 1.0e+12}\nsim: {T: 2}\n", "adaptive.iter_max"),
    ("adaptive: {iter_max: 1.0e+12}\nsim: {T: 2}\n", "adaptive.iter_max"),
])
def test_cli_config_faults_exit_2_naming_the_key(tmp_path, capsys, text, key):
    # each of these once ran to a NaN time, a traceback, forever, or with
    # the key ignored or misnamed; the build must refuse them before the
    # engine starts
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(key)):
        build_experiment(load_config(str(path)))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {key}:")


@pytest.mark.parametrize("text, message", [
    # each once named another field, or two fields at once
    ("mixing: {alpha: -1}\n", "mixing: alpha must be non-negative"),
    ("mixing: {hinge_b: -1}\n", "mixing: hinge_b must be non-negative"),
    ("mixing: {phi: cubic}\n", "mixing: phi must be power, exponential or hinge, not 'cubic'"),
    ("compute: {cycles_per_iter: 0}\n", "compute.cycles_per_iter: must be > 0"),
    ("link: {payload_bits: -5}\n", "link: payload_bits must be positive"),
    # K is the sum of the category counts, not a key
    ("topology: {K: 8}\n", "topology.K: unknown key; known keys are ['categories']"),
])
def test_cli_config_faults_name_the_yaml_key(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.yaml"
    path.write_text(text + "sim: {T: 3}\n")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_cli_divergence_exits_3_with_one_line(tmp_path):
    # a child process, so numpy's overflow warnings would reach its stderr
    path = tmp_path / "cfg.yaml"
    path.write_text("adaptive: {eta_min: 5.0, eta_max: 10.0, iter_max: 30}\n"
                    "model: {noise_std: 5}\nsim: {T: 200}\n")
    src = str(Path(afafed.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "afafed.cli", "run", "--config", str(path),
         "--out", str(tmp_path / "x")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: coworker ") and "diverged" in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("fault", ["iteration", "cluster"])
def test_cli_a_broken_engine_invariant_exits_3_with_one_line(tmp_path, capsys, monkeypatch,
                                                             fault):
    # the engine's own invariant checks raise ProtocolError, which the CLI
    # reports in one line like any other protocol fault
    if fault == "iteration":        # a ready buffer that cannot serve a minibatch
        monkeypatch.setattr("afafed.coworker.run_single_iteration", lambda *a, **k: False)
        message = "error: coworker 0 lost minibatch readiness mid-cluster at "
    else:                           # a cluster that ends before its iterations ran
        monkeypatch.setattr(SimulationEngine, "_catch_up", lambda self, cid, now, seq: None)
        message = "error: cluster completion fired before all iterations elapsed\n"
    out = tmp_path / "x"
    assert cli.main(["run", "--config", write_cfg(tmp_path, small_doc()), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("de", [1000, 1000000])
def test_cli_run_with_an_overflowing_decay_mixes_at_beta_min(tmp_path, de):
    # (1 + t) ** de leaves the float range within two aggregations; a decay
    # past the range means a raw weight of 0, so the clamp gives beta_min
    doc = small_doc(mixing={"de": de}, sim={"T": 5})
    out = tmp_path / "run"
    assert cli.main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    with open(out / "metrics.csv", newline="") as fh:
        betas = [float(row["beta"]) for row in csv.DictReader(fh)]
    assert len(betas) == 5
    assert betas[1:] == [presets()["table_a1_small"]["mixing"]["beta_min"]] * 4


def test_cli_run_with_an_overflowing_tolerance_runs_to_t(tmp_path):
    # mu_bar ** 1e5 leaves the float range once mu_bar > 1, which once ended
    # in a raw OverflowError
    doc = {"sim": {"T": 200}, "adaptive": {"gamma": 1.0e+5}, "link": {"p_loss": 0.9}}
    out = tmp_path / "run"
    assert cli.main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    summary = yaml.safe_load((out / "summary.yaml").read_text())
    assert (summary["aggregations"], summary["stop_reason"]) == (200, "T_reached")


@pytest.mark.parametrize("seed", [2**53 + 1, 2**63 - 1])
def test_cli_run_keeps_an_integer_seed_exact(tmp_path, seed):
    # a float holds 2**53 + 1 as 2**53 and 2**63 - 1 as 2**63, which once
    # ran the wrong seed and refused the largest 64-bit one
    out = tmp_path / "run"
    doc = small_doc(sim={"seed": seed})
    assert cli.main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    summary = yaml.safe_load((out / "summary.yaml").read_text())
    assert summary["seed"] == summary["config"]["sim"]["seed"] == seed
    assert build_experiment(resolve_config(doc)).engine.seed == seed


def test_cli_sweep_keeps_an_integer_seed_exact(tmp_path):
    doc = small_doc(sim={"T": 2})
    doc["sweep"] = {"seeds": [2**53 + 1]}
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    (row,) = yaml.safe_load((out / "sweep.yaml").read_text())
    assert row["seed"] == 2**53 + 1
    summary = yaml.safe_load((out / row["cell"] / "summary.yaml").read_text())
    assert summary["seed"] == 2**53 + 1


def test_cli_run_reads_an_integer_written_as_a_string_exactly(tmp_path):
    # the string once went through a float and ran seed 2**53
    out = tmp_path / "run"
    doc = small_doc(sim={"seed": "9007199254740993", "T": "1.0e1"})
    assert cli.main(["run", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    summary = yaml.safe_load((out / "summary.yaml").read_text())
    assert summary["seed"] == summary["config"]["sim"]["seed"] == 2**53 + 1
    assert summary["config"]["sim"]["T"] == summary["aggregations"] == 10


@pytest.mark.parametrize("arrivals, key", [
    ({"kind": "periodic", "interval": 1.0e-300}, "arrivals.interval"),
    ({"kind": "poisson", "rate": 1.0e+300}, "arrivals.rate"),
])
def test_an_arrival_law_a_float_clock_cannot_carry_is_refused(arrivals, key):
    # on table_a1_small's slowest category, a cluster and its timer wait
    # last about 5.07 time units, about 5.1e300 arrivals; the clock would
    # stop advancing long before the first cluster ends, and the run hung
    # (test_cli_config_faults_exit_2_naming_the_key runs both through the CLI)
    message = (f"{key}: about 5.1e+300 arrivals per cluster and timer wait in "
               "topology.categories[2], more than the 1e+09 a run admits one by one")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build_experiment(resolve_config({"arrivals": arrivals, "sim": {"T": 2}}))


def test_a_too_dense_law_is_refused_before_the_engine_is_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the engine was built for a refused config")

    monkeypatch.setattr(harness, "SimulationEngine", refuse)
    with pytest.raises(ConfigError, match=r"^arrivals\.rate: about 5\.1e\+300 "):
        build_experiment(resolve_config({"arrivals": {"kind": "poisson", "rate": 1.0e+300},
                                         "sim": {"T": 2}}))


@pytest.mark.parametrize("section, key", [
    ({"link": {"p_loss": [0.1, 0.2, 0.3]}}, "link.p_loss"),
    ({"arrivals": {"kind": "trace", "trace": ["a.csv", "b.csv", "c.csv"]}}, "arrivals.trace"),
])
def test_a_per_coworker_list_needs_one_entry_per_coworker(section, key):
    message = f"{key}: need 2 entries, one per coworker, got 3"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build_experiment(resolve_config(small_doc(**section)))


def test_the_arrival_cap_reads_the_engines_cluster_span(tmp_path, capsys):
    # the second category's slow link makes its coworker the worst; the
    # estimate is the span the engine runs, iter_max iterations and a timer
    # wait, times the dense law's rate
    doc = {"topology": {"categories": [{"count": 2, "speed": 1.0e+9, "rate": 1.0e+6},
                                       {"count": 1, "speed": 2.0e+8, "rate": 1.0e+3}]},
           "compute": {"cycles_per_iter": 3.0e+6}, "adaptive": {"iter_max": 7},
           "link": {"downlink_delay": 0.5, "timer_factor": 2.0, "payload_bits": 1000.0},
           "sim": {"T": 2}}
    sparse = build_experiment(resolve_config({**doc, "arrivals": {"kind": "periodic",
                                                                  "interval": 1.0}})).engine
    interval = 1.0e-12
    spans = [7 * rt.iteration_duration + rt.link.timer_duration for rt in sparse.runtimes]
    assert int(np.argmax(spans)) == 2
    path = write_cfg(tmp_path, {**doc, "arrivals": {"kind": "periodic", "interval": interval}})
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: arrivals.interval: about {spans[2] / interval:.2g} arrivals "
        "per cluster and timer wait in topology.categories[1], more than the 1e+09 a run "
        "admits one by one\n")


def test_a_slow_link_that_still_ends_is_accepted(monkeypatch):
    # 448 bits at 0.001 bit/s: a timer wait of about 1.3e6 time units, about
    # 6.7e6 arrivals at 5 per unit, under the cap; the run ends in seconds
    cfg = resolve_config({"topology": {"categories": [{"count": 2, "speed": 5.0e+8,
                                                       "rate": 0.001}]}, "sim": {"T": 2}})
    assert len(build_experiment(cfg).engine.runtimes) == 2
    monkeypatch.setattr(harness, "MAX_ARRIVALS_PER_CLUSTER", 6.7e6)
    with pytest.raises(ConfigError, match=re.escape("arrivals.rate: about 6.7e+06 arrivals")):
        build_experiment(cfg)


@pytest.mark.parametrize("command, patch, message", [
    ("run", {"sim": {"horizon": 10**400}},
     "sim.horizon: expected a finite number, got an integer past the float range"),
    ("run", {"topology": {"categories": [{"count": 10**400, "speed": 1e7, "rate": 1e5}]}},
     "topology.categories[0].count: expected a 64-bit integer"),
    ("sweep", {"sweep": {"seeds": [10**400]}}, "sweep.seeds[0]: sim.seed: expected a 64-bit"),
    # a float from 2**53 on once ran silently as the nearest float's integer
    ("run", {"sim": {"seed": 9007199254740993.0}}, "sim.seed: a float past 2**53 "),
    ("run", {"sim": {"seed": "9007199254740993.0"}}, "sim.seed: a float past 2**53 "),
])
def test_cli_names_the_key_of_an_integer_past_the_range(tmp_path, capsys, command, patch,
                                                        message):
    # an integer past the float range once ended in a raw OverflowError
    out = tmp_path / "out"
    doc = small_doc(**patch)
    assert cli.main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {message}")
    assert not out.exists()


def test_total_loss_with_a_horizon_still_runs():
    cfg = resolve_config(small_doc(link={"p_loss": 1.0}, sim={"T": 5, "horizon": 0.5}))
    _, result, _ = run_experiment(cfg)
    assert result.aggregations == 0
    assert result.final_time == 0.5


def test_readme_python_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def _schema_keys(table, prefix=""):
    for name, key in table.items():
        if isinstance(key.type, dict):
            yield from _schema_keys(key.type, f"{prefix}{name}.")
        elif isinstance(key.type, list):
            yield f"{prefix}{name}"
            yield from _schema_keys(key.type[0], f"{prefix}{name}[].")
        else:
            yield f"{prefix}{name}"


def _doc_keys(doc, prefix=""):
    for name, value in doc.items():
        if isinstance(value, dict):
            yield from _doc_keys(value, f"{prefix}{name}.")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield f"{prefix}{name}"
            for item in value:
                yield from _doc_keys(item, f"{prefix}{name}[].")
        else:
            yield f"{prefix}{name}"


def test_readme_config_block_lists_every_schema_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Configuration.*?```yaml\n(.*?)```", readme, flags=re.S).group(1)
    doc = yaml.safe_load(block)
    assert set(_doc_keys(doc)) == set(_schema_keys(CONFIG_SCHEMA))
    build_experiment(resolve_config(doc))     # and it is a valid config
    # each value, checked as build_experiment checks it, is the
    # table_a1_small default, but for the categories (the block shows one of
    # three)
    shown = harness._check(CONFIG_SCHEMA, doc, "")
    default = harness._check(CONFIG_SCHEMA, resolve_config({}), "")
    for checked in (shown, default):
        del checked["topology"]["categories"]
    assert shown == default


def test_cli_missing_config_exits_2(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def _unreadable_config(tmp_path, fault):
    """A --config path holding the named fault."""
    path = tmp_path / "cfg.yaml"
    if fault == "malformed":
        path.write_text("model: {dim: [\n")
    elif fault == "not_utf8":
        path.write_bytes(b"model: {dim: 3}\n# caf\xe9\n")
    elif fault == "bad_date":
        path.write_text("sim: {T: 2001-02-30}\n")
    else:
        path.mkdir()
    return str(path)


@pytest.mark.parametrize("command", ["run", "profile", "bound", "sweep"])
@pytest.mark.parametrize("fault, message", [
    ("malformed", "cfg.yaml: line 2, column 1: did not find expected node content"),
    ("not_utf8", "cfg.yaml: not UTF-8 text (invalid continuation byte at byte 21)"),
    ("directory", "cfg.yaml: is a directory, not a file"),
    ("bad_date", "cfg.yaml: day is out of range for month"),
])
def test_cli_unreadable_config_exits_2_naming_the_file(tmp_path, capsys, command, fault, message):
    # each of these once ended in a raw traceback with exit status 1
    cfg = _unreadable_config(tmp_path, fault)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {tmp_path}/{message}\n"
    assert not (tmp_path / "x").exists()


def test_cli_config_with_an_integer_python_cannot_read_exits_2(tmp_path, capsys):
    # Python refuses to convert a string of more than 4300 digits to an int
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("sim: {horizon: " + "1" * 5000 + "}\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {cfg}: ") and "4300 digits" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["run", "profile", "bound", "sweep"])
@pytest.mark.parametrize("below", [False, True])
def test_cli_out_that_is_a_file_exits_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                      command, below):
    # a file at --out (or above it) once failed only after the whole run
    doc = small_doc() if command != "bound" else {"bound": BOUND_DOC}
    if command == "sweep":
        doc["sweep"] = {"seeds": [1]}
    cfg = write_cfg(tmp_path, doc)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "sub" if below else taken

    def refuse(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run_experiment", refuse)
    monkeypatch.setattr(harness, "evaluate_bounds", refuse)
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    what = f"lies under {taken}, which exists" if below else "exists"
    assert err == f"configuration error: --out: {out}: {what} and is not a directory\n"
    assert taken.read_text() == "not a directory\n"


def test_write_yaml_writes_the_bytes_of_safe_dump(tmp_path):
    # libyaml's dumper, where present, must write what yaml.safe_dump writes
    # at write_yaml's width for the documents the CLI writes, awkward values
    # included
    summary = summarize(*run_experiment(resolve_config(small_doc(sim={"T": 5})),
                                        enable_profiling=True))
    awkward = {
        "paths": ["/" + "/".join(f"segment{i}" for i in range(40)) + ".csv", "a b: c", "#x"],
        "floats": [float("inf"), float("-inf"), float("nan"), -0.0, 1e-300, 5e-324, 1e16],
        "strings": ["1.0e7", "yes", "no", "null", "~", "", " lead", "0x1f", "1_000"],
        "text": " ".join(f"word{i}" for i in range(60)),
        "nested": [{"cell": "seed1_beta_max0.5", "final_risk": None, "seed": 1}],
    }
    for name, doc in [("summary", summary), ("awkward", awkward),
                      ("bounds", evaluate_bounds({"bound": dict(BOUND_DOC, beta=0.5)}))]:
        path = tmp_path / f"{name}.yaml"
        harness.write_yaml(str(path), doc)
        assert path.read_text() == yaml.safe_dump(doc, sort_keys=True, width=2**31 - 1), name


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"), reason="PyYAML was built without libyaml")
def test_summary_yaml_bytes_do_not_depend_on_libyaml(tmp_path, monkeypatch):
    # at the default width of 80 the two dumpers fold long double-quoted
    # strings (a tab, a control or a non-ASCII character) at different places
    rng = np.random.default_rng(0)
    alphabet = list("abc xyz/._-0123") + ["\t", "\x07", "\x1b", "é", "→", "\u00a0", " "]
    paths = ["".join(rng.choice(alphabet, size=rng.integers(60, 201))) for _ in range(200)]
    doc = {"config": {"arrivals": {"trace": paths}}, "seed": 1}
    written = []
    for dumper in (yaml.CSafeDumper, yaml.SafeDumper):
        path = tmp_path / f"{dumper.__name__}.yaml"
        monkeypatch.setattr(harness, "_YAML_DUMPER", dumper)
        harness.write_yaml(str(path), doc)
        written.append(path.read_bytes())
    assert written[0] == written[1]
    assert yaml.safe_load(written[0]) == doc


def test_cli_bound_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"bound": dict(BOUND_DOC, beta=0.05)})
    out = tmp_path / "b"
    assert cli.main(["bound", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "beta_max_admissible=0.125" in stdout
    assert "bound_constant_beta=" in stdout
    doc = yaml.safe_load((out / "bounds.yaml").read_text())
    assert doc["beta_max_admissible"] == pytest.approx(0.125)


@pytest.mark.parametrize("key, raw, where", [
    ("zeta", "null", "bound.zeta"),
    ("zeta", ".nan", "bound.zeta"),
    ("zeta", "big", "bound.zeta"),
    ("horizon", "100.7", "bound.horizon"),
    ("beta", "null", "bound.beta"),
    ("scaled", "{c0: null, gamma0: 1, a0: 1, sigma_sq_bar: 1, i_bar: 1, i2_bar: 1}",
     "bound.scaled.c0"),
])
def test_cli_bound_faults_exit_2_naming_the_key(tmp_path, capsys, key, raw, where):
    # these once ended in a traceback, printed nan or truncated the horizon
    fields = {name: repr(value) for name, value in BOUND_DOC.items()}
    fields[key] = raw
    path = tmp_path / "bound.yaml"
    path.write_text("bound: {" + ", ".join(f"{k}: {v}" for k, v in fields.items()) + "}\n")
    assert cli.main(["bound", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {where}:")


def test_cli_sweep_runs_the_grid(tmp_path):
    doc = small_doc(sim={"T": 5})
    doc["sweep"] = {"seeds": [1, 2], "grid": {"mixing.beta_max": [0.5, 0.9]}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    index = yaml.safe_load((out / "sweep.yaml").read_text())
    # the seeds are the first axis, then the grid keys in sorted order
    assert [(row["cell"], row["seed"], row["mixing.beta_max"]) for row in index] == [
        ("cell0", 1, 0.5), ("cell1", 1, 0.9), ("cell2", 2, 0.5), ("cell3", 2, 0.9)]
    assert sorted(os.listdir(out)) == ["cell0", "cell1", "cell2", "cell3", "sweep.yaml"]
    for row in index:
        assert (row["aggregations"], row["stop_reason"]) == (5, "T_reached")
        assert "error" not in row
        assert (out / row["cell"] / "metrics.csv").exists()


def test_cli_sweep_pads_the_cell_index_to_the_width_of_the_last(tmp_path):
    doc = small_doc(sim={"T": 1})
    doc["sweep"] = {"seeds": list(range(12))}
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    index = yaml.safe_load((out / "sweep.yaml").read_text())
    assert [row["cell"] for row in index] == [f"cell{i:02d}" for i in range(12)]
    assert [row["seed"] for row in index] == list(range(12))


@pytest.mark.parametrize("every", [3, 0])
def test_final_risk_is_one_value_in_stdout_summary_and_sweep(tmp_path, capsys, every):
    doc = small_doc(eval={"every": every}, sim={"T": 10})
    assert cli.main(["run", "--config", write_cfg(tmp_path, doc), "--out",
                     str(tmp_path / "run")]) == 0
    printed = capsys.readouterr().out.split("final_risk=")[1].split()[0]
    summary = yaml.safe_load((tmp_path / "run" / "summary.yaml").read_text())
    doc["sweep"] = {"seeds": [doc["sim"]["seed"]]}
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, doc, "sweep.yaml"), "--out",
                     str(tmp_path / "sweep")]) == 0
    capsys.readouterr()
    (row,) = yaml.safe_load((tmp_path / "sweep" / "sweep.yaml").read_text())
    if every:
        # the last row (t = 10) was not due, yet all three report the final risk
        assert summary["final_risk"] is not None
        assert row["final_risk"] == summary["final_risk"]
        assert printed == f"{summary['final_risk']:.6g}"
    else:
        assert summary["final_risk"] is None and row["final_risk"] is None
        assert printed == "n/a"


def test_cli_run_evaluates_nothing_after_the_run(tmp_path, monkeypatch):
    # the Evaluation fills the due rows inside run(), and takes the final
    # risk in the stack it evaluates when run() stops; writing the outputs
    # evaluates nothing
    log = []
    evaluate, run, write = GlobalEvaluator.__call__, SimulationEngine.run, harness.write_outputs

    def counted(self, *args):
        log.append("evaluated")
        return evaluate(self, *args)

    def logged(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        log.append("run returned")
        return result

    def written(*args):
        summary = write(*args)
        log.append("outputs written")
        return summary

    monkeypatch.setattr(GlobalEvaluator, "__call__", counted)
    monkeypatch.setattr(SimulationEngine, "run", logged)
    monkeypatch.setattr(harness, "write_outputs", written)
    doc = small_doc(eval={"every": 3}, sim={"T": 10})
    assert cli.main(["run", "--config", write_cfg(tmp_path, doc), "--out",
                     str(tmp_path / "run")]) == 0
    returned = log.index("run returned")
    assert returned > 0 and log[returned:] == ["run returned", "outputs written"]
    summary = yaml.safe_load((tmp_path / "run" / "summary.yaml").read_text())
    assert summary["final_risk"] is not None


def test_cli_sweep_checks_every_cell_before_running_any(tmp_path, capsys):
    doc = small_doc(sim={"T": 5})
    doc["sweep"] = {"seeds": [1], "grid": {"mixing.beta_max": [0.9, 1.5]}}
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: sweep.grid.mixing.beta_max[1]: ")
    assert not out.exists()           # no cell directory, no sweep.yaml


def test_cli_sweep_names_the_grid_keys_of_a_bad_combination(tmp_path, capsys):
    doc = small_doc(sim={"T": 5})
    doc["sweep"] = {"grid": {"mixing.beta_min": [0.2, 0.8], "mixing.beta_max": [0.5]}}
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: "
                          "sweep.grid.mixing.beta_max[0], sweep.grid.mixing.beta_min[1]: ")
    assert not out.exists()


@pytest.mark.parametrize("sweep, key", [
    ({"seeds": 5}, "sweep.seeds"),
    ({"grid": [1, 2]}, "sweep.grid"),
    ({"grid": {"mixing.beta_max": 0.5}}, "sweep.grid.mixing.beta_max"),
    ({"seeds": ["x"]}, "sweep.seeds[0]: sim.seed"),
    ({"seeds": [1, -1], "grid": {"mixing.beta_max": [0.9]}}, "sweep.seeds[1]: sim.seed"),
])
def test_cli_sweep_refuses_malformed_sections(tmp_path, capsys, sweep, key):
    doc = small_doc(sim={"T": 5})
    doc["sweep"] = sweep
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {key}: ")
    assert not out.exists()


def test_cli_sweep_names_a_bad_seed_by_its_place_with_the_schema_message(tmp_path, capsys):
    doc = small_doc(sim={"T": 5})
    doc["sweep"] = {"seeds": [2, "x"]}
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: sweep.seeds[1]: sim.seed: expected a number, got 'x'\n")
    assert not out.exists()


def test_cli_sweep_needs_a_sweep_section(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_doc())
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "sweep" in capsys.readouterr().err


def test_cli_sweep_runs_a_repeated_value_as_a_cell_of_its_own(tmp_path):
    # each cell has its own directory, so a repeat overwrites nothing
    for case, sweep in enumerate([{"seeds": [1, 1]},
                                  {"seeds": [1], "grid": {"mixing.beta_max": [0.5, "0.5"]}}]):
        doc = small_doc(sim={"T": 5})
        doc["sweep"] = sweep
        out = tmp_path / f"sweep{case}"
        assert cli.main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["cell0", "cell1", "sweep.yaml"]
        assert (out / "cell0" / "metrics.csv").read_text() == (
            out / "cell1" / "metrics.csv").read_text()


def test_cli_sweep_writes_a_cell_with_a_path_in_its_label_directly_under_out(tmp_path,
                                                                           monkeypatch):
    # a cell directory named by its grid value, seed1_trace../../../t.csv,
    # once named out/../t.csv
    (tmp_path / "t.csv").write_text(
        "".join(f"{0.1 * (i + 1)}, 1.0, 0.0, 0.0, 1.0\n" for i in range(3)))
    work = tmp_path / "a" / "b" / "c"
    work.mkdir(parents=True)
    monkeypatch.chdir(work)
    doc = small_doc(arrivals={"kind": "trace"}, sim={"T": 5})
    doc["sweep"] = {"seeds": [1], "grid": {"arrivals.trace": ["../../../t.csv"]}}
    run = tmp_path / "run"
    out = run / "out"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["cell0", "sweep.yaml"]
    assert os.listdir(run) == ["out"]
    assert (out / "cell0" / "summary.yaml").exists()
    (row,) = yaml.safe_load((out / "sweep.yaml").read_text())
    assert (row["cell"], row["arrivals.trace"]) == ("cell0", "../../../t.csv")


def test_cli_sweep_runs_a_grid_value_too_long_for_a_file_name(tmp_path):
    # a cell directory that spelled this value passed the 255-byte name
    # limit and ended in a raw OSError
    doc = small_doc(topology={"categories": [{"count": 40, "speed": 1e7, "rate": 1e5}]},
                    sim={"T": 2})
    doc["sweep"] = {"grid": {"link.p_loss": [[0.125] * 40]}}
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["cell0", "sweep.yaml"]
    (row,) = yaml.safe_load((out / "sweep.yaml").read_text())
    assert row["link.p_loss"] == [0.125] * 40
    assert (out / "cell0" / "metrics.csv").exists()


def test_cli_sweep_row_holds_the_seed_the_cell_ran(tmp_path):
    # the row once read the sweep's seed, 1, for a cell the grid ran at seed 5
    doc = small_doc(sim={"T": 2})
    doc["sweep"] = {"seeds": [1], "grid": {"sim.seed": [5]}}
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    (row,) = yaml.safe_load((out / "sweep.yaml").read_text())
    assert (row["seed"], row["sim.seed"]) == (5, 5)
    assert yaml.safe_load((out / "cell0" / "summary.yaml").read_text())["seed"] == 5


def test_cli_sweep_seed_option_replaces_the_seeds_unchecked(tmp_path, capsys):
    doc = small_doc(sim={"T": 2})
    doc["sweep"] = {"seeds": [1, "x"]}
    out = tmp_path / "sweep"
    cfg = write_cfg(tmp_path, doc)
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--seed", "4"]) == 0
    (row,) = yaml.safe_load((out / "sweep.yaml").read_text())
    assert (row["cell"], row["seed"]) == ("cell0", 4)
    # a bad --seed is named as the option
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "x"), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "configuration error: --seed: sim.seed: must be >= 0\n"
    assert not (tmp_path / "x").exists()


def diverging_sweep_doc():
    """A sweep over p_loss of a lone coworker, which diverges at p_loss 0.75
    at the default step sizes: its uplinks keep dropping."""
    doc = {"model": {"dim": 3},
           "topology": {"categories": [{"count": 1, "speed": 1.0e+7, "rate": 1.0e+4}]},
           "data": {"shard_size": 16}, "buffer": {"capacity": 16, "minibatch": 8},
           "mixing": {"beta_min": 0.5, "beta_max": 1.0}, "sim": {"seed": 7, "T": 50}}
    doc["sweep"] = {"grid": {"link.p_loss": [0.0, 0.75, 0.1]}}
    return doc


def test_cli_sweep_records_a_failed_cell_and_runs_the_rest(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, diverging_sweep_doc()),
                     "--out", str(out)]) == 3
    assert sorted(os.listdir(out)) == ["cell0", "cell2", "sweep.yaml"]
    for cell in ("cell0", "cell2"):
        assert (out / cell / "metrics.csv").exists() and (out / cell / "summary.yaml").exists()
    first, failed, last = yaml.safe_load((out / "sweep.yaml").read_text())
    assert [row["link.p_loss"] for row in (first, failed, last)] == [0.0, 0.75, 0.1]
    assert (first["stop_reason"], last["stop_reason"]) == ("T_reached", "T_reached")
    error = failed.pop("error")
    assert error.startswith("coworker 0 diverged at virtual time ")
    assert failed == {"cell": "cell1", "seed": 7, "link.p_loss": 0.75,
                      "stop_reason": "NumericDivergenceError"}
    captured = capsys.readouterr()
    assert captured.err == f"cell1: NumericDivergenceError: {error}\n"
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["cell0", "cell2"]


def test_cli_sweep_index_holds_the_cells_that_finished(tmp_path, monkeypatch):
    # the index is rewritten after every cell, so a sweep stopped at the
    # second cell leaves the first one's row
    run = harness.run_experiment
    calls = []

    def interrupted(cfg):
        calls.append(cfg)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return run(cfg)

    monkeypatch.setattr(harness, "run_experiment", interrupted)
    out = tmp_path / "sweep"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["sweep", "--config", write_cfg(tmp_path, diverging_sweep_doc()),
                  "--out", str(out)])
    assert sorted(os.listdir(out)) == ["cell0", "sweep.yaml"]
    (row,) = yaml.safe_load((out / "sweep.yaml").read_text())
    assert (row["cell"], row["link.p_loss"], row["stop_reason"]) == ("cell0", 0.0, "T_reached")


def test_cli_sweep_writes_a_shared_grid_value_in_full_in_every_row(tmp_path):
    # both rows hold the one list the grid holds; YAML would write it once,
    # with an anchor, and then as an alias
    doc = small_doc(sim={"T": 5})
    doc["sweep"] = {"seeds": [1, 2], "grid": {"link.p_loss": [[0.0, 0.25]]}}
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    text = (out / "sweep.yaml").read_text()
    assert "&" not in text and "*" not in text
    assert [row["link.p_loss"] for row in yaml.safe_load(text)] == [[0.0, 0.25]] * 2


def test_cli_sweep_refuses_a_cell_directory_taken_by_a_file(tmp_path, capsys):
    doc = small_doc(sim={"T": 5})
    doc["sweep"] = {"seeds": [1], "grid": {"mixing.beta_max": [0.9, 0.5]}}
    out = tmp_path / "sweep"
    out.mkdir()
    taken = out / "cell1"
    taken.write_text("not a directory\n")
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: --out: {taken}: exists and is not a directory\n")
    # refused before the first cell ran
    assert os.listdir(out) == ["cell1"]
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("name", ["sweep.yaml", "sweep.yaml.tmp"])
def test_cli_sweep_refuses_an_index_path_taken_by_a_directory(tmp_path, capsys, name):
    # the index is written to sweep.yaml.tmp and moved onto sweep.yaml after
    # the first cell; a directory at either path is refused before any cell runs
    doc = small_doc(sim={"T": 5})
    doc["sweep"] = {"seeds": [1, 2]}
    out = tmp_path / "sweep"
    taken = out / name
    taken.mkdir(parents=True)
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: --out: {taken}: is a directory\n"
    assert os.listdir(out) == [name]
    assert os.listdir(taken) == []
