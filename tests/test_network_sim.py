"""Event engine: determinism, timing, losses, stalls, and broadcast semantics."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afafed import network_sim
from afafed.coworker import AdaptiveConfig
from afafed.errors import NumericDivergenceError
from afafed.harness import build_experiment, resolve_config
from afafed.model_core import (
    LossKind,
    LossModel,
    risk_arrays,
    stack_shards,
    uniform_weights,
)
from afafed.network_sim import (
    ArrivalProcess,
    CoworkerSetup,
    Evaluation,
    EventKind,
    EventQueue,
    LinkModel,
    SimulationEngine,
    random_streams,
)
from afafed.server import MixingConfig
from reference_evaluation import reference_global_gradient


def quad_shard(rng, n=12, d=2):
    w_true = rng.standard_normal(d)
    X, y = np.empty((n, d)), np.empty(n)
    for i in range(n):
        X[i] = rng.standard_normal(d)
        y[i] = X[i] @ w_true + 0.05 * rng.standard_normal()
    return X, y


def build_engine(
    k=1,
    seed=0,
    p_loss=0.0,
    speed=10.0,
    rate=100.0,
    payload_bits=10.0,
    arrivals=None,
    capacity=8,
    minibatch=4,
    iter_max=2,
    adaptive_kw=None,
    mixing_kw=None,
    timer_factor=3.0,
    w0=None,
    kind=LossKind.QUADRATIC,
    eval_every=0,
    observers=(),
    **engine_kw,
):
    """A small engine; an Evaluation every eval_every rows comes first, then observers."""
    rng = np.random.default_rng(seed + 999)
    model = LossModel(kind, 2)
    speeds = speed if isinstance(speed, (list, tuple)) else [speed] * k
    setups = []
    for cid in range(k):
        X, y = quad_shard(rng)
        if kind is LossKind.LOGISTIC:
            y = (y > 0.0).astype(np.float64)
        setups.append(CoworkerSetup(
            shard=(X, y),
            link=LinkModel(p_loss=p_loss, rate=rate, payload_bits=payload_bits,
                           timer_factor=timer_factor),
            iteration_duration=10.0 / speeds[cid],
            arrivals=arrivals or ArrivalProcess(kind="poisson", rate=20.0),
            capacity=capacity,
            minibatch=minibatch,
        ))
    adaptive = AdaptiveConfig(iter_max=iter_max, **(adaptive_kw or {}))
    mixing = MixingConfig(**(mixing_kw or {}))
    engine = SimulationEngine(model=model, setups=setups, adaptive=adaptive,
                              mixing=mixing, w0=np.zeros(2) if w0 is None else w0, seed=seed,
                              **engine_kw)
    if eval_every:
        engine.observers.append(Evaluation(engine, eval_every))
    engine.observers.extend(observers)
    return engine


def evaluation_of(engine):
    """The engine's one Evaluation observer."""
    (evaluation,) = [o for o in engine.observers if isinstance(o, Evaluation)]
    return evaluation


# ---------------- event queue ---------------- #


def test_event_queue_pops_ties_in_push_order_across_kinds():
    q = EventQueue()
    q.push(1.0, EventKind.TIMER_EXPIRY, 2, token=7)
    q.push(0.5, EventKind.UPLINK_DELIVERY, 0, payload="p")
    q.push(1.0, EventKind.DATA_ARRIVAL, 1)
    q.push(1.0, EventKind.CLUSTER_COMPLETE, 0, token=3)
    popped = [q.pop() for _ in range(4)]
    assert [(e.time, e.seq, e.kind) for e in popped] == [
        (0.5, 1, EventKind.UPLINK_DELIVERY),
        (1.0, 0, EventKind.TIMER_EXPIRY),
        (1.0, 2, EventKind.DATA_ARRIVAL),
        (1.0, 3, EventKind.CLUSTER_COMPLETE),
    ]
    assert q.pop() is None


def test_event_queue_peek_and_next_seq_track_pushes_and_pops():
    q = EventQueue()
    assert (q.peek_time(), q.next_seq, len(q)) == (None, 0, 0)
    q.push(2.0, EventKind.DATA_ARRIVAL, 0)
    q.push(1.5, EventKind.DOWNLINK_DELIVERY, 1)
    assert (q.peek_time(), q.next_seq, len(q)) == (1.5, 2, 2)
    q.pop()
    assert (q.peek_time(), q.next_seq, len(q)) == (2.0, 2, 1)
    q.pop()
    assert (q.peek_time(), q.next_seq, len(q)) == (None, 2, 0)
    q.push(0.0, EventKind.DATA_ARRIVAL, 0)
    assert q.pop().seq == 2


def test_popped_event_exposes_the_fields_handlers_read():
    q = EventQueue()
    payload = object()
    q.push(3.25, EventKind.DOWNLINK_DELIVERY, 4, payload=payload, token=9)
    q.push(4.0, EventKind.TIMER_EXPIRY, 1)
    ev = q.pop()
    assert (ev.time, ev.seq, ev.kind, ev.coworker, ev.token) == (
        3.25, 0, EventKind.DOWNLINK_DELIVERY, 4, 9)
    assert ev.payload is payload
    assert ev.kind.value == "downlink_delivery"
    ev = q.pop()
    assert (ev.payload, ev.token) == (None, -1)


# ---------------- determinism and termination ---------------- #


def rows_as_tuples(result):
    return [(r.t, r.time, r.sender, r.age, r.beta, r.lambda_checksum,
             r.fairness_index, r.global_risk, r.grad_sqnorm) for r in result.rows]


def test_identical_seeds_give_identical_traces():
    results = []
    finals = []
    for _ in range(2):
        eng = build_engine(k=3, seed=11, p_loss=0.1, eval_every=1)
        results.append(eng.run(aggregations=40))
        finals.append(eng.server.w_global.copy())
    assert rows_as_tuples(results[0]) == rows_as_tuples(results[1])
    np.testing.assert_array_equal(finals[0], finals[1])
    np.testing.assert_array_equal(results[0].accepted_by, results[1].accepted_by)
    assert results[0].events_processed == results[1].events_processed
    assert results[0].final_time == results[1].final_time


def test_different_seed_changes_trace():
    r1 = build_engine(k=2, seed=1, eval_every=1).run(aggregations=20)
    r2 = build_engine(k=2, seed=2, eval_every=1).run(aggregations=20)
    assert rows_as_tuples(r1) != rows_as_tuples(r2)


def test_profiling_is_observation_only():
    plain = build_engine(k=3, seed=5, eval_every=1)
    res_plain = plain.run(aggregations=30)
    profiled = build_engine(k=3, seed=5, eval_every=1, enable_profiling=True)
    res_prof = profiled.run(aggregations=30)
    profiled.run_profiling_epilogue()
    assert rows_as_tuples(res_plain) == rows_as_tuples(res_prof)
    np.testing.assert_array_equal(plain.server.w_global, profiled.server.w_global)
    assert res_prof.profiling_log.samples == 30


def test_single_aggregation_stop():
    res = build_engine(k=2, seed=3).run(aggregations=1)
    assert res.aggregations == 1
    assert len(res.rows) == 1
    assert res.rows[0].t == 1


def test_event_budget_stop():
    res = build_engine(k=2, seed=3).run(event_budget=50)
    assert res.events_processed <= 50


def test_horizon_stop_sets_final_time():
    res = build_engine(k=1, seed=3).run(horizon=2.5)
    assert res.final_time == 2.5
    for row in res.rows:
        assert row.time <= 2.5


def test_requires_a_stop_condition():
    with pytest.raises(ValueError):
        build_engine().run()


def test_empty_queue_terminates_cleanly():
    # two arrivals can never warm a four-example minibatch: no cluster starts,
    # the calendar drains, and the run ends with zero aggregations
    arrivals = ArrivalProcess(kind="trace", times=(0.1, 0.2))
    res = build_engine(k=1, arrivals=arrivals, capacity=8, minibatch=4).run(aggregations=5)
    assert res.aggregations == 0
    assert res.iterations_total == 0
    assert res.stall_events >= 1


def test_row_times_and_clock_are_monotone():
    res = build_engine(k=4, seed=7, p_loss=0.2, eval_every=1).run(aggregations=60)
    times = [r.time for r in res.rows]
    assert all(a <= b for a, b in zip(times, times[1:]))
    assert [r.t for r in res.rows] == list(range(1, 61))
    for r in res.rows:
        assert r.age >= 0
        assert 0.25 <= r.fairness_index <= 1.0 + 1e-12


# ---------------- timing arithmetic ---------------- #


def test_first_delivery_time_is_exact():
    # four periodic arrivals warm the buffer, one two-iteration cluster runs,
    # then the uplink delay lands the payload
    arrivals = ArrivalProcess(kind="periodic", interval=0.1)
    eng = build_engine(k=1, seed=0, arrivals=arrivals, capacity=4, minibatch=4,
                       iter_max=2, speed=10.0, rate=100.0, payload_bits=10.0)
    res = eng.run(aggregations=1)
    t = 0.0
    for _ in range(4):
        t += 0.1                      # replicate the engine's accumulation
    expected = t + 2 * (10.0 / 10.0) + 10.0 / 100.0
    assert res.rows[0].time == pytest.approx(expected, abs=1e-12)
    assert res.rows[0].age == 0
    assert res.rows[0].sender == 0


def test_first_gradient_row_is_at_the_initial_model():
    eng = build_engine(k=2, seed=9, eval_every=1)
    res = eng.run(aggregations=1)
    data = stack_shards([(rt.state.buffer.X, rt.state.buffer.y) for rt in eng.runtimes])
    g = reference_global_gradient(eng.model, np.zeros(2), data, uniform_weights(2))
    assert res.rows[0].grad_sqnorm == pytest.approx(float(g @ g), rel=1e-12)


def test_risk_rows_recompute_offline_for_single_coworker():
    wbars = []
    eng = build_engine(k=1, seed=13, eval_every=1, observers=[SimpleNamespace(
        on_aggregation=lambda engine, record: wbars.append(engine.server.w_global.copy()))])
    res = eng.run(aggregations=15)
    buf = eng.runtimes[0].state.buffer
    X, y = buf.X, buf.y
    assert len(wbars) == len(res.rows) == 15
    for row, wbar in zip(res.rows, wbars):
        direct = risk_arrays(eng.model, wbar, X, y)
        assert row.global_risk == pytest.approx(direct, rel=1e-12)


def _loss_grad_and_risk(kind, X, y, w):
    """Mean gradient and mean loss of one shard at w, from the textbook formulas."""
    z = X @ w
    if kind is LossKind.QUADRATIC:
        return X.T @ (z - y) / len(y), 0.5 * np.mean((z - y) ** 2)
    p = 1.0 / (1.0 + np.exp(-z))
    return X.T @ (p - y) / len(y), np.mean(np.logaddexp(0.0, z) - y * z)


@pytest.mark.parametrize("resumed", [False, True], ids=["one_run", "resumed"])
@pytest.mark.parametrize("every", [1, 2, 3])
@pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC],
                         ids=lambda kind: kind.value)
def test_eval_columns_straddle_the_aggregation(kind, every, resumed):
    # grad_sqnorm is taken before the aggregation, at the model the uplink
    # meets, with uniform weights; global_risk after it, at the new model,
    # with the coefficients the aggregation left; rows that are not due have
    # neither, and a second run() call picks up where the first stopped
    seen = []
    recorder = SimpleNamespace(on_aggregation=lambda engine, record: seen.append(
        (engine.server.w_global.copy(), engine.server.lambdas.copy())))
    eng = build_engine(k=3, seed=29, eval_every=every, speed=[10.0, 20.0, 40.0], kind=kind,
                       observers=[recorder])
    if resumed:
        assert eng.run(aggregations=7).aggregations == 7
    res = eng.run(aggregations=40)
    assert len(res.rows) == len(seen) == 40
    assert any(not np.allclose(lam, lam[0]) for _, lam in seen)   # lambda moved
    shards = [(rt.state.buffer.X, rt.state.buffer.y) for rt in eng.runtimes]
    w_before = np.zeros(2)
    for row, (w_after, lam) in zip(res.rows, seen):
        if row.t % every:
            assert row.grad_sqnorm is None and row.global_risk is None
        else:
            g = sum(_loss_grad_and_risk(kind, X, y, w_before)[0] for X, y in shards) / 3
            risk = sum(l * _loss_grad_and_risk(kind, X, y, w_after)[1]
                       for l, (X, y) in zip(lam, shards))
            assert row.grad_sqnorm == pytest.approx(float(g @ g), rel=1e-12)
            assert row.global_risk == pytest.approx(risk, rel=1e-12)
        w_before = w_after


def chunked_engine(monkeypatch, chunk, every, kind=LossKind.LOGISTIC):
    """An engine that evaluates in chunks of `chunk` models, with an observer
    after the Evaluation that records (w̄, λ), the evaluator's own values
    there and the pending count."""
    monkeypatch.setattr(network_sim, "_EVAL_CHUNK", chunk)
    seen = []

    def on_aggregation(engine, record):
        evaluation, server = evaluation_of(engine), engine.server
        assert len(evaluation._pending) < chunk       # a full chunk runs at once
        risk, g = evaluation.evaluator(server.w_global, server.lambdas, True)
        seen.append((server.w_global.copy(), server.lambdas.copy(), risk, float(g @ g),
                     len(evaluation._pending)))

    eng = build_engine(k=3, seed=29, eval_every=every, speed=[10.0, 20.0, 40.0], kind=kind,
                       observers=[SimpleNamespace(on_aggregation=on_aggregation)])
    return eng, seen


def assert_eval_columns(eng, every, seen):
    """Every row against the two-pass reference at the hook-recorded (w̄, λ),
    and bit for bit against the evaluator called right after its aggregation."""
    rows, kind = eng.rows, eng.model.kind
    assert len(rows) == len(seen)
    shards = [(rt.state.buffer.X, rt.state.buffer.y) for rt in eng.runtimes]
    w_before = np.zeros(2)
    g0 = evaluation_of(eng).evaluator(w_before, None, True)[1]
    grad_sq_before = float(g0 @ g0)
    for row, (w_after, lam, risk_now, grad_sq_now, _) in zip(rows, seen):
        if row.t % every:
            assert row.grad_sqnorm is None and row.global_risk is None
        else:
            g = sum(_loss_grad_and_risk(kind, X, y, w_before)[0] for X, y in shards) / 3
            risk = sum(l * _loss_grad_and_risk(kind, X, y, w_after)[1]
                       for l, (X, y) in zip(lam, shards))
            assert row.grad_sqnorm == pytest.approx(float(g @ g), rel=1e-12)
            assert row.global_risk == pytest.approx(risk, rel=1e-12)
            assert row.grad_sqnorm == grad_sq_before and row.global_risk == risk_now
        w_before, grad_sq_before = w_after, grad_sq_now


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("every", [1, 2, 3])
@pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC],
                         ids=lambda kind: kind.value)
def test_chunked_eval_columns_match_the_reference(monkeypatch, kind, every, chunk):
    # 40 aggregations are not a multiple of the chunk, so run() returns with
    # models pending and its final flush fills them
    eng, seen = chunked_engine(monkeypatch, chunk, every, kind)
    assert eng.run(aggregations=40).aggregations == 40
    assert_eval_columns(eng, every, seen)
    assert not evaluation_of(eng)._pending
    if chunk > 1:
        assert seen[-1][-1] > 0                 # the last aggregation left models pending


@pytest.mark.parametrize("every", [1, 2, 3])
def test_a_resumed_run_carries_the_pending_gradient(monkeypatch, every):
    # after the first run() every row is complete; a gradient evaluated for
    # row 8 waits for it and the second run() puts it there
    eng, seen = chunked_engine(monkeypatch, 3, every)
    eng.run(aggregations=7)
    assert all((row.global_risk is None) == bool(row.t % every) for row in eng.rows)
    assert (evaluation_of(eng)._next_grad_sq is not None) == (8 % every == 0)
    eng.run(aggregations=40)
    assert_eval_columns(eng, every, seen)


@pytest.mark.parametrize("stop", ["horizon", "budget"])
def test_a_stop_in_the_middle_of_a_chunk_leaves_no_row_pending(monkeypatch, stop):
    eng, seen = chunked_engine(monkeypatch, 3, 1)
    # budget 100 stops after 22 aggregations, with models pending
    limit = {"horizon": 1.0, "budget": 100}[stop]
    res = eng.run(horizon=limit) if stop == "horizon" else eng.run(event_budget=limit)
    assert res.stop_reason == stop and 0 < res.aggregations < 40
    assert seen[-1][-1] > 0                     # the last aggregation left models pending
    assert_eval_columns(eng, 1, seen)


def reference_stream(seed, domain, cid):
    """numpy's SeedSequence stream of one (domain, cid)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(domain, cid)))


def reference_state(seed, domain, cid):
    return reference_stream(seed, domain, cid).bit_generator.state


def test_random_streams_exist_only_for_laws_that_draw(monkeypatch):
    seeded = []

    def recording(seed, keys):
        seeded.append(list(keys))
        return random_streams(seed, keys)

    monkeypatch.setattr(network_sim, "random_streams", recording)
    periodic = ArrivalProcess(kind="periodic", interval=0.1)
    quiet = build_engine(k=3, seed=6, arrivals=periodic)
    noisy = build_engine(k=3, seed=6, p_loss=0.1)
    # the periodic law and the lossless link get no domain 2 or 1 stream
    assert seeded == [[(0, 0), (0, 1), (0, 2)],
                      [(d, cid) for d in (0, 1, 2) for cid in range(3)]]
    for cid, (q, n) in enumerate(zip(quiet.runtimes, noisy.runtimes)):
        assert q.rng_link is None
        assert q.rng_sample.bit_generator.state == reference_state(6, 0, cid)
        assert n.rng_sample.bit_generator.state == reference_state(6, 0, cid)
        assert n.rng_link.bit_generator.state == reference_state(6, 1, cid)
        # construction already scheduled each coworker's first Poisson
        # arrival: the first draw of its domain 2 stream, from time 0
        first_arrival = reference_stream(6, 2, cid).exponential(1.0 / 20.0)
        assert [ev.time for ev in noisy.queue._heap if ev.coworker == cid] == [first_arrival]
    assert not LinkModel().draws and not periodic.draws
    assert LinkModel(rate_jitter=0.1).draws and LinkModel(p_loss=0.1).draws
    assert ArrivalProcess(kind="poisson", rate=1.0).draws
    assert not ArrivalProcess(kind="trace", times=(1.0,)).draws
    # a link that does not draw needs no stream
    assert LinkModel(rate=50.0, payload_bits=10.0).uplink_attempt(None) == 0.2


def test_a_law_states_its_mean_rate():
    assert ArrivalProcess(kind="poisson", rate=20.0).mean_rate == 20.0
    for interval in (0.1, 0.3, 1.0e-300):
        mean_rate = ArrivalProcess(kind="periodic", interval=interval).mean_rate
        assert mean_rate.hex() == (1.0 / interval).hex()
    # a trace's arrivals are finite: it has no long-run rate
    assert ArrivalProcess(kind="trace", times=(0.0, 1.0)).mean_rate is None


def test_only_an_evaluating_engine_builds_the_evaluator_arrays():
    # its feature-major copy XT, with the logistic label signs s = 1 - 2y
    # folded into its columns, and its per-shard gradient weights
    for kind in (LossKind.QUADRATIC, LossKind.LOGISTIC):
        assert build_engine(k=2, kind=kind).observers == []
        engine = build_engine(k=2, eval_every=3, kind=kind)
        data, evaluator = engine.data, evaluation_of(engine).evaluator
        assert evaluator.data is data
        signs = 1.0 - 2.0 * data.y if kind is LossKind.LOGISTIC else 1.0
        np.testing.assert_array_equal(evaluator.XT, data.X.T * signs)
        np.testing.assert_array_equal(evaluator.shard_rho, 0.5 / np.array(data.sizes))
        assert "XT_rho" not in vars(evaluator)          # built by the first gradient call
        np.testing.assert_array_equal(evaluator.XT_rho, evaluator.XT * np.repeat(
            0.5 / np.array(data.sizes), data.sizes))
        assert not hasattr(evaluator, "signs")


def test_each_coworker_reads_its_rows_from_the_stacked_data():
    # a coworker's rows live once, as its buffer's views of engine.data; the
    # runtime keeps the link, arrival law and iteration time, not the setup
    exp = build_experiment(resolve_config({}))
    engine, data = exp.engine, exp.engine.data
    for rt, (X, y) in zip(engine.runtimes, data.views()):
        buf = rt.state.buffer
        assert not hasattr(rt, "setup")
        assert np.shares_memory(buf.X, data.X) and np.shares_memory(buf.y, data.y)
        assert buf.X.shape == X.shape and buf.X.ctypes.data == X.ctypes.data
        assert buf.y.shape == y.shape and buf.y.ctypes.data == y.ctypes.data
    cycles = exp.cfg["compute"]["cycles_per_iter"]
    speeds = [cat["speed"] for cat in exp.cfg["topology"]["categories"]
              for _ in range(cat["count"])]
    assert [rt.iteration_duration for rt in engine.runtimes] == [cycles / s for s in speeds]


@pytest.mark.parametrize("shape", [(3,), (2, 1)])
def test_w0_of_the_wrong_shape_is_refused_at_construction(shape):
    # the per-iteration gradient does not check shapes; construction does
    expected = rf"w0 has shape {re.escape(str(shape))}, expected \(2,\)"
    with pytest.raises(ValueError, match=expected):
        build_engine(w0=np.zeros(shape))


def test_eval_every_spacing():
    res = build_engine(k=1, seed=17, eval_every=5).run(aggregations=20)
    for row in res.rows:
        has_eval = row.global_risk is not None
        assert has_eval == (row.t % 5 == 0)
        assert (row.grad_sqnorm is not None) == has_eval


# ---------------- observers ---------------- #


class Recorder:
    """Logs every observer call; on stop, whether each due row has both columns."""

    def __init__(self, every=1):
        self.every, self.calls, self.complete_at_stop = every, [], []

    def on_iteration(self, cid, state):
        self.calls.append(("iteration", cid))

    def on_aggregation(self, engine, record):
        self.calls.append(("aggregation", record.t))

    def on_stop(self, engine):
        self.calls.append(("stop",))
        self.complete_at_stop.append(all(
            row.global_risk is not None and row.grad_sqnorm is not None
            for row in engine.rows if row.t % self.every == 0))


@pytest.mark.parametrize("stop, reason", [
    ({"aggregations": 12}, "T_reached"),
    ({"horizon": 1.5}, "horizon"),
    ({"event_budget": 70}, "budget"),
])
def test_on_stop_runs_once_per_run_after_every_due_row_is_filled(stop, reason):
    # chunks of 64 never fill here: every due row waits for the flush on stop
    recorder = Recorder(every=2)
    eng = build_engine(k=3, seed=5, p_loss=0.1, eval_every=2, observers=[recorder])
    for runs in (1, 2):
        res = eng.run(**{key: runs * limit for key, limit in stop.items()})
        assert res.stop_reason == reason
        assert recorder.calls.count(("stop",)) == runs and recorder.calls[-1] == ("stop",)
    assert recorder.complete_at_stop == [True, True] and 2 <= res.aggregations
    aggregations = [call[1] for call in recorder.calls if call[0] == "aggregation"]
    assert aggregations == list(range(1, res.aggregations + 1))


def test_on_stop_runs_once_when_the_calendar_drains():
    recorder = Recorder()
    arrivals = ArrivalProcess(kind="trace", times=(0.1, 0.2))
    eng = build_engine(k=1, arrivals=arrivals, eval_every=1, observers=[recorder])
    assert eng.run(aggregations=5).stop_reason == "drained"
    assert recorder.calls == [("stop",)] and recorder.complete_at_stop == [True]


def test_on_stop_runs_once_when_run_raises_with_every_due_row_filled():
    # a lone coworker that loses most uplinks diverges at the default eta_max
    cfg = resolve_config({
        "model": {"dim": 3},
        "topology": {"categories": [{"count": 1, "speed": 1e7, "rate": 1e4}]},
        "data": {"shard_size": 16}, "buffer": {"capacity": 16, "minibatch": 8},
        "link": {"p_loss": 0.75}, "mixing": {"beta_min": 0.5, "beta_max": 1.0},
        "eval": {"every": 1}, "sim": {"seed": 7, "T": 50},
    })
    engine = build_experiment(cfg).engine
    recorder = Recorder()
    engine.observers.append(recorder)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericDivergenceError):
        engine.run(aggregations=50)
    assert recorder.calls.count(("stop",)) == 1 and recorder.calls[-1] == ("stop",)
    assert 0 < len(engine.rows) < 50 and recorder.complete_at_stop == [True]


def test_an_iteration_observer_sees_the_iterations_run_after_the_stop():
    # at this T stop the engine admits the arrivals at the stopping instant
    # after the event loop, with the iterations before them
    doc = {
        "topology": {"categories": [{"count": 2, "speed": 4e7, "rate": 1792, "p_loss": 0.0},
                                    {"count": 2, "speed": 2e7, "rate": 1792, "p_loss": 0.0}]},
        "link": {"downlink_delay": 0.125, "payload_bits": 448},
        "arrivals": {"kind": "periodic", "interval": 0.25},
        "buffer": {"capacity": 8, "minibatch": 4}, "data": {"shard_size": 8},
        "eval": {"every": 0}, "sim": {"T": 37, "seed": 3},
    }
    engine = build_experiment(resolve_config(doc)).engine
    seen = []                   # events processed at each iteration, then "stop"
    engine.observers.append(SimpleNamespace(        # after construction
        on_iteration=lambda cid, state: seen.append(engine.events_processed),
        on_stop=lambda engine: seen.append("stop")))
    res = engine.run(aggregations=37)
    assert seen.index("stop") == len(seen) - 1 == res.iterations_total == 194
    # the last event is counted once its handler returns: four iterations
    # run after the event loop, and the observer sees each before on_stop
    assert seen[:-1].count(res.events_processed) == 4


def test_an_engine_without_observers_leaves_the_eval_columns_empty():
    eng = build_engine(k=2, seed=3)
    assert eng.observers == []
    res = eng.run(aggregations=10)
    assert all(r.global_risk is None and r.grad_sqnorm is None for r in res.rows)


@pytest.mark.parametrize("every", [1, 3])
def test_an_evaluation_attached_by_hand_matches_the_harness_path(every):
    doc = {"model": {"kind": "logistic"}, "sim": {"T": 40, "seed": 4}}
    exp = build_experiment(resolve_config({**doc, "eval": {"every": every}}))
    assert exp.engine.observers == [exp.evaluation]
    want = exp.engine.run(aggregations=40)
    engine = build_experiment(resolve_config({**doc, "eval": {"every": 0}})).engine
    engine.observers.append(Evaluation(engine, every))
    got = engine.run(aggregations=40)
    assert sum(r.global_risk is not None for r in got.rows) == 40 // every
    assert rows_as_tuples(got) == rows_as_tuples(want)


def test_an_aggregation_observer_receives_the_row_just_appended():
    seen = []

    def on_aggregation(engine, record):
        seen.append(record is engine.rows[-1] and len(engine.rows) == record.t)

    eng = build_engine(k=3, seed=5, p_loss=0.2, iter_max=3,
                       observers=[SimpleNamespace(on_aggregation=on_aggregation)])
    for runs in (1, 2):
        res = eng.run(aggregations=15 * runs)
        assert res.rows is eng.rows and len(seen) == len(res.rows) == 15 * runs
        assert all(seen)
        # the tallies are taken from the rows, over every run so far
        senders = [r.sender for r in res.rows]
        assert res.accepted_by.dtype == np.int64 and len(res.accepted_by) == 3
        assert res.accepted_by.tolist() == [senders.count(cid) for cid in range(3)]
        assert res.iters_per_acceptance == [r.iters for r in res.rows]
    assert res.rows[-1].lambda_checksum == float(np.arange(1, 4) @ eng.server.lambdas)


def test_the_engine_takes_no_evaluation_or_hook_arguments():
    setup = CoworkerSetup(shard=quad_shard(np.random.default_rng(0)), link=LinkModel(),
                          iteration_duration=1.0,
                          arrivals=ArrivalProcess(kind="periodic", interval=0.1),
                          capacity=8, minibatch=4)
    kwargs = dict(model=LossModel(LossKind.QUADRATIC, 2), setups=[setup],
                  adaptive=AdaptiveConfig(), mixing=MixingConfig(), w0=np.zeros(2), seed=0)
    for removed in ("eval_every", "iteration_hook", "aggregation_hook"):
        with pytest.raises(TypeError, match=removed):
            SimulationEngine(**kwargs, **{removed: 1})
    engine = SimulationEngine(**kwargs)
    for gone in ("evaluator", "eval_every", "_pending_evals", "_next_grad_sq",
                 "iteration_hook", "aggregation_hook"):
        assert not hasattr(engine, gone)
    with pytest.raises(ValueError, match="every must be at least 1, got 0"):
        Evaluation(engine, 0)


# ---------------- arrival processes ---------------- #


def test_periodic_arrival_count():
    arrivals = ArrivalProcess(kind="periodic", interval=1.0)
    eng = build_engine(k=1, arrivals=arrivals, capacity=4, minibatch=4)
    eng.run(horizon=10.25)
    assert eng.runtimes[0].state.buffer.next_arrival_index == 10


def test_poisson_arrival_count_confidence():
    # ~1e4 expected arrivals; the count concentrates within 4 sigma
    arrivals = ArrivalProcess(kind="poisson", rate=100.0)
    eng = build_engine(k=1, seed=23, arrivals=arrivals, capacity=4, minibatch=4,
                       speed=0.001)      # effectively no compute in the window
    eng.run(horizon=100.0)
    n = eng.runtimes[0].state.buffer.next_arrival_index
    assert abs(n - 10_000) <= 4 * np.sqrt(10_000)


def test_trace_arrivals_replay_exactly():
    times = (0.5, 0.75, 1.0, 2.0, 2.0, 3.5)
    arrivals = ArrivalProcess(kind="trace", times=times)
    eng = build_engine(k=1, arrivals=arrivals, capacity=4, minibatch=4)
    eng.run(horizon=10.0)
    assert eng.runtimes[0].state.buffer.next_arrival_index == len(times)
    # a horizon inside the trace admits only the earlier entries
    eng2 = build_engine(k=1, arrivals=arrivals, capacity=4, minibatch=4)
    eng2.run(horizon=1.9)
    assert eng2.runtimes[0].state.buffer.next_arrival_index == 3


@pytest.mark.parametrize("rate", [1e-6, 5.0, 1e6])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), cid=st.integers(0, 99))
def test_poisson_times_are_the_scalar_gap_recurrence(rate, seed, cid):
    # the times are t + exponential(1/rate) from numpy's stream of the same key
    rng = random_streams(seed, [(2, cid)])[0]
    law = ArrivalProcess(kind="poisson", rate=rate)
    got, t = [], 0.0
    for i in range(200):
        t = law.time_of(i, t, rng)
        got.append(t)
    ref, t, want = reference_stream(seed, 2, cid), 0.0, []
    for _ in got:
        t += ref.exponential(1.0 / rate)
        want.append(t)
    assert got == want
    # one draw per time taken, none ahead: the stream's next draw is the reference's
    assert rng.exponential(1.0 / rate) == ref.exponential(1.0 / rate)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(1e-3, 1e3))
@example(0.1)
@example(0.3)
def test_periodic_times_are_the_interval_recurrence(interval):
    law, got, t = ArrivalProcess(kind="periodic", interval=interval), [], 0.0
    for i in range(10_000):
        t = law.time_of(i, t, None)
        got.append(t)
    t, want = 0.0, []
    for _ in got:
        t += interval
        want.append(t)
    assert got == want
    assert math.frexp(got[0])[1] < math.frexp(got[-1])[1]     # the sums cross binades


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20).map(sorted))
def test_trace_times_are_its_own_then_inf_for_good(times):
    law, got, t = ArrivalProcess(kind="trace", times=tuple(times)), [], 0.0
    for i in range(len(times) + 3):
        t = law.time_of(i, t, None)
        got.append(t)
    assert got == times + [math.inf] * 3


def test_arrival_process_validation():
    with pytest.raises(ValueError):
        ArrivalProcess(kind="bogus")
    with pytest.raises(ValueError):
        ArrivalProcess(kind="poisson", rate=0.0)
    with pytest.raises(ValueError):
        ArrivalProcess(kind="periodic", interval=0.0)
    with pytest.raises(ValueError):
        ArrivalProcess(kind="trace", times=())
    with pytest.raises(ValueError):
        ArrivalProcess(kind="trace", times=(2.0, 1.0))


# ---------------- links and losses ---------------- #


def test_uplink_attempt_loss_free_and_total_loss():
    rng = np.random.default_rng(0)
    live = LinkModel(p_loss=0.0, rate=50.0, payload_bits=10.0)
    assert all(live.uplink_attempt(rng) == pytest.approx(0.2) for _ in range(100))
    dead = LinkModel(p_loss=1.0, rate=50.0, payload_bits=10.0)
    assert all(dead.uplink_attempt(rng) is None for _ in range(100))


def test_uplink_delivery_fraction_confidence():
    link = LinkModel(p_loss=0.25, rate=50.0, payload_bits=10.0)
    rng = np.random.default_rng(41)
    n = 10_000
    delivered = sum(link.uplink_attempt(rng) is not None for _ in range(n))
    assert abs(delivered / n - 0.75) <= 4 * np.sqrt(0.75 * 0.25 / n)


def test_rate_jitter_spreads_delays_around_the_mean():
    link = LinkModel(p_loss=0.0, rate=100.0, payload_bits=10.0, rate_jitter=0.5)
    rng = np.random.default_rng(43)
    delays = np.array([link.uplink_attempt(rng) for _ in range(2000)])
    base = 10.0 / 100.0
    assert delays.min() >= base / 1.5 - 1e-12
    assert delays.max() <= base / 0.5 + 1e-12
    assert delays.std() > 0.0


def test_total_loss_never_aggregates_but_keeps_computing():
    res = build_engine(k=1, seed=29, p_loss=1.0).run(event_budget=3000)
    assert res.aggregations == 0
    assert res.uplink_attempts > 1
    assert res.uplink_drops == res.uplink_attempts
    assert res.iterations_total > res.uplink_attempts  # clusters keep running


@pytest.mark.parametrize("kwargs, message", [
    (dict(p_loss=1.5), "p_loss must lie in"),
    (dict(rate=0.0), "^rate must be positive"),
    (dict(rate=math.nan), "^rate must be positive"),
    (dict(payload_bits=-5.0), "^payload_bits must be positive"),
    (dict(downlink_delay=-1.0), "downlink_delay must be non-negative"),
    (dict(rate_jitter=1.0), "rate_jitter must lie in"),
    # a negative factor would arm a timer in the engine's past
    (dict(timer_factor=0.0), "^timer_factor must be positive"),
    (dict(timer_factor=-1.0), "^timer_factor must be positive"),
])
def test_link_validation_names_the_field(kwargs, message):
    with pytest.raises(ValueError, match=message):
        LinkModel(**kwargs)


def test_the_timer_is_timer_factor_mean_round_trips():
    link = LinkModel(rate=3.0, payload_bits=7.0, downlink_delay=0.1, timer_factor=2.5)
    assert link.timer_duration == 2.5 * (7.0 / 3.0 + 0.1)
    assert LinkModel().timer_duration == 3.0 * (448.0 / 1e6)


@pytest.mark.parametrize("duration", [0.0, -1.0, math.nan])
def test_a_coworker_setup_needs_a_positive_iteration_duration(duration):
    with pytest.raises(ValueError, match="iteration_duration must be positive"):
        CoworkerSetup(shard=quad_shard(np.random.default_rng(0)), link=LinkModel(),
                      iteration_duration=duration,
                      arrivals=ArrivalProcess(kind="periodic", interval=0.1),
                      capacity=8, minibatch=4)


# ---------------- protocol semantics ---------------- #


def test_access_probabilities_form_a_distribution():
    res = build_engine(k=4, seed=31, p_loss=0.2).run(aggregations=80)
    total = res.accepted_by.sum()
    assert total == 80
    p = res.accepted_by / total
    assert p.sum() == pytest.approx(1.0)
    assert np.all(p > 0)


def test_starved_coworker_never_aggregates():
    # coworker 1 receives two examples and can never fill a minibatch
    rng = np.random.default_rng(999)
    model = LossModel(LossKind.QUADRATIC, 2)
    setups = []
    for cid in range(2):
        arrivals = (ArrivalProcess(kind="poisson", rate=20.0) if cid == 0
                    else ArrivalProcess(kind="trace", times=(0.1, 0.2)))
        setups.append(CoworkerSetup(
            shard=quad_shard(rng), link=LinkModel(rate=100.0, payload_bits=10.0),
            iteration_duration=1.0,
            arrivals=arrivals, capacity=8, minibatch=4,
        ))
    eng = SimulationEngine(model=model, setups=setups,
                           adaptive=AdaptiveConfig(iter_max=2),
                           mixing=MixingConfig(), w0=np.zeros(2), seed=31)
    res = eng.run(aggregations=25)
    assert res.aggregations == 25
    assert res.accepted_by[1] == 0
    assert res.stall_events >= 1
    assert eng.runtimes[1].state.t_local == 0


def test_midcluster_broadcast_applies_at_next_iteration_boundary():
    # a fast coworker triggers a coefficient broadcast while the slow one is
    # still inside its first cluster; the slow coworker's later iterations
    # must see the new coefficient without its cluster being aborted
    trace = []
    arrivals = ArrivalProcess(kind="trace", times=(0.0, 0.0, 0.0, 0.0))
    eng = build_engine(
        k=2, seed=37, speed=[10.0 / 0.12, 10.0], iter_max=10,
        arrivals=arrivals, capacity=4, minibatch=4,
        rate=1000.0, payload_bits=10.0,
        observers=[SimpleNamespace(
            on_iteration=lambda cid, st: trace.append((cid, st.t_local, st.lambda_last)))],
    )
    eng.run(horizon=11.0)
    slow_first_cluster = [lam for cid, t_local, lam in trace
                          if cid == 1 and t_local <= 10]
    assert len(slow_first_cluster) == 10
    assert slow_first_cluster[0] == 0.5
    assert any(lam != 0.5 for lam in slow_first_cluster)


def coefficient_timing_run(slow_downlink_delay):
    """Two coworkers on dyadic clocks; returns (lambda used per slow iteration, expected).

    The fast coworker runs two 0.25-long iterations and its uplink takes
    0.25, so the server first changes the coefficients at exactly 0.75.  The
    slow coworker's iterations end at 1.0 and 2.0.  The expected value for a
    boundary is the newest coefficient that arrived strictly before it.
    """
    rng = np.random.default_rng(59)
    setups = []
    for speed, delay in ((40.0, 0.0), (10.0, slow_downlink_delay)):
        setups.append(CoworkerSetup(
            shard=quad_shard(rng),
            link=LinkModel(rate=40.0, payload_bits=10.0, downlink_delay=delay),
            iteration_duration=10.0 / speed,
            arrivals=ArrivalProcess(kind="trace", times=(0.0, 0.0, 0.0, 0.0)),
            capacity=4, minibatch=4,
        ))
    used = []
    sent = []      # (arrival at the slow coworker, its coefficient)
    eng = SimulationEngine(
        model=LossModel(LossKind.QUADRATIC, 2), setups=setups,
        adaptive=AdaptiveConfig(iter_max=2), mixing=MixingConfig(), w0=np.zeros(2), seed=59,
    )
    eng.observers.append(SimpleNamespace(
        on_iteration=lambda cid, st: used.append(st.lambda_last) if cid == 1 else None,
        on_aggregation=lambda engine, rec: sent.append(
            (engine.now + slow_downlink_delay, float(engine.server.lambdas[1])))
        if rec.lambda_changed else None,
    ))
    eng.run(horizon=2.0)
    assert sent[0][0] == 0.75 + slow_downlink_delay

    def expected(boundary):
        return [lam for arrival, lam in sent if arrival < boundary][-1:] or [0.5]

    return used[:2], expected(1.0) + expected(2.0), sent[0][1]


def test_coefficient_arriving_on_an_iteration_boundary_is_not_used_by_it():
    # arrival 0.75 + 0.25 == boundary 1.0: that iteration keeps the old value
    used, expected, first = coefficient_timing_run(0.25)
    assert used == expected
    assert used[0] == 0.5 != first


def test_coefficient_arriving_before_an_iteration_boundary_is_used_by_it():
    # arrival 0.75 + 0.125 < boundary 1.0
    used, expected, first = coefficient_timing_run(0.125)
    assert used == expected
    assert used[0] == first != 0.5


def test_coefficient_change_reaches_events_queued_before_it_only_after_them():
    # the server changes the coefficients at 0.75 and they reach coworker 1
    # at once (no downlink delay); coworker 1's data arrival at 0.75 was
    # queued before that change, so in calendar order it comes first, and a
    # run stopped right after it must leave coworker 1 on the old value
    rng = np.random.default_rng(61)
    setups = []
    for speed, times in ((40.0, (0.0,) * 4), (10.0, (0.0,) * 4 + (0.6, 0.75))):
        setups.append(CoworkerSetup(
            shard=quad_shard(rng), link=LinkModel(rate=40.0, payload_bits=10.0),
            iteration_duration=10.0 / speed,
            arrivals=ArrivalProcess(kind="trace", times=times), capacity=4, minibatch=4,
        ))
    eng = SimulationEngine(model=LossModel(LossKind.QUADRATIC, 2), setups=setups,
                           adaptive=AdaptiveConfig(iter_max=2), mixing=MixingConfig(),
                           w0=np.zeros(2), seed=61)
    slow = eng.runtimes[1]
    budget = 0
    while slow.state.buffer.next_arrival_index < 6:
        budget += 1
        eng.run(event_budget=budget)
    assert eng.now == 0.75 and eng.server.t == 1
    assert eng.server.lambdas[1] != 0.5
    assert slow.state.lambda_last == 0.5
    eng.run(horizon=0.75)
    assert slow.state.lambda_last == eng.server.lambdas[1]


def test_first_uplink_with_positive_multiplier_boosts_sender():
    eng = build_engine(k=2, seed=41, iter_max=4)
    res = eng.run(aggregations=1)
    lam = eng.server.lambdas
    sender = int(np.argmax(res.accepted_by))
    assert lam[sender] > lam[1 - sender]
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("doc, fired, honoured", [
    # tests/test_golden_trace.py's lossy case
    ({"link": {"p_loss": 0.3, "rate_jitter": 0.2, "downlink_delay": 0.01}, "sim": {"T": 80}},
     119, 40),
    # a timer shorter than the round trip gives up on every uplink
    ({"link": {"timer_factor": 0.5}, "sim": {"T": 60}}, 60, 60),
])
def test_a_timer_is_honoured_exactly_when_no_cluster_started_since_it_was_armed(
        monkeypatch, doc, fired, honoured):
    calls = []
    expire = SimulationEngine._on_timer_expiry

    def counted(engine, ev):
        rt = engine.runtimes[ev.coworker]
        before, waiting = rt.cluster_token, rt.cluster_token > 0 and rt.iters_left == 0
        expire(engine, ev)
        calls.append((ev.token == before, rt.cluster_token - before, waiting))

    monkeypatch.setattr(SimulationEngine, "_on_timer_expiry", counted)
    build_experiment(resolve_config(doc)).engine.run(aggregations=doc["sim"]["T"])
    assert len(calls) == fired
    assert sum(started for _, started, _ in calls) == honoured
    # an honoured timer finds its coworker waiting and starts one cluster
    assert all(started == current and (not current or waiting)
               for current, started, waiting in calls)


def test_short_timer_races_are_survivable():
    # timers shorter than the uplink delay force expiry/downlink races;
    # the run must stay causal and keep aggregating
    res = build_engine(k=2, seed=43, timer_factor=0.5,
                       rate=10.0, payload_bits=10.0).run(aggregations=30)
    assert res.aggregations == 30
    times = [r.time for r in res.rows]
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_loss_free_ages_are_zero_for_single_coworker():
    res = build_engine(k=1, seed=47).run(aggregations=10)
    assert [r.age for r in res.rows] == [0] * 10


def test_engine_rejects_empty_setup():
    with pytest.raises(ValueError):
        SimulationEngine(model=LossModel(LossKind.QUADRATIC, 2), setups=[],
                         adaptive=AdaptiveConfig(), mixing=MixingConfig(),
                         w0=np.zeros(2), seed=0)


def test_epilogue_requires_profiling_enabled():
    eng = build_engine(k=1, seed=1)
    eng.run(aggregations=1)
    with pytest.raises(RuntimeError):
        eng.run_profiling_epilogue()


def test_epilogue_fills_per_coworker_stats(monkeypatch):
    eng = build_engine(k=3, seed=53, enable_profiling=True)
    eng.run(aggregations=30)
    drawn_from = []

    def sample_minibatch(buf, rng):
        drawn_from.append(rng.bit_generator.state)
        return real_sample_minibatch(buf, rng)

    real_sample_minibatch = network_sim.sample_minibatch
    monkeypatch.setattr(network_sim, "sample_minibatch", sample_minibatch)
    log = eng.run_profiling_epilogue()
    # each coworker's secant minibatch is the first draw of its (3, cid) stream
    assert drawn_from == [reference_state(53, 3, cid) for cid in range(3)]
    assert len(log.coworker_stats) == 3
    for f_first, f_last, zeta in log.coworker_stats:
        assert np.isfinite(f_first) and np.isfinite(f_last)
        if zeta is not None:
            assert zeta >= 0.0
    assert any(s[2] is not None for s in log.coworker_stats)
