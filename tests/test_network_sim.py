"""Event engine: determinism, timing, losses, stalls, and broadcast semantics."""

import re

import numpy as np
import pytest

from afafed.coworker import AdaptiveConfig
from afafed.errors import ProtocolError
from afafed.model_core import (
    LossKind,
    LossModel,
    global_gradient_arrays,
    global_risk_arrays,
    risk_arrays,
    stack_shards,
    uniform_weights,
)
from afafed.network_sim import (
    ArrivalProcess,
    ComputeModel,
    CoworkerSetup,
    EventKind,
    EventQueue,
    LinkModel,
    SimulationEngine,
)
from afafed.server import MixingConfig


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
    **engine_kw,
):
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
            link=LinkModel(p_loss=p_loss, rate=rate, payload_bits=payload_bits),
            compute=ComputeModel(speed=speeds[cid], cycles_per_iteration=10.0),
            arrivals=arrivals or ArrivalProcess(kind="poisson", rate=20.0),
            capacity=capacity,
            minibatch=minibatch,
        ))
    adaptive = AdaptiveConfig(iter_max=iter_max, **(adaptive_kw or {}))
    mixing = MixingConfig(**(mixing_kw or {}))
    return SimulationEngine(model=model, setups=setups, adaptive=adaptive,
                            mixing=mixing, w0=np.zeros(2) if w0 is None else w0, seed=seed,
                            timer_factor=timer_factor, **engine_kw)


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
    data = stack_shards([rt.setup.shard for rt in eng.runtimes])
    g = global_gradient_arrays(eng.model, np.zeros(2), data, uniform_weights(2))
    assert res.rows[0].grad_sqnorm == pytest.approx(float(g @ g), rel=1e-12)


def test_risk_rows_recompute_offline_for_single_coworker():
    wbars = []
    eng = build_engine(k=1, seed=13, eval_every=1,
                       aggregation_hook=lambda server, record: wbars.append(
                           server.w_global.copy()))
    res = eng.run(aggregations=15)
    X, y = eng.runtimes[0].setup.shard
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
    eng = build_engine(k=3, seed=29, eval_every=every, speed=[10.0, 20.0, 40.0], kind=kind,
                       aggregation_hook=lambda server, record: seen.append(
                           (server.w_global.copy(), server.lambdas.copy())))
    if resumed:
        assert eng.run(aggregations=7).aggregations == 7
    res = eng.run(aggregations=40)
    assert len(res.rows) == len(seen) == 40
    assert any(not np.allclose(lam, lam[0]) for _, lam in seen)   # lambda moved
    shards = [rt.setup.shard for rt in eng.runtimes]
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


def test_random_streams_exist_only_for_laws_that_draw():
    periodic = ArrivalProcess(kind="periodic", interval=0.1)
    quiet = build_engine(k=2, arrivals=periodic).runtimes
    assert all(rt.rng_link is None and rt.rng_arrival is None for rt in quiet)
    noisy = build_engine(k=2, p_loss=0.1).runtimes
    assert all(rt.rng_link is not None and rt.rng_arrival is not None for rt in noisy)
    assert not LinkModel().draws and not periodic.draws
    assert LinkModel(rate_jitter=0.1).draws and LinkModel(p_loss=0.1).draws
    assert ArrivalProcess(kind="poisson", rate=1.0).draws
    assert not ArrivalProcess(kind="trace", times=(1.0,)).draws
    # a link that does not draw needs no stream
    assert LinkModel(rate=50.0, payload_bits=10.0).uplink_attempt(None) == 0.2


def test_only_an_evaluating_engine_builds_the_feature_major_copy():
    assert build_engine(k=2, eval_every=0).data.XT is None
    data = build_engine(k=2, eval_every=3).data
    np.testing.assert_array_equal(data.XT, data.X.T)


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


def test_link_and_compute_validation():
    with pytest.raises(ValueError):
        LinkModel(p_loss=1.5)
    with pytest.raises(ValueError):
        LinkModel(rate=0.0)
    with pytest.raises(ValueError):
        LinkModel(downlink_delay=-1.0)
    with pytest.raises(ValueError):
        LinkModel(rate_jitter=1.0)
    with pytest.raises(ValueError):
        ComputeModel(speed=0.0, cycles_per_iteration=1.0)


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
            compute=ComputeModel(speed=10.0, cycles_per_iteration=10.0),
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
        iteration_hook=lambda cid, st: trace.append((cid, st.t_local, st.lambda_last)),
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
            compute=ComputeModel(speed=speed, cycles_per_iteration=10.0),
            arrivals=ArrivalProcess(kind="trace", times=(0.0, 0.0, 0.0, 0.0)),
            capacity=4, minibatch=4,
        ))
    used = []
    sent = []      # (arrival at the slow coworker, its coefficient)
    eng = SimulationEngine(
        model=LossModel(LossKind.QUADRATIC, 2), setups=setups,
        adaptive=AdaptiveConfig(iter_max=2), mixing=MixingConfig(), w0=np.zeros(2), seed=59,
        iteration_hook=lambda cid, st: used.append(st.lambda_last) if cid == 1 else None,
        aggregation_hook=lambda server, rec: sent.append(
            (eng.now + slow_downlink_delay, float(server.lambdas[1])))
        if rec.lambda_changed else None,
    )
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
            compute=ComputeModel(speed=speed, cycles_per_iteration=10.0),
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


def test_epilogue_fills_per_coworker_stats():
    eng = build_engine(k=3, seed=53, enable_profiling=True)
    eng.run(aggregations=30)
    log = eng.run_profiling_epilogue()
    assert len(log.coworker_stats) == 3
    for f_first, f_last, zeta in log.coworker_stats:
        assert np.isfinite(f_first) and np.isfinite(f_last)
        if zeta is not None:
            assert zeta >= 0.0
    assert any(s[2] is not None for s in log.coworker_stats)
