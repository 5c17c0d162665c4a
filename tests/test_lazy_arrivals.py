"""Lazy arrival admission against a calendar of arrival events.

Once a coworker's buffer is ready, the engine admits its data arrivals
inside the catch-up instead of as calendar events.  ``CalendarEngine`` keeps
every arrival an event and runs every iteration in a catch-up, as the engine
did before it had either lazy arrivals or rounds.  The differential test
runs the engine, with rounds of any size, against it over small configs
built for exact time ties: every duration lies
on a 1/8 grid, and so do trace arrival times and most periodic intervals.
The periodic intervals 0.1 and 0.3 are not dyadic: their sums round, and
cross binades within a run.  At rate 32 about three in ten Poisson
coworkers admit more than 64 arrivals in a run.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afafed
from afafed import harness, network_sim
from afafed.coworker import AdaptiveConfig
from afafed.harness import resolve_config, run_experiment
from afafed.model_core import LossKind, LossModel
from afafed.network_sim import (
    ArrivalProcess,
    CoworkerSetup,
    Evaluation,
    EventKind,
    LinkModel,
    SimulationEngine,
)
from afafed.server import MixingConfig


class CalendarEngine(SimulationEngine):
    """The engine with every data arrival a calendar event, warm buffer or not,
    and no rounds: every iteration runs in a catch-up."""

    def _schedule_next_arrival(self, cid, previous):
        rt = self.runtimes[cid]
        t = rt.law.time_of(rt.state.buffer.next_arrival_index, previous, rt.rng_arrival)
        if t < math.inf:
            self.queue.push(t, EventKind.DATA_ARRIVAL, cid)

    def _advance(self, now, seq):
        pass


GRID = 0.125


def on_grid(lo, hi):
    return st.integers(lo, hi).map(lambda m: m * GRID)


@st.composite
def arrival_laws(draw):
    kind = draw(st.sampled_from(["periodic", "trace", "poisson"]))
    if kind == "periodic":
        interval = draw(st.one_of(on_grid(1, 4), st.sampled_from([0.1, 0.3])))
        return ArrivalProcess(kind="periodic", interval=interval)
    if kind == "poisson":
        return ArrivalProcess(kind="poisson", rate=draw(st.sampled_from([2.0, 8.0, 32.0])))
    # repeated times are ties between a coworker's own arrivals
    times = draw(st.lists(on_grid(0, 48), min_size=1, max_size=40))
    return ArrivalProcess(kind="trace", times=tuple(sorted(times)))


@st.composite
def tie_configs(draw):
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    minibatch = draw(st.integers(1, 3))
    capacity = minibatch + draw(st.integers(0, 3))
    delay = draw(st.sampled_from([0.0, GRID]))
    setups = [
        CoworkerSetup(
            shard=(rng.standard_normal((6, 2)), rng.standard_normal(6)),
            # payload_bits / rate and the iteration duration are multiples of 1/8
            link=LinkModel(p_loss=draw(st.sampled_from([0.0, 0.25])), rate=8.0,
                           payload_bits=float(draw(st.integers(1, 4))), downlink_delay=delay),
            iteration_duration=float(draw(st.integers(1, 4))) / 8.0,
            arrivals=draw(arrival_laws()),
            capacity=capacity,
            minibatch=minibatch,
        )
        for _ in range(k)
    ]
    stop = draw(st.one_of(st.builds(dict, aggregations=st.integers(1, 30)),
                          st.builds(dict, horizon=on_grid(0, 64))))
    kwargs = dict(setups=setups, adaptive=AdaptiveConfig(iter_max=draw(st.integers(1, 3)),
                                                         eta_max=0.1),
                  seed=draw(st.integers(0, 3)))
    every = draw(st.integers(0, 2))         # evaluate every row, every other row, or none
    return kwargs, every, stop


def run(cls, kwargs, every, stop):
    engine = cls(model=LossModel(LossKind.QUADRATIC, 2), mixing=MixingConfig(), w0=np.zeros(2),
                 **kwargs)
    if every:
        engine.observers.append(Evaluation(engine, every))
    return engine, engine.run(**stop)


def pending_arrivals_at(engine, time):
    """Arrival events on the calendar at time."""
    return sum(ev.time == time and ev.kind is EventKind.DATA_ARRIVAL for ev in engine.queue._heap)


def rows(result):
    return [(r.t, r.time, r.sender, r.age, r.beta, r.lambda_checksum, r.fairness_index,
             r.global_risk, r.grad_sqnorm) for r in result.rows]


def post_run_state(engine):
    return [(rt.state.w.tolist(), rt.state.mu, rt.state.mu_bar, rt.state.lambda_last,
             rt.state.t_local, rt.state.buffer.next_arrival_index, rt.state.buffer.count)
            for rt in engine.runtimes]


def assert_same_run(lazy, got, calendar, want):
    assert rows(got) == rows(want)
    for name in ("aggregations", "uplink_attempts", "uplink_drops", "stall_events",
                 "iters_per_acceptance", "final_time", "stop_reason"):
        assert getattr(got, name) == getattr(want, name), name
    np.testing.assert_array_equal(got.accepted_by, want.accepted_by)
    # an arrival event at the instant of a T stop that the calendar never
    # reached counts as admitted by the lazy engine, with the iterations
    # before it (test_an_arrival_at_the_stopping_instant_counts_as_admitted)
    t_stop_tie = got.stop_reason == "T_reached" and (
        pending_arrivals_at(calendar, want.final_time) > pending_arrivals_at(lazy, got.final_time))
    if not t_stop_tie:
        assert got.iterations_total == want.iterations_total
        assert post_run_state(lazy) == post_run_state(calendar)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tie_configs(), st.integers(1, 20))
def test_lazy_admission_matches_a_calendar_of_arrival_events(config, more):
    kwargs, every, stop = config
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network_sim, "_ROUND_MIN", 1)
        lazy, got = run(SimulationEngine, kwargs, every, stop)
        calendar, want = run(CalendarEngine, kwargs, every, stop)
        assert_same_run(lazy, got, calendar, want)
        # a second run() resumes both engines from where they stopped
        resume = dict(aggregations=got.aggregations + more, horizon=got.final_time + 8.0)
        assert_same_run(lazy, lazy.run(**resume), calendar, calendar.run(**resume))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tie_configs(), st.integers(1, 20))
def test_a_coworker_stalls_only_while_its_buffer_warms_up(config, more):
    kwargs, every, stop = config
    engine, result = run(SimulationEngine, kwargs, every, stop)
    for result in (result, engine.run(aggregations=result.aggregations + more,
                                      horizon=result.final_time + 8.0)):
        assert result.stall_events == len(engine.runtimes)
        for rt in engine.runtimes:
            # a stalled coworker (token 0) has run nothing; it leaves the
            # stall with its first cluster, for good, once its buffer is ready
            if rt.cluster_token == 0:
                assert rt.state.t_local == 0 and rt.iters_left == 0
            else:
                assert rt.state.buffer.ready


# two fast and two slow coworkers on a 1/8 grid: the 37th aggregation lands
# at 21.0, the instant of every coworker's 84th periodic arrival
TIE_DOC = {
    "topology": {"categories": [{"count": 2, "speed": 4e7, "rate": 1792, "p_loss": 0.0},
                                {"count": 2, "speed": 2e7, "rate": 1792, "p_loss": 0.0}]},
    "link": {"downlink_delay": 0.125, "payload_bits": 448},
    "arrivals": {"kind": "periodic", "interval": 0.25},
    "buffer": {"capacity": 8, "minibatch": 4},
    "data": {"shard_size": 8},
    "eval": {"every": 0},
    "sim": {"T": 37, "seed": 3},
}


def test_an_arrival_at_the_stopping_instant_counts_as_admitted(monkeypatch):
    monkeypatch.setattr(network_sim, "_ROUND_MIN", 1)
    exp, result, _ = run_experiment(resolve_config(TIE_DOC))
    assert (result.stop_reason, result.final_time) == ("T_reached", 21.0)
    assert [rt.state.buffer.next_arrival_index for rt in exp.engine.runtimes] == [84] * 4
    assert [rt.state.t_local for rt in exp.engine.runtimes] == [62, 62, 35, 35]
    assert result.iterations_total == 194
    # the calendar stopped before its arrival events at 21.0, and before the
    # fast coworkers' iterations at that boundary
    monkeypatch.setattr(harness, "SimulationEngine", CalendarEngine)
    exp_cal, calendar, _ = run_experiment(resolve_config(TIE_DOC))
    assert rows(calendar) == rows(result)
    assert [rt.state.buffer.next_arrival_index for rt in exp_cal.engine.runtimes] == [83] * 4
    assert calendar.iterations_total == 192


def test_a_slow_link_run_ends_in_seconds(tmp_path):
    # a 448-bit payload on a link of 1e-300 bit/s puts the first aggregation
    # near virtual time 4.5e302, so each coworker, at 5 arrivals/s, has about
    # 2e303 arrivals to admit first; the timeout kills the child
    path = tmp_path / "cfg.yaml"
    path.write_text("topology: {categories: [{count: 2, speed: 5.0e+8, rate: 1.0e-300}]}\n"
                    "sim: {T: 2}\n")
    src = str(Path(afafed.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "afafed.cli", "run", "--config", str(path),
         "--out", str(tmp_path / "x")],
        capture_output=True, text=True, timeout=2,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode in (0, 2), proc.stderr
