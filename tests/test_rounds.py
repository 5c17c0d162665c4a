"""Lockstep rounds: many coworkers' due iterations as one vectorised step.

A ``coworker.Round`` must leave each member's state exactly as
``run_single_iteration`` would, bit for bit, whatever the round's size, the
member's place in it and the number of steps; the engine's rounds must
leave every run exactly as the lazy catch-ups alone would.  The engine
forms rounds only of ``network_sim._ROUND_MIN`` or more coworkers, which
the small configs here never reach, so most tests set it to 1.
"""

from __future__ import annotations

import copy
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afafed import coworker as cw
from afafed import network_sim
from afafed.errors import NumericDivergenceError
from afafed.harness import build_experiment, metrics_csv_text, resolve_config
from afafed.model_core import LossKind, LossModel
from afafed.stream_manager import StreamBuffer, admit, sample_positions
from test_golden_trace import CASES, GOLDEN, fingerprint

SHARD = 12          # rows per member's shard
ROLES = ("plain", "eta_min", "eta_max", "mu_clamped", "nan_violation", "diverging")


def _member(role, cid, d, m, kind, rng, cfg):
    """A coworker state of the given role over its own shard, ready to draw."""
    scale = {"eta_min": 1e-12, "eta_max": 1e3}.get(role, 1.0)
    X = rng.standard_normal((SHARD, d)) * scale
    y = (rng.integers(0, 2, SHARD).astype(float) if kind is LossKind.LOGISTIC
         else rng.standard_normal(SHARD) * scale)
    buf = StreamBuffer(X, y, capacity=m + 3, minibatch_size=m)
    for _ in range(int(rng.integers(m, m + 6))):
        admit(buf)
    state = cw.make_coworker(cid, np.zeros(d), buf, float(rng.random()), cfg)
    state.w = rng.standard_normal(d) * scale
    state.w_global_last = rng.standard_normal(d) * scale
    state.mu = float(rng.random())
    state.t_local = int(rng.integers(0, 5))
    state.mu_sum = state.mu * (state.t_local + 1)
    state.tolerance = float(rng.random())
    if role == "eta_min":
        state.w_global_last = state.w.copy()            # no deviation, no violation,
        state.tolerance = 0.0                           # a vanishing gradient
    elif role == "eta_max":
        state.w *= 1e-6                                 # large features, unsaturated scores
    elif role == "mu_clamped":
        state.w_global_last = state.w.copy()
        state.tolerance = 1e6                           # a large negative violation
    elif role == "nan_violation":
        state.w = np.full(d, 1e200)                     # diff.diff overflows to inf,
        state.w_global_last = np.zeros(d)
        state.tolerance = np.inf                        # and inf - inf is NaN
    elif role == "diverging":
        state.w = np.full(d, 1e308)
        state.mu = state.mu_sum = 1e308
    return state, X, y


def _fields(state):
    return (state.w.tobytes(), state.mu.hex(), state.mu_sum.hex(), state.eta0.hex(),
            state.eta1.hex(), state.t_local, state.lambda_last.hex(),
            state.last_grad.tobytes(), state.buffer.count, state.buffer.next_arrival_index,
            type(state.mu), type(state.mu_sum), type(state.t_local), type(state.eta0),
            type(state.eta1), state.w.shape)


def check_round_against_single_iterations(roles, d, m, kind, seed, steps=1):
    """Step a round of the given member roles ``steps`` times, as the engine
    does (a member whose step diverges leaves at once), and run the same
    members one iteration at a time.  Every state must match to the bit;
    returns the reference states and each member's error message or None."""
    rng = np.random.default_rng(seed)
    cfg = cw.AdaptiveConfig(iter_max=8, eta_min=0.01, eta_max=0.5)
    model = LossModel(kind, d)
    made = [_member(role, cid, d, m, kind, rng, cfg) for cid, role in enumerate(roles)]
    states = [state for state, _, _ in made]
    X = np.concatenate([X for _, X, _ in made])
    y = np.concatenate([y for _, _, y in made])
    reference = copy.deepcopy(states)
    streams = [np.random.default_rng([seed, i]) for i in range(len(states))]
    members = list(range(len(states)))         # the round's members, by state index
    rnd = cw.Round(states, cfg, model)
    errors = {}
    for step in range(steps):
        if not members:
            break
        rows = []
        for i in members:
            buf = states[i].buffer
            positions = sample_positions(buf, streams[i])
            rows.append((buf.next_arrival_index - buf.count + positions) % SHARD + i * SHARD)
        failed = rnd.step(np.array(rows), X, y, [0.5 + i + step for i in members])
        errors.update({members[k]: str(error) for k, error in failed.items()})
        rnd.drop(list(failed))
        members = [i for k, i in enumerate(members) if k not in failed]
    rnd.keep(0)
    messages = []
    for i, (state, ref) in enumerate(zip(states, reference)):
        rng_i, message = np.random.default_rng([seed, i]), None
        with np.errstate(all="ignore"):
            for step in range(steps):
                try:
                    cw.run_single_iteration(ref, cfg, model, rng_i, now=0.5 + i + step)
                except NumericDivergenceError as exc:
                    message = str(exc)
                    break
        assert _fields(state) == _fields(ref), (i, roles[i])
        assert errors.get(i) == message, (i, roles[i])
        messages.append(message)
    return reference, messages, cfg


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(ROLES[:4]), min_size=1, max_size=64),
       st.sampled_from(ROLES), st.integers(0, 63), st.integers(2, 7), st.integers(2, 6),
       st.sampled_from(list(LossKind)), st.integers(0, 2**16), st.integers(1, 3))
def test_a_round_equals_single_iterations_bit_for_bit(roles, extra, at, d, m, kind, seed, steps):
    # finite members of every kind, and one member of any role, a diverging
    # one included, at any place in a round of 1 to 64, for 1 to 3 steps
    roles = (roles[:at] + [extra] + roles[at:])[:64]
    reference, messages, cfg = check_round_against_single_iterations(
        roles, d, m, kind, seed, steps)
    for role, ref, message in zip(roles, reference, messages):
        if role == "eta_min" and steps == 1:
            assert ref.eta0 == cfg.eta_min and ref.eta1 == cfg.eta_min
        elif role == "eta_max" and steps == 1:
            assert ref.eta0 == cfg.eta_max
        elif role == "mu_clamped" and steps == 1:
            assert ref.mu == 0.0
        elif role == "nan_violation":
            assert message.endswith("non-finite constraint violation")
        elif role == "diverging":
            assert message is not None
        else:
            assert message is None


def test_each_step_size_clamp_and_error_occurs_in_one_round():
    roles = list(ROLES) * 4
    for kind in LossKind:
        reference, messages, cfg = check_round_against_single_iterations(
            roles, 5, 16, kind, seed=3)
        assert {ref.eta0 for ref in reference} >= {cfg.eta_min, cfg.eta_max}
        assert any(ref.mu == 0.0 for ref in reference)
        assert sum(message is not None for message in messages) >= 8


def test_twenty_steps_of_a_round_equal_twenty_single_iterations():
    for kind in LossKind:
        check_round_against_single_iterations(list(ROLES[:4]) * 9, 5, 16, kind, 7, steps=20)


def test_a_round_refuses_one_row_or_one_feature():
    cfg = cw.AdaptiveConfig()
    state, X, y = _member("plain", 0, 2, 2, LossKind.QUADRATIC, np.random.default_rng(0), cfg)
    with pytest.raises(ValueError, match="at least 2"):
        cw.Round([state], cfg, LossModel(LossKind.QUADRATIC, 2)).step(
            np.zeros((1, 1), dtype=int), X, y, [1.0])


CHILD_CHECK = """
import sys
sys.path[:0] = sys.argv[1:3]
import numpy as np
from afafed.model_core import LossKind
import test_rounds
rng = np.random.default_rng(11)
for trial in range(300):
    roles = [test_rounds.ROLES[i] for i in rng.integers(0, 6, int(rng.integers(1, 40)))]
    test_rounds.check_round_against_single_iterations(
        roles, int(rng.integers(2, 9)), int(rng.integers(2, 20)), list(LossKind)[trial % 2],
        trial, steps=int(rng.integers(1, 4)))
print("ok")
"""


def _dynamic_arch_x86_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (platform.machine().lower() in ("x86_64", "amd64")
            and "openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _dynamic_arch_x86_openblas(),
                    reason="OPENBLAS_CORETYPE picks a kernel only in an x86 DYNAMIC_ARCH "
                           "OpenBLAS build, and numpy's BLAS is not one")
@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_a_round_equals_single_iterations_under_other_openblas_kernels(core):
    # Prescott's dot product rounds by operand alignment, which the round's
    # dot-product operands must match; each child loads one kernel
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_CHECK, str(tests.parent / "src"), str(tests)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONWARNINGS": "error"})
    assert proc.returncode == 0 and proc.stdout.split() == ["ok"], proc.stderr[-2000:]


# ---------------- the engine's rounds ---------------- #


class CountingRounds:
    """Counts the steps of rounds and the iterations in them."""

    def __init__(self, monkeypatch):
        self.sizes = []
        real = cw.Round.step

        def counting(rnd, rows, *args):
            self.sizes.append(len(rows))
            return real(rnd, rows, *args)

        monkeypatch.setattr(cw.Round, "step", counting)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cases_keep_their_digests_with_rounds_of_any_size(name, monkeypatch):
    monkeypatch.setattr(network_sim, "_ROUND_MIN", 1)
    rounds = CountingRounds(monkeypatch)
    assert fingerprint(CASES[name]) == GOLDEN[name]
    assert rounds.sizes


def assert_the_index_is_exact(engine):
    """``_next_boundary`` holds each computing coworker's next boundary and
    inf for the rest, and ``_computing`` counts the finite ones."""
    want = [rt.cluster_anchor + (rt.state.iter_k + 1 - rt.iters_left) * rt.iteration_duration
            if rt.iters_left and rt.held is None else math.inf for rt in engine.runtimes]
    assert engine._next_boundary == want
    assert engine._computing == sum(b < math.inf for b in want)


def _run_state(engine):
    return [(rt.state.w.tobytes(), rt.state.mu, rt.state.mu_sum, rt.state.lambda_last,
             rt.state.t_local, rt.state.buffer.next_arrival_index, rt.state.buffer.count,
             None if rt.state.last_grad is None else rt.state.last_grad.tobytes(),
             rt.coef_cursor, rt.next_arrival, rt.iters_left)
            for rt in engine.runtimes]


@pytest.mark.parametrize("doc", [
    {"preset": "table_a1", "sim": {"T": 80}},
    {"preset": "table_a1", "model": {"kind": "logistic"},
     "link": {"p_loss": 0.3, "rate_jitter": 0.2, "downlink_delay": 0.01}, "sim": {"T": 80}},
], ids=["table_a1", "table_a1_logistic_lossy"])
def test_rounds_of_the_default_size_leave_every_output_as_the_catch_ups_do(doc, monkeypatch):
    # K = 100: rounds of _ROUND_MIN or more form at the default, and none
    # when the minimum is out of reach
    cfg = resolve_config(doc)
    rounds = CountingRounds(monkeypatch)
    runs = []
    for round_min in (network_sim._ROUND_MIN, 10**9):
        monkeypatch.setattr(network_sim, "_ROUND_MIN", round_min)
        rounds.sizes.clear()
        exp = build_experiment(cfg)
        result = exp.engine.run(aggregations=cfg["sim"]["T"])
        assert_the_index_is_exact(exp.engine)
        runs.append((metrics_csv_text(result.rows), result.iterations_total,
                     _run_state(exp.engine), len(exp.engine._coef_log)))
        if round_min < 10**9:
            assert rounds.sizes and min(rounds.sizes) >= round_min
        else:
            assert not rounds.sizes
    assert runs[0] == runs[1]


# K = 10 and step sizes pinned at 1.5 or 2: several coworkers diverge, some
# inside rounds.  Each message was pinned on the engine before rounds existed.
DIVERGING_MANY = {
    "model": {"dim": 3},
    "topology": {"categories": [{"count": 6, "speed": 1e7, "rate": 1e4},
                                {"count": 4, "speed": 0.5e7, "rate": 1e4}]},
    "data": {"shard_size": 16},
    "buffer": {"capacity": 16, "minibatch": 8},
    "link": {"p_loss": 0.3, "downlink_delay": 0.001},
    "sim": {"T": 400, "event_budget": 40000},
}


# the point of the raise, pinned with the message: the error's virtual
# time, the raising coworker's iteration count, the rows recorded and the
# calendar events processed
@pytest.mark.parametrize("seed, eta, message, time, t_local, rows, events, held", [
    (2, 1.5, "coworker 3 diverged at virtual time 26.8742: non-finite model vector",
     "0x1.adfc9223b3714p+4", 25, 31, 224, 4),
    (3, 2.0, "coworker 0 diverged at virtual time 30.7204: non-finite model vector",
     "0x1.eb86d4cee38bcp+4", 28, 23, 196, 2),
])
def test_a_run_with_diverging_rounds_fails_with_the_lazy_engines_error(
        seed, eta, message, time, t_local, rows, events, held, monkeypatch):
    monkeypatch.setattr(network_sim, "_ROUND_MIN", 1)
    cfg = resolve_config({**DIVERGING_MANY, "adaptive": {"iter_max": 12, "eta_min": eta,
                                                          "eta_max": eta},
                          "sim": {**DIVERGING_MANY["sim"], "seed": seed}})
    engine = build_experiment(cfg).engine
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericDivergenceError) as info:
        engine.run(aggregations=cfg["sim"]["T"], event_budget=cfg["sim"]["event_budget"])
    assert str(info.value) == message and info.value.time.hex() == time
    assert engine.runtimes[info.value.coworker].state.t_local == t_local
    assert (len(engine.rows), engine.events_processed) == (rows, events)
    # the rounds held that many errors, each at a boundary no catch-up reached
    # before the raise
    holders = [rt for rt in engine.runtimes if rt.held is not None]
    assert len(holders) == held
    assert all(str(rt.held).startswith(f"coworker {rt.state.id} diverged") for rt in holders)


def test_coworkers_of_several_downlink_delays_share_rounds(monkeypatch):
    # each delay has its own bound and arrival times; the runs with and
    # without rounds must not differ
    from afafed.coworker import AdaptiveConfig
    from afafed.network_sim import ArrivalProcess, CoworkerSetup, LinkModel, SimulationEngine
    from afafed.server import MixingConfig

    def run(round_min):
        monkeypatch.setattr(network_sim, "_ROUND_MIN", round_min)
        rng = np.random.default_rng(5)
        setups = [CoworkerSetup(shard=(rng.standard_normal((12, 3)), rng.standard_normal(12)),
                                link=LinkModel(p_loss=0.2, rate=100.0, payload_bits=10.0,
                                               downlink_delay=(0.0, 0.01, 0.04)[cid % 3]),
                                iteration_duration=0.01 * (1 + cid % 4),
                                arrivals=ArrivalProcess(kind="poisson", rate=40.0),
                                capacity=10, minibatch=4)
                  for cid in range(9)]
        engine = SimulationEngine(model=LossModel(LossKind.QUADRATIC, 3), setups=setups,
                                  adaptive=AdaptiveConfig(iter_max=6), mixing=MixingConfig(),
                                  w0=np.zeros(3), seed=3)
        result = engine.run(aggregations=80)
        assert_the_index_is_exact(engine)
        return metrics_csv_text(result.rows), _run_state(engine)

    rounds = CountingRounds(monkeypatch)
    with_rounds = run(1)
    assert rounds.sizes and max(rounds.sizes) >= 3
    assert with_rounds == run(10**9)
