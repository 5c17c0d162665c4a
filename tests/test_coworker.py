"""Coworker-side iteration rules and cluster orchestration.

A cluster runs the way the engine runs it, ``iter_k`` calls of
``run_single_iteration`` and then ``finalize_cluster``, and is checked bit
for bit against a scripted replay that spells out the documented rules;
the step rule inside one iteration is pinned to hand-computed values, with
the minibatch gradient fixed by the test.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from afafed import coworker
from afafed.coworker import (
    AdaptiveConfig,
    CoworkerState,
    finalize_cluster,
    handle_downlink,
    handle_fairness_broadcast,
    make_coworker,
    omega,
    run_single_iteration,
    update_iter_count,
    update_tolerance,
)
from afafed.errors import NumericDivergenceError, ProtocolError
from afafed.model_core import LossKind, LossModel, minibatch_gradient
from afafed.stream_manager import StreamBuffer, admit, sample_minibatch


def warm_buffer(shard, capacity=None, minibatch=None):
    X, y = shard
    capacity = capacity or len(y)
    minibatch = minibatch or max(1, capacity // 2)
    buf = StreamBuffer(X, y, capacity=capacity, minibatch_size=minibatch)
    for _ in range(len(y)):
        admit(buf)
    return buf


def make_shard(rng, n, d, offset=0.0):
    X, y = np.empty((n, d)), np.empty(n)
    for i in range(n):
        X[i] = rng.standard_normal(d)
        y[i] = rng.standard_normal() + offset
    return X, y


def cold_buffer(capacity, minibatch, d=1):
    return StreamBuffer(np.ones((1, d)), np.ones(1), capacity=capacity, minibatch_size=minibatch)


def run_cluster(state, cfg, model, rng):
    """One cluster on the engine's path: iter_k single iterations, then finalize."""
    for _ in range(state.iter_k):
        assert run_single_iteration(state, cfg, model, rng)
    return finalize_cluster(state, cfg)


def fresh_state(**kw):
    """A coworker at w = [1] with w_global_last = [0] and a buffer that is ready."""
    buffer = cold_buffer(capacity=2, minibatch=1)
    admit(buffer)
    defaults = dict(id=0, w=np.array([1.0]), buffer=buffer, w_global_last=np.array([0.0]))
    defaults.update(kw)
    return CoworkerState(**defaults)


def step(state, grad, cfg):
    """One run_single_iteration whose minibatch gradient is ``grad``.

    The iteration looks ``minibatch_gradient`` up on its module at call
    time (the benchmark tracer counts it there), so the step rule is pinned
    apart from the sampled data.
    """
    grad = np.array(grad, dtype=np.float64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coworker, "minibatch_gradient", lambda model, w, X, y: grad)
        return run_single_iteration(state, cfg, LossModel(LossKind.QUADRATIC, len(state.w)),
                                    np.random.default_rng(0))


def fixed(eta):
    """A config whose step sizes are both eta, whatever omega and the gradient are."""
    return AdaptiveConfig(eta_min=eta, eta_max=eta)


# ---------------- primal / dual hand values ---------------- #


def test_primal_step_hand_value():
    # bracket = 0.5*1 + 2*(1-0) = 2.5, step 0.1 -> decrement 0.25
    st = fresh_state(lambda_last=0.5, mu=2.0)
    assert step(st, [1.0], fixed(0.1))
    np.testing.assert_allclose(st.w, [0.75], rtol=0, atol=1e-15)


def test_primal_step_reduces_to_sgd_when_unconstrained():
    st = fresh_state(w=np.array([2.0, -1.0]), w_global_last=np.array([0.0, 0.0]),
                     lambda_last=1.0, mu=0.0)
    g = np.array([3.0, -4.0])
    assert step(st, g, fixed(0.1))
    np.testing.assert_array_equal(st.w, np.array([2.0, -1.0]) - 0.1 * g)


def test_primal_step_stationary_at_consensus():
    st = fresh_state(w=np.array([0.7]), w_global_last=np.array([0.7]), mu=5.0)
    assert step(st, np.zeros(1), fixed(0.3))
    np.testing.assert_array_equal(st.w, [0.7])


# every float, with the IEEE edge cases drawn often: signed zeros,
# subnormals, values near the ends of the range, infinities and NaN
EDGE_FLOATS = hst.one_of(
    hst.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    hst.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300,
                     1e300, -1e300, 1.7e308, math.inf, -math.inf, math.nan]),
)
# a step size AdaptiveConfig accepts as both eta_min and eta_max
STEP_SIZES = hst.one_of(
    hst.floats(min_value=0.0, exclude_min=True, allow_infinity=True, allow_subnormal=True),
    hst.sampled_from([5e-324, 2.2e-308, 1e-300, 1e300, 1.7e308, math.inf]),
)


@settings(max_examples=300, deadline=None)
@given(hst.integers(1, 8).flatmap(lambda d: hst.tuples(
    *[hst.lists(EDGE_FLOATS, min_size=d, max_size=d) for _ in range(3)])),
    STEP_SIZES, EDGE_FLOATS, EDGE_FLOATS)
# finite entries whose sum overflows: the model is still finite
@example(([1.7e308, 1.7e308], [0.0, 0.0], [0.0, 0.0]), 0.1, 1.0, 1.0)
def test_primal_step_on_floats_equals_the_vector_form_bit_for_bit(vectors, eta, lam, mu):
    w, grad, w_global = (np.array(v) for v in vectors)
    state = fresh_state(w=w, w_global_last=w_global, lambda_last=lam, mu=mu)
    with np.errstate(all="ignore"):
        try:
            step(state, grad, fixed(eta))
            diverged = False
        except NumericDivergenceError:
            diverged = True
        want = w - state.eta0 * (lam * grad + mu * (w - w_global))
    # eta0 is the configured step, unless the gradient norm is NaN
    assert state.eta0 == eta or math.isnan(state.eta0)
    assert state.w.dtype == np.float64 and state.w.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(state.w), nan)           # NaN payloads may differ
    assert np.array_equal(state.w.view(np.int64)[~nan], want.view(np.int64)[~nan])
    assert diverged == (not (np.isfinite(state.w).all() and math.isfinite(state.mu)))


def test_dual_step_with_tolerance():
    st = fresh_state(w=np.ones(3), w_global_last=np.zeros(3), mu=1.0, tolerance=1.0)
    # 1 + 0.5*(3-1) = 2
    assert step(st, np.zeros(3), fixed(0.5))
    assert st.mu == pytest.approx(2.0, abs=1e-15)
    st2 = fresh_state(w=np.ones(2), w_global_last=np.zeros(2), mu=0.8, tolerance=2.0)
    assert step(st2, np.zeros(2), fixed(0.4))
    assert st2.mu == 0.8   # zero violation, unchanged
    st3 = fresh_state(mu=0.0, tolerance=2.0)
    assert step(st3, np.zeros(1), fixed(0.4))
    assert st3.mu == 0.0   # projection holds at the floor


def test_dual_step_projection_fuzz():
    rng = np.random.default_rng(13)
    st = fresh_state(mu=0.0)
    for _ in range(500):
        cfg = fixed(float(rng.uniform(0.01, 0.5)))
        st.tolerance = float(rng.uniform(0.0, 2.0))
        st.w = np.array([math.sqrt(rng.uniform(0.0, 3.0))])     # dev_sq in [0, 3]
        assert step(st, np.zeros(1), cfg)
        assert st.mu >= 0.0


# ---------------- multiplier statistics ---------------- #


def at_consensus(**kw):
    """A fresh state with w = w_global_last and no tolerance: a step keeps mu."""
    return fresh_state(w=np.array([0.0]), **kw)


def test_mu_average_two_samples():
    st = at_consensus(mu=4.0)             # mu(0) = 0 already counted
    assert step(st, np.zeros(1), fixed(0.1))
    assert st.mu_bar == pytest.approx(2.0)   # (0 + 4) / 2
    assert st.mu_bar == st.mu_sum / (st.t_local + 1)


def test_mu_average_all_zero_and_constant():
    st = at_consensus()
    for _ in range(5):
        assert step(st, np.zeros(1), fixed(0.1))
    assert st.mu_bar == 0.0
    st2 = at_consensus(mu=3.0, mu_sum=3.0)
    for _ in range(5):
        assert step(st2, np.zeros(1), fixed(0.1))
        assert st2.mu_bar == pytest.approx(3.0)


def test_mu_average_exact_ratio_invariant():
    rng = np.random.default_rng(17)
    st = at_consensus()
    for _ in range(200):
        st.mu = float(rng.uniform(0, 10))
        assert step(st, np.zeros(1), fixed(0.1))
        assert st.mu_bar == st.mu_sum / (st.t_local + 1)


# ---------------- adaptation maps ---------------- #


def test_omega_values_and_clips():
    cfg = AdaptiveConfig(iter_max=30, omega_a=2.0, omega_c=1.0)
    assert omega(0.0, cfg) == 1.0
    assert omega(3.0, cfg) == pytest.approx(8.0, rel=1e-12)
    assert omega(1e6, cfg) == 30.0
    assert omega(1e308, cfg) == 30.0          # no overflow on huge averages
    with pytest.raises(ValueError):
        omega(-0.1, cfg)


def test_omega_monotone():
    cfg = AdaptiveConfig(iter_max=50, omega_a=1.7, omega_c=0.8)
    grid = np.linspace(0.0, 40.0, 200)
    vals = [omega(m, cfg) for m in grid]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    assert all(1.0 <= v <= 50.0 for v in vals)


def test_iter_count_values():
    cfg = AdaptiveConfig(iter_max=30, omega_a=2.0, omega_c=1.0)
    assert update_iter_count(0.0, cfg) == 30          # omega = 1
    assert update_iter_count(1e9, cfg) == 1           # omega at the cap
    cfg7 = AdaptiveConfig(iter_max=30, omega_a=7.0, omega_c=1.0)
    assert update_iter_count(1.0, cfg7) == 5          # ceil(30 / 7)


def test_tolerance_values():
    cfg = AdaptiveConfig(b0=1.0, gamma=0.1)
    assert update_tolerance(0.0, cfg) == 0.0
    assert update_tolerance(1024.0, cfg) == pytest.approx(2.0, rel=1e-12)
    cfg0 = AdaptiveConfig(b0=0.7, gamma=0.0)
    assert update_tolerance(0.0, cfg0) == 0.0          # vanishes at the origin
    assert update_tolerance(5.0, cfg0) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        update_tolerance(-1.0, cfg)


def test_an_overflowing_tolerance_is_unbounded_or_zero():
    # 2.0 ** 2000 leaves the float range: an unbounded tolerance, or none
    # when b0 is 0; the step sizes and the multiplier stay finite
    assert update_tolerance(2.0, AdaptiveConfig(b0=1.0, gamma=2000.0)) == math.inf
    assert update_tolerance(2.0, AdaptiveConfig(b0=0.0, gamma=2000.0)) == 0.0
    cfg = AdaptiveConfig(eta_min=0.01, eta_max=0.5)
    st = fresh_state(mu=3.0)              # dev_sq = 1
    st.tolerance = math.inf
    assert step(st, [0.1], cfg)
    assert st.eta1 == cfg.eta_max
    assert st.mu == 0.0


def test_an_overflowed_deviation_against_an_unbounded_tolerance_diverges():
    # diff.diff overflows to inf, so the violation is inf - inf: NaN.  The mu
    # clamp would make it 0 and hide it; the iteration reports a divergence
    st = fresh_state(w=np.array([1e200, 1e200]), w_global_last=np.zeros(2), mu=5.0,
                     tolerance=math.inf)
    with np.errstate(over="ignore"), pytest.raises(NumericDivergenceError):
        step(st, [0.0, 0.0], AdaptiveConfig())
    # a finite deviation under the same tolerance is a violation of -inf
    st = fresh_state(w=np.array([1e100, 1e100]), w_global_last=np.zeros(2), mu=5.0,
                     tolerance=math.inf)
    assert step(st, [0.0, 0.0], AdaptiveConfig())
    assert (st.mu, st.eta1) == (0.0, AdaptiveConfig().eta_max)


def test_step_sizes_hand_value_and_clips():
    cfg = AdaptiveConfig(iter_max=30, omega_a=2.0, omega_c=1.0,
                         eta_min=0.01, eta_max=0.5)

    def stepped(w, grad):
        st = fresh_state(w=np.array(w), w_global_last=np.zeros(len(w)), mu_bar=1.0)  # omega 2
        assert step(st, grad, cfg)
        return st

    st = stepped([0.2, 0.1], [0.03, 0.0])         # dev_sq = 0.05
    assert st.eta0 == pytest.approx(0.06, rel=1e-12)
    assert st.eta1 == pytest.approx(0.10, rel=1e-12)
    # the state keeps the step sizes the iteration stepped with
    np.testing.assert_array_equal(st.w, [0.2 - st.eta0 * 0.03, 0.1])
    assert st.mu == st.eta1 * float(np.dot([0.2, 0.1], [0.2, 0.1]))
    st = stepped([0.0], [0.0])
    assert st.eta0 == cfg.eta_min
    st = stepped([10.0], [100.0])                 # dev_sq = 100
    assert st.eta0 == cfg.eta_max and st.eta1 == cfg.eta_max


def test_step_sizes_always_clamped():
    cfg = AdaptiveConfig(iter_max=40, eta_min=0.02, eta_max=0.3)
    rng = np.random.default_rng(23)
    st = fresh_state()
    for _ in range(300):
        st.mu_bar = float(rng.uniform(0, 20))
        st.tolerance = float(rng.uniform(0, 3))
        g = rng.standard_normal(1) * rng.uniform(0, 50)
        st.w = np.array([math.sqrt(rng.uniform(0, 50))])     # dev_sq in [0, 50]
        assert step(st, g, cfg)
        assert cfg.eta_min <= st.eta0 <= cfg.eta_max
        assert cfg.eta_min <= st.eta1 <= cfg.eta_max


def test_adaptive_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(iter_max=0)
    with pytest.raises(ValueError):
        AdaptiveConfig(omega_a=1.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(omega_c=0.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(eta_min=0.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(eta_min=0.5, eta_max=0.1)
    with pytest.raises(ValueError):
        AdaptiveConfig(gamma=-0.1)


# ---------------- cluster orchestration ---------------- #


def scripted_cluster(state, cfg, model, rng):
    """Reference replay of one cluster, spelled out from the documented rules.

    It calls no library rule: the minibatch is gathered with ``% n`` and
    fancy indexing, the gradient is ``X.T @ r / m``, the norm is
    ``np.linalg.norm``, omega takes ``math.log`` on every call, the step
    sizes are clamped explicitly and the primal step recomputes
    ``w - w_global_last``.  Only the library's tanh form of the sigmoid is
    shared, so that the logistic residuals agree to the bit.
    """
    def omega_ref(mu_bar):
        exponent = cfg.omega_c * mu_bar * math.log(cfg.omega_a)
        if exponent >= math.log(cfg.iter_max):
            return float(cfg.iter_max)
        return max(1.0, math.exp(exponent))

    def clamp(x):
        return min(max(x, cfg.eta_min), cfg.eta_max)

    buf = state.buffer
    for _ in range(state.iter_k):
        assert buf.count >= buf.minibatch_size
        idx = rng.choice(buf.count, size=buf.minibatch_size, replace=False)
        rows = (idx + (buf.next_arrival_index - buf.count)) % len(buf.y)
        X, y = buf.X[rows], buf.y[rows]
        z = X @ state.w
        if model.kind is LossKind.QUADRATIC:
            r = z - y
        else:
            r = 0.5 * (1.0 + np.tanh(0.5 * z)) - y
        grad = (X.T @ r) / X.shape[0]
        diff = state.w - state.w_global_last
        dev_sq = float(diff @ diff)
        om = omega_ref(state.mu_bar)
        state.eta0 = clamp(om * float(np.linalg.norm(grad)))
        state.eta1 = clamp(om * abs(dev_sq - state.tolerance))
        state.w = state.w - state.eta0 * (
            state.lambda_last * grad + state.mu * (state.w - state.w_global_last))
        state.mu = max(0.0, state.mu + state.eta1 * (dev_sq - state.tolerance))
        state.t_local += 1
        state.mu_sum += state.mu
        state.mu_bar = state.mu_sum / (state.t_local + 1)      # mu(0) counts too
        if buf.count > buf.minibatch_size:
            buf.count -= 1
        state.last_grad = grad
    iters = state.iter_k
    state.tolerance = cfg.b0 * state.mu_bar**cfg.gamma if state.mu_bar > 0.0 else 0.0
    payload = dict(w=state.w.copy(), mu_bar=state.mu_bar,
                   timestamp=state.timestamp, iters=iters)
    state.iter_k = max(1, math.ceil(cfg.iter_max / omega_ref(state.mu_bar)))
    return payload


REPLAY_CFG = AdaptiveConfig(iter_max=6, omega_a=1.8, omega_c=0.7, b0=0.4, gamma=0.3,
                            eta_min=0.01, eta_max=0.2)


def replay_clusters(kind, d, n, capacity, minibatch, admitted, lambda_last, mu, tolerance,
                    downlink, rounds, refill, seed):
    """Run ``rounds`` clusters on the engine's path and on the scripted
    replay from equal states, and assert after each that both agree bit for
    bit; returns the engine-path state.

    The buffer holds ``capacity`` slots over an n-row shard after
    ``admitted`` arrivals (more than n wraps the window), and ``refill``
    arrivals are admitted to both buffers between rounds.
    """
    cfg = REPLAY_CFG
    model = LossModel(kind, d)
    data_rng = np.random.default_rng(seed)
    X = data_rng.standard_normal((n, d))
    y = (data_rng.random(n) < 0.5).astype(float) if kind is LossKind.LOGISTIC \
        else data_rng.standard_normal(n)
    w_global = data_rng.standard_normal(d)
    states = []
    for _ in range(2):
        buf = StreamBuffer(X, y, capacity=capacity, minibatch_size=minibatch)
        for _ in range(admitted):
            admit(buf)
        st = make_coworker(0, np.zeros(d), buf, 1.0, cfg)
        handle_fairness_broadcast(st, lambda_last)
        st.mu, st.tolerance = mu, tolerance
        if downlink:
            handle_downlink(st, w_global, stamp=5)
        states.append(st)
    st_a, st_b = states
    for round_idx in range(rounds):
        rng_a, rng_b = (np.random.default_rng(100 + round_idx) for _ in range(2))
        payload = run_cluster(st_a, cfg, model, rng_a)
        ref = scripted_cluster(st_b, cfg, model, rng_b)
        np.testing.assert_array_equal(st_a.w, st_b.w)
        np.testing.assert_array_equal(st_a.last_grad, st_b.last_grad)
        np.testing.assert_array_equal(payload.w, ref["w"])
        assert payload.mu_bar == ref["mu_bar"]
        assert payload.timestamp == ref["timestamp"]
        assert payload.iters_in_cluster == ref["iters"]
        assert (st_a.mu, st_a.mu_sum, st_a.mu_bar) == (st_b.mu, st_b.mu_sum, st_b.mu_bar)
        assert (st_a.eta0, st_a.eta1) == (st_b.eta0, st_b.eta1)
        assert st_a.t_local == st_b.t_local
        assert st_a.tolerance == st_b.tolerance
        assert st_a.iter_k == st_b.iter_k
        assert st_a.buffer.count == st_b.buffer.count
        # both sampling streams drew the same numbers
        assert rng_a.random() == rng_b.random()
        for _ in range(refill):
            admit(st_a.buffer)
            admit(st_b.buffer)
    return st_a


@hst.composite
def replay_settings(draw):
    n = draw(hst.integers(1, 12))
    capacity = draw(hst.integers(1, 12))
    minibatch = draw(hst.integers(1, capacity))
    return dict(
        kind=draw(hst.sampled_from(LossKind)),
        d=draw(hst.integers(1, 6)),
        n=n,
        capacity=capacity,
        minibatch=minibatch,
        # at least a minibatch, and up to three passes over the shard: the window wraps
        admitted=draw(hst.integers(minibatch, max(minibatch, 3 * n))),
        lambda_last=draw(hst.floats(0.0, 1.0)),
        mu=draw(hst.floats(0.0, 2.0)),
        tolerance=draw(hst.floats(0.0, 2.0)),
        downlink=draw(hst.booleans()),
        rounds=draw(hst.integers(1, 4)),
        refill=draw(hst.integers(0, 5)),
        seed=draw(hst.integers(0, 2**32 - 1)),
    )


# the settings of the eight hand-picked cases this property replaced; the
# proximity-pull test below still runs each of them
OLD_REPLAY = dict(d=3, n=9, capacity=8, minibatch=4, admitted=21, mu=0.0, tolerance=0.0,
                  rounds=4, refill=5, seed=31)


@settings(max_examples=150, deadline=None)
@given(replay_settings())
def test_cluster_equals_scripted_replay(setting):
    replay_clusters(**setting)


@pytest.mark.parametrize("kind", LossKind)
@pytest.mark.parametrize("lambda_last", [1.0, 0.37])
@pytest.mark.parametrize("downlink", [False, True])
def test_the_scripted_replay_exercises_the_proximity_pull(kind, lambda_last, downlink):
    st = replay_clusters(kind=kind, lambda_last=lambda_last, downlink=downlink, **OLD_REPLAY)
    assert st.buffer.next_arrival_index > 9          # the window wrapped
    assert st.mu > 0.0


def build_state(seed, iter_max=6):
    cfg = AdaptiveConfig(iter_max=iter_max, eta_min=0.01, eta_max=0.2)
    model = LossModel(LossKind.QUADRATIC, 3)
    buf = warm_buffer(make_shard(np.random.default_rng(seed), 20, 3), capacity=20, minibatch=6)
    return cfg, model, make_coworker(0, np.zeros(3), buf, 1.0, cfg)


def test_single_iteration_cluster_advances_clock_by_one():
    cfg = AdaptiveConfig(iter_max=1)
    model = LossModel(LossKind.QUADRATIC, 2)
    rng = np.random.default_rng(37)
    buf = warm_buffer(make_shard(rng, 8, 2), capacity=8, minibatch=4)
    st = make_coworker(3, np.zeros(2), buf, 1.0, cfg)
    st.timestamp = 7
    payload = run_cluster(st, cfg, model, rng)
    assert st.t_local == 1
    assert payload.sender == 3
    assert payload.iters_in_cluster == 1
    assert payload.timestamp == 7


def test_clock_advances_by_iter_k_per_cluster():
    cfg, model, st = build_state(41, iter_max=5)
    rng = np.random.default_rng(5)
    total = 0
    for _ in range(6):
        planned = st.iter_k
        payload = run_cluster(st, cfg, model, rng)
        total += payload.iters_in_cluster
        assert payload.iters_in_cluster == planned
        assert st.t_local == total
        while st.buffer.count < 20:
            admit(st.buffer)
        assert 1 <= st.iter_k <= cfg.iter_max


def test_cluster_refuses_cold_buffer():
    cfg = AdaptiveConfig(iter_max=3)
    model = LossModel(LossKind.QUADRATIC, 1)
    buf = cold_buffer(capacity=4, minibatch=3)
    admit(buf)
    st = make_coworker(0, np.zeros(1), buf, 1.0, cfg)
    before = (st.t_local, st.iter_k, st.mu)
    # the engine starts no cluster on a cold buffer, and its first
    # iteration refuses without drawing from the sampling stream
    assert not buf.ready
    rng = np.random.default_rng(0)
    assert run_single_iteration(st, cfg, model, rng) is False
    assert (st.t_local, st.iter_k, st.mu) == before
    assert rng.random() == np.random.default_rng(0).random()


def test_payload_is_isolated_from_later_mutation():
    cfg, model, st = build_state(43)
    payload = run_cluster(st, cfg, model, np.random.default_rng(1))
    snapshot = payload.w.copy()
    st.w += 100.0
    np.testing.assert_array_equal(payload.w, snapshot)


def test_not_ready_single_iteration_leaves_state_untouched():
    cfg = AdaptiveConfig(iter_max=2)
    model = LossModel(LossKind.QUADRATIC, 1)
    buf = cold_buffer(capacity=4, minibatch=2)
    admit(buf)
    st = make_coworker(0, np.zeros(1), buf, 1.0, cfg)
    w0, mu0, t0 = st.w.copy(), st.mu, st.t_local
    assert run_single_iteration(st, cfg, model, np.random.default_rng(0)) is False
    np.testing.assert_array_equal(st.w, w0)
    assert (st.mu, st.t_local) == (mu0, t0)


# ---------------- feedback handlers ---------------- #


def test_downlink_resets_model_and_disarms_timer():
    st = fresh_state(w=np.array([5.0]), mu=1.5)
    incoming = np.array([2.0])
    handle_downlink(st, incoming, stamp=11)
    assert st.timestamp == 11
    assert np.linalg.norm(st.w - st.w_global_last) == 0.0
    np.testing.assert_array_equal(st.w, [2.0])
    assert st.mu == 1.5                      # multipliers survive a reset
    incoming[0] = 99.0                       # caller's array is not aliased
    np.testing.assert_array_equal(st.w, [2.0])


def test_fairness_broadcast_bounds():
    st = fresh_state()
    handle_fairness_broadcast(st, 0.25)
    assert st.lambda_last == 0.25
    handle_fairness_broadcast(st, 0.0)
    handle_fairness_broadcast(st, 1.0)
    with pytest.raises(ProtocolError):
        handle_fairness_broadcast(st, -0.01)
    with pytest.raises(ProtocolError):
        handle_fairness_broadcast(st, 1.01)


def test_zero_coefficient_leaves_only_proximity_pull():
    st = fresh_state(w=np.array([3.0]), w_global_last=np.array([1.0]), mu=2.0)
    handle_fairness_broadcast(st, 0.0)
    assert step(st, [1000.0], fixed(0.25))           # gradient ignored
    np.testing.assert_allclose(st.w, [3.0 - 0.25 * 2.0 * 2.0])


# ---------------- reference trajectories ---------------- #


def test_trajectory_equals_plain_sgd_under_degenerate_settings():
    # one-iteration clusters, unit coefficient, fixed step, and an immediate
    # model echo after every cluster collapse the loop to textbook SGD
    h = 0.05
    cfg = AdaptiveConfig(iter_max=1, eta_min=h, eta_max=h)
    model = LossModel(LossKind.QUADRATIC, 2)
    shard = make_shard(np.random.default_rng(71), 6, 2)
    buf = warm_buffer(shard, capacity=6, minibatch=6)
    ref_buf = warm_buffer(shard, capacity=6, minibatch=6)
    st = make_coworker(0, np.zeros(2), buf, 1.0, cfg)
    rng = np.random.default_rng(72)
    ref_rng = np.random.default_rng(72)
    w_ref = np.zeros(2)
    for step in range(200):
        assert run_single_iteration(st, cfg, model, rng)
        finalize_cluster(st, cfg)
        handle_downlink(st, st.w, stamp=step + 1)
        batch = sample_minibatch(ref_buf, ref_rng)
        w_ref = w_ref - h * minibatch_gradient(model, w_ref, *batch)
        np.testing.assert_array_equal(st.w, w_ref)
        assert st.mu == 0.0


def test_complementary_slackness_time_average():
    # on a stationary convex problem the signed average of mu*(dev^2 - B)
    # fades relative to its own transient peak
    rng = np.random.default_rng(9)
    model = LossModel(LossKind.QUADRATIC, 2)
    cfg = AdaptiveConfig(iter_max=10, b0=0.5, gamma=0.5, eta_min=0.01, eta_max=0.2)
    shard = make_shard(rng, 16, 2, offset=2.0)
    buf = warm_buffer(shard, capacity=16, minibatch=8)
    st = make_coworker(0, np.zeros(2), buf, 1.0, cfg)
    products = []
    for _ in range(600):
        for _ in range(st.iter_k):
            diff = st.w - st.w_global_last
            dev_sq = float(diff @ diff)
            tol = st.tolerance
            assert run_single_iteration(st, cfg, model, rng)
            products.append(st.mu * (dev_sq - tol))
            while st.buffer.count < 16:
                admit(st.buffer)
        finalize_cluster(st, cfg)
    products = np.asarray(products)
    peak = np.abs(products).max()
    tail = products[len(products) // 2:]
    assert abs(tail.mean()) <= 0.05 * peak


def test_huge_but_finite_model_is_not_a_divergence():
    # w.w overflows to inf although every entry is finite: the finiteness
    # check must fall back to the entries and let the iteration stand
    cfg = AdaptiveConfig(iter_max=1, eta_min=1e-3, eta_max=1e-3)
    model = LossModel(LossKind.QUADRATIC, 2)
    buf = warm_buffer((np.full((4, 2), 1e-3), np.zeros(4)), capacity=4, minibatch=2)
    st = make_coworker(0, np.full(2, 1e200), buf, 1.0, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_single_iteration(st, cfg, model, np.random.default_rng(0))
        assert np.isfinite(st.w).all() and st.w[0] > 1e199
        st.w_global_last = np.full(2, -np.inf)    # the deviation diverges the multiplier
        with pytest.raises(NumericDivergenceError):
            run_single_iteration(st, cfg, model, np.random.default_rng(0))
