"""Server acceptance pass: statistics, dead band, coefficient scaling, mixing.

Every rule is checked through ``process_uplink``, the one acceptance pass,
from a crafted state: the running mean and spread are set through the sums
the state holds and the clock that divides them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from afafed.coworker import UplinkPayload
from afafed.errors import ProtocolError
from afafed.model_core import uniform_weights
from afafed.server import (
    AggregationRecord,
    MixingConfig,
    ServerState,
    phi,
    process_uplink,
)


def make_server(k=2, dim=1):
    return ServerState(w_global=np.zeros(dim), lambdas=uniform_weights(k))


def payload(sender, w, mu_bar, timestamp=0, iters=1):
    return UplinkPayload(sender=sender, w=np.asarray(w, dtype=float),
                         mu_bar=mu_bar, timestamp=timestamp, iters_in_cluster=iters)


def crafted(k=2, mean=0.0, dev=0.0, t=1, lambdas=None):
    """A server at clock t whose running mean and spread are ``mean`` and ``dev``."""
    st = make_server(k)
    if lambdas is not None:
        st.lambdas = np.array(lambdas, dtype=float)
    st.t, st.mu_sum, st.dev_sum = t, mean * t, dev * t
    return st


def accept(st, sender, mu_bar, cfg=None, w=(0.0,)):
    """One fresh uplink (age 0) through the acceptance pass."""
    return process_uplink(st, payload(sender, w, mu_bar, timestamp=st.t), cfg or MixingConfig(),
                          0.0)


def state_fields(st):
    return (st.w_global.copy(), st.lambdas.copy(), st.t, st.mu_sum, st.dev_sum,
            st.ranks.copy())


# ---------------- running statistics ---------------- #


def test_the_state_holds_only_facts():
    assert list(ServerState.__dataclass_fields__) == [
        "w_global", "lambdas", "t", "mu_sum", "dev_sum", "ranks"]
    st = make_server()
    assert (st.mu_mean, st.mu_dev) == (0.0, 0.0)          # before the first sample


def test_stats_first_sample():
    st = make_server()
    accept(st, 0, 5.0)
    assert (st.mu_mean, st.mu_dev) == (5.0, 0.0)


def test_stats_constant_stream():
    st = make_server()
    for _ in range(10):
        accept(st, 1, 3.0)
    assert st.mu_mean == 3.0 and st.mu_dev == 0.0


def test_stats_two_sample_trace():
    # stream (2, 4): means 2 then 3, spread (|2-2| + |3-4|)/2
    st = make_server()
    accept(st, 0, 2.0)
    assert (st.mu_mean, st.mu_dev) == (2.0, 0.0)
    accept(st, 1, 4.0)
    assert st.mu_mean == pytest.approx(3.0)
    assert st.mu_dev == pytest.approx(0.5)


def test_stats_use_historical_means():
    # incremental spread must match a replay that recomputes each historical mean
    rng = np.random.default_rng(3)
    samples = rng.uniform(0, 5, size=200)
    st = make_server()
    dev_ref = 0.0
    for i, s in enumerate(samples, start=1):
        accept(st, i % 2, float(s))
        mean_ref = samples[:i].mean()
        dev_ref += abs(mean_ref - s)
        assert st.mu_mean == pytest.approx(mean_ref, rel=1e-12)
        assert st.mu_dev == pytest.approx(dev_ref / i, rel=1e-12)


# ---------------- dead band ---------------- #


def changes(mean, dev, mu_bar, k=2, cfg=None):
    """Whether an uplink with ``mu_bar`` from coworker 0 falls outside the dead band."""
    return accept(crafted(k, mean, dev), 0, mu_bar, cfg).lambda_changed


def test_band_edges():
    # |1 +- 4*0.5| = (3, 1); the edges are inside the band
    assert not changes(1.0, 0.5, 3.0) and not changes(1.0, 0.5, 1.0)
    assert changes(1.0, 0.5, math.nextafter(3.0, 4.0))
    assert changes(1.0, 0.5, math.nextafter(1.0, 0.0))
    # collapsed band |2 +- 0| = (2, 2)
    assert not changes(2.0, 0.0, 2.0)
    assert changes(2.0, 0.0, 2.5) and changes(2.0, 0.0, 1.5)
    # degenerate start (0, 0): only a zero multiplier stays in the band
    assert not changes(0.0, 0.0, 0.0)
    assert changes(0.0, 0.0, 1e-300)


def test_band_contains_its_mean_and_excludes_its_outside():
    rng = np.random.default_rng(5)
    cfg = MixingConfig(fairness_margin=4.0)
    for _ in range(300):
        mean, dev = float(rng.uniform(0, 10)), float(rng.uniform(0, 5))
        st = crafted(2, mean, dev)
        m = cfg.fairness_margin * st.mu_dev
        upper, lower = abs(st.mu_mean + m), abs(st.mu_mean - m)
        assert lower <= upper
        assert not changes(mean, dev, 0.5 * (lower + upper), cfg=cfg)
        assert changes(mean, dev, math.nextafter(upper, math.inf), cfg=cfg)
        if lower > 0.0:
            assert changes(mean, dev, math.nextafter(lower, 0.0), cfg=cfg)


# ---------------- scaling ---------------- #


def test_boost_factor_is_one_plus_ln2():
    # band after one sample of 1: (1, 1); mu_bar = 3 exceeds it and
    # psi = 1 + ln(1 + |3-1|/(1+1)) = 1 + ln 2
    st = crafted(2, mean=1.0, dev=0.0)
    accept(st, 1, 3.0)
    psi = 1.0 + math.log(2.0)
    np.testing.assert_allclose(st.lambdas, np.array([1.0, psi]) / (1.0 + psi), rtol=1e-12)


def test_shrink_factor_is_the_reciprocal_of_the_boost():
    rng = np.random.default_rng(7)
    for _ in range(200):
        mean, mu_bar = float(rng.uniform(0, 20)), float(rng.uniform(0, 20))
        st = crafted(2, mean, dev=0.0)          # the band is the single point mean
        accept(st, 0, mu_bar)
        psi = 1.0 + math.log1p(abs(mu_bar - mean) / (1.0 + mean))
        ratio = st.lambdas[0] / st.lambdas[1]
        expected = psi if mu_bar > mean else 1.0 / psi if mu_bar < mean else 1.0
        assert psi >= 1.0
        assert ratio == pytest.approx(expected, rel=1e-12)


def test_boost_and_renormalize():
    # psi = 3 requires |mu_bar - mean| / (1 + mean) = e^2 - 1
    st = make_server(k=2)
    rec = accept(st, 0, math.exp(2.0) - 1.0)
    assert rec.lambda_changed is True
    np.testing.assert_allclose(st.lambdas, [0.75, 0.25], rtol=1e-12)


def test_dead_band_is_a_no_op():
    # mean 2, spread 0.25: band |2 +- 1| = (3, 1), edges inclusive
    for mu_bar in (2.5, 3.0, 1.0):
        st = crafted(3, mean=2.0, dev=0.25)
        before = st.lambdas.copy()
        assert accept(st, 1, mu_bar).lambda_changed is False
        np.testing.assert_array_equal(st.lambdas, before)


def test_shrink_below_band():
    # mean 5, spread 0.5: band (7, 3)
    st = crafted(2, mean=5.0, dev=0.5)
    assert accept(st, 0, 0.5).lambda_changed is True
    assert st.lambdas[0] < st.lambdas[1]
    assert st.lambdas.sum() == pytest.approx(1.0, abs=1e-12)


def test_simplex_fuzz():
    rng = np.random.default_rng(11)
    st = make_server(k=6)
    for _ in range(2000):
        accept(st, int(rng.integers(0, 6)), float(rng.uniform(0, 8)))
        assert abs(st.lambdas.sum() - 1.0) <= 1e-12
        assert np.all(st.lambdas >= 0.0)


# ---------------- age and mixing weight ---------------- #


def test_age_values():
    st = make_server()
    assert process_uplink(st, payload(0, [0.0], 0.0, timestamp=0), MixingConfig(),
                          0.0).age == 0                    # immediate turnaround
    st = crafted(t=9)
    assert process_uplink(st, payload(0, [0.0], 0.0, timestamp=4), MixingConfig(),
                          0.0).age == 5                    # accepted at t+1 = 10
    with pytest.raises(ProtocolError):
        process_uplink(st, payload(0, [0.0], 0.0, timestamp=11), MixingConfig(), 0.0)


def test_an_uplink_ahead_of_the_clock_is_refused_before_any_write():
    # an outlier multiplier that would rescale the coefficients and move
    # the statistics, stamped one tick ahead of the clock
    for st in (make_server(k=2), crafted(3, mean=1.0, dev=0.5, t=4)):
        before = state_fields(st)
        with pytest.raises(ProtocolError, match="ahead of the server clock"):
            process_uplink(st, payload(0, [5.0], mu_bar=0.7, timestamp=st.t + 1),
                           MixingConfig(), 0.0)
        for got, want in zip(state_fields(st), before):
            np.testing.assert_array_equal(got, want)


def test_phi_forms():
    power = MixingConfig(phi="power", alpha=1.0)
    assert phi(0, power) == 1.0
    assert phi(3, power) == pytest.approx(0.25)
    expo = MixingConfig(phi="exponential", alpha=0.5)
    assert phi(0, expo) == 1.0
    assert phi(4, expo) == pytest.approx(math.exp(-2.0))
    hinge = MixingConfig(phi="hinge", alpha=1.0, hinge_b=2)
    assert phi(2, hinge) == 1.0
    assert phi(3, hinge) == pytest.approx(0.25)
    for cfg in (power, expo, hinge):
        for age in range(30):
            assert 0.0 <= phi(age, cfg) <= 1.0
    with pytest.raises(ValueError):
        phi(-1, power)


@pytest.mark.parametrize("kind, age, expected", [
    ("power", 3, 0.25),
    ("exponential", 4, math.exp(-2.0)),
    ("hinge", 2, 1.0),
    ("hinge", 3, 0.25),
])
def test_mixing_weight_is_discounted_by_phi(kind, age, expected):
    # one coworker with coefficient 1 and no decay: beta = phi(age)
    cfg = MixingConfig(beta_min=1e-6, beta_max=1.0, phi=kind,
                       alpha=0.5 if kind == "exponential" else 1.0, hinge_b=2)
    st = crafted(1, t=age)
    rec = process_uplink(st, payload(0, [0.0], 0.0, timestamp=0), cfg, 0.0)
    assert rec.age == age
    assert rec.beta == pytest.approx(expected)


def test_mixing_weight_inside_and_outside_clips():
    cfg = MixingConfig(beta_min=0.01, beta_max=0.9, de=0.0)
    # mu_bar 0 on a fresh server is inside the band, so lambda_k is as crafted
    assert accept(crafted(2, t=0), 0, 0.0, cfg).beta == pytest.approx(0.5)
    st = crafted(2, t=0, lambdas=[1e-9, 1.0 - 1e-9])
    assert accept(st, 0, 0.0, cfg).beta == cfg.beta_min
    wide = MixingConfig(beta_min=0.01, beta_max=0.3)
    st = crafted(2, t=0, lambdas=[0.9, 0.1])
    assert accept(st, 0, 0.0, wide).beta == wide.beta_max


def test_mixing_weight_decays_with_server_clock():
    cfg = MixingConfig(beta_min=1e-6, beta_max=1.0, de=0.5)
    vals = [accept(crafted(1, t=t), 0, 0.0, cfg).beta for t in range(10)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[3] == pytest.approx(1.0 / 2.0)            # (1+3)^{-1/2}


def test_a_decay_past_the_float_range_mixes_at_beta_min():
    cfg = MixingConfig(beta_min=0.01, beta_max=0.9, de=2000.0)
    assert accept(crafted(1, t=0), 0, 0.0, cfg).beta == 0.9       # 1 ** 2000 = 1
    st = crafted(1, t=1)
    rec = accept(st, 0, 0.0, cfg, w=(4.0,))                       # 2 ** 2000 overflows
    assert rec.beta == cfg.beta_min
    np.testing.assert_array_equal(st.w_global, [0.01 * 4.0])
    assert st.t == 2


def test_mix_is_a_convex_combination():
    st = crafted(1, t=0)
    accept(st, 0, 0.0, MixingConfig(beta_min=0.25, beta_max=0.25), w=(4.0,))
    np.testing.assert_allclose(st.w_global, [1.0])
    assert st.t == 1
    accept(st, 0, 0.0, MixingConfig(beta_min=1.0, beta_max=1.0), w=(7.0,))
    np.testing.assert_array_equal(st.w_global, [7.0])
    assert st.t == 2


def test_mix_matches_sgd_form():
    # (1-b) wbar + b w equals wbar - b (wbar - w) up to rounding
    rng = np.random.default_rng(13)
    for _ in range(200):
        wbar = rng.standard_normal(4) * 10
        w = rng.standard_normal(4) * 10
        b = float(rng.uniform(1e-3, 1))
        st = ServerState(w_global=wbar.copy(), lambdas=np.array([1.0]))
        accept(st, 0, 0.0, MixingConfig(beta_min=b, beta_max=b), w=w)
        np.testing.assert_allclose(st.w_global, wbar - b * (wbar - w),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kwargs, message", [
    (dict(beta_min=0.0), "need 0 < beta_min <= beta_max <= 1"),
    (dict(beta_min=0.5, beta_max=0.2), "need 0 < beta_min <= beta_max <= 1"),
    (dict(beta_max=1.0001), "need 0 < beta_min <= beta_max <= 1"),
    (dict(phi="unknown"), "^phi must be power, exponential or hinge, not 'unknown'$"),
    (dict(alpha=-0.5), "^alpha must be non-negative$"),
    (dict(hinge_b=-1), "^hinge_b must be non-negative$"),
    (dict(de=-0.1), "^de must be non-negative$"),
    (dict(fairness_margin=-1.0), "^fairness_margin must be non-negative$"),
])
def test_mixing_config_validation_names_the_field(kwargs, message):
    with pytest.raises(ValueError, match=message):
        MixingConfig(**kwargs)


# ---------------- full acceptance path ---------------- #


def test_first_positive_sample_triggers_scale_up():
    # thresholds are computed from history only, so the degenerate (0, 0)
    # band makes any positive first multiplier an outlier
    st = make_server(k=2)
    cfg = MixingConfig()
    rec = process_uplink(st, payload(0, [1.0], mu_bar=0.7, timestamp=0), cfg, 0.0)
    assert rec.lambda_changed is True
    assert st.lambdas[0] > st.lambdas[1]
    assert st.t == 1 and rec.t == 1
    assert rec.age == 0
    assert st.mu_mean == pytest.approx(0.7)


def test_first_zero_sample_stays_in_band():
    st = make_server(k=2)
    rec = process_uplink(st, payload(1, [1.0], mu_bar=0.0), MixingConfig(), 0.0)
    assert rec.lambda_changed is False
    np.testing.assert_array_equal(st.lambdas, [0.5, 0.5])


def test_scale_factor_uses_pre_sample_mean():
    # second uplink compared against the mean of the first only
    st = make_server(k=2)
    cfg = MixingConfig()
    process_uplink(st, payload(0, [0.0], mu_bar=1.0), cfg, 0.0)
    lam_before = st.lambdas.copy()
    # band after one sample: TH_U = TH_L = 1; mu_bar = 3 exceeds it;
    # psi = 1 + ln(1 + |3-1|/(1+1)) = 1 + ln 2
    process_uplink(st, payload(1, [0.0], mu_bar=3.0, timestamp=1), cfg, 1.0)
    psi = 1.0 + math.log(2.0)
    expected = lam_before * np.array([1.0, psi])
    expected /= expected.sum()
    np.testing.assert_allclose(st.lambdas, expected, rtol=1e-12)


def test_clock_counts_accepted_uplinks():
    st = make_server(k=3)
    cfg = MixingConfig()
    for i in range(7):
        stamp = max(0, st.t - 1)
        rec = process_uplink(st, payload(i % 3, [0.5], mu_bar=0.0, timestamp=stamp), cfg,
                             float(i))
        assert st.t == i + 1
        assert isinstance(rec, AggregationRecord)
        assert cfg.beta_min <= rec.beta <= cfg.beta_max


def test_alternating_coworkers_age_trace():
    # strict alternation with immediate downlinks gives ages 0, 1, 1, 1, ...
    st = make_server(k=2)
    cfg = MixingConfig()
    stamps = {0: 0, 1: 0}
    ages = []
    for i in range(8):
        sender = i % 2
        rec = process_uplink(st, payload(sender, [1.0], mu_bar=0.0,
                                         timestamp=stamps[sender]), cfg, float(i))
        ages.append(rec.age)
        stamps[sender] = st.t          # downlink stamped with the new clock
    assert ages == [0, 1, 1, 1, 1, 1, 1, 1]


def test_record_carries_fairness_index():
    st = make_server(k=4)
    rec = process_uplink(st, payload(2, [0.0], mu_bar=0.0), MixingConfig(), 0.0)
    assert rec.fairness_index == pytest.approx(1.0)       # still uniform


def test_record_is_the_metrics_row():
    st = make_server(k=4)
    rec = process_uplink(st, payload(2, [0.0], mu_bar=0.5, iters=3), MixingConfig(), 1.25)
    assert (rec.t, rec.time, rec.sender, rec.iters) == (1, 1.25, 2, 3)
    assert rec.lambda_changed and rec.lambda_checksum == float(np.arange(1, 5) @ st.lambdas)
    assert rec.lambda_checksum > 2.5        # the sender's rank is above the uniform mean
    assert rec.global_risk is None and rec.grad_sqnorm is None
    rec.global_risk = 0.5                   # an Evaluation fills the row in place
    assert st.ranks.dtype == np.int64


# ---------------- protocol invariants over random uplink sequences ---------------- #


@hst.composite
def uplink_runs(draw):
    k = draw(hst.integers(1, 12))
    beta_min = draw(hst.floats(1e-6, 1.0))
    cfg = MixingConfig(
        beta_min=beta_min,
        beta_max=draw(hst.floats(beta_min, 1.0)),
        de=draw(hst.one_of(hst.floats(0.0, 3.0), hst.sampled_from([1e3, 1e300]))),
        phi=draw(hst.sampled_from(["power", "exponential", "hinge"])),
        alpha=draw(hst.floats(0.0, 3.0)),
        hinge_b=draw(hst.integers(0, 5)),
        fairness_margin=draw(hst.one_of(hst.just(0.0), hst.floats(0.0, 8.0))),
    )
    mu_bar = hst.one_of(hst.just(0.0), hst.floats(0.0, 10.0), hst.floats(1e3, 1e6))
    # each uplink: sender, multiplier average, and lag (its timestamp is max(0, t - lag))
    uplinks = draw(hst.lists(hst.tuples(hst.integers(0, k - 1), mu_bar, hst.integers(0, 6)),
                             min_size=1, max_size=40))
    return k, cfg, uplinks


@settings(max_examples=200, deadline=None, derandomize=True)
@given(uplink_runs())
def test_protocol_invariants_hold_over_random_uplinks(run):
    k, cfg, uplinks = run
    st = make_server(k=k, dim=2)
    mu_sum = dev_sum = 0.0
    for n, (sender, mu_bar, lag) in enumerate(uplinks, start=1):
        rec = process_uplink(st, payload(sender, [1.0, -1.0], mu_bar,
                                         timestamp=max(0, st.t - lag)), cfg, float(n))
        assert abs(float(st.lambdas.sum()) - 1.0) <= 1e-12 and np.all(st.lambdas >= 0.0)
        assert cfg.beta_min <= rec.beta <= cfg.beta_max
        assert rec.age >= 0
        assert st.t == rec.t == n
        # the running statistics, recomputed in Python floats
        mu_sum += mu_bar
        dev_sum += abs(mu_sum / n - mu_bar)
        assert st.mu_mean == mu_sum / n and st.mu_dev == dev_sum / n
