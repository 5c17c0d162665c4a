"""Server aggregation path: statistics, dead band, coefficient scaling, mixing."""

import math

import numpy as np
import pytest

from afafed.coworker import UplinkPayload
from afafed.errors import ProtocolError
from afafed.model_core import uniform_weights
from afafed.server import (
    AggregationRecord,
    MixingConfig,
    ServerState,
    aggregate,
    apply_fairness_update,
    compute_age,
    compute_beta,
    phi,
    process_uplink,
    scaling_functions,
    update_fairness_stats,
    update_thresholds,
)


def make_server(k=2, dim=1):
    return ServerState(w_global=np.zeros(dim), lambdas=uniform_weights(k))


def payload(sender, w, mu_bar, timestamp=0, iters=1):
    return UplinkPayload(sender=sender, w=np.asarray(w, dtype=float),
                         mu_bar=mu_bar, timestamp=timestamp, iters_in_cluster=iters)


# ---------------- running statistics ---------------- #


def test_stats_first_sample():
    st = make_server()
    assert update_fairness_stats(st, 5.0) == (5.0, 0.0)


def test_stats_constant_stream():
    st = make_server()
    for _ in range(10):
        mean, dev = update_fairness_stats(st, 3.0)
    assert mean == 3.0 and dev == 0.0


def test_stats_two_sample_trace():
    # stream (2, 4): means 2 then 3, spread (|2-2| + |3-4|)/2
    st = make_server()
    assert update_fairness_stats(st, 2.0) == (2.0, 0.0)
    mean, dev = update_fairness_stats(st, 4.0)
    assert mean == pytest.approx(3.0)
    assert dev == pytest.approx(0.5)


def test_stats_use_historical_means():
    # incremental spread must match a replay that recomputes each historical mean
    rng = np.random.default_rng(3)
    samples = rng.uniform(0, 5, size=200)
    st = make_server()
    dev_ref = 0.0
    for i, s in enumerate(samples, start=1):
        mean, dev = update_fairness_stats(st, float(s))
        mean_ref = samples[:i].mean()
        dev_ref += abs(mean_ref - s)
        assert mean == pytest.approx(mean_ref, rel=1e-12)
        assert dev == pytest.approx(dev_ref / i, rel=1e-12)


def test_thresholds():
    st = make_server()
    cfg = MixingConfig()
    st.mu_mean, st.mu_dev = 1.0, 0.5
    assert update_thresholds(st, cfg) == (3.0, 1.0)       # |1 +- 4*0.5|
    st.mu_mean, st.mu_dev = 2.0, 0.0
    assert update_thresholds(st, cfg) == (2.0, 2.0)       # collapsed band
    st.mu_mean, st.mu_dev = 0.0, 0.0
    assert update_thresholds(st, cfg) == (0.0, 0.0)       # degenerate start


def test_threshold_order_invariant():
    rng = np.random.default_rng(5)
    st = make_server()
    cfg = MixingConfig(fairness_margin=4.0)
    for _ in range(300):
        st.mu_mean = float(rng.uniform(0, 10))
        st.mu_dev = float(rng.uniform(0, 5))
        up, lo = update_thresholds(st, cfg)
        assert lo <= up


# ---------------- scaling ---------------- #


def test_scaling_functions_values():
    psi, v = scaling_functions(1.0, 1.0)
    assert psi == 1.0 and v == 1.0
    psi, v = scaling_functions(3.0, 1.0)
    assert psi == pytest.approx(1.0 + math.log(2.0), rel=1e-12)
    assert v == pytest.approx(1.0 / psi)


def test_scaling_functions_reciprocal_pair():
    rng = np.random.default_rng(7)
    for _ in range(200):
        psi, v = scaling_functions(float(rng.uniform(0, 20)), float(rng.uniform(0, 20)))
        assert psi >= 1.0
        assert 0.0 < v <= 1.0
        assert psi * v == pytest.approx(1.0, rel=1e-12)


def test_fairness_update_boost_and_renormalize():
    # psi = 3 requires |mu_bar - mean| / (1 + mean) = e^2 - 1
    st = make_server(k=2)
    st.th_upper = st.th_lower = 0.0
    st.mu_mean = 0.0
    mu_bar = math.exp(2.0) - 1.0
    assert apply_fairness_update(st, 0, mu_bar) is True
    np.testing.assert_allclose(st.lambdas, [0.75, 0.25], rtol=1e-12)


def test_fairness_update_dead_band_is_a_no_op():
    st = make_server(k=3)
    st.mu_mean, st.th_upper, st.th_lower = 2.0, 3.0, 1.0
    before = st.lambdas.copy()
    assert apply_fairness_update(st, 1, 2.5) is False
    np.testing.assert_array_equal(st.lambdas, before)
    # band edges are inclusive
    assert apply_fairness_update(st, 1, 3.0) is False
    assert apply_fairness_update(st, 1, 1.0) is False


def test_fairness_update_shrink_below_band():
    st = make_server(k=2)
    st.mu_mean, st.th_upper, st.th_lower = 5.0, 7.0, 3.0
    assert apply_fairness_update(st, 0, 0.5) is True
    assert st.lambdas[0] < st.lambdas[1]
    assert st.lambdas.sum() == pytest.approx(1.0, abs=1e-12)


def test_fairness_update_simplex_fuzz():
    rng = np.random.default_rng(11)
    st = make_server(k=6)
    cfg = MixingConfig()
    for _ in range(2000):
        mu_bar = float(rng.uniform(0, 8))
        update_thresholds(st, cfg)
        apply_fairness_update(st, int(rng.integers(0, 6)), mu_bar)
        update_fairness_stats(st, mu_bar)
        assert abs(st.lambdas.sum() - 1.0) <= 1e-12
        assert np.all(st.lambdas >= 0.0)


# ---------------- age and mixing weight ---------------- #


def test_age_values():
    st = make_server()
    st.t = 0
    assert compute_age(st, 0) == 0           # immediate turnaround
    st.t = 9
    assert compute_age(st, 4) == 5           # accepted at t+1 = 10
    with pytest.raises(ProtocolError):
        compute_age(st, 10)


def test_phi_forms():
    power = MixingConfig(phi_kind="power", phi_alpha=1.0)
    assert phi(0, power) == 1.0
    assert phi(3, power) == pytest.approx(0.25)
    expo = MixingConfig(phi_kind="exponential", phi_alpha=0.5)
    assert phi(0, expo) == 1.0
    assert phi(4, expo) == pytest.approx(math.exp(-2.0))
    hinge = MixingConfig(phi_kind="hinge", phi_alpha=1.0, phi_hinge_b=2)
    assert phi(2, hinge) == 1.0
    assert phi(3, hinge) == pytest.approx(0.25)
    for cfg in (power, expo, hinge):
        for age in range(30):
            assert 0.0 <= phi(age, cfg) <= 1.0
    with pytest.raises(ValueError):
        phi(-1, power)


def test_compute_beta_inside_and_outside_clips():
    cfg = MixingConfig(beta_min=0.01, beta_max=0.9, de=0.0)
    st = make_server(k=2)
    st.lambdas = np.array([0.5, 0.5])
    assert compute_beta(st, 0, age=0, cfg=cfg) == pytest.approx(0.5)
    st.lambdas = np.array([1e-9, 1.0 - 1e-9])
    assert compute_beta(st, 0, age=0, cfg=cfg) == cfg.beta_min
    wide = MixingConfig(beta_min=0.01, beta_max=0.3)
    st.lambdas = np.array([0.9, 0.1])
    assert compute_beta(st, 0, age=0, cfg=wide) == wide.beta_max


def test_compute_beta_decays_with_server_clock():
    cfg = MixingConfig(beta_min=1e-6, beta_max=1.0, de=0.5)
    st = make_server(k=1)
    st.lambdas = np.array([1.0])
    vals = []
    for t in range(10):
        st.t = t
        vals.append(compute_beta(st, 0, age=0, cfg=cfg))
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[3] == pytest.approx(1.0 / 2.0)            # (1+3)^{-1/2}


def test_aggregate_convex_combination():
    st = make_server(dim=1)
    st.w_global = np.array([0.0])
    aggregate(st, np.array([4.0]), 0.25)
    np.testing.assert_allclose(st.w_global, [1.0])
    assert st.t == 1
    aggregate(st, np.array([7.0]), 1.0)
    np.testing.assert_array_equal(st.w_global, [7.0])
    w_before = st.w_global.copy()
    aggregate(st, np.array([-3.0]), 0.0)
    np.testing.assert_array_equal(st.w_global, w_before)
    assert st.t == 3
    with pytest.raises(ValueError):
        aggregate(st, np.array([1.0]), 1.5)


def test_aggregate_matches_sgd_form():
    # (1-b) wbar + b w equals wbar - b (wbar - w) up to rounding
    rng = np.random.default_rng(13)
    for _ in range(200):
        wbar = rng.standard_normal(4) * 10
        w = rng.standard_normal(4) * 10
        b = float(rng.uniform(0, 1))
        st = ServerState(w_global=wbar.copy(), lambdas=np.array([1.0]))
        aggregate(st, w, b)
        np.testing.assert_allclose(st.w_global, wbar - b * (wbar - w),
                                   rtol=1e-12, atol=1e-12)


def test_mixing_config_validation():
    with pytest.raises(ValueError):
        MixingConfig(beta_min=0.0)
    with pytest.raises(ValueError):
        MixingConfig(beta_min=0.5, beta_max=0.2)
    with pytest.raises(ValueError):
        MixingConfig(beta_max=1.0001)
    with pytest.raises(ValueError):
        MixingConfig(phi_kind="unknown")
    with pytest.raises(ValueError):
        MixingConfig(de=-0.1)
    with pytest.raises(ValueError):
        MixingConfig(fairness_margin=-1.0)


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
