"""Trace recording and gated estimation of the convergence constants."""

import numpy as np
import pytest

from afafed.profiler import (
    ParameterEstimates,
    ProfilingLog,
    finalize,
    record_aggregation,
)


def make_log(dim=3):
    return ProfilingLog(np.zeros(dim))


# ---------------- recording ---------------- #


def test_single_record_sums():
    log = make_log()
    v = np.array([3.0, 0.0, 4.0])
    record_aggregation(log, v, np.array([1.0, 0.0, 0.0]))
    assert log.samples == 1
    np.testing.assert_array_equal(log.g_sum, v)
    assert log.g_norm_sum == pytest.approx(5.0)
    assert log.g_sqnorm_sum == pytest.approx(25.0)
    np.testing.assert_array_equal(log.grad_sum, [1.0, 0.0, 0.0])


def test_opposite_records_cancel_vector_but_not_norms():
    log = make_log()
    v = np.array([1.0, 2.0, 2.0])
    record_aggregation(log, v, v)
    record_aggregation(log, -v, v)
    np.testing.assert_allclose(log.g_sum, np.zeros(3), atol=1e-15)
    assert log.g_norm_sum / log.samples == pytest.approx(3.0)


def test_sums_match_brute_force_replay():
    rng = np.random.default_rng(29)
    log = make_log(dim=4)
    gs, grads = [], []
    for _ in range(200):
        g = rng.standard_normal(4)
        lg = rng.standard_normal(4)
        gs.append(g)
        grads.append(lg)
        record_aggregation(log, g, lg)
    gs = np.array(gs)
    np.testing.assert_allclose(log.g_sum, gs.sum(axis=0), rtol=1e-12)
    np.testing.assert_allclose(log.grad_sum, np.array(grads).sum(axis=0), rtol=1e-12)
    assert log.g_norm_sum == pytest.approx(np.linalg.norm(gs, axis=1).sum(), rel=1e-12)
    assert log.g_sqnorm_sum == pytest.approx((np.linalg.norm(gs, axis=1) ** 2).sum(), rel=1e-12)
    assert log.samples == 200


def test_record_rejects_wrong_shapes():
    log = make_log(dim=3)
    with pytest.raises(ValueError):
        record_aggregation(log, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        record_aggregation(log, np.zeros(3), np.zeros(4))


# ---------------- finalisation ---------------- #


def test_finalize_rejects_empty_log():
    with pytest.raises(ValueError):
        finalize(make_log())


def test_identity_trace_gives_unit_coherence():
    # update direction equal to the gradient every time: perfect alignment,
    # but a constant trace has no variance surplus, so that gate must fail
    log = make_log()
    g = np.array([0.6, -0.2, 0.1])
    for _ in range(50):
        record_aggregation(log, g, g)
    est = finalize(log)
    assert est.c_hat == pytest.approx(1.0, rel=1e-12)
    assert est.k0 == pytest.approx(0.0, abs=1e-12)
    assert est.gamma_hat == pytest.approx(1.0, rel=1e-12)
    assert est.feasible[0] is True and est.feasible[1] is True
    assert est.feasible[2] is False
    assert est.a_hat is None


def test_anti_aligned_trace_emits_nothing():
    log = make_log()
    g = np.array([1.0, 0.0, 0.0])
    rng = np.random.default_rng(4)
    for _ in range(50):
        record_aggregation(log, -g + 0.5 * rng.standard_normal(3), g)
    est = finalize(log)
    assert est.feasible[0] is False
    assert est.c_hat is None and est.gamma_hat is None and est.k0 is None


def test_known_noise_model_recovers_closed_forms():
    # update = 1.5 * grad + sparse orthogonal spikes of mean power 0.2;
    # closed forms: coherence 1.5 exactly, variance surplus near 0.2
    rng = np.random.default_rng(1905)
    dim = 6
    g = np.zeros(dim)
    g[0] = 0.02
    spike_dir = np.zeros(dim)
    spike_dir[1] = 1.0
    p, power = 0.005, 0.2
    r = np.sqrt(power / p)
    log = make_log(dim)
    for _ in range(10_000):
        noise = np.zeros(dim)
        if rng.random() < p:
            noise = (r if rng.random() < 0.5 else -r) * spike_dir
        record_aggregation(log, 1.5 * g + noise, g)
    est = finalize(log)
    assert est.feasible == (True, True, True)
    assert est.c_hat == pytest.approx(1.5, rel=0.05)
    assert est.a_hat >= 0.19
    assert est.gamma_hat >= est.c_hat
    assert est.k0 >= 0.0


def test_emitted_estimates_satisfy_their_own_inequalities():
    # replay check: the estimates must be consistent with the recorded trace
    rng = np.random.default_rng(37)
    log = make_log(dim=4)
    base = np.array([0.5, 0.1, -0.3, 0.2])
    draws = []
    for _ in range(500):
        ghat = base + rng.standard_normal(4)
        record_aggregation(log, ghat, base)
        draws.append(ghat)
    est = finalize(log)
    draws = np.array(draws)
    g_mean = draws.mean(axis=0)
    grad_mean = base
    grad_nsq = float(grad_mean @ grad_mean)
    assert est.feasible[0]
    assert est.c_hat * grad_nsq == pytest.approx(float(g_mean @ grad_mean), rel=1e-9)
    assert np.linalg.norm(g_mean) <= est.gamma_hat * np.linalg.norm(grad_mean) * (1 + 1e-9)
    norms = np.linalg.norm(draws, axis=1)
    variance = float((norms**2).mean() - norms.mean() ** 2)
    if est.a_hat is not None:
        assert variance <= est.a_hat + grad_nsq + 1e-9


def test_feasible_estimates_respect_order_fuzz():
    rng = np.random.default_rng(41)
    for trial in range(30):
        log = make_log(dim=3)
        mean = rng.standard_normal(3)
        for _ in range(100):
            record_aggregation(log, mean + rng.standard_normal(3) * rng.uniform(0, 2),
                               mean + 0.1 * rng.standard_normal(3))
        est = finalize(log)
        if est.c_hat is not None:
            assert est.c_hat > 0.0
            assert est.gamma_hat >= est.c_hat - 1e-12
            assert est.k0 >= 0.0
        if est.a_hat is not None:
            assert est.a_hat >= 0.0


# ---------------- epilogue aggregation ---------------- #


def test_epilogue_risk_aggregation_and_secant_max():
    log = make_log()
    record_aggregation(log, np.ones(3), np.ones(3))
    log.coworker_stats = [(2.0, 1.0, 0.5), (4.0, 2.0, 1.5), (6.0, 3.0, None)]
    est = finalize(log, lambdas_final=[0.5, 0.25, 0.25])
    assert est.f0_hat == pytest.approx(0.5 * 2 + 0.25 * 4 + 0.25 * 6)
    assert est.f_star_hat == pytest.approx(0.5 * 1 + 0.25 * 2 + 0.25 * 3)
    assert est.zeta_hat == pytest.approx(1.5)        # max over defined secants


def test_epilogue_zeta_none_when_no_secant_defined():
    log = make_log()
    record_aggregation(log, np.ones(3), np.ones(3))
    log.coworker_stats = [(1.0, 1.0, None)]
    est = finalize(log, lambdas_final=[1.0])
    assert est.zeta_hat is None
    assert est.f0_hat == pytest.approx(1.0)


def test_epilogue_requires_matching_coefficients():
    log = make_log()
    record_aggregation(log, np.ones(3), np.ones(3))
    log.coworker_stats = [(1.0, 1.0, 0.3), (2.0, 2.0, 0.4)]
    with pytest.raises(ValueError):
        finalize(log)                                 # coefficients missing
    with pytest.raises(ValueError):
        finalize(log, lambdas_final=[1.0])            # wrong length


def test_estimates_type_is_immutable():
    est = ParameterEstimates(c_hat=1.0, gamma_hat=1.0, a_hat=0.0, k0=0.0,
                             feasible=(True, True, True), samples=3)
    with pytest.raises(AttributeError):
        est.c_hat = 2.0
