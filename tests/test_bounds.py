"""Closed-form rate bounds: frozen arithmetic, reductions, and monotonicity."""

import numpy as np
import pytest

from afafed.bounds import (
    BoundInputs,
    beta_max_admissible,
    bound_clipped_beta,
    bound_constant_beta,
    bound_scaled,
)


def inputs(**kw):
    base = dict(zeta=1.0, f0=1.0, f_star=0.0, c=1.0, gamma=1.0, a=1.0,
                epsilon=0.5, beta_min=0.1, beta_max=0.1, horizon=100)
    base.update(kw)
    return BoundInputs(**base)


def test_admissible_beta_hand_value():
    assert beta_max_admissible(inputs()) == pytest.approx(0.5, rel=1e-15)


def test_admissible_beta_limits():
    tiny = beta_max_admissible(inputs(epsilon=1e-9))
    assert tiny == pytest.approx(1e-9, rel=1e-12)
    # for large gamma, doubling gamma quarters the admissible weight
    lo = beta_max_admissible(inputs(gamma=50.0))
    hi = beta_max_admissible(inputs(gamma=100.0))
    assert hi / lo == pytest.approx(0.25, rel=1e-3)


def test_constant_beta_hand_value():
    # 1/(0.5*0.1*100) + 0.1/(2*0.5)
    assert bound_constant_beta(inputs(), 0.1) == pytest.approx(0.3, rel=1e-14)


def test_constant_beta_pure_transient():
    val = bound_constant_beta(inputs(a=0.0, horizon=10), 0.1)
    assert val == pytest.approx(1.0 / (0.5 * 0.1 * 10), rel=1e-14)
    # exact 1/T decay: value times T is constant
    v1 = bound_constant_beta(inputs(a=0.0, horizon=10), 0.1) * 10
    v2 = bound_constant_beta(inputs(a=0.0, horizon=1000), 0.1) * 1000
    assert v1 == pytest.approx(v2, rel=1e-14)
    assert bound_constant_beta(inputs(a=0.0, f0=0.5, f_star=0.5), 0.1) == 0.0


def test_constant_beta_refuses_inadmissible():
    with pytest.raises(ValueError, match="admissibility"):
        bound_constant_beta(inputs(), 0.51)
    with pytest.raises(ValueError):
        bound_constant_beta(inputs(), 0.0)
    # right at the limit is allowed
    bound_constant_beta(inputs(), 0.5)


def test_clipped_equals_constant_at_degenerate_clip():
    for beta in (0.05, 0.1, 0.3):
        fixed = inputs(beta_min=beta, beta_max=beta)
        assert bound_clipped_beta(fixed) == pytest.approx(
            bound_constant_beta(fixed, beta), rel=1e-14)


def test_clipped_hand_value_and_asymptote():
    assert bound_clipped_beta(inputs()) == pytest.approx(0.3, rel=1e-14)
    wide = inputs(beta_min=0.05, beta_max=0.2, horizon=10**12)
    floor = 1.0 * 1.0 * 0.2**2 / (2.0 * 1.0 * 0.5 * 0.05)
    assert bound_clipped_beta(wide) == pytest.approx(floor, rel=1e-9)


def test_scaled_normalized_point_matches_clipped():
    base = inputs(c=0.7, gamma=0.9, a=0.4)
    res = bound_scaled(base, c0=0.7, gamma0=0.9, a0=0.4,
                       sigma_sq_bar=1.0, i_bar=1.0, i2_bar=1.0)
    assert res.bound == pytest.approx(bound_clipped_beta(base), rel=1e-14)
    assert res.beta_max_admissible == pytest.approx(beta_max_admissible(base), rel=1e-14)
    assert (res.c, res.gamma, res.a) == (0.7, 0.9, 0.4)


def test_scaled_term_scaling_in_iteration_moments():
    base = inputs(beta_min=0.01, beta_max=0.01)
    c0, gamma0, a0, sig, ib, i2b = 0.5, 0.8, 0.3, 2.0, 4.0, 20.0
    res = bound_scaled(base, c0, gamma0, a0, sig, ib, i2b)
    denom = c0 * ib * (1.0 - base.epsilon) * base.beta_min
    transient = (base.f0 - base.f_star) / (denom * base.horizon)
    floor = a0 * sig * i2b * base.zeta * base.beta_max**2 / (2.0 * denom)
    assert res.bound == pytest.approx(transient + floor, rel=1e-12)
    assert res.c == pytest.approx(c0 * ib)
    assert res.gamma == pytest.approx(gamma0 * ib)
    assert res.a == pytest.approx(a0 * sig * i2b)


def test_scaled_rejects_impossible_moments():
    base = inputs()
    with pytest.raises(ValueError, match="i_bar"):
        bound_scaled(base, 1.0, 1.0, 1.0, 1.0, i_bar=0.0, i2_bar=1.0)
    with pytest.raises(ValueError, match="no distribution"):
        bound_scaled(base, 1.0, 1.0, 1.0, 1.0, i_bar=3.0, i2_bar=8.9)
    with pytest.raises(ValueError):
        bound_scaled(base, 1.0, 1.0, 1.0, sigma_sq_bar=-0.1, i_bar=1.0, i2_bar=1.0)
    # equality (a constant iteration count) is fine
    bound_scaled(base, 1.0, 1.0, 1.0, 1.0, i_bar=3.0, i2_bar=9.0)


def test_monotonicities():
    rng = np.random.default_rng(19)
    for _ in range(100):
        c = float(rng.uniform(0.2, 2.0))
        gamma = c * float(rng.uniform(1.0, 3.0))
        zeta = float(rng.uniform(0.2, 3.0))
        a = float(rng.uniform(0.0, 2.0))

        def mk(**kw):
            base = dict(zeta=zeta, f0=2.0, f_star=0.0, c=c, gamma=gamma, a=a,
                        epsilon=float(rng.uniform(0.1, 0.9)),
                        beta_min=0.1, beta_max=0.1, horizon=100)
            base.update(kw)
            return BoundInputs(**base)

        eps = float(rng.uniform(0.1, 0.9))
        variants = [mk(epsilon=eps), mk(epsilon=eps, horizon=10**6),
                    mk(epsilon=eps, a=a + 1.0), mk(epsilon=eps, zeta=2 * zeta),
                    mk(epsilon=eps, c=2 * c, gamma=2 * gamma)]
        beta = 0.5 * min(beta_max_admissible(v) for v in variants)
        v0 = bound_constant_beta(variants[0], beta)
        assert bound_constant_beta(variants[1], beta) <= v0      # longer horizon
        assert bound_constant_beta(variants[2], beta) >= v0      # more variance
        assert bound_constant_beta(variants[3], beta) >= v0      # rougher risk
        assert bound_constant_beta(variants[4], beta) <= v0 + 1e-12  # stronger coherence


def test_input_validation():
    with pytest.raises(ValueError):
        inputs(zeta=0.0)
    with pytest.raises(ValueError):
        inputs(f0=-1.0, f_star=0.0)
    with pytest.raises(ValueError):
        inputs(c=0.0)
    with pytest.raises(ValueError):
        inputs(c=2.0, gamma=1.0)
    with pytest.raises(ValueError):
        inputs(a=-0.1)
    with pytest.raises(ValueError):
        inputs(epsilon=0.0)
    with pytest.raises(ValueError):
        inputs(epsilon=1.0)
    with pytest.raises(ValueError):
        inputs(beta_min=0.0)
    with pytest.raises(ValueError):
        inputs(beta_min=0.2, beta_max=0.1)
    with pytest.raises(ValueError):
        inputs(horizon=0)

