"""Closed-form convergence-rate bounds and their admissibility conditions.

All functions are pure arithmetic on scalar inputs.  The bounded quantity is
the horizon average of the squared global-gradient norm; inputs combine
problem constants (smoothness, initial and optimal risk) with the coherence
constants of the aggregated update direction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class BoundInputs:
    """Constants entering the rate bounds.

    c and gamma bound the alignment of the expected aggregated update with
    the true global gradient (gamma >= c > 0); a bounds the excess variance
    of that update.
    """

    zeta: float          # smoothness of every local risk
    f0: float            # global risk at the initial model
    f_star: float        # optimal global risk
    c: float             # lower coherence constant
    gamma: float         # upper coherence constant
    a: float             # variance offset of the aggregated update
    epsilon: float       # slack split in (0, 1)
    beta_min: float
    beta_max: float
    horizon: int         # number of aggregations T

    def __post_init__(self) -> None:
        if self.zeta <= 0.0:
            raise ValueError("zeta must be positive")
        if self.f0 < self.f_star:
            raise ValueError("initial risk below the optimum")
        if not 0.0 < self.c <= self.gamma:
            raise ValueError("need 0 < c <= gamma")
        if self.a < 0.0:
            raise ValueError("a must be non-negative")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.beta_min <= self.beta_max <= 1.0:
            raise ValueError("need 0 < beta_min <= beta_max <= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")


def beta_max_admissible(inputs: BoundInputs) -> float:
    """Largest admissible mixing weight: 2 c eps / (zeta (1 + gamma^2))."""
    return 2.0 * inputs.c * inputs.epsilon / (inputs.zeta * (1.0 + inputs.gamma**2))


def bound_constant_beta(inputs: BoundInputs, beta: float) -> float:
    """Rate bound for a constant mixing weight beta.

    (f0 - f_star) / (c (1-eps) beta T)  +  a zeta beta / (2 c (1-eps)).
    Refuses a beta that violates the admissibility inequality.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    limit = beta_max_admissible(inputs)
    if beta > limit:
        raise ValueError(
            f"beta={beta!r} violates admissibility: must not exceed {limit!r}"
        )
    denom = inputs.c * (1.0 - inputs.epsilon)
    transient = (inputs.f0 - inputs.f_star) / (denom * beta * inputs.horizon)
    floor = inputs.a * inputs.zeta * beta / (2.0 * denom)
    return transient + floor


def bound_clipped_beta(inputs: BoundInputs) -> float:
    """Rate bound when the mixing weight is clipped into [beta_min, beta_max].

    (f0 - f_star) / (c (1-eps) beta_min T)  +  a zeta beta_max^2 / (2 c (1-eps) beta_min).
    """
    denom = inputs.c * (1.0 - inputs.epsilon) * inputs.beta_min
    transient = (inputs.f0 - inputs.f_star) / (denom * inputs.horizon)
    floor = inputs.a * inputs.zeta * inputs.beta_max**2 / (2.0 * denom)
    return transient + floor


@dataclass(frozen=True)
class ScaledBoundResult:
    """Clipped bound evaluated at iteration-scaled constants."""

    bound: float
    beta_max_admissible: float
    c: float
    gamma: float
    a: float


def bound_scaled(
    inputs: BoundInputs,
    c0: float,
    gamma0: float,
    a0: float,
    sigma_sq_bar: float,
    i_bar: float,
    i2_bar: float,
) -> ScaledBoundResult:
    """Clipped bound with constants scaled by the ensemble iteration moments.

    Substitutes c = c0 * i_bar, gamma = gamma0 * i_bar and
    a = a0 * sigma_sq_bar * i2_bar, then evaluates the clipped bound and the
    matching admissibility threshold.  Rejects moment pairs that violate
    i2_bar >= i_bar**2 (impossible for any distribution).
    """
    if i_bar <= 0.0:
        raise ValueError("i_bar must be positive")
    if i2_bar < i_bar**2:
        raise ValueError(
            f"i2_bar={i2_bar!r} is below i_bar^2={i_bar**2!r}; no distribution has these moments"
        )
    if sigma_sq_bar < 0.0:
        raise ValueError("sigma_sq_bar must be non-negative")
    scaled = replace(inputs, c=c0 * i_bar, gamma=gamma0 * i_bar, a=a0 * sigma_sq_bar * i2_bar)
    return ScaledBoundResult(
        bound=bound_clipped_beta(scaled),
        beta_max_admissible=beta_max_admissible(scaled),
        c=scaled.c,
        gamma=scaled.gamma,
        a=scaled.a,
    )

