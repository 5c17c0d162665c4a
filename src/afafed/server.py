"""Server-side aggregation: fair coefficient tuning plus age-aware mixing.

The server's clock t counts accepted uplinks.  Each acceptance compares the
sender's averaged multiplier against a dead band built from the running
statistics of all previously accepted multipliers, rescales the fairness
coefficients when the sample falls outside the band, discounts the update by
its age, and folds the sender's model into the global one with a single
convex combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ProtocolError
from .model_core import check_weights, jain_fairness_index
from .coworker import UplinkPayload


@dataclass(frozen=True)
class MixingConfig:
    """Server-side knobs: mixing clamp, decay profile, dead-band width."""

    beta_min: float = 0.001
    beta_max: float = 0.9
    de: float = 0.0                 # extra power-law decay of the raw mixing weight
    phi_kind: str = "power"         # power | exponential | hinge
    phi_alpha: float = 0.5
    phi_hinge_b: int = 4
    fairness_margin: float = 4.0    # half-width of the dead band, in mean-deviation units

    def __post_init__(self) -> None:
        if not 0.0 < self.beta_min <= self.beta_max <= 1.0:
            raise ValueError("need 0 < beta_min <= beta_max <= 1")
        if self.de < 0.0:
            raise ValueError("de must be non-negative")
        if self.phi_kind not in ("power", "exponential", "hinge"):
            raise ValueError(f"unknown staleness profile {self.phi_kind!r}")
        if self.phi_alpha < 0.0:
            raise ValueError("phi_alpha must be non-negative")
        if self.phi_hinge_b < 0:
            raise ValueError("phi_hinge_b must be non-negative")
        if self.fairness_margin < 0.0:
            raise ValueError("fairness_margin must be non-negative")


@dataclass
class ServerState:
    """Global model, clock, fairness coefficients and multiplier statistics."""

    w_global: np.ndarray
    lambdas: np.ndarray
    t: int = 0
    mu_sum: float = 0.0       # sum of accepted multiplier averages
    dev_sum: float = 0.0      # sum of |running mean - sample| at each acceptance
    accepted: int = 0
    mu_mean: float = 0.0      # running mean of accepted multiplier averages
    mu_dev: float = 0.0       # running mean absolute deviation of the same stream
    th_upper: float = 0.0
    th_lower: float = 0.0
    ranks: np.ndarray = field(init=False, repr=False)     # int64 1..K, for lambda_checksum

    def __post_init__(self) -> None:
        self.ranks = np.arange(1, len(self.lambdas) + 1, dtype=np.int64)


@dataclass
class AggregationRecord:
    """One accepted uplink: what the server did, and the engine's metrics row.

    The fields up to fairness_index are the trajectory columns of
    metrics.csv.  An ``Evaluation`` observer fills global_risk and
    grad_sqnorm of due rows; they stay None until it does.
    """

    t: int                    # server clock after this acceptance
    time: float               # virtual time of the delivery
    sender: int
    age: int
    beta: float
    lambda_checksum: float    # ranks @ lambdas after this acceptance
    fairness_index: float     # Jain index of the same coefficients
    lambda_changed: bool      # a coefficient change is due to every coworker
    iters: int                # local iterations in the sender's cluster
    global_risk: Optional[float] = None
    grad_sqnorm: Optional[float] = None


def update_fairness_stats(state: ServerState, mu_bar: float) -> tuple[float, float]:
    """Fold one accepted multiplier average into the running mean and spread.

    The spread is the running mean absolute deviation between each sample and
    the running mean as it stood at that sample's acceptance.
    """
    state.accepted += 1
    state.mu_sum += mu_bar
    state.mu_mean = state.mu_sum / state.accepted
    state.dev_sum += abs(state.mu_mean - mu_bar)
    state.mu_dev = state.dev_sum / state.accepted
    return state.mu_mean, state.mu_dev


def update_thresholds(state: ServerState, cfg: MixingConfig) -> tuple[float, float]:
    """Dead band edges |mean +- margin * spread| from the statistics so far."""
    m = cfg.fairness_margin * state.mu_dev
    state.th_upper = abs(state.mu_mean + m)
    state.th_lower = abs(state.mu_mean - m)
    return state.th_upper, state.th_lower


def scaling_functions(mu_bar: float, mu_mean: float) -> tuple[float, float]:
    """Boost factor (>= 1) and its reciprocal, grown from the relative deviation."""
    psi = 1.0 + math.log1p(abs(mu_bar - mu_mean) / (1.0 + mu_mean))
    return psi, 1.0 / psi


def apply_fairness_update(state: ServerState, k: int, mu_bar: float) -> bool:
    """Rescale coworker k's coefficient when its multiplier leaves the dead band.

    Above the band the coefficient is boosted, below it shrunk, and the whole
    vector is renormalised onto the unit simplex; inside the band nothing
    changes.  Returns whether the coefficient set changed (a broadcast is due).
    """
    psi, v = scaling_functions(mu_bar, state.mu_mean)
    if mu_bar > state.th_upper:
        factor = psi
    elif mu_bar < state.th_lower:
        factor = v
    else:
        return False
    lam = state.lambdas.copy()
    lam[k] *= factor
    state.lambdas = lam / np.add.reduce(lam)      # lam.sum() without numpy's _methods layer
    check_weights(state.lambdas)
    return True


def compute_age(state: ServerState, timestamp: int) -> int:
    """Aggregations the sender missed since it last saw the global model."""
    age = state.t - timestamp
    if age < 0:
        raise ProtocolError(
            f"timestamp {timestamp} is ahead of the server clock {state.t}"
        )
    return age


def phi(age: int, cfg: MixingConfig) -> float:
    """Staleness discount in [0, 1]; equals 1 for a fresh update."""
    if age < 0:
        raise ValueError("age must be non-negative")
    if cfg.phi_kind == "power":
        return (1.0 + age) ** (-cfg.phi_alpha)
    if cfg.phi_kind == "exponential":
        return math.exp(-cfg.phi_alpha * age)
    # hinge: flat up to b, power-law decay beyond
    if age <= cfg.phi_hinge_b:
        return 1.0
    return (1.0 + age) ** (-cfg.phi_alpha)


def compute_beta(state: ServerState, k: int, age: int, cfg: MixingConfig) -> float:
    """Mixing weight for this acceptance, clamped into [beta_min, beta_max].

    Raw value: the sender's current fairness coefficient, discounted by the
    staleness profile and by an optional power-law decay in the server clock.
    A decay past the float range means a raw weight of 0, so beta_min.
    """
    try:
        decay = (1.0 + state.t) ** cfg.de
    except OverflowError:
        return cfg.beta_min
    raw = state.lambdas[k] * phi(age, cfg) / decay
    return min(max(raw, cfg.beta_min), cfg.beta_max)


def aggregate(state: ServerState, w_k: np.ndarray, beta: float) -> np.ndarray:
    """Convex combination w_global <- (1-beta) w_global + beta w_k; advances t."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta!r}")
    state.w_global = (1.0 - beta) * state.w_global + beta * w_k
    state.t += 1
    return state.w_global


def process_uplink(
    state: ServerState, payload: UplinkPayload, cfg: MixingConfig, time: float
) -> AggregationRecord:
    """Full acceptance path for one uplink delivered at virtual ``time``.

    Threshold comparison and the boost factor both use the statistics as they
    stood before this sample; the sample is folded in afterwards, the mixing
    weight is computed from the post-update coefficient, and the clock ticks
    once.  The record returned is the aggregation's metrics row.
    """
    update_thresholds(state, cfg)
    changed = apply_fairness_update(state, payload.sender, payload.mu_bar)
    update_fairness_stats(state, payload.mu_bar)
    age = compute_age(state, payload.timestamp)
    beta = compute_beta(state, payload.sender, age, cfg)
    aggregate(state, payload.w, beta)
    return AggregationRecord(
        t=state.t,
        time=time,
        sender=payload.sender,
        age=age,
        beta=beta,
        lambda_checksum=float(state.ranks @ state.lambdas),
        fairness_index=jain_fairness_index(state.lambdas),
        lambda_changed=changed,
        iters=payload.iters_in_cluster,
    )
