"""Server-side aggregation: fair coefficient tuning plus age-aware mixing.

The server's clock t counts accepted uplinks.  :func:`process_uplink` is the
one acceptance pass: it refuses an uplink stamped ahead of the clock before
writing anything, rescales the sender's fairness coefficient when its
averaged multiplier leaves a dead band built from the running statistics of
all earlier acceptances, folds the sample into those statistics, discounts
the update by its age, and mixes it into the global model.
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
    phi: str = "power"              # staleness profile: power | exponential | hinge
    alpha: float = 0.5              # decay exponent (power, hinge) or rate (exponential) of phi
    hinge_b: int = 4                # hinge: the largest age phi leaves undiscounted
    fairness_margin: float = 4.0    # half-width of the dead band, in mean-deviation units

    def __post_init__(self) -> None:
        if not 0.0 < self.beta_min <= self.beta_max <= 1.0:
            raise ValueError("need 0 < beta_min <= beta_max <= 1")
        if self.de < 0.0:
            raise ValueError("de must be non-negative")
        if self.phi not in ("power", "exponential", "hinge"):
            raise ValueError(f"phi must be power, exponential or hinge, not {self.phi!r}")
        if self.alpha < 0.0:
            raise ValueError("alpha must be non-negative")
        if self.hinge_b < 0:
            raise ValueError("hinge_b must be non-negative")
        if self.fairness_margin < 0.0:
            raise ValueError("fairness_margin must be non-negative")


@dataclass
class ServerState:
    """Global model, clock, fairness coefficients and multiplier sums."""

    w_global: np.ndarray
    lambdas: np.ndarray
    t: int = 0                # accepted uplinks
    mu_sum: float = 0.0       # sum of accepted multiplier averages
    dev_sum: float = 0.0      # sum of |running mean - sample| at each acceptance
    ranks: np.ndarray = field(init=False, repr=False)     # int64 1..K, for lambda_checksum

    def __post_init__(self) -> None:
        self.ranks = np.arange(1, len(self.lambdas) + 1, dtype=np.int64)

    @property
    def mu_mean(self) -> float:
        """Running mean of the accepted multiplier averages; 0 before the first."""
        return self.mu_sum / self.t if self.t else 0.0

    @property
    def mu_dev(self) -> float:
        """Running mean absolute deviation of the same stream; 0 before the first."""
        return self.dev_sum / self.t if self.t else 0.0


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


def phi(age: int, cfg: MixingConfig) -> float:
    """Staleness discount in [0, 1]; equals 1 for a fresh update."""
    if age < 0:
        raise ValueError("age must be non-negative")
    if cfg.phi == "power":
        return (1.0 + age) ** (-cfg.alpha)
    if cfg.phi == "exponential":
        return math.exp(-cfg.alpha * age)
    # hinge: flat up to b, power-law decay beyond
    if age <= cfg.hinge_b:
        return 1.0
    return (1.0 + age) ** (-cfg.alpha)


def process_uplink(
    state: ServerState, payload: UplinkPayload, cfg: MixingConfig, time: float
) -> AggregationRecord:
    """The one acceptance pass for an uplink delivered at virtual ``time``.

    1. age = t - timestamp; a negative age raises ProtocolError before any write.
    2. The dead band |mean +- margin * spread| and the boost factor
       psi = 1 + log1p(|mu_bar - mean| / (1 + mean)) use the statistics as
       they stood before this sample.
    3. Above the band the sender's coefficient is scaled by psi, below it by
       1/psi, and renormalised onto the simplex; inside (edges included) not.
    4. The sample is folded into mu_sum, then |new mean - sample| into dev_sum.
    5. beta = lambda_k * phi(age) / (1 + t)**de clamped into [beta_min,
       beta_max]; a decay past the float range gives beta_min.
    6. w_global <- (1 - beta) w_global + beta w; the clock ticks once.

    The record returned is the aggregation's metrics row.
    """
    k, mu_bar, t = payload.sender, payload.mu_bar, state.t
    age = t - payload.timestamp
    if age < 0:
        raise ProtocolError(f"timestamp {payload.timestamp} is ahead of the server clock {t}")

    mean = state.mu_mean
    m = cfg.fairness_margin * state.mu_dev
    psi = 1.0 + math.log1p(abs(mu_bar - mean) / (1.0 + mean))
    changed = True
    if mu_bar > abs(mean + m):
        factor = psi
    elif mu_bar < abs(mean - m):
        factor = 1.0 / psi
    else:
        changed = False
    if changed:
        lam = state.lambdas.copy()
        lam[k] *= factor
        lam = lam / np.add.reduce(lam)      # lam.sum() without numpy's _methods layer
        check_weights(lam)
        state.lambdas = lam

    state.mu_sum += mu_bar
    state.dev_sum += abs(state.mu_sum / (t + 1) - mu_bar)

    try:
        decay = (1.0 + t) ** cfg.de
    except OverflowError:
        beta = cfg.beta_min
    else:
        raw = float(state.lambdas[k]) * phi(age, cfg) / decay
        beta = min(max(raw, cfg.beta_min), cfg.beta_max)

    state.w_global = (1.0 - beta) * state.w_global + beta * payload.w
    state.t = t + 1
    return AggregationRecord(
        t=state.t,
        time=time,
        sender=k,
        age=age,
        beta=beta,
        lambda_checksum=float(state.ranks @ state.lambdas),
        fairness_index=jain_fairness_index(state.lambdas),
        lambda_changed=changed,
        iters=payload.iters_in_cluster,
    )
