"""Coworker-side optimisation: adaptive primal/dual iterations run in clusters.

Each coworker repeatedly runs a cluster of ``iter_k`` local iterations, then
ships its model, its averaged multiplier and its last-seen global timestamp
to the server and waits for either a fresh global model or a timeout.  All
hyper-parameters of the loop (iterations per cluster, both step sizes, and
the proximity tolerance) are driven by the running average of the local
Lagrange multiplier, so no per-coworker tuning is required.

A cluster is ``iter_k`` calls of :func:`run_single_iteration` followed by
one :func:`finalize_cluster`; the event engine makes these calls one
iteration boundary at a time.  An iteration is one flat pass that states
the step rule once: it samples, takes the minibatch gradient, and computes
the deviation ``w - w_global_last`` once for both the dual violation and
the primal step; the logarithms of ``omega`` are taken once per config.

The model has d entries, a handful in practice, so an iteration is bound by
call overhead, not arithmetic.  A numpy ufunc on a 5-vector costs about
0.44 µs with an array operand but 0.8 µs with a Python float one, so the
primal step, whose operands are three scalars and three vectors, runs its
multiplies, adds and subtracts on Python floats instead: the same IEEE
operations in the same order, neither side fusing any, so the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericDivergenceError, ProtocolError
from .model_core import LossModel, minibatch_gradient
from .stream_manager import StreamBuffer, evict_oldest_if_surplus, sample_minibatch


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the multiplier-driven adaptation rules."""

    iter_max: int = 30          # hard cap on iterations per cluster
    omega_a: float = 2.0        # base of the cluster-shrinking map (> 1)
    omega_c: float = 1.0        # sensitivity of the cluster-shrinking map (> 0)
    b0: float = 1.0             # proximity tolerance scale
    gamma: float = 0.1          # proximity tolerance exponent (>= 0)
    eta_min: float = 0.01       # step-size floor
    eta_max: float = 0.5        # step-size ceiling
    # log(omega_a) and log(iter_max), derived once for omega
    _log_a: float = field(init=False, repr=False, compare=False)
    _log_iter_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.iter_max < 1:
            raise ValueError("iter_max must be at least 1")
        if self.omega_a <= 1.0:
            raise ValueError("omega_a must exceed 1")
        if self.omega_c <= 0.0:
            raise ValueError("omega_c must be positive")
        if self.b0 < 0.0 or self.gamma < 0.0:
            raise ValueError("b0 and gamma must be non-negative")
        if not 0.0 < self.eta_min <= self.eta_max:
            raise ValueError("need 0 < eta_min <= eta_max")
        object.__setattr__(self, "_log_a", math.log(self.omega_a))
        object.__setattr__(self, "_log_iter_max", math.log(self.iter_max))


@dataclass
class UplinkPayload:
    """What one coworker ships per cluster: model, averaged multiplier, timestamp."""

    sender: int
    w: np.ndarray
    mu_bar: float
    timestamp: int
    iters_in_cluster: int
    last_grad: Optional[np.ndarray] = None


@dataclass
class CoworkerState:
    """Full local state of one coworker."""

    id: int
    w: np.ndarray
    w_global_last: np.ndarray     # the last global model received, w0 at first
    buffer: StreamBuffer
    mu: float = 0.0
    mu_sum: float = 0.0           # running sum of multiplier samples, mu(0) included
    mu_bar: float = 0.0           # mu_sum / (t_local + 1), the running average of those samples
    tolerance: float = 0.0        # current proximity tolerance B_k
    lambda_last: float = 1.0      # own fairness coefficient, last broadcast value
    timestamp: int = 0
    t_local: int = 0
    iter_k: int = 1
    eta0: float = 0.0
    eta1: float = 0.0
    last_grad: Optional[np.ndarray] = None


def make_coworker(
    cid: int, w0: np.ndarray, buffer: StreamBuffer, lambda0: float, cfg: AdaptiveConfig
) -> CoworkerState:
    """Fresh coworker: model at w0, zero multiplier, full-length first cluster."""
    return CoworkerState(
        id=cid,
        w=w0.copy(),
        buffer=buffer,
        lambda_last=lambda0,
        w_global_last=w0.copy(),
        iter_k=update_iter_count(0.0, cfg),
        tolerance=update_tolerance(0.0, cfg),
    )


# ---------------- adaptation rules ---------------- #


def omega(mu_bar: float, cfg: AdaptiveConfig) -> float:
    """Cluster-shrinking map: a**(c * mu_bar) clipped into [1, iter_max]."""
    if mu_bar < 0.0:
        raise ValueError("mu_bar must be non-negative")
    exponent = cfg.omega_c * mu_bar * cfg._log_a
    # compare in log space so huge multipliers cannot overflow the power
    if exponent >= cfg._log_iter_max:
        return float(cfg.iter_max)
    power = math.exp(exponent)
    return power if power > 1.0 else 1.0        # max(1.0, power), without the builtin


def update_iter_count(mu_bar: float, cfg: AdaptiveConfig) -> int:
    """Iterations for the next cluster: iter_max shrunk by omega, at least 1."""
    return max(1, math.ceil(cfg.iter_max / omega(mu_bar, cfg)))


def update_tolerance(mu_bar: float, cfg: AdaptiveConfig) -> float:
    """Proximity tolerance b0 * mu_bar**gamma; vanishes at the origin.

    A power past the float range means an unbounded tolerance, or 0 when b0 is 0.
    """
    if mu_bar < 0.0:
        raise ValueError("mu_bar must be non-negative")
    if mu_bar == 0.0:
        return 0.0
    try:
        power = mu_bar**cfg.gamma
    except OverflowError:
        return math.inf if cfg.b0 > 0.0 else 0.0
    return cfg.b0 * power


# ---------------- primal/dual iteration ---------------- #


def run_single_iteration(
    state: CoworkerState,
    cfg: AdaptiveConfig,
    model: LossModel,
    rng: np.random.Generator,
    now: float = float("nan"),
) -> bool:
    """One local iteration: sample, step sizes, primal, dual, average, eviction.

    With the deviation diff = w - w_global_last and omega at the current
    mu_bar, the step sizes are clipped into [eta_min, eta_max]:
    eta0 = omega * ||grad|| and eta1 = omega * |diff.diff - tolerance|.  The
    norm is sqrt(grad.grad), the formula np.linalg.norm uses for a 1-D float
    vector, so the value is the same to the bit.  Then, as one simultaneous
    update of both variables,

        w  <- w - eta0 * (lambda_last * grad + mu * diff)
        mu <- max(0, mu + eta1 * (diff.diff - tolerance))

    and mu_bar becomes the running average of every multiplier sample, mu(0)
    included.  The primal step runs entry by entry on Python floats, with the
    bits of the vector form.  A non-finite entry of w, a non-finite mu, or a
    NaN violation (an overflowed deviation against an unbounded tolerance)
    raises NumericDivergenceError once the iteration is complete.

    Returns False (leaving all state untouched) when the buffer cannot serve
    a minibatch yet; the caller decides how to wait.
    """
    batch = sample_minibatch(state.buffer, rng)
    if batch is None:
        return False
    w = state.w
    grad = minibatch_gradient(model, w, *batch)
    diff = w - state.w_global_last
    violation = float(diff.dot(diff)) - state.tolerance
    om = omega(state.mu_bar, cfg)
    # the clamps are conditional expressions: min(max(x, lo), hi) to the bit,
    # a NaN included, at about a seventh of the cost of the two builtins
    lo, hi = cfg.eta_min, cfg.eta_max
    eta0 = om * math.sqrt(grad.dot(grad))
    eta0 = lo if eta0 < lo else hi if eta0 > hi else eta0
    eta1 = om * abs(violation)
    eta1 = lo if eta1 < lo else hi if eta1 > hi else eta1
    lam, mu = state.lambda_last, state.mu
    w = [wi - eta0 * (lam * gi + mu * di)
         for wi, gi, di in zip(w.tolist(), grad.tolist(), diff.tolist())]
    state.w = np.array(w)
    mu += eta1 * violation
    mu = state.mu = mu if mu > 0.0 else 0.0        # max(0, mu), a NaN made 0 as max does
    state.eta0, state.eta1 = eta0, eta1
    state.t_local += 1
    state.mu_sum += mu
    state.mu_bar = state.mu_sum / (state.t_local + 1)
    evict_oldest_if_surplus(state.buffer)
    state.last_grad = grad
    # eta1 is NaN only for a NaN violation (inf - inf), which the mu clamp maps to 0
    if not (all(map(math.isfinite, w)) and math.isfinite(mu) and eta1 == eta1):
        raise NumericDivergenceError(state.id, now)
    return True


def finalize_cluster(state: CoworkerState, cfg: AdaptiveConfig) -> UplinkPayload:
    """Close a cluster: refresh the tolerance, build the payload, size the next cluster."""
    iters = state.iter_k
    state.tolerance = update_tolerance(state.mu_bar, cfg)
    payload = UplinkPayload(
        sender=state.id,
        w=state.w.copy(),
        mu_bar=state.mu_bar,
        timestamp=state.timestamp,
        iters_in_cluster=iters,
        last_grad=state.last_grad,
    )
    state.iter_k = update_iter_count(state.mu_bar, cfg)
    return payload


# ---------------- feedback handlers ---------------- #


def handle_downlink(state: CoworkerState, w_global: np.ndarray, stamp: int) -> None:
    """Adopt a fresh global model: restart from it."""
    state.timestamp = stamp
    state.w_global_last = w_global.copy()
    state.w = w_global.copy()


def handle_fairness_broadcast(state: CoworkerState, lambda_k: float) -> None:
    """Adopt the coworker's own entry of a freshly broadcast coefficient set."""
    if not 0.0 <= lambda_k <= 1.0:
        raise ProtocolError(f"fairness coefficient {lambda_k!r} outside [0, 1]")
    state.lambda_last = lambda_k
