"""Online estimation of the constants entering the convergence bounds.

During a run the server records, per accepted uplink, the aggregated update
direction (global model minus the sender's fresh model) and the sender's last
stochastic gradient; recording is pure observation and never perturbs the
run.  After the run, trace averages turn into estimates of the coherence
constants and the variance offset, gated by feasibility conditions, while a
synchronised epilogue supplies risk values at the first and last global
models plus a secant estimate of the smoothness constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class ProfilingLog:
    """Running sums accumulated server-side, one sample per accepted uplink."""

    w_start: np.ndarray
    g_sum: np.ndarray = field(init=False)
    g_norm_sum: float = field(init=False, default=0.0)
    g_sqnorm_sum: float = field(init=False, default=0.0)
    grad_sum: np.ndarray = field(init=False)
    samples: int = field(init=False, default=0)
    # per coworker: risks at w_start and at the final model, secant or None
    coworker_stats: List[Tuple[float, float, Optional[float]]] = field(
        init=False, default_factory=list)

    def __post_init__(self) -> None:
        self.g_sum = np.zeros(self.w_start.shape)
        self.grad_sum = np.zeros(self.w_start.shape)


def record_aggregation(log: ProfilingLog, g_hat: np.ndarray, local_grad: np.ndarray) -> None:
    """Fold one aggregation's update direction and sender gradient into the sums."""
    shape = log.w_start.shape
    if g_hat.shape != shape or local_grad.shape != shape:
        raise ValueError(
            f"expected vectors of shape {shape}, got {g_hat.shape} and {local_grad.shape}"
        )
    log.g_sum += g_hat
    norm = math.sqrt(g_hat.dot(g_hat))      # np.linalg.norm's formula for a 1-D float vector
    log.g_norm_sum += norm
    log.g_sqnorm_sum += norm * norm
    log.grad_sum += local_grad
    log.samples += 1


@dataclass(frozen=True)
class ParameterEstimates:
    """Finalised estimates; entries are None whenever their gate failed."""

    c_hat: Optional[float]
    gamma_hat: Optional[float]
    a_hat: Optional[float]
    k0: Optional[float]
    feasible: Tuple[bool, bool, bool]
    samples: int
    f0_hat: Optional[float] = None
    f_star_hat: Optional[float] = None
    zeta_hat: Optional[float] = None


def finalize(log: ProfilingLog, lambdas_final: Optional[Sequence[float]] = None) -> ParameterEstimates:
    """Turn the recorded trace into gated estimates.

    Feasibility gates: (1) the mean update direction must have positive inner
    product with the mean sender gradient; (2) the implied alignment deficit
    k0 must be non-negative (automatic up to rounding when (1) holds); (3)
    the scalar-norm variance of the update direction must be at least the
    squared norm of the mean gradient.  Coherence estimates need (1) and (2),
    the variance offset needs (1) and (3); nothing is fabricated when a gate
    fails.
    """
    if log.samples < 1:
        raise ValueError("profiling log is empty")
    n = log.samples
    g_mean = log.g_sum / n
    norm_mean = log.g_norm_sum / n
    sqnorm_mean = log.g_sqnorm_sum / n
    grad_mean = log.grad_sum / n
    grad_sqnorm = float(grad_mean @ grad_mean)

    inner = float(g_mean @ grad_mean)
    cond1 = inner > 0.0
    k0: Optional[float] = None
    cond2 = False
    if cond1:
        k0 = float(np.linalg.norm(g_mean)) * float(np.linalg.norm(grad_mean)) / inner - 1.0
        cond2 = k0 >= -1e-12
        k0 = max(k0, 0.0)
    excess = sqnorm_mean - norm_mean**2 - grad_sqnorm
    cond3 = excess >= 0.0

    c_hat = inner / grad_sqnorm if (cond1 and cond2) else None
    gamma_hat = (1.0 + k0) * c_hat if c_hat is not None else None
    a_hat = excess if (cond1 and cond3) else None

    f0_hat = f_star_hat = zeta_hat = None
    if log.coworker_stats:
        if lambdas_final is None:
            raise ValueError("coworker stats present but no final coefficients given")
        lam = np.asarray(lambdas_final, dtype=np.float64)
        if len(lam) != len(log.coworker_stats):
            raise ValueError("coefficient vector length does not match coworker stats")
        f0_hat = float(sum(l * s[0] for l, s in zip(lam, log.coworker_stats)))
        f_star_hat = float(sum(l * s[1] for l, s in zip(lam, log.coworker_stats)))
        secants = [s[2] for s in log.coworker_stats if s[2] is not None]
        zeta_hat = max(secants) if secants else None

    return ParameterEstimates(
        c_hat=c_hat,
        gamma_hat=gamma_hat,
        a_hat=a_hat,
        k0=k0 if cond1 else None,
        feasible=(cond1, cond2, cond3),
        samples=n,
        f0_hat=f0_hat,
        f_star_hat=f_star_hat,
        zeta_hat=zeta_hat,
    )
