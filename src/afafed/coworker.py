"""Coworker-side optimisation: adaptive primal/dual iterations run in clusters.

Each coworker repeatedly runs a cluster of ``iter_k`` local iterations, then
ships its model, its averaged multiplier and its last-seen global timestamp
to the server and waits for either a fresh global model or a timeout.  All
hyper-parameters of the loop (iterations per cluster, both step sizes, and
the proximity tolerance) are driven by the running average of the local
Lagrange multiplier, so no per-coworker tuning is required.

A cluster is ``iter_k`` calls of :func:`run_single_iteration` followed by
one :func:`finalize_cluster`; the event engine makes these calls one
iteration boundary at a time, or steps many coworkers at once through a
:class:`Round`, which leaves each state as the single iterations would, to
the bit.  An iteration is one flat pass that states
the step rule once: it samples, takes the minibatch gradient, and computes
the deviation ``w - w_global_last`` once for both the dual violation and
the primal step; the logarithms of ``omega`` are taken once per config.

The model has d entries, a handful in practice, so an iteration is bound by
call overhead, not arithmetic.  A numpy ufunc on a 5-vector costs about
0.44 µs with an array operand but 0.8 µs with a Python float one, so the
primal step, whose operands are three scalars and three vectors, runs its
multiplies, adds and subtracts on Python floats instead: the same IEEE
operations in the same order, neither side fusing any, so the same bits.
A round of B coworkers instead pays each numpy call once for all B: one
gather, batched matrix products and elementwise passes over (B, d) arrays.
In ``timeit`` at d = 5 and 16-row minibatches, one step of a round of 36,
with the members' draws, its set-up and its write-back, costs about 8 µs
per coworker, against about 13 µs for run_single_iteration; at 8 members
the two cost the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import NumericDivergenceError, ProtocolError
from .model_core import LossKind, LossModel, minibatch_gradient
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
    """Full local state of one coworker.

    The averaged multiplier ``mu_bar`` is derived, not stored: it is
    ``mu_sum / (t_local + 1)``, as the server derives ``ServerState.mu_mean``.
    """

    id: int
    w: np.ndarray
    w_global_last: np.ndarray     # the last global model received, w0 at first
    buffer: StreamBuffer
    mu: float = 0.0
    mu_sum: float = 0.0           # running sum of multiplier samples, mu(0) included
    tolerance: float = 0.0        # current proximity tolerance B_k
    lambda_last: float = 1.0      # own fairness coefficient, last broadcast value
    timestamp: int = 0
    t_local: int = 0
    iter_k: int = 1
    eta0: float = 0.0
    eta1: float = 0.0
    last_grad: Optional[np.ndarray] = None

    @property
    def mu_bar(self) -> float:
        """Running average of the multiplier samples, mu(0) included."""
        return self.mu_sum / (self.t_local + 1)


def make_coworker(
    cid: int, w0: np.ndarray, buffer: StreamBuffer, lambda0: float, cfg: AdaptiveConfig
) -> CoworkerState:
    """Fresh coworker: model at w0, zero multiplier, full-length first cluster."""
    return CoworkerState(
        id=cid,
        w=w0.copy(),
        buffer=buffer,
        lambda_last=float(lambda0),     # the type every broadcast adoption stores
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

    and the new mu joins mu_sum, so mu_bar stays the running average of every
    multiplier sample, mu(0) included.  The primal step runs entry by entry
    on Python floats, with the bits of the vector form.  A NaN violation (an
    overflowed deviation against an unbounded tolerance), a non-finite entry
    of w or a non-finite mu raises NumericDivergenceError once the iteration
    is complete; its message names the first of these that it finds.

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
    t_local = state.t_local
    mu_bar = state.mu_sum / (t_local + 1)       # state.mu_bar, without the property call
    om = omega(mu_bar, cfg)
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
    state.t_local = t_local + 1
    state.mu_sum += mu
    evict_oldest_if_surplus(state.buffer)
    state.last_grad = grad
    # eta1 is NaN only for a NaN violation (inf - inf), which the mu clamp maps to 0
    if not (all(map(math.isfinite, w)) and math.isfinite(mu) and eta1 == eta1):
        what = ("constraint violation" if eta1 != eta1 else
                "multiplier" if all(map(math.isfinite, w)) else "model vector")
        raise NumericDivergenceError(state.id, now, what)
    return True


def _rows16(count: int, n: int) -> np.ndarray:
    """An uninitialised (count, n) float64 array whose rows each start on 16 bytes.

    Under OpenBLAS's Prescott kernels a dot product rounds differently when
    an operand starts off a 16-byte boundary (matrix-vector products were
    not seen to), and the vectors run_single_iteration takes dot products of
    are fresh arrays, which numpy aligns to 16 bytes.  An even row length
    keeps every row on that boundary.
    """
    return np.empty((count, n + (n & 1)))[:, :n]


class Round:
    """Coworker states held as (B, ...) arrays while they iterate in lockstep.

    Each :meth:`step` runs one run_single_iteration of every member, each
    on the minibatch it has drawn, as one vectorised pass; the members'
    states are written back by :meth:`sync`, and by :meth:`keep` and
    :meth:`drop` as members leave, so a state read between steps is current
    only once synced.  After any number of steps a synced state is the one
    that many run_single_iteration calls leave, to the bit:

    - the products are batched ``np.matmul`` calls: (B, m, d) @ (B, d, 1)
      for ``X.dot(w)``, (B, 1, m) @ (B, m, d) for ``r.dot(X)`` and
      (B, 1, d) @ (B, d, 1) for each 1-D dot.  numpy makes one BLAS call per
      member, the call ``ndarray.dot`` makes, and the dot products' operands
      start on 16 bytes as fresh arrays do (``_rows16``), so a member's bits
      depend neither on B nor on its position.  m and d must be at least 2;
    - the residual passes, the clamps, the primal step on (B, d) and the mu
      update are the IEEE operations of the Python-float forms, in their
      order; omega runs per member through ``math``, whose ``exp`` numpy's
      may not match, and the running sums and counts are kept as they are.

    A step builds new model and gradient arrays, so an array handed to a
    state is never written again.  No float error is reported as a numpy warning, as the
    Python-float forms report none.
    """

    def __init__(self, states: Sequence[CoworkerState], cfg: AdaptiveConfig,
                 model: LossModel) -> None:
        self.states = states = list(states)
        self.cfg, self.logistic = cfg, model.kind is LossKind.LOGISTIC
        self.w = np.array([s.w for s in states])
        self.w_global = np.array([s.w_global_last for s in states])
        self.tolerance, self.lam, self.mu, self.mu_sum = (
            np.fromiter(map(attrgetter(name), states), float, len(states))
            for name in ("tolerance", "lambda_last", "mu", "mu_sum"))
        self.t_local = np.fromiter(map(attrgetter("t_local"), states), np.int64, len(states))
        self.eta0 = self.eta1 = self.grad = None

    def adopt(self, i: int, lambda_k: float) -> None:
        """Member i adopts a fairness coefficient, as handle_fairness_broadcast."""
        handle_fairness_broadcast(self.states[i], lambda_k)
        self.lam[i] = lambda_k

    def step(self, rows: np.ndarray, X: np.ndarray, y: np.ndarray,
             boundaries: Sequence[float]) -> Dict[int, NumericDivergenceError]:
        """One iteration of every member; row i of the (B, m) ``rows`` holds
        member i's minibatch rows of the stacked data (X, y).

        Returns the members whose step left the finite range, each with the
        NumericDivergenceError that run_single_iteration would raise at its
        boundary; the step stays in their arrays, as in a state that raised.
        """
        (B, m), d = rows.shape, X.shape[1]
        if m < 2 or d < 2:
            # numpy takes a one-row or one-column product as a dot product,
            # which can round a zero's sign unlike ndarray.dot's matrix-vector one
            raise ValueError(f"a round needs minibatches of at least 2 rows of at least "
                             f"2 features, got {m} x {d}")
        cfg = self.cfg
        lo, hi = cfg.eta_min, cfg.eta_max
        with np.errstate(over="ignore", invalid="ignore"):
            Xb = X.take(rows, axis=0)
            r = np.matmul(Xb, self.w[:, :, None]).reshape(B, 1, m)
            if self.logistic:
                r *= 0.5
                np.tanh(r, out=r)
                r += 1.0
                r *= 0.5
            r -= y.take(rows)[:, None, :]
            G = _rows16(B, d)
            np.matmul(r, Xb, out=G[:, None, :])
            G /= float(m)
            D = _rows16(B, d)
            np.subtract(self.w, self.w_global, out=D)
            violation = np.matmul(D[:, None, :], D[:, :, None]).reshape(B)
            violation -= self.tolerance
            mu_bar = self.mu_sum / (self.t_local + 1)
            om = np.array([omega(b, cfg) for b in mu_bar.tolist()])
            eta0 = np.sqrt(np.matmul(G[:, None, :], G[:, :, None]).reshape(B))
            eta0 *= om
            eta0 = np.minimum(np.maximum(eta0, lo), hi)
            eta1 = np.abs(violation)
            eta1 *= om
            eta1 = np.minimum(np.maximum(eta1, lo), hi)
            step = self.lam[:, None] * G
            step += self.mu[:, None] * D
            step *= eta0[:, None]
            self.w = self.w - step
            mu = eta1 * violation
            mu += self.mu
            self.mu = mu = np.where(mu > 0.0, mu, 0.0)
            self.mu_sum += mu
            self.t_local += 1
            self.eta0, self.eta1, self.grad = eta0, eta1, G
            finite_w = np.isfinite(self.w).all(axis=1)
            ok = finite_w & np.isfinite(mu) & (eta1 == eta1)
        for s in self.states:
            evict_oldest_if_surplus(s.buffer)
        if ok.all():
            return {}
        failed = {}
        for i in np.flatnonzero(~ok).tolist():
            what = ("constraint violation" if eta1[i] != eta1[i] else
                    "multiplier" if finite_w[i] else "model vector")
            failed[i] = NumericDivergenceError(self.states[i].id, boundaries[i], what)
        return failed

    _ARRAYS = ("w", "w_global", "tolerance", "lam", "mu", "mu_sum", "t_local",
               "eta0", "eta1", "grad")

    def sync(self, members: Sequence[int]) -> None:
        """Write the given members' arrays back into their states (none
        before the first step).  A state's model and gradient are its rows
        of the step's arrays, which no later step writes."""
        if self.grad is None:
            return
        mu, mu_sum, t_local = self.mu.tolist(), self.mu_sum.tolist(), self.t_local.tolist()
        eta0, eta1 = self.eta0.tolist(), self.eta1.tolist()
        for i in members:
            s = self.states[i]
            s.w, s.last_grad = self.w[i], self.grad[i]
            s.mu, s.mu_sum, s.t_local = mu[i], mu_sum[i], t_local[i]
            s.eta0, s.eta1 = eta0[i], eta1[i]

    def keep(self, count: int) -> None:
        """Sync the members from count on, then keep only the first count."""
        self.sync(range(count, len(self.states)))
        del self.states[count:]
        for name in self._ARRAYS:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[:count])

    def drop(self, members: Sequence[int]) -> None:
        """Sync the given members, then take them out of the round."""
        self.sync(members)
        keep = np.ones(len(self.states), dtype=bool)
        keep[list(members)] = False
        self.states = [s for s, k in zip(self.states, keep.tolist()) if k]
        for name in self._ARRAYS:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[keep])


def finalize_cluster(state: CoworkerState, cfg: AdaptiveConfig) -> UplinkPayload:
    """Close a cluster: refresh the tolerance, build the payload, size the next cluster."""
    iters = state.iter_k
    mu_bar = state.mu_bar
    state.tolerance = update_tolerance(mu_bar, cfg)
    payload = UplinkPayload(
        sender=state.id,
        w=state.w.copy(),
        mu_bar=mu_bar,
        timestamp=state.timestamp,
        iters_in_cluster=iters,
        last_grad=state.last_grad,
    )
    state.iter_k = update_iter_count(mu_bar, cfg)
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
