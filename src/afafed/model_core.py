"""Loss models, empirical risks, gradients, and fairness-weight utilities.

Model vectors are plain 1-D float64 numpy arrays.  Two loss models are
provided: scalar quadratic regression, 0.5 * (y - w.x)^2, whose smoothness
constant and global minimum are analytically available, and binary logistic
classification with labels in {0, 1}.  All averages are uniform over the
examples they range over.

Data are stacked arrays only: a shard is an (m, d) feature matrix X with an
(m,) target vector y, and the K shards together are one read-only
:class:`ShardSet` of X, y and the shard sizes.  A :class:`GlobalEvaluator`
is the one path to the weighted global risk and its gradient, and the one
owner of the shard layout: it takes either or both from one matrix-vector
product for the scores.  The risk sums each shard's losses and takes one
K-length dot with the weights λ_k/n_k; the gradient weights every row of
shard k by ρ = g_k/n_k before its product with the features transposed.
Both products run over the evaluator's own XT, a read-only feature-major
(d, n) copy of X, because a matrix-vector product over n rows of d = 5
features is about three times faster that way; per-shard views and
minibatch gathers keep using X.  The evaluator builds the shard offsets,
XT and ρ once, so a run that evaluates many models pays for them once.

The logistic evaluation needs labels in {0, 1}.  Its XT scales each row's
column by the row's label sign s = 1 - 2y, so its product gives s z.  With
h = tanh(s z / 2), one tanh per row serves both parts:
s (sigmoid(z) - y) = (h + 1) / 2, and the loss softplus(s z) is
relu(s z) + ln 2 - ln(1 + |h|), whose last term each shard sums as the log
of products over 64-row blocks.  No exp or log1p runs per row.  Each row's
loss then carries an absolute error of up to about 5e-16, a few units in
the last place of ln 2, so a row classified with a margin, whose loss is
far below that, is not resolved relative to its own size.  The
per-iteration ``minibatch_gradient`` keeps the residual sigmoid(z) - y,
and ``risk_arrays`` the softplus(z) - y z form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np


class LossKind(enum.Enum):
    QUADRATIC = "quadratic"
    LOGISTIC = "logistic"


@dataclass(frozen=True)
class LossModel:
    """Per-example loss family plus the model dimension it expects."""

    kind: LossKind
    dim: int


class ShardSet(NamedTuple):
    """The K local data sets stacked into one (X, y); shard k holds the next sizes[k] rows."""

    X: np.ndarray
    y: np.ndarray
    sizes: Tuple[int, ...]

    def views(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-shard (X, y) views into the stacked arrays, in shard order."""
        out, start = [], 0
        for n in self.sizes:
            out.append((self.X[start:start + n], self.y[start:start + n]))
            start += n
        return out


def stack_shards(shards: Sequence[Tuple[np.ndarray, np.ndarray]]) -> ShardSet:
    """Concatenate per-shard (X, y) pairs into one read-only :class:`ShardSet`."""
    if len(shards) == 0:
        raise ValueError("need at least one shard")
    for k, (X, y) in enumerate(shards):
        if X.ndim != 2 or X.shape[0] == 0 or np.shape(y) != (X.shape[0],):
            raise ValueError(
                f"shard {k}: need a non-empty (m, d) matrix and (m,) targets, "
                f"got {X.shape} and {np.shape(y)}"
            )
    X = np.concatenate([X for X, _ in shards], dtype=np.float64)
    y = np.concatenate([y for _, y in shards], dtype=np.float64)
    X.flags.writeable = y.flags.writeable = False
    return ShardSet(X, y, tuple(len(y) for _, y in shards))


def _check_dims(model: LossModel, w: np.ndarray, X: np.ndarray) -> None:
    if w.shape != (model.dim,):
        raise ValueError(f"model vector has shape {w.shape}, expected ({model.dim},)")
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValueError(f"feature matrix has shape {X.shape}, expected (m, {model.dim})")


def _losses(model: LossModel, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each example's loss given its score z = x.w, in a fresh array; z is not written.

    Each formula runs its ufuncs in the order of its one-line form, but on
    reused buffers, so the bits are the same.
    """
    if model.kind is LossKind.QUADRATIC:
        out = z - y                     # 0.5 * (r * r), r = z - y
        out *= out
        out *= 0.5
        return out
    # -[y log p + (1-y) log(1-p)] written stably as softplus(z) - y z, with
    # softplus(z) = max(z, 0) + log1p(exp(-|z|)): np.logaddexp(0, z)'s formula,
    # in whole-array passes; exp never overflows and NaN propagates
    out = np.maximum(z, 0.0)
    t = np.abs(z)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    out += t
    np.multiply(y, z, out=t)
    out -= t
    return out


def risk_arrays(model: LossModel, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Mean per-example loss over stacked data."""
    _check_dims(model, w, X)
    return float(np.mean(_losses(model, X @ w, y)))


def minibatch_gradient(
    model: LossModel, w: np.ndarray, X: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Gradient of ``risk_arrays``: the mean per-example gradient over the rows of (X, y).

    Over a sampled minibatch this is the stochastic gradient; over a whole
    shard it is the exact local gradient.  Shapes are not checked here, as
    this runs once per local iteration: ``SimulationEngine`` checks w0 and
    the shard widths once, at construction.  ``ndarray.dot`` has less call
    overhead than ``@`` and gives the same bits here, which the golden
    traces pin.

    On minibatch shapes every numpy call is mostly overhead, and a Python
    scalar operand adds to it: a ufunc on a 5-vector costs about 0.44 µs
    with an array operand, 0.8 µs with a float and 1.1-1.5 µs with an int.
    So the residual r = dloss/dz overwrites the fresh score array, each
    ufunc the one-line formula's in its order; the product with the
    features is taken as ``r.dot(X)``, which skips the transposed view and
    gives the bits of ``X.T.dot(r)`` (checked on 3,000 random shapes); and
    the mean divides by the row count as a float, which rounds the same as
    the int.
    """
    r = X.dot(w)
    if model.kind is LossKind.LOGISTIC:
        # sigmoid(z) = 0.5 * (1 + tanh(z / 2)): stable for large |z|
        r *= 0.5
        np.tanh(r, out=r)
        r += 1.0
        r *= 0.5
    r -= y
    g = r.dot(X)
    g /= float(len(X))
    return g


_BLOCK = 64     # rows per product of 1 + |h| in the logistic risk; each lies in [1, 2]


class GlobalEvaluator:
    """The weighted global risk and its gradient over one :class:`ShardSet`,
    at any w, with every array that does not depend on w built once.

    Construction lays out the shards: each shard's first row and its size
    as a float, and for the logistic loss the first row of every
    _BLOCK-row block inside each shard and each shard's first block.  It
    builds XT, a read-only C-contiguous copy of ``data.X.T`` that both
    products run over, with each column scaled by its label sign s = 1 - 2y
    for the logistic loss; and the per-row gradient weights rho
    (``grad_weights[k] / sizes[k]`` on each row of shard k).  X is read-only
    too, so X and XT cannot drift apart.  A set with an empty shard, with
    sizes that do not add up to its rows, or with a grad_weights count other
    than K is refused here.  A run builds one evaluator, and only when it
    evaluates.
    """

    def __init__(self, model: LossModel, data: ShardSet, grad_weights: np.ndarray) -> None:
        sizes = data.sizes
        # an empty shard has no mean, and np.add.reduceat would silently
        # give it the next shard's first row
        if not sizes or min(sizes) < 1:
            raise ValueError(f"shard sizes {sizes}: every shard needs at least one row")
        rows = sum(sizes)
        if not rows == len(data.X) == len(data.y):
            raise ValueError(f"shard sizes add up to {rows} rows, "
                             f"but X has {len(data.X)} and y {len(data.y)}")
        self.model = model
        self.data = data
        self._starts = np.cumsum((0,) + sizes[:-1])
        self._counts = np.array(sizes, dtype=np.float64)
        XT = data.X.T
        if model.kind is LossKind.LOGISTIC:
            y = data.y
            if not ((y == 0.0) | (y == 1.0)).all():         # NaN fails too
                raise ValueError("the logistic loss needs every label in {0, 1}")
            XT = np.multiply(XT, 1.0 - 2.0 * y, order="C")
            self._ln2_counts = math.log(2.0) * self._counts
            # a product of 64 factors in [1, 2] is at most 2**64, so it can
            # neither overflow nor underflow
            self._blocks = np.concatenate(
                [np.arange(s, s + n, _BLOCK) for s, n in zip(self._starts, sizes)])
            self._first_block = np.cumsum([0] + [-(-n // _BLOCK) for n in sizes[:-1]])
        self.XT = np.ascontiguousarray(XT)
        self.XT.flags.writeable = False
        self.rho = np.repeat(self._shard_weights(grad_weights), sizes)

    def _shard_weights(self, weights: np.ndarray) -> np.ndarray:
        """weights[k] / sizes[k]: the weight of each row of shard k."""
        if len(weights) != len(self._counts):
            raise ValueError(f"{len(self._counts)} shards but {len(weights)} weights")
        return weights / self._counts

    def __call__(self, w: np.ndarray, risk_weights: Optional[np.ndarray],
                 grad: bool) -> Tuple[Optional[float], Optional[np.ndarray]]:
        """(risk, gradient) at w from one score product: the risk
        sum_k risk_weights[k] * risk_k when risk_weights is not None, and the
        gradient of sum_k grad_weights[k] * risk_k when grad is true.

        At most three n-row arrays are alive at once.
        """
        model, data = self.model, self.data
        _check_dims(model, w, data.X)
        if model.kind is LossKind.LOGISTIC:
            return self._logistic(w, risk_weights, grad)
        z = w @ self.XT
        risk = g = None
        if risk_weights is not None:
            # K sums; no n-row array kept
            losses = np.add.reduceat(_losses(model, z, data.y), self._starts)
            risk = float(self._shard_weights(risk_weights) @ losses)
        if grad:
            z -= data.y                             # the residuals, over z
            z *= self.rho
            g = self.XT @ z
        return risk, g

    def _logistic(self, w: np.ndarray, risk_weights: Optional[np.ndarray],
                  grad: bool) -> Tuple[Optional[float], Optional[np.ndarray]]:
        # XT carries s = 1 - 2y, so u = (w / 2) @ XT is s z / 2.  With
        # h = tanh(u), s (sigmoid(z) - y) = (h + 1) / 2 and
        #   softplus(s z) = 2 relu(u) + ln 2 - ln(1 + |h|)
        # so one tanh per row serves both; the last sum is the log of
        # products over _BLOCK-row blocks.  The gradient's product with XT
        # multiplies by s again, and a sign flip rounds exactly.
        u = (0.5 * w) @ self.XT
        risk = g = None
        if risk_weights is not None:
            buf = np.maximum(u, 0.0)
            relu = np.add.reduceat(buf, self._starts)
        np.tanh(u, out=u)
        if risk_weights is not None:
            np.abs(u, out=buf)
            buf += 1.0
            logs = np.log(np.multiply.reduceat(buf, self._blocks))
            del buf
            losses = 2.0 * relu + self._ln2_counts - np.add.reduceat(logs, self._first_block)
            risk = float(self._shard_weights(risk_weights) @ losses)
        if grad:
            u += 1.0
            u *= self.rho
            g = self.XT @ u
            g *= 0.5
        return risk, g


# ---------------- fairness weights ---------------- #


def uniform_weights(k: int) -> np.ndarray:
    if k < 1:
        raise ValueError("need at least one coworker")
    return np.full(k, 1.0 / k)


def check_weights(weights: np.ndarray) -> None:
    """Assert the simplex invariant: non-negative entries summing to 1 within 1e-12."""
    # the reductions .any() and .sum() run, without numpy's _methods layer
    if np.logical_or.reduce(weights < 0.0):
        raise ValueError("fairness weights must be non-negative")
    total = np.add.reduce(weights)
    if not abs(float(total) - 1.0) <= 1e-12:     # NaN fails too
        raise ValueError(f"fairness weights sum to {total!r}, expected 1")


def jain_fairness_index(weights: np.ndarray) -> float:
    """Jain's index (sum w)^2 / (K * sum w^2); 1/K for one-hot, 1 for uniform."""
    # np.add.reduce is the sum np.sum runs, without its dispatch layers
    w = np.asarray(weights, dtype=np.float64)
    sq = float(np.add.reduce(w * w))
    if sq == 0.0:
        raise ValueError("fairness index undefined for an all-zero vector")
    s = float(np.add.reduce(w))
    return s * s / (len(w) * sq)


# ---------------- analytic helpers (quadratic model) ---------------- #


def shard_smoothness(model: LossModel, X: np.ndarray) -> float:
    """Largest eigenvalue of the shard's mean Gram matrix (scaled by 1/4 for logistic)."""
    gram = (X.T @ X) / X.shape[0]
    top = float(np.linalg.eigvalsh(gram)[-1])
    if model.kind is LossKind.LOGISTIC:
        return 0.25 * top
    return top


def smoothness_constant(model: LossModel, data: ShardSet) -> float:
    """Smoothness constant valid for every local risk: the max over shards."""
    return max(shard_smoothness(model, X) for X, _ in data.views())


def quadratic_global_minimum(data: ShardSet, weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimizer and minimum value of the weighted quadratic global risk.

    Solves the weighted normal equations; only meaningful for the quadratic
    loss, where the global risk is an exact quadratic form.
    """
    evaluate = GlobalEvaluator(LossModel(LossKind.QUADRATIC, data.X.shape[1]), data, weights)
    c = evaluate.rho
    H = data.X.T @ (c[:, None] * data.X)
    b = data.X.T @ (c * data.y)
    w_star = np.linalg.solve(H, b)
    return w_star, evaluate(w_star, weights, False)[0]
