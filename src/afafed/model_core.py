"""Loss models, empirical risks, gradients, and fairness-weight utilities.

Model vectors are plain 1-D float64 numpy arrays.  Two loss models are
provided: scalar quadratic regression, 0.5 * (y - w.x)^2, whose smoothness
constant and global minimum are analytically available, and binary logistic
classification with labels in {0, 1}.  All averages are uniform over the
examples they range over.

Data are stacked arrays only: a shard is an (m, d) feature matrix X with an
(m,) target vector y, and the K shards together are one read-only
:class:`ShardSet`.  The weighted global risk and gradient each take one
matrix-vector product for the scores.  The risk then sums each shard's
losses and takes one K-length dot with the weights λ_k/n_k; the gradient
weights every row of shard k by λ_k/n_k before its product with the
features transposed.  Both products run over ``ShardSet.XT``, a
feature-major (d, n) copy kept beside the row-major X, because a
matrix-vector product over n rows of d = 5 features is about three times
faster that way; per-shard views and minibatch gathers keep using X.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

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
    """The K local data sets stacked into one (X, y); shard k holds the next sizes[k] rows.

    XT is a C-contiguous copy of X.T, the layout the global evaluation's
    matrix-vector products run over.
    """

    X: np.ndarray
    y: np.ndarray
    sizes: Tuple[int, ...]
    XT: np.ndarray

    def views(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-shard (X, y) views into the stacked arrays, in shard order."""
        out, start = [], 0
        for n in self.sizes:
            out.append((self.X[start:start + n], self.y[start:start + n]))
            start += n
        return out

    def shard_weights(self, weights: np.ndarray) -> np.ndarray:
        """weights[k] / sizes[k]: the weight of each row of shard k."""
        if len(weights) != len(self.sizes):
            raise ValueError(f"{len(self.sizes)} shards but {len(weights)} weights")
        return np.asarray(weights, dtype=np.float64) / _layout(self.sizes)[1]

    def row_weights(self, weights: np.ndarray) -> np.ndarray:
        """:meth:`shard_weights` on every row of its shard, so a weighted sum of
        per-row values is the weights-weighted sum of per-shard means."""
        return np.repeat(self.shard_weights(weights), self.sizes)

    def shard_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum of per-row values over each shard, in shard order."""
        starts, _, rows = _layout(self.sizes)
        # np.add.reduceat would let the last shard absorb extra rows or stop short
        if len(values) != rows:
            raise ValueError(f"shard sizes add up to {rows} rows but got {len(values)} values")
        return np.add.reduceat(values, starts)


@functools.lru_cache(maxsize=16)
def _layout(sizes: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray, int]:
    """Each shard's first row, its size as a float, and the total row count,
    for one sizes tuple.

    Cached because every evaluation of a run uses the same shard sizes.  An
    empty shard has no mean, and np.add.reduceat would silently give it the
    next shard's first row, so empty shards are refused.
    """
    if not sizes or min(sizes) < 1:
        raise ValueError(f"shard sizes {sizes}: every shard needs at least one row")
    starts = np.cumsum((0,) + sizes[:-1])
    counts = np.array(sizes, dtype=np.float64)
    starts.flags.writeable = counts.flags.writeable = False
    return starts, counts, sum(sizes)


def stack_shards(shards: Sequence[Tuple[np.ndarray, np.ndarray]]) -> ShardSet:
    """Concatenate per-shard (X, y) pairs into one :class:`ShardSet`.

    Its arrays are read-only, so X and its feature-major copy XT cannot drift apart.
    """
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
    XT = np.ascontiguousarray(X.T)
    X.flags.writeable = y.flags.writeable = XT.flags.writeable = False
    return ShardSet(X, y, tuple(len(y) for _, y in shards), XT)


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


def _residuals(model: LossModel, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Derivative of each example's loss with respect to its score z = x.w,
    in a fresh array the caller may write; z is not written."""
    if model.kind is LossKind.QUADRATIC:
        return z - y
    # sigmoid(z) - y, with sigmoid(z) = 0.5 * (1 + tanh(z / 2)): stable for large |z|
    r = 0.5 * z
    np.tanh(r, out=r)
    r += 1.0
    r *= 0.5
    r -= y
    return r


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
    """
    g = X.T.dot(_residuals(model, X.dot(w), y))
    g /= X.shape[0]
    return g


def global_risk_arrays(
    model: LossModel, w: np.ndarray, data: ShardSet, weights: np.ndarray
) -> float:
    """Weighted global risk sum_k weights[k] * risk_k, from per-shard sums of the losses."""
    _check_dims(model, w, data.X)
    losses = _losses(model, data.XT.T @ w, data.y)
    return float(data.shard_weights(weights) @ data.shard_sums(losses))


def global_gradient_arrays(
    model: LossModel, w: np.ndarray, data: ShardSet, weights: np.ndarray
) -> np.ndarray:
    """Gradient of :func:`global_risk_arrays` with respect to w."""
    _check_dims(model, w, data.X)
    r = _residuals(model, data.XT.T @ w, data.y)
    r *= data.row_weights(weights)
    return data.XT @ r


# ---------------- fairness weights ---------------- #


def uniform_weights(k: int) -> np.ndarray:
    if k < 1:
        raise ValueError("need at least one coworker")
    return np.full(k, 1.0 / k)


def check_weights(weights: np.ndarray) -> None:
    """Assert the simplex invariant: non-negative entries summing to 1 within 1e-12."""
    if np.any(weights < 0.0):
        raise ValueError("fairness weights must be non-negative")
    if not abs(float(weights.sum()) - 1.0) <= 1e-12:     # NaN fails too
        raise ValueError(f"fairness weights sum to {weights.sum()!r}, expected 1")


def jain_fairness_index(weights: np.ndarray) -> float:
    """Jain's index (sum w)^2 / (K * sum w^2); 1/K for one-hot, 1 for uniform."""
    w = np.asarray(weights, dtype=np.float64)
    sq = float(np.sum(w * w))
    if sq == 0.0:
        raise ValueError("fairness index undefined for an all-zero vector")
    s = float(np.sum(w))
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
    c = data.row_weights(weights)
    H = data.X.T @ (c[:, None] * data.X)
    b = data.X.T @ (c * data.y)
    w_star = np.linalg.solve(H, b)
    model = LossModel(LossKind.QUADRATIC, data.X.shape[1])
    return w_star, global_risk_arrays(model, w_star, data, weights)
