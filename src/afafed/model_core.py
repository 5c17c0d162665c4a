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
owner of the shard layout.  It evaluates a stack of up to 64 models at
once; a single model is a stack of one.  The risk of model b sums each
shard's losses and weighs them by λ_bk/n_k; the gradient weights every row
of shard k by ρ_k = g_k/n_k.

The evaluator walks the n rows in tiles of 512.  Per tile it takes the
scores of all 64 model slots in one matrix product, over a zero-padded
(64, d) model block and XT, a read-only feature-major (d, n) copy of X; it
runs the loss passes only on the rows of the models it was given, in two
preallocated, cache-line-aligned 64 x 512 buffers; and it takes the
gradient in a second product, of the residuals with XTρ, a copy of XT
whose column for each row of shard k is scaled by ρ_k, built by the first
call that asks for a gradient.  Each tile writes the loss sum of every
shard segment that it holds into one row per model of a per-call array,
and the call adds each shard's segments in one pass at the end.  A tile's
rows stay in cache through all its passes, which a pass over all n rows
per model would not.

The shapes are fixed: every call runs its products on 64 slots and on the
same tiles, whatever the number of models.  A row of a matrix product can
round differently when the height of the product changes: a one-row
product runs as a matrix-vector product, and under OpenBLAS 0.3.31's
SkylakeX, Haswell and Prescott kernels the gradient rows of 64-row
products differed from those of 1-, 2- or 63-row ones.  At one fixed shape
a row's bits depend neither on its slot nor on the other rows, so a model
evaluated in a stack gets the bits of the same model evaluated alone.  The
run's evaluation observer relies on that: a row's values do not depend on
which models share its chunk.  The evaluator builds XT and the tile layout
once, and XTρ at most once, so a run that evaluates many models pays for
them once; per-shard views and minibatch gathers keep using X.

The logistic evaluation needs labels in {0, 1}.  Its XT scales each row's
column by the row's label sign s = 1 - 2y, so its product gives s z.  With
h = tanh(s z / 2), one tanh per row serves both parts:
s (sigmoid(z) - y) = (h + 1) / 2, and the loss softplus(s z) is
relu(s z) + ln 2 - ln(1 + |h|), whose last term each shard sums as the log
of products over blocks of up to 64 rows, none crossing a shard or tile
edge.  The tiles write the products into a per-call array, and one log
per call runs over all of them.  No exp or log1p runs per row.  Each
row's loss then carries an absolute error of up to about 5e-16, a few
units in the last place of ln 2, so a row classified with a margin, whose
loss is far below that, is not resolved relative to its own size.  The
per-iteration ``minibatch_gradient`` keeps the residual sigmoid(z) - y,
and ``risk_arrays`` the softplus(z) - y z form.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

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
_TILE = 512     # data rows per tile of an evaluation


def _cache_aligned(size: int) -> np.ndarray:
    """An uninitialised float64 array of size entries that starts on a 64-byte line.

    numpy aligns its data to 16 bytes only.  A score buffer whose rows start
    off a cache line made a whole evaluation about 8 % slower, and where it
    lands depends on the heap's state, so on code that ran before it.
    """
    raw = np.empty(size + 7)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start:start + size]


class GlobalEvaluator:
    """The weighted global risk and its gradient over one :class:`ShardSet`,
    for a stack of up to SLOTS models, with every array that does not depend
    on the models built once.

    Construction builds XT, a read-only C-contiguous copy of ``data.X.T``
    that the score product runs over, with each column scaled by its label
    sign s = 1 - 2y for the logistic loss; the per-shard gradient weights
    ``shard_rho`` (``grad_weights[k] / sizes[k]``, the weight of each row of
    shard k); and the tile layout, which cuts the rows into tiles of _TILE
    rows, each tile into segments, one per shard that it holds, and for the
    logistic risk each segment into blocks of up to _BLOCK rows.  The
    gradient product runs over ``XT_rho``, built on the first call that asks
    for a gradient.  X is read-only too, so X and XT cannot drift apart.  A
    set with an empty shard, with sizes that do not add up to its rows, or
    with a grad_weights count other than K is refused here.  A run builds
    one evaluator, and only when it evaluates.
    """

    SLOTS = 64      # models per call at most: every product runs on this many

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
        self._counts = np.array(sizes, dtype=np.float64)
        XT = data.X.T
        if model.kind is LossKind.LOGISTIC:
            y = data.y
            if not ((y == 0.0) | (y == 1.0)).all():         # NaN fails too
                raise ValueError("the logistic loss needs every label in {0, 1}")
            XT = np.multiply(XT, 1.0 - 2.0 * y, order="C")
            self._ln2_counts = math.log(2.0) * self._counts
        self.XT = np.ascontiguousarray(XT)
        self.XT.flags.writeable = False
        self.shard_rho = self._shard_weights(grad_weights)

        # the layout, as offsets inside each tile: a segment is the rows of
        # one shard inside one tile, and a block is up to _BLOCK rows of one
        # segment (a product of 64 factors in [1, 2] is at most 2**64, so it
        # can neither overflow nor underflow)
        end = np.cumsum(sizes)
        edge = np.arange(0, rows + _TILE, _TILE)
        edge[-1] = rows                                 # tile t holds rows [edge[t], edge[t + 1])
        starts = np.zeros(rows + 1, dtype=bool)
        starts[end] = starts[edge] = True
        bound = np.flatnonzero(starts)                  # each segment's first row, then rows
        seg = bound[:-1]
        seg_blocks = (bound[1:] - seg + (_BLOCK - 1)) // _BLOCK
        # each segment's first block, then the block count
        seg_block = np.zeros(len(bound), dtype=np.intp)
        np.cumsum(seg_blocks, out=seg_block[1:])
        tile_seg = np.searchsorted(seg, edge)           # each tile's first segment, then the count
        tile_block = seg_block[tile_seg]
        block = (np.repeat(seg - _BLOCK * seg_block[:-1], seg_blocks)
                 + _BLOCK * np.arange(seg_block[-1]))
        self._seg_offset = seg % _TILE
        self._block_offset = block % _TILE
        # each shard's first segment and first block, for the per-shard sums
        self._shard_seg = np.searchsorted(seg, end - sizes)
        self._shard_block = seg_block[self._shard_seg]
        # per tile: its rows [a, b), its segments [s, s_end) and its blocks [c, c_end)
        edges, segs, blocks = edge.tolist(), tile_seg.tolist(), tile_block.tolist()
        self._tiles = list(zip(edges, edges[1:], segs, segs[1:], blocks, blocks[1:]))
        # the zero-padded model block and two SLOTS x _TILE buffers; the last
        # tile uses their first SLOTS x (its rows) entries
        self._models = np.zeros((self.SLOTS, model.dim))
        self._scores = _cache_aligned(self.SLOTS * _TILE)
        self._work = _cache_aligned(self.SLOTS * _TILE)
        self._grad_tile = np.empty((self.SLOTS, model.dim))

    def _shard_weights(self, weights: np.ndarray) -> np.ndarray:
        """weights[..., k] / sizes[k]: the weight of each row of shard k."""
        if np.shape(weights)[-1] != len(self._counts):
            raise ValueError(f"{len(self._counts)} shards but {np.shape(weights)[-1]} weights")
        return weights / self._counts

    @functools.cached_property
    def XT_rho(self) -> np.ndarray:
        """XT with the column of each row of shard k scaled by shard_rho[k]:
        the read-only operand of the gradient product, built on first use."""
        XT_rho = self.XT * np.repeat(self.shard_rho, self.data.sizes)
        XT_rho.flags.writeable = False
        return XT_rho

    def __call__(self, w: np.ndarray, risk_weights: Optional[np.ndarray],
                 grad: bool) -> Tuple[Any, Optional[np.ndarray]]:
        """(risks, gradients) of a stack of models, from one score product
        per tile: the risk sum_k risk_weights[b, k] * risk_k of each of the
        first len(risk_weights) models, and when grad is true the gradient of
        sum_k grad_weights[k] * risk_k at every model.

        w is (B, d) with 1 <= B <= SLOTS, and risk_weights None or (R, K)
        with R <= B.  A 1-D w is a stack of one, with a 1-D risk_weights, and
        gives a float risk and a 1-D gradient.  A model's values are the same
        bits at every slot and beside any other models, because every call
        runs its products at the same shapes (see the module docstring).
        """
        model, XT, y = self.model, self.XT, self.data.y
        single = np.ndim(w) == 1
        if single:
            w = w[None]
            risk_weights = None if risk_weights is None else risk_weights[None]
        stack = len(w)
        if np.shape(w) != (stack, model.dim) or not 1 <= stack <= self.SLOTS:
            raise ValueError(f"models have shape {np.shape(w)}, expected (B, {model.dim}) "
                             f"with 1 <= B <= {self.SLOTS}")
        weighed = 0 if risk_weights is None else len(risk_weights)
        logistic = model.kind is LossKind.LOGISTIC
        if weighed:
            risk_weights = self._shard_weights(risk_weights)
            if weighed > stack:
                raise ValueError(f"{stack} models but {weighed} rows of risk weights")
            # per segment its sum, and per block its product; logistic only
            sums = np.empty((weighed, len(self._seg_offset)))
            products = np.empty((weighed, len(self._block_offset))) if logistic else None
        elif not grad:
            return None, None
        g = np.zeros((stack, model.dim)) if grad else None
        XT_rho = self.XT_rho if grad else None
        # XT carries s = 1 - 2y for the logistic loss, so the halved models
        # give scores u = s z / 2.  With h = tanh(u),
        # s (sigmoid(z) - y) = (h + 1) / 2 and
        #   softplus(s z) = 2 relu(u) + ln 2 - ln(1 + |h|)
        # so one tanh per row serves both; the last sum is the log of
        # products over blocks.  The gradient's product with XT_rho multiplies
        # by s again, and a sign flip rounds exactly.
        models = self._models
        np.multiply(w, 0.5 if logistic else 1.0, out=models[:stack])
        models[stack:] = 0.0
        for a, b, s, s_end, c, c_end in self._tiles:
            width = b - a
            scores = self._scores[:self.SLOTS * width].reshape(self.SLOTS, width)
            np.matmul(models, XT[:, a:b], out=scores)
            u, risky = scores[:stack], scores[:weighed]
            work = self._work[:weighed * width].reshape(weighed, width)
            if not logistic:
                u -= y[a:b]                             # the residuals
            if weighed:
                if logistic:
                    np.maximum(risky, 0.0, out=work)
                else:
                    np.multiply(risky, risky, out=work)
                np.add.reduceat(work, self._seg_offset[s:s_end], axis=1, out=sums[:, s:s_end])
            if logistic:
                np.tanh(u, out=u)
                if weighed:
                    np.abs(risky, out=work)
                    work += 1.0
                    np.multiply.reduceat(work, self._block_offset[c:c_end], axis=1,
                                         out=products[:, c:c_end])
                if grad:
                    u += 1.0
            if grad:
                np.matmul(scores, XT_rho[:, a:b].T, out=self._grad_tile)
                g += self._grad_tile[:stack]
        risk = None
        if weighed:
            sums = np.add.reduceat(sums, self._shard_seg, axis=1)
            if logistic:
                np.log(products, out=products)
                losses = 2.0 * sums + self._ln2_counts - np.add.reduceat(
                    products, self._shard_block, axis=1)
            else:
                losses = 0.5 * sums
            risk = np.add.reduce(risk_weights * losses, axis=1)
        if logistic and grad:
            g *= 0.5
        if single:
            return (None if risk is None else float(risk[0])), (None if g is None else g[0])
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
    c = np.repeat(evaluate.shard_rho, data.sizes)
    H = data.X.T @ (c[:, None] * data.X)
    b = data.X.T @ (c * data.y)
    w_star = np.linalg.solve(H, b)
    return w_star, evaluate(w_star, weights, False)[0]
