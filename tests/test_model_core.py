"""Loss, gradient, and fairness-weight unit tests.

The gradient implementation is checked against an independent central
finite-difference oracle before anything else relies on it.
"""

import itertools
import math

import numpy as np
import pytest

from afafed.model_core import (
    LossKind,
    LossModel,
    ShardSet,
    _losses,
    _residuals,
    check_weights,
    feature_major,
    global_evaluation,
    global_gradient_arrays,
    global_risk_arrays,
    jain_fairness_index,
    minibatch_gradient,
    quadratic_global_minimum,
    risk_arrays,
    shard_smoothness,
    smoothness_constant,
    stack_shards,
    uniform_weights,
)
from afafed.stream_manager import StreamBuffer, admit, sample_minibatch


def fd_gradient(model, w, X, y):
    """Central-difference gradient oracle; step scales with coordinate size."""
    g = np.zeros_like(w)
    for j in range(w.size):
        h = 1e-6 * (1.0 + abs(w[j]))
        wp, wm = w.copy(), w.copy()
        wp[j] += h
        wm[j] -= h
        g[j] = (risk_arrays(model, wp, X, y) - risk_arrays(model, wm, X, y)) / (2.0 * h)
    return g


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def make_shard(rng, n, d, kind):
    X = rng.standard_normal((n, d))
    if kind is LossKind.QUADRATIC:
        y = X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    else:
        y = rng.integers(0, 2, size=n).astype(np.float64)
    return X, y


@pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
@pytest.mark.parametrize("d", [1, 3, 7])
def test_gradient_matches_finite_differences(kind, d):
    rng = np.random.default_rng(1234 + d)
    model = LossModel(kind, d)
    for trial in range(10):
        X, y = make_shard(rng, 12, d, kind)
        w = rng.standard_normal(d) * (3.0 if trial % 2 else 0.3)
        g = minibatch_gradient(model, w, X, y)
        assert rel_err(g, fd_gradient(model, w, X, y)) <= 1e-5


def test_quadratic_hand_values():
    model = LossModel(LossKind.QUADRATIC, 1)
    X, y = np.array([[1.0]]), np.array([1.0])
    w = np.array([0.0])
    assert risk_arrays(model, w, X, y) == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(minibatch_gradient(model, w, X, y), [-1.0], atol=1e-15)


def test_logistic_value_at_origin():
    # at w = 0 every example predicts probability 1/2, costing ln 2
    model = LossModel(LossKind.LOGISTIC, 3)
    rng = np.random.default_rng(7)
    X, y = make_shard(rng, 20, 3, LossKind.LOGISTIC)
    assert risk_arrays(model, np.zeros(3), X, y) == pytest.approx(np.log(2.0), rel=1e-12)


def test_logistic_matches_naive_formula_in_safe_range():
    model = LossModel(LossKind.LOGISTIC, 2)
    rng = np.random.default_rng(8)
    X = rng.uniform(-1, 1, size=(15, 2))
    y = rng.integers(0, 2, size=15).astype(np.float64)
    w = rng.uniform(-1, 1, size=2)
    p = 1.0 / (1.0 + np.exp(-(X @ w)))
    naive = float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
    assert risk_arrays(model, w, X, y) == pytest.approx(naive, rel=1e-12)


def test_logistic_stable_at_extreme_scores():
    model = LossModel(LossKind.LOGISTIC, 1)
    X = np.array([[1.0], [-1.0]])
    y = np.array([1.0, 0.0])
    w = np.array([500.0])
    v = risk_arrays(model, w, X, y)
    g = minibatch_gradient(model, w, X, y)
    assert np.isfinite(v) and v == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(g))


def test_global_risk_weighted_combination():
    model = LossModel(LossKind.QUADRATIC, 1)
    # shard risks at w=0: mean of 0.5*y^2, over shards of 1 and 2 rows
    shard_a = (np.array([[1.0]]), np.array([np.sqrt(2.0)]))          # risk 1
    shard_b = (np.array([[1.0], [3.0]]), np.array([2.0, 2.0]))       # risk 2
    w = np.zeros(1)
    got = global_risk_arrays(model, w, stack_shards([shard_a, shard_b]), np.array([0.3, 0.7]))
    assert got == pytest.approx(0.3 * 1.0 + 0.7 * 2.0, rel=1e-12)


def test_global_arrays_match_per_shard_sums():
    # one pass over the stacked rows must equal the weighted sum of per-shard
    # means, with each shard's own size in its mean
    rng = np.random.default_rng(11)
    for kind in (LossKind.QUADRATIC, LossKind.LOGISTIC):
        model = LossModel(kind, 4)
        arrays = [make_shard(rng, n, 4, kind) for n in (9, 1, 23, 5)]
        data = stack_shards(arrays)
        for _ in range(10):
            raw = rng.uniform(0.1, 1.0, size=4)
            lam = raw / raw.sum()
            w = rng.standard_normal(4)
            risk = sum(l * risk_arrays(model, w, X, y) for l, (X, y) in zip(lam, arrays))
            grad = sum(l * minibatch_gradient(model, w, X, y) for l, (X, y) in zip(lam, arrays))
            assert global_risk_arrays(model, w, data, lam) == pytest.approx(risk, rel=1e-12)
            np.testing.assert_allclose(global_gradient_arrays(model, w, data, lam), grad,
                                       rtol=1e-12, atol=1e-15)


# the earlier evaluation formulas, kept as a reference: softplus by
# np.logaddexp and one dot with per-row weights built by np.repeat


def reference_losses(model, z, y):
    if model.kind is LossKind.QUADRATIC:
        r = z - y
        return 0.5 * (r * r)
    return np.logaddexp(0.0, z) - y * z


def reference_global_risk(model, w, data, weights):
    row_weights = np.repeat(np.asarray(weights, dtype=np.float64) / data.sizes, data.sizes)
    return float(row_weights @ reference_losses(model, data.X @ w, data.y))


# the earlier one-line kernels, kept as a reference for the buffer-reusing ones


def reference_residuals(model, z, y):
    if model.kind is LossKind.QUADRATIC:
        return z - y
    return 0.5 * (1.0 + np.tanh(0.5 * z)) - y


def reference_one_line_losses(model, z, y):
    if model.kind is LossKind.QUADRATIC:
        r = z - y
        return 0.5 * (r * r)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z


def reference_global_gradient(model, w, data, weights):
    # row-major products, every row weighted by its shard's weight / size
    row_weights = np.repeat(np.asarray(weights, dtype=np.float64) / data.sizes, data.sizes)
    return data.X.T @ (row_weights * reference_residuals(model, data.X @ w, data.y))


def test_global_risk_matches_the_reference_formulas():
    rng = np.random.default_rng(13)
    sizes = (1, 17, 1, 6, 40, 1, 3)
    for kind in (LossKind.QUADRATIC, LossKind.LOGISTIC):
        model = LossModel(kind, 4)
        data = stack_shards([make_shard(rng, n, 4, kind) for n in sizes])
        for scale in (0.1, 1.0, 30.0):          # 30: scores far into both tails
            for _ in range(10):
                raw = rng.uniform(0.0, 1.0, size=len(sizes))
                lam = raw / raw.sum()
                w = scale * rng.standard_normal(4)
                got = global_risk_arrays(model, w, data, lam)
                assert got == pytest.approx(reference_global_risk(model, w, data, lam),
                                            rel=1e-12)


def test_global_gradient_matches_the_reference_formulas():
    # the feature-major products sum in another order than the row-major ones
    rng = np.random.default_rng(14)
    sizes = (1, 17, 1, 6, 40, 1, 3)
    for kind in (LossKind.QUADRATIC, LossKind.LOGISTIC):
        model = LossModel(kind, 4)
        data = stack_shards([make_shard(rng, n, 4, kind) for n in sizes])
        for scale in (0.1, 1.0, 30.0):
            for _ in range(10):
                raw = rng.uniform(0.0, 1.0, size=len(sizes))
                lam = raw / raw.sum()
                w = scale * rng.standard_normal(4)
                np.testing.assert_allclose(global_gradient_arrays(model, w, data, lam),
                                           reference_global_gradient(model, w, data, lam),
                                           rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
@pytest.mark.parametrize("n", [1, 64, 4000])
def test_loss_kernels_equal_their_one_line_forms_bit_for_bit(kind, n):
    rng = np.random.default_rng(n)
    model = LossModel(kind, 1)
    z = 30.0 * rng.standard_normal(n)
    z[rng.integers(0, n, size=3)] = (800.0, -800.0, np.nan)
    y = rng.integers(0, 2, size=n).astype(np.float64)
    z_before = z.copy()
    assert np.array_equal(_losses(model, z, y), reference_one_line_losses(model, z, y),
                          equal_nan=True)
    assert np.array_equal(_residuals(model, z, y), reference_residuals(model, z, y),
                          equal_nan=True)
    assert np.array_equal(z, z_before, equal_nan=True)


def test_logistic_loss_is_finite_and_matches_logaddexp_in_the_tails():
    model = LossModel(LossKind.LOGISTIC, 1)
    z = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
    for label in (0.0, 1.0):
        y = np.full(z.shape, label)
        got = _losses(model, z, y)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, reference_losses(model, z, y), rtol=1e-15, atol=0.0)
    assert _losses(model, np.zeros(1), np.zeros(1))[0] == math.log(2.0)
    assert np.isnan(_losses(model, np.array([np.nan]), np.zeros(1))[0])


def test_shard_set_with_an_empty_shard_or_a_wrong_total_refuses_to_evaluate():
    model = LossModel(LossKind.QUADRATIC, 2)
    data = ShardSet(np.ones((3, 2)), np.ones(3), (2, 0, 1), np.ones((2, 3)))
    lam = uniform_weights(3)
    with pytest.raises(ValueError, match="every shard needs at least one row"):
        global_risk_arrays(model, np.zeros(2), data, lam)
    with pytest.raises(ValueError, match="every shard needs at least one row"):
        global_gradient_arrays(model, np.zeros(2), data, lam)
    for sizes in ((1, 1), (2, 2)):          # 2 and 4 rows, over 3
        data = ShardSet(np.ones((3, 2)), np.ones(3), sizes, np.ones((2, 3)))
        with pytest.raises(ValueError, match="shard sizes add up to"):
            global_risk_arrays(model, np.zeros(2), data, uniform_weights(2))


def test_stacked_shards_are_views_in_order():
    rng = np.random.default_rng(12)
    arrays = [make_shard(rng, n, 3, LossKind.QUADRATIC) for n in (4, 7, 2)]
    data = stack_shards(arrays)
    assert data.X.shape == (13, 3) and data.sizes == (4, 7, 2)
    for (X, y), (Xv, yv) in zip(arrays, data.views()):
        np.testing.assert_array_equal(Xv, X)
        np.testing.assert_array_equal(yv, y)
        assert np.shares_memory(Xv, data.X) and np.shares_memory(yv, data.y)
    np.testing.assert_allclose(data.row_weights(np.array([0.2, 0.7, 0.1])),
                               [0.05] * 4 + [0.1] * 7 + [0.05] * 2)
    with pytest.raises(ValueError):
        data.row_weights(np.array([0.5, 0.5]))


def test_stacked_shards_keep_a_read_only_feature_major_copy():
    # stacking builds no XT; feature_major builds it once, for evaluation
    rng = np.random.default_rng(15)
    plain = stack_shards([make_shard(rng, n, 3, LossKind.QUADRATIC) for n in (4, 7, 2)])
    assert plain.XT is None
    data = feature_major(plain)
    assert feature_major(data) is data
    assert data.X is plain.X and data.y is plain.y and data.sizes == plain.sizes
    np.testing.assert_array_equal(data.XT, data.X.T)
    assert data.XT.shape == (3, 13) and data.XT.flags.c_contiguous
    assert not np.shares_memory(data.XT, data.X)
    for arr in (data.X, data.y, data.XT):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    for Xv, yv in data.views():
        assert np.shares_memory(Xv, data.X) and np.shares_memory(yv, data.y)


def test_one_evaluation_gives_both_parts_bit_for_bit():
    # the risk and the gradient from one score product equal the one-part calls
    rng = np.random.default_rng(16)
    for kind in (LossKind.QUADRATIC, LossKind.LOGISTIC):
        model = LossModel(kind, 4)
        data = feature_major(stack_shards([make_shard(rng, n, 4, kind) for n in (9, 1, 23)]))
        w = rng.standard_normal(4)
        lam, uniform = np.array([0.5, 0.2, 0.3]), uniform_weights(3)
        risk, grad = global_evaluation(model, w, data, lam, uniform)
        assert risk == global_risk_arrays(model, w, data, lam)
        np.testing.assert_array_equal(grad, global_gradient_arrays(model, w, data, uniform))
        assert global_evaluation(model, w, data, lam, None)[1] is None
        assert global_evaluation(model, w, data, None, uniform)[0] is None
        # a set without XT evaluates through a transient copy, to the same bits
        assert global_evaluation(model, w, data._replace(XT=None), lam, None)[0] == risk


def test_convexity_midpoint():
    rng = np.random.default_rng(21)
    for kind in (LossKind.QUADRATIC, LossKind.LOGISTIC):
        model = LossModel(kind, 5)
        X, y = make_shard(rng, 30, 5, kind)
        for _ in range(20):
            a = rng.standard_normal(5)
            b = rng.standard_normal(5)
            mid = risk_arrays(model, 0.5 * (a + b), X, y)
            chord = 0.5 * (risk_arrays(model, a, X, y) + risk_arrays(model, b, X, y))
            assert mid <= chord + 1e-12


def test_smoothness_constant_bounds_gradient_variation():
    rng = np.random.default_rng(31)
    for kind in (LossKind.QUADRATIC, LossKind.LOGISTIC):
        model = LossModel(kind, 4)
        arrays = [make_shard(rng, 25, 4, kind) for _ in range(3)]
        L = smoothness_constant(model, stack_shards(arrays))
        for X, y in arrays:
            for _ in range(25):
                a = rng.standard_normal(4) * 2
                b = rng.standard_normal(4) * 2
                lhs = np.linalg.norm(
                    minibatch_gradient(model, a, X, y) - minibatch_gradient(model, b, X, y))
                assert lhs <= L * np.linalg.norm(a - b) * (1 + 1e-9)


def test_quadratic_smoothness_is_tight():
    # for the quadratic loss the gradient map is exactly linear with the Gram matrix
    rng = np.random.default_rng(32)
    model = LossModel(LossKind.QUADRATIC, 3)
    X, y = make_shard(rng, 40, 3, LossKind.QUADRATIC)
    L = shard_smoothness(model, X)
    gram = (X.T @ X) / X.shape[0]
    top_vec = np.linalg.eigh(gram)[1][:, -1]
    a = np.zeros(3)
    b = top_vec
    lhs = np.linalg.norm(minibatch_gradient(model, a, X, y) - minibatch_gradient(model, b, X, y))
    assert lhs == pytest.approx(L * np.linalg.norm(a - b), rel=1e-9)


def test_minibatch_average_over_all_subsets_is_exact_gradient():
    # enumerating every size-m batch and averaging must reproduce the full
    # gradient: each example appears in the same number of subsets
    rng = np.random.default_rng(41)
    model = LossModel(LossKind.QUADRATIC, 2)
    X, y = rng.standard_normal((5, 2)), rng.standard_normal(5)
    w = rng.standard_normal(2)
    full = minibatch_gradient(model, w, X, y)
    for m in (1, 2, 3):
        batches = [list(b) for b in itertools.combinations(range(5), m)]
        mean_g = np.mean([minibatch_gradient(model, w, X[b], y[b]) for b in batches], axis=0)
        np.testing.assert_allclose(mean_g, full, rtol=1e-12, atol=1e-14)


def test_minibatch_full_batch_equals_exact():
    # a full-buffer minibatch is the whole shard in a random order
    rng = np.random.default_rng(42)
    model = LossModel(LossKind.LOGISTIC, 3)
    X = rng.standard_normal((8, 3))
    y = rng.integers(0, 2, size=8).astype(np.float64)
    buf = StreamBuffer(X, y, capacity=8, minibatch_size=8)
    for _ in range(8):
        admit(buf)
    w = rng.standard_normal(3)
    Xb, yb = sample_minibatch(buf, rng)
    np.testing.assert_allclose(minibatch_gradient(model, w, Xb, yb),
                               minibatch_gradient(model, w, X, y), rtol=1e-12, atol=1e-15)


def test_quadratic_global_minimum_is_stationary_and_minimal():
    rng = np.random.default_rng(51)
    model = LossModel(LossKind.QUADRATIC, 4)
    data = stack_shards([make_shard(rng, n, 4, LossKind.QUADRATIC) for n in (20, 12, 31)])
    raw = rng.uniform(0.2, 1.0, size=3)
    lam = raw / raw.sum()
    w_star, f_star = quadratic_global_minimum(data, lam)
    g = global_gradient_arrays(model, w_star, data, lam)
    assert np.linalg.norm(g) <= 1e-10
    for _ in range(20):
        w = w_star + rng.standard_normal(4)
        assert global_risk_arrays(model, w, data, lam) >= f_star - 1e-12


# ---------------- fairness weights ---------------- #


def test_jain_hand_values():
    assert jain_fairness_index(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(0.5)
    assert jain_fairness_index(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(0.25)
    assert jain_fairness_index(uniform_weights(7)) == pytest.approx(1.0)


def test_jain_scale_invariant_and_bounded():
    rng = np.random.default_rng(61)
    for _ in range(50):
        k = int(rng.integers(1, 12))
        w = rng.uniform(0.0, 1.0, size=k)
        if w.sum() == 0.0:
            continue
        fi = jain_fairness_index(w)
        assert 1.0 / k - 1e-12 <= fi <= 1.0 + 1e-12
        assert jain_fairness_index(3.7 * w) == pytest.approx(fi, rel=1e-12)


def test_jain_rejects_all_zero():
    with pytest.raises(ValueError):
        jain_fairness_index(np.zeros(3))


def test_weight_helpers():
    u = uniform_weights(4)
    check_weights(u)
    np.testing.assert_allclose(u, 0.25)
    with pytest.raises(ValueError):
        check_weights(np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        check_weights(np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        uniform_weights(0)


def test_stack_and_dimension_checks():
    data = stack_shards([(np.array([[1.0, 2.0]]), np.array([3.0]))])
    assert data.X.shape == (1, 2) and data.y.shape == (1,)
    with pytest.raises(ValueError):
        stack_shards([])
    with pytest.raises(ValueError):
        stack_shards([(np.zeros((0, 2)), np.zeros(0))])
    with pytest.raises(ValueError):
        stack_shards([(np.zeros((3, 2)), np.zeros(2))])
    with pytest.raises(ValueError):
        stack_shards([(np.zeros((3, 2)), np.zeros(3)), (np.zeros((3, 4)), np.zeros(3))])
    model = LossModel(LossKind.QUADRATIC, 2)
    with pytest.raises(ValueError):
        risk_arrays(model, np.zeros(3), data.X, data.y)
    with pytest.raises(ValueError):
        risk_arrays(model, np.zeros(2), np.zeros((4, 3)), np.zeros(4))
    with pytest.raises(ValueError):
        global_risk_arrays(model, np.zeros(3), data, np.ones(1))
