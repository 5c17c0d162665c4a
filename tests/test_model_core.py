"""Loss, gradient, and fairness-weight unit tests.

The gradient implementation is checked against an independent central
finite-difference oracle before anything else relies on it.
"""

import itertools
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from afafed.model_core import (
    GlobalEvaluator,
    LossKind,
    LossModel,
    ShardSet,
    _losses,
    check_weights,
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
from reference_evaluation import (
    LOSS_ABS_FLOOR,
    reference_global_gradient,
    reference_global_risk,
    reference_losses,
    reference_residuals,
)


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
    lam = np.array([0.3, 0.7])
    got = GlobalEvaluator(model, stack_shards([shard_a, shard_b]), lam)(np.zeros(1), lam, False)[0]
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
            got_risk, got_grad = GlobalEvaluator(model, data, lam)(w, lam, True)
            assert got_risk == pytest.approx(risk, rel=1e-12)
            np.testing.assert_allclose(got_grad, grad, rtol=1e-12, atol=1e-15)


# the earlier one-line loss kernel, kept as a reference for the buffer-reusing one


def reference_one_line_losses(model, z, y):
    if model.kind is LossKind.QUADRATIC:
        r = z - y
        return 0.5 * (r * r)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z


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
                got = GlobalEvaluator(model, data, lam)(w, lam, False)[0]
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
                np.testing.assert_allclose(GlobalEvaluator(model, data, lam)(w, None, True)[1],
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
    assert np.array_equal(z, z_before, equal_nan=True)     # the losses leave z alone
    # the gradient's residuals, one row at a time: the gradient of the row
    # x = [1] at w = [z_i] is exactly r_i, NaN and the tails included
    r = np.array([minibatch_gradient(model, z[i:i + 1], np.ones((1, 1)), y[i:i + 1])[0]
                  for i in range(n)])
    assert np.array_equal(r, reference_residuals(model, z, y), equal_nan=True)


@pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
def test_minibatch_gradient_equals_its_one_line_form_across_models_and_sizes(kind):
    # one model serves two minibatch sizes, and two equal models share one size
    rng = np.random.default_rng(8)
    a, b = LossModel(kind, 5), LossModel(kind, 5)
    for model, m in [(a, 16), (a, 7), (b, 16), (a, 16), (b, 7)]:
        X, y = make_shard(rng, m, 5, kind)
        w = rng.standard_normal(5)
        want = X.T @ reference_residuals(model, X @ w, y) / m
        assert np.array_equal(minibatch_gradient(model, w, X, y), want)


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


@pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
def test_an_evaluator_refuses_an_empty_shard_or_a_wrong_weight_count(kind):
    # an empty shard and a wrong grad_weights count at construction, a wrong
    # risk_weights count in a call: numpy would broadcast a single weight
    model = LossModel(kind, 2)
    for sizes in ((2, 0, 1), ()):
        data = ShardSet(np.ones((3, 2)), np.ones(3), sizes)
        with pytest.raises(ValueError, match="every shard needs at least one row"):
            GlobalEvaluator(model, data, uniform_weights(3))
    data = ShardSet(np.ones((3, 2)), np.ones(3), (2, 1))
    for count in (1, 3):
        with pytest.raises(ValueError, match=f"^2 shards but {count} weights$"):
            GlobalEvaluator(model, data, uniform_weights(count))
    evaluate = GlobalEvaluator(model, data, uniform_weights(2))
    for count in (1, 3):
        with pytest.raises(ValueError, match=f"^2 shards but {count} weights$"):
            evaluate(np.zeros(2), uniform_weights(count), True)


@pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
@pytest.mark.parametrize("n_y, sizes", [(3, (1, 1)), (3, (2, 2)), (4, (1, 2))])
def test_an_evaluator_refuses_a_wrong_shard_total_at_construction(kind, n_y, sizes):
    # not at its first gradient call, with a numpy broadcast error
    data = ShardSet(np.ones((3, 2)), np.zeros(n_y), sizes)
    with pytest.raises(ValueError, match=rf"shard sizes add up to {sum(sizes)} rows, "
                                         rf"but X has 3 and y {n_y}$"):
        GlobalEvaluator(LossModel(kind, 2), data, uniform_weights(len(sizes)))


def test_stacked_shards_are_views_in_order():
    rng = np.random.default_rng(12)
    arrays = [make_shard(rng, n, 3, LossKind.QUADRATIC) for n in (4, 7, 2)]
    data = stack_shards(arrays)
    assert data.X.shape == (13, 3) and data.sizes == (4, 7, 2)
    for (X, y), (Xv, yv) in zip(arrays, data.views()):
        np.testing.assert_array_equal(Xv, X)
        np.testing.assert_array_equal(yv, y)
        assert np.shares_memory(Xv, data.X) and np.shares_memory(yv, data.y)
    weights = np.array([0.2, 0.7, 0.1])
    evaluate = GlobalEvaluator(LossModel(LossKind.QUADRATIC, 3), data, weights)
    assert np.array_equal(evaluate.shard_rho, weights / np.array(data.sizes))
    np.testing.assert_allclose(evaluate.shard_rho, [0.05, 0.1, 0.05])
    assert np.array_equal(evaluate.XT_rho,
                          data.X.T * np.repeat(weights / np.array(data.sizes), data.sizes))


def test_the_evaluator_keeps_a_read_only_xt():
    # the evaluator builds XT once, for its products; the set keeps only X
    rng = np.random.default_rng(15)
    data = stack_shards([make_shard(rng, n, 3, LossKind.QUADRATIC) for n in (4, 7, 2)])
    evaluate = GlobalEvaluator(LossModel(LossKind.QUADRATIC, 3), data, uniform_weights(3))
    assert evaluate.data is data
    np.testing.assert_array_equal(evaluate.XT, data.X.T)
    assert evaluate.XT.shape == (3, 13) and evaluate.XT.flags.c_contiguous
    assert not np.shares_memory(evaluate.XT, data.X)
    for arr in (data.X, data.y, evaluate.XT):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    for Xv, yv in data.views():
        assert np.shares_memory(Xv, data.X) and np.shares_memory(yv, data.y)


@pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
def test_xt_rho_is_xt_with_each_row_weighed_built_once_by_a_gradient_call(kind):
    rng = np.random.default_rng(16)
    sizes = (4, 7, 2)
    data = stack_shards([make_shard(rng, n, 3, kind) for n in sizes])
    weights = np.array([0.2, 0.7, 0.1])
    evaluate = GlobalEvaluator(LossModel(kind, 3), data, weights)
    w = rng.standard_normal((2, 3))
    evaluate(w, np.tile(weights, (2, 1)), False)
    assert "XT_rho" not in vars(evaluate)               # a risk-only call builds nothing
    evaluate(w, None, True)
    XT_rho = vars(evaluate)["XT_rho"]
    assert np.array_equal(XT_rho, evaluate.XT * np.repeat(weights / np.array(sizes), sizes))
    assert XT_rho.flags.c_contiguous and not np.shares_memory(XT_rho, evaluate.XT)
    with pytest.raises(ValueError):
        XT_rho[0, 0] = 1.0
    evaluate(w, np.tile(weights, (2, 1)), True)
    assert evaluate.XT_rho is XT_rho


def test_the_quadratic_minimum_builds_no_gradient_operand(monkeypatch):
    def refuse(self):
        raise AssertionError("XT_rho was built")

    monkeypatch.setattr(GlobalEvaluator, "XT_rho", property(refuse))
    rng = np.random.default_rng(17)
    data = stack_shards([make_shard(rng, n, 3, LossKind.QUADRATIC) for n in (20, 12)])
    quadratic_global_minimum(data, np.array([0.4, 0.6]))


def test_one_evaluation_gives_both_parts_bit_for_bit():
    # the risk and the gradient from one score product equal the one-part calls
    rng = np.random.default_rng(16)
    for kind in (LossKind.QUADRATIC, LossKind.LOGISTIC):
        model = LossModel(kind, 4)
        data = stack_shards([make_shard(rng, n, 4, kind) for n in (9, 1, 23)])
        w = rng.standard_normal(4)
        lam, uniform = np.array([0.5, 0.2, 0.3]), uniform_weights(3)
        evaluate = GlobalEvaluator(model, data, uniform)
        risk, grad = evaluate(w, lam, True)
        risk_only, no_grad = evaluate(w, lam, False)
        no_risk, grad_only = evaluate(w, None, True)
        assert risk == risk_only and no_grad is None
        np.testing.assert_array_equal(grad, grad_only)
        assert no_risk is None


def reference_row_losses(z, y):
    return np.logaddexp(0.0, (1.0 - 2.0 * y) * z)     # softplus(s z), s = 1 - 2y


def logistic_shards(rng, sizes, d=3):
    return stack_shards([make_shard(rng, n, d, LossKind.LOGISTIC) for n in sizes])


def test_logistic_evaluation_at_scores_of_plus_and_minus_800():
    # tanh(400) is exactly 1: correct rows lose 0 and wrong ones 800, with
    # no overflow warning (pytest turns warnings into errors)
    model = LossModel(LossKind.LOGISTIC, 1)
    X = np.array([[800.0], [800.0], [-800.0], [-800.0]])
    data = stack_shards([(X, np.array([0.0, 1.0, 0.0, 1.0]))])
    risk, grad = GlobalEvaluator(model, data, np.ones(1))(np.ones(1), np.ones(1), True)
    assert risk == 400.0
    np.testing.assert_array_equal(grad, [400.0])      # mean of x (sigmoid(z) - y)


def test_correctly_classified_rows_have_an_absolute_error_floor():
    rng = np.random.default_rng(40)
    model = LossModel(LossKind.LOGISTIC, 3)
    w = 30.0 * rng.standard_normal(3)
    X = rng.standard_normal((600, 3))
    X = X[np.abs(X @ w) > 20.0][:300]             # every row classified with a margin
    y = (X @ w > 0.0).astype(np.float64)
    expected = reference_row_losses(X @ w, y)
    assert len(X) == 300 and expected.max() < 1e-8 and expected.min() < 1e-50
    # each row as its own shard, picked out by one-hot weights
    rows = stack_shards([(X[i:i + 1], y[i:i + 1]) for i in range(300)])
    evaluate = GlobalEvaluator(model, rows, uniform_weights(300))
    got = np.array([evaluate(w, np.eye(300)[i], False)[0] for i in range(300)])
    assert np.max(np.abs(got - expected)) <= LOSS_ABS_FLOOR
    # and as one shard, whose 300 rows share five products of 1 + |h|
    one = stack_shards([(X, y)])
    risk = GlobalEvaluator(model, one, np.ones(1))(w, np.ones(1), False)[0]
    assert abs(risk - expected.mean()) <= LOSS_ABS_FLOOR


def test_a_nan_score_gives_a_nan_risk_and_gradient():
    model = LossModel(LossKind.LOGISTIC, 2)
    X = np.array([[1.0, 2.0], [np.nan, 0.5], [-1.0, 0.0]])
    data = stack_shards([(X[:2], np.array([0.0, 1.0])), (X[2:], np.array([1.0]))])
    half = np.full(2, 0.5)
    risk, grad = GlobalEvaluator(model, data, half)(np.ones(2), half, True)
    assert math.isnan(risk)
    assert np.all(np.isnan(grad))


@pytest.mark.parametrize("label", [0.5, -1.0, 2.0, np.nan])
def test_logistic_evaluation_refuses_labels_outside_0_and_1(label):
    # its loss and residual take s = 1 - 2y as a sign
    model = LossModel(LossKind.LOGISTIC, 1)
    data = stack_shards([(np.ones((2, 1)), np.array([1.0, label]))])
    with pytest.raises(ValueError, match="every label in"):
        GlobalEvaluator(model, data, np.ones(1))


@pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
def test_an_evaluator_gives_the_parts_of_one_call_bit_for_bit(kind):
    # risk-only and gradient-only calls of a reused evaluator equal the
    # calls of an evaluator built for each model: no call leaves state behind
    rng = np.random.default_rng(41)
    model = LossModel(kind, 4)
    data = stack_shards([make_shard(rng, n, 4, kind) for n in (70, 1, 130)])
    lam, uniform = np.array([0.5, 0.2, 0.3]), uniform_weights(3)
    reused = GlobalEvaluator(model, data, uniform)
    signs = 1.0 - 2.0 * data.y if kind is LossKind.LOGISTIC else 1.0
    np.testing.assert_array_equal(reused.XT, data.X.T * signs)   # logistic label signs fold in
    for _ in range(5):
        w = rng.standard_normal(4)
        risk, grad = GlobalEvaluator(model, data, uniform)(w, lam, True)
        assert reused(w, lam, True)[0] == risk == reused(w, lam, False)[0]
        got_risk, got_grad = reused(w, None, True)
        assert got_risk is None
        np.testing.assert_array_equal(got_grad, grad)
        assert reused(w, lam, False)[1] is None


@pytest.mark.parametrize("sizes", [(1,), (63,), (64,), (65,), (129,), (1, 63, 64, 65, 129)])
def test_logistic_evaluation_around_the_block_length(sizes):
    # the loss takes products of 1 + |h| over 64-row blocks inside each shard
    rng = np.random.default_rng(sum(sizes))
    model = LossModel(LossKind.LOGISTIC, 3)
    data = logistic_shards(rng, sizes)
    raw = rng.uniform(0.1, 1.0, size=len(sizes))
    lam = raw / raw.sum()
    for scale in (0.1, 1.0, 30.0):
        w = scale * rng.standard_normal(3)
        risk, grad = GlobalEvaluator(model, data, lam)(w, lam, True)
        assert risk == pytest.approx(reference_global_risk(model, w, data, lam),
                                     rel=1e-12, abs=LOSS_ABS_FLOOR)
        np.testing.assert_allclose(grad, reference_global_gradient(model, w, data, lam),
                                   rtol=1e-12, atol=1e-15)


# shard sets whose shards straddle the 512-row tiles of an evaluation, and
# that end in a short last tile
STRADDLING_SIZES = [(700, 1, 300, 20), (5, 507, 3, 600), (511, 513, 100)]
STACK_HEIGHTS = (1, 2, 3, 63, 64)
STACKED_MODELS = len(LossKind) * len(STRADDLING_SIZES) * sum(STACK_HEIGHTS)


def check_stacks_against_single_calls():
    """Check that a stack of B random models gives each model, at every slot,
    the bits of a call on that model alone, for both losses and every set of
    STRADDLING_SIZES; return the number of models checked."""
    rng = np.random.default_rng(42)
    checked = 0
    for kind, sizes in itertools.product(LossKind, STRADDLING_SIZES):
        data = stack_shards([make_shard(rng, n, 5, kind) for n in sizes])
        evaluate = GlobalEvaluator(LossModel(kind, 5), data, uniform_weights(len(sizes)))
        for stack in STACK_HEIGHTS:
            w = 3.0 * rng.standard_normal((stack, 5))
            lam = rng.dirichlet(np.ones(len(sizes)), size=stack)
            risks, grads = evaluate(w, lam, True)
            assert risks.shape == (stack,) and grads.shape == (stack, 5)
            for slot in range(stack):
                risk, grad = evaluate(w[slot], lam[slot], True)
                assert risk == risks[slot] and np.array_equal(grad, grads[slot]), \
                    (kind, sizes, stack, slot)
                checked += 1
    return checked


def test_a_stacked_call_gives_each_model_the_bits_of_a_single_call():
    assert check_stacks_against_single_calls() == STACKED_MODELS


@pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
def test_a_stack_straddling_tiles_matches_the_reference_formulas(kind):
    rng = np.random.default_rng(43)
    for sizes in STRADDLING_SIZES:
        data = stack_shards([make_shard(rng, n, 5, kind) for n in sizes])
        uniform = uniform_weights(len(sizes))
        model = LossModel(kind, 5)
        w = rng.standard_normal((4, 5))
        lam = rng.dirichlet(np.ones(len(sizes)), size=4)
        risks, grads = GlobalEvaluator(model, data, uniform)(w, lam, True)
        for b in range(4):
            assert risks[b] == pytest.approx(reference_global_risk(model, w[b], data, lam[b]),
                                             rel=1e-12, abs=LOSS_ABS_FLOOR)
            np.testing.assert_allclose(grads[b],
                                       reference_global_gradient(model, w[b], data, uniform),
                                       rtol=1e-12, atol=1e-15)


# 64-row shards, eight to a tile as in the K = 100 presets, then shards
# that straddle tiles, and a short last tile
MANY_SHARD_SIZES = (64,) * 20 + (700, 5, 300)


@pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
@pytest.mark.parametrize("stack", [1, 63, 64])
def test_a_stack_over_many_shards_per_tile_matches_the_reference_formulas(kind, stack):
    assert sum(MANY_SHARD_SIZES) % 512 > 0
    rng = np.random.default_rng(45)
    k = len(MANY_SHARD_SIZES)
    data = stack_shards([make_shard(rng, n, 5, kind) for n in MANY_SHARD_SIZES])
    grad_weights = rng.dirichlet(np.ones(k))
    model = LossModel(kind, 5)
    w = rng.standard_normal((stack, 5))
    lam = rng.dirichlet(np.ones(k), size=stack)
    risks, grads = GlobalEvaluator(model, data, grad_weights)(w, lam, True)
    for b in range(stack):
        assert risks[b] == pytest.approx(reference_global_risk(model, w[b], data, lam[b]),
                                         rel=1e-12, abs=LOSS_ABS_FLOOR)
        np.testing.assert_allclose(grads[b],
                                   reference_global_gradient(model, w[b], data, grad_weights),
                                   rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
def test_a_stack_weighs_the_risks_of_its_first_models(kind):
    # R rows of risk weights give the risks of the first R models, and the
    # gradient covers the whole stack
    rng = np.random.default_rng(44)
    data = stack_shards([make_shard(rng, n, 3, kind) for n in (600, 40)])
    evaluate = GlobalEvaluator(LossModel(kind, 3), data, uniform_weights(2))
    w = rng.standard_normal((5, 3))
    lam = rng.dirichlet(np.ones(2), size=2)
    risks, grads = evaluate(w, lam, True)
    assert risks.shape == (2,) and grads.shape == (5, 3)
    for b in range(5):
        risk, grad = evaluate(w[b], lam[b] if b < 2 else None, True)
        assert risk == (risks[b] if b < 2 else None)
        np.testing.assert_array_equal(grad, grads[b])
    assert evaluate(w, lam, False)[1] is None
    np.testing.assert_array_equal(evaluate(w, None, True)[1], grads)
    for bad in (np.zeros((0, 3)), np.zeros((65, 3)), np.zeros((2, 4))):
        with pytest.raises(ValueError, match=r"expected \(B, 3\) with 1 <= B <= 64$"):
            evaluate(bad, None, True)
    with pytest.raises(ValueError, match="^5 models but 6 rows of risk weights$"):
        evaluate(w, np.full((6, 2), 0.5), False)


def dynamic_arch_openblas():
    """Whether numpy's BLAS is an x86 OpenBLAS built with DYNAMIC_ARCH, whose
    kernel OPENBLAS_CORETYPE chooses."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):       # a numpy without the dict form
        return False
    return (platform.machine().lower() in ("x86_64", "amd64")
            and "openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not dynamic_arch_openblas(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH x86 OpenBLAS build, "
                           "so OPENBLAS_CORETYPE cannot choose its kernel")
@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_a_stacked_call_gives_the_bits_of_single_calls_under_another_kernel(core):
    # the fixed shapes rest on a property of the BLAS kernels, so the check
    # runs under other kernels too, each chosen for one child process
    tests = Path(__file__).resolve().parent
    path = [str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_VERBOSE": "2",
           "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    child = subprocess.run(
        [sys.executable, "-c",
         "import test_model_core as t; print(t.check_stacks_against_single_calls())"],
        env=env, capture_output=True, text=True, timeout=300)
    kernel = [line for line in child.stdout.splitlines() if line.startswith("Core: ")]
    assert child.returncode == 0, (kernel, child.stderr)
    assert child.stdout.splitlines()[-1] == str(STACKED_MODELS), kernel


@st.composite
def logistic_problems(draw):
    sizes = draw(st.lists(st.integers(1, 200), min_size=1, max_size=5))
    n, d = sum(sizes), 3
    labels = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
    weights = draw(hnp.arrays(np.float64, len(sizes), elements=st.floats(0.0, 1.0)))
    direction = draw(hnp.arrays(np.float64, d, elements=st.floats(-1.0, 1.0)))
    scale = draw(st.floats(0.1, 30.0))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, d))
    starts = np.cumsum([0] + sizes)
    data = stack_shards([(X[a:b], labels[a:b]) for a, b in zip(starts[:-1], starts[1:])])
    return data, weights, scale * direction


@settings(max_examples=200, deadline=None, derandomize=True)
@given(logistic_problems())
def test_logistic_evaluation_matches_the_logaddexp_reference(problem):
    data, weights, w = problem
    model = LossModel(LossKind.LOGISTIC, 3)
    risk, grad = GlobalEvaluator(model, data, weights)(w, weights, True)
    assert risk == pytest.approx(reference_global_risk(model, w, data, weights),
                                 rel=1e-12, abs=LOSS_ABS_FLOOR)
    np.testing.assert_allclose(grad, reference_global_gradient(model, w, data, weights),
                               rtol=1e-12, atol=1e-15)


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
    assert f_star == pytest.approx(reference_global_risk(model, w_star, data, lam), rel=1e-12)
    g = reference_global_gradient(model, w_star, data, lam)
    assert np.linalg.norm(g) <= 1e-10
    for _ in range(20):
        w = w_star + rng.standard_normal(4)
        assert reference_global_risk(model, w, data, lam) >= f_star - 1e-12


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
        GlobalEvaluator(model, data, np.ones(1))(np.zeros(3), np.ones(1), False)
