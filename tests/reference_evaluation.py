"""Independent reference formulas for the weighted global risk and gradient.

These are the earlier evaluation formulas: softplus by ``np.logaddexp``,
the residuals in their one-line form, row-major products and one dot with
per-row weights built by ``np.repeat``.  They share no code with
``model_core.GlobalEvaluator``, so tests that check the evaluator or the
engine's evaluation columns against them compare two computations, not one.
Agreement is to ``rel=1e-12``, plus :data:`LOSS_ABS_FLOOR` for the logistic
risk.
"""

import numpy as np

from afafed.model_core import LossKind

# The logistic evaluation computes each row's loss as relu(s z) + ln 2 -
# ln(1 + |tanh(z / 2)|), so a row whose loss is tiny carries an absolute
# error of a few units in the last place of ln 2, not a relative one.
LOSS_ABS_FLOOR = 5e-16


def reference_losses(model, z, y):
    if model.kind is LossKind.QUADRATIC:
        r = z - y
        return 0.5 * (r * r)
    return np.logaddexp(0.0, z) - y * z


def reference_residuals(model, z, y):
    if model.kind is LossKind.QUADRATIC:
        return z - y
    return 0.5 * (1.0 + np.tanh(0.5 * z)) - y


def _row_weights(data, weights):
    return np.repeat(np.asarray(weights, dtype=np.float64) / data.sizes, data.sizes)


def reference_global_risk(model, w, data, weights):
    """sum_k weights[k] * risk_k over the shards of data."""
    return float(_row_weights(data, weights) @ reference_losses(model, data.X @ w, data.y))


def reference_global_gradient(model, w, data, weights):
    """Gradient of :func:`reference_global_risk` with respect to w."""
    return data.X.T @ (_row_weights(data, weights)
                       * reference_residuals(model, data.X @ w, data.y))
