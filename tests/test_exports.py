"""The package's export list: every name resolves and deleted names stay gone."""

import importlib

import pytest

import afafed


def test_every_exported_name_resolves_once():
    assert len(afafed.__all__) == len(set(afafed.__all__))
    missing = [name for name in afafed.__all__ if not hasattr(afafed, name)]
    assert missing == []


@pytest.mark.parametrize("module, name", [
    ("coworker", "handle_timer_expiry"),
    ("model_core", "normalized_weights"),
    ("model_core", "global_evaluation"),
    ("model_core", "global_risk_arrays"),
    ("model_core", "global_gradient_arrays"),
    ("model_core", "feature_major"),
    ("network_sim", "MetricsRow"),
])
def test_deleted_names_cannot_be_imported(module, name):
    assert name not in afafed.__all__
    with pytest.raises(ImportError):
        exec(f"from afafed import {name}", {})
    assert not hasattr(importlib.import_module(f"afafed.{module}"), name)
