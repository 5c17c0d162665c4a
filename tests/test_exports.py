"""The package's export list: every name resolves and deleted names stay gone."""

import importlib

import pytest

import afafed
from afafed.coworker import CoworkerState
from afafed.network_sim import SimulationEngine, _Runtime
from afafed.server import ServerState


def test_every_exported_name_resolves_once():
    assert len(afafed.__all__) == len(set(afafed.__all__))
    missing = [name for name in afafed.__all__ if not hasattr(afafed, name)]
    assert missing == []


@pytest.mark.parametrize("module, name", [
    ("coworker", "handle_timer_expiry"),
    # the step rule is stated once, inside run_single_iteration
    ("coworker", "update_step_sizes"),
    ("coworker", "primal_step"),
    ("coworker", "dual_step"),
    ("coworker", "update_mu_average"),
    # the server's rules are stated once, inside process_uplink
    ("server", "update_fairness_stats"),
    ("server", "update_thresholds"),
    ("server", "scaling_functions"),
    ("server", "apply_fairness_update"),
    ("server", "compute_age"),
    ("server", "compute_beta"),
    ("server", "aggregate"),
    ("model_core", "_residuals"),
    ("model_core", "normalized_weights"),
    ("model_core", "global_evaluation"),
    ("model_core", "global_risk_arrays"),
    ("model_core", "global_gradient_arrays"),
    ("model_core", "feature_major"),
    ("model_core", "_layout"),
    ("model_core", "_blocks"),
    ("network_sim", "MetricsRow"),
    ("bounds", "ensemble_averages"),
    ("bounds", "effective_horizon"),
    ("bounds", "gradient_variance_bound"),
    ("harness", "_fmt"),
    ("harness", "_per_coworker_loss"),
])
def test_deleted_names_cannot_be_imported(module, name):
    assert name not in afafed.__all__
    with pytest.raises(ImportError):
        exec(f"from afafed import {name}", {})
    assert not hasattr(importlib.import_module(f"afafed.{module}"), name)


@pytest.mark.parametrize("name", ["shard_weights", "row_weights", "shard_sums"])
def test_deleted_shard_set_helpers_stay_gone(name):
    # the shard layout belongs to GlobalEvaluator; a ShardSet is (X, y, sizes) and views()
    assert not hasattr(afafed.ShardSet, name)


@pytest.mark.parametrize("name", ["timer_token", "stalls"])
def test_deleted_runtime_fields_stay_gone(name):
    # a timer carries its cluster's token, and a coworker stalls only at warm-up
    assert name not in _Runtime.__dataclass_fields__


@pytest.mark.parametrize("cls, name", [
    # the clock counts acceptances, and the band is read from the two sums
    (ServerState, "accepted"),
    (ServerState, "th_upper"),
    (ServerState, "th_lower"),
    # mu_bar's count is t_local + 1
    (CoworkerState, "mu_count"),
])
def test_deleted_state_fields_stay_gone(cls, name):
    assert name not in cls.__dataclass_fields__
    assert not hasattr(cls, name)


def test_the_delivery_tie_rule_is_not_an_engine_method():
    # the tie rule is network_sim._delivered, a function of the log and one cursor
    assert not hasattr(SimulationEngine, "_delivered")
