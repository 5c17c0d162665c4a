"""The package's export list: every name resolves and deleted names stay gone."""

import importlib
import inspect

import pytest

import afafed
from afafed.coworker import CoworkerState
from afafed.harness import CONFIG_SCHEMA
from afafed.network_sim import ArrivalProcess, SimulationEngine, _Runtime
from afafed.server import MixingConfig, ServerState


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
    # an iteration's duration is a number on CoworkerSetup
    ("network_sim", "ComputeModel"),
    ("bounds", "ensemble_averages"),
    ("bounds", "effective_horizon"),
    ("bounds", "gradient_variance_bound"),
    ("harness", "_fmt"),
    ("harness", "_per_coworker_loss"),
    # the summary is built from plain values; no pass converts it
    ("harness", "_plain"),
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


@pytest.mark.parametrize("name", [
    # a timer carries its cluster's token, and a coworker stalls only at warm-up
    "timer_token", "stalls",
    # a cluster is its token, anchor and iterations left; the link holds the timer
    "phase", "iters_done", "timer_duration",
    # the law gives each arrival's time from the one before: the engine
    # holds the stream's position, and no iterator holds it again
    "arrivals",
])
def test_deleted_runtime_fields_stay_gone(name):
    assert name not in _Runtime.__dataclass_fields__


@pytest.mark.parametrize("cls, name", [
    # the clock counts acceptances, and the band is read from the two sums
    (ServerState, "accepted"),
    (ServerState, "th_upper"),
    (ServerState, "th_lower"),
    # mu_bar's count is t_local + 1
    (CoworkerState, "mu_count"),
    # the mixing fields take the names of the config's mixing keys
    (MixingConfig, "phi_kind"),
    (MixingConfig, "phi_alpha"),
    (MixingConfig, "phi_hinge_b"),
])
def test_deleted_state_fields_stay_gone(cls, name):
    assert name not in cls.__dataclass_fields__
    assert not hasattr(cls, name)


def test_mu_bar_is_derived_not_stored():
    # mu_bar is mu_sum / (t_local + 1), read through a property
    assert "mu_bar" not in CoworkerState.__dataclass_fields__
    assert isinstance(CoworkerState.mu_bar, property)


def test_the_delivery_tie_rule_is_not_an_engine_method():
    # the tie rule is network_sim._delivered, a function of the log and one cursor
    assert not hasattr(SimulationEngine, "_delivered")


def test_the_arrival_recurrence_is_not_an_engine_method():
    # each law gives its own times through ArrivalProcess.time_of
    assert not hasattr(SimulationEngine, "_arrival_after")


def test_an_arrival_law_is_not_a_generator_of_times():
    # a generator per coworker held the stream's position a second time,
    # and made a built engine unpicklable
    assert not hasattr(ArrivalProcess, "arrival_times")


def test_the_timer_factor_and_k_are_stated_once():
    # the link: section's LinkModel holds timer_factor, and K is the sum of the counts
    assert "timer_factor" not in inspect.signature(SimulationEngine.__init__).parameters
    assert "K" not in CONFIG_SCHEMA["topology"].type
