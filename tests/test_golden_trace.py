"""Golden trace: pinned digests of five harness runs.

The simulator is a pure function of (config, seed), so a change to how the
engine runs must leave what it simulates bit for bit the same.  Each case
pins the SHA-256 of the seven trajectory columns of ``metrics.csv``, the
iteration count, the final virtual time, per-coworker acceptances, the
profiling estimates and every coworker's post-run state.  The calendar's
event count (``events_processed``) is left out: it measures the engine, not
the simulated protocol.

To regenerate after an intended change of the protocol, run
``PYTHONPATH=src python tests/test_golden_trace.py`` and paste its output
over ``GOLDEN``.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional

import numpy as np
import pytest

from afafed.harness import metrics_csv_text, resolve_config, run_experiment

TRAJECTORY_COLUMNS = 7

CASES: Dict[str, Dict[str, Any]] = {
    "small": {"doc": {"sim": {"T": 60}}},
    "lossy": {"doc": {"link": {"p_loss": 0.3, "rate_jitter": 0.2, "downlink_delay": 0.01},
                      "sim": {"T": 80}}},
    "horizon": {"doc": {"link": {"downlink_delay": 0.02},
                        "sim": {"T": None, "horizon": 3.0}}},
    "logistic_skew_profile": {
        "doc": {"model": {"kind": "logistic"},
                "data": {"partition": "label_skew", "classes_per_coworker": 1},
                "sim": {"T": 60}},
        "profile": True,
    },
    # a 6-row shard behind a 24-slot buffer: the window wraps around the
    # shard and holds each row more than once
    "wrap_repeat_profile": {
        "doc": {"data": {"shard_size": 6}, "buffer": {"capacity": 24, "minibatch": 8},
                "sim": {"T": 60}},
        "profile": True,
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _trajectory_sha(rows) -> str:
    lines = metrics_csv_text(rows).splitlines()
    return _sha("\n".join(",".join(line.split(",")[:TRAJECTORY_COLUMNS]) for line in lines))


def _estimates_sha(estimates) -> Optional[str]:
    if estimates is None:
        return None
    fields = (estimates.c_hat, estimates.gamma_hat, estimates.a_hat, estimates.k0,
              tuple(estimates.feasible), estimates.samples, estimates.f0_hat,
              estimates.f_star_hat, estimates.zeta_hat)
    return _sha(repr(fields))


def _states_sha(engine) -> str:
    digest = hashlib.sha256()
    for rt in engine.runtimes:
        st = rt.state
        digest.update(np.ascontiguousarray(st.w, dtype=np.float64).tobytes())
        digest.update(repr((st.mu, st.mu_bar, st.lambda_last, st.t_local)).encode())
    return digest.hexdigest()


def fingerprint(case: Dict[str, Any]) -> Dict[str, Any]:
    """The pinned outputs of one case, freshly computed."""
    exp, result, estimates = run_experiment(resolve_config(case["doc"]),
                                            enable_profiling=case.get("profile", False))
    return {
        "aggregations": result.aggregations,
        "trajectory_sha256": _trajectory_sha(result.rows),
        "iterations_total": result.iterations_total,
        "final_time": repr(result.final_time),
        "accepted": result.accepted_by.tolist(),
        "estimates_sha256": _estimates_sha(estimates),
        "coworker_states_sha256": _states_sha(exp.engine),
    }


GOLDEN: Dict[str, Dict[str, Any]] = {
    "small": {
        "aggregations": 60,
        "trajectory_sha256": "37346dd8be40105f362beadd4c32a6a5004d3336ae7745c9f3e2915766e03230",
        "iterations_total": 310,
        "final_time": "4.664450515057685",
        "accepted": [6, 28, 0, 5, 11, 10, 0, 0],
        "estimates_sha256": None,
        "coworker_states_sha256":
            "c49078ecf3b1b67d45f0462d8809ab41466b2c2ac7921cb9a113e61b039b34b4",
    },
    "lossy": {
        "aggregations": 80,
        "trajectory_sha256": "86b56b5c4cd853a0a5b09f7bde4087fa41bfbfa1ecfa5d535a650b875eb7c227",
        "iterations_total": 614,
        "final_time": "6.392374761138743",
        "accepted": [15, 27, 9, 10, 11, 8, 0, 0],
        "estimates_sha256": None,
        "coworker_states_sha256":
            "c9b758cd94333e297ac537c5e2c7144979b4e719c9bf9aa238bdfdf53aad3728",
    },
    "horizon": {
        "aggregations": 13,
        "trajectory_sha256": "0393e4cd54965ce826a059f5b2481364d769ea218ebb79df069e27c05d2110d4",
        "iterations_total": 68,
        "final_time": "3.0",
        "accepted": [0, 9, 0, 0, 2, 2, 0, 0],
        "estimates_sha256": None,
        "coworker_states_sha256":
            "6988f20c8f865a4c1012165807653e0aea1ecb54f4a2b60069faf033adf5cd89",
    },
    "logistic_skew_profile": {
        "aggregations": 60,
        "trajectory_sha256": "3ebc2708f010d9e56b4daa4ad3282be477580f64871512fd77f1f53cbb6c71f7",
        "iterations_total": 310,
        "final_time": "4.664450515057685",
        "accepted": [6, 28, 0, 5, 11, 10, 0, 0],
        "estimates_sha256": "96c0fe671ac016afb956f6c742e36a275cd8e8c0fe480ba63e02d6d38c82fdc3",
        "coworker_states_sha256":
            "38ee36fb371ebce1519e9f68c2b89197245168b2d0ba9766bfdbd9dca150d325",
    },
    "wrap_repeat_profile": {
        "aggregations": 60,
        "trajectory_sha256": "f82c5703d9cf31d3b66f5c237775eb830c44ab70ea15c07a105d11319c5bc8e6",
        "iterations_total": 309,
        "final_time": "2.9905550184444323",
        "accepted": [11, 20, 3, 8, 8, 10, 0, 0],
        "estimates_sha256": "74c7282cfe2a85eb991ec4dce696de8a043d0fccc5be2d42510365a461ae4572",
        "coworker_states_sha256":
            "5b7f3e825636f0b3fab4d071886054e17cbbc300636b8ee348753b0f0ba51507",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace(name):
    assert fingerprint(CASES[name]) == GOLDEN[name]


# The small preset stopped by event_budget 700 when every coefficient
# delivery was a calendar event: 48 aggregations, with this digest.
BUDGET_700_ROWS = 48
BUDGET_700_SHA256 = "2433e33bc50b27fcd1d270ac51fdfc6b1bffefbee930d661b10d83edb1d6d48d"


def test_event_budget_counts_calendar_events_only():
    # neither coefficient deliveries nor the arrivals of warm buffers spend
    # the budget, so the same budget reaches further along the very same
    # trajectory
    _, result, _ = run_experiment(resolve_config({"sim": {"T": None, "event_budget": 700}}))
    assert result.events_processed == 700
    assert len(result.rows) > BUDGET_700_ROWS
    assert _trajectory_sha(result.rows[:BUDGET_700_ROWS]) == BUDGET_700_SHA256


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: fingerprint(case) for name, case in CASES.items()},
                  sort_dicts=False, width=100)
