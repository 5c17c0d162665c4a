"""Input seed 0 of every benchmark workload reproduces its golden outputs.

``perfbench/run.py`` golden-checks 64 input seeds per workload, but only when
the benchmark runs.  This runs one pipeline per workload through the same
``workloads.prepare``/``run_pipeline``/``check`` path, written once in
``golden_all_inputs.check_input``, so a change that moves the simulated
trajectory or the evaluation columns fails the test suite too.
"""

import pytest

from golden_all_inputs import check_input, workloads

WORKLOADS = ("k100-eval", "k100-lossy-noeval", "k8-trace-profile")


@pytest.mark.parametrize("name", WORKLOADS)
def test_input_seed_0_matches_the_golden_file(name):
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    assert check_input(name, 0, workloads.load_golden()) == []
