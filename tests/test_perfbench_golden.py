"""Input seed 0 of every benchmark workload reproduces its golden outputs.

``perfbench/run.py`` golden-checks 64 input seeds per workload, but only when
the benchmark runs.  This runs one pipeline per workload through the same
``workloads.prepare``/``run_pipeline``/``check`` path, so a change that moves
the simulated trajectory or the evaluation columns fails the test suite too.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

WORKLOADS = ("k100-eval", "k100-lossy-noeval", "k8-trace-profile")


@pytest.mark.parametrize("name", WORKLOADS)
def test_input_seed_0_matches_the_golden_file(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    inputs = workloads.prepare(name, 0, str(tmp_path))
    out_dir = tmp_path / "out"
    workloads.run_pipeline(inputs, str(out_dir))
    assert workloads.check(inputs, str(out_dir), workloads.load_golden()) == []
