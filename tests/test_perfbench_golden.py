"""Input seed 0 of every benchmark workload reproduces its golden outputs.

``perfbench/run.py`` golden-checks 64 input seeds per workload, but only when
the benchmark runs.  This runs one pipeline per workload through the same
``workloads.prepare``/``run_pipeline``/``check`` path, written once in
``golden_all_inputs.check_input``, so a change that moves the simulated
trajectory or the evaluation columns fails the test suite too.
"""

import argparse

import pytest

from afafed import coworker, network_sim
from golden_all_inputs import check_input, main, seed_range, workloads

WORKLOADS = ("k100-eval", "k100-lossy-noeval", "k8-trace-profile")


@pytest.mark.parametrize("name", WORKLOADS)
def test_input_seed_0_matches_the_golden_file(name):
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    assert check_input(name, 0, workloads.load_golden()) == []


def test_the_script_checks_a_chosen_subset(capsys):
    assert main(["k8-trace-profile", "--seeds", "1-1"]) == 0
    assert capsys.readouterr().out == "1 of 1 inputs match the golden file\n"


def test_the_script_can_run_rounds_of_any_size(capsys, monkeypatch):
    # the option sets the engine's minimum for the process; the test restores it
    monkeypatch.setattr(network_sim, "_ROUND_MIN", network_sim._ROUND_MIN)
    sizes = []
    real = coworker.Round.step
    monkeypatch.setattr(coworker.Round, "step",
                        lambda rnd, rows, *args: sizes.append(len(rows)) or real(rnd, rows, *args))
    assert main(["k8-trace-profile", "--seeds", "1-1", "--round-min", "1"]) == 0
    assert capsys.readouterr().out == "1 of 1 inputs match the golden file\n"
    assert network_sim._ROUND_MIN == 1 and sizes


def test_seed_ranges_are_inclusive_and_bounded():
    assert seed_range("0-63") == range(workloads.GOLDEN_SEEDS)
    assert seed_range("5-5") == range(5, 6)
    for bad in ("5-3", "0-64", "-1-2", "7", "a-b", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            seed_range(bad)


@pytest.mark.parametrize("argv, named", [
    (["k8-trace-profile", "k9-nothing"], "k9-nothing"),
    (["--seeds", "0-99"], "0-99"),
    (["--round-min", "0"], "--round-min"),
])
def test_an_unknown_workload_or_seed_exits_2_naming_it(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
