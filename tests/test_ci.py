"""The CI workflow runs the tier-1 command that ROADMAP.md states, on 3.11 and
3.12 (numpy 2.4, which made the goldens, needs 3.11), once as written and once
in Python's development mode (``-X dev``), and golden-checks every perfbench
input in a second job.  Both jobs log numpy's version and SIMD level after
installing, and OpenBLAS names the kernel it loaded (``Core: <kernel>``),
since the golden digests depend on all three.  The golden job also runs the
benchmark itself once per workload, briefly, which covers the parts of
``perfbench/`` that the golden script does not run, and golden-checks 16
input seeds per workload again with rounds of any size.  The ``test`` extra
pins the numpy line that made the goldens."""

import json
import re
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
SHOW_RUNTIME = 'python -c "import numpy; numpy.show_runtime()"'


def test_the_workflow_runs_the_tier1_command():
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text(encoding="utf-8")).group(1)
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text(encoding="utf-8"))
    assert set(workflow["jobs"]) == {"tests", "golden"}
    job = workflow["jobs"]["tests"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.11", "3.12"]
    runs = [step["run"] for step in job["steps"] if "run" in step]
    dev = tier1.replace(" python -m ", " python -X dev -m ", 1)
    assert dev != tier1
    assert runs == ["pip install -e '.[test]'", SHOW_RUNTIME, tier1, dev]


def test_both_jobs_log_the_openblas_kernel():
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text(encoding="utf-8"))
    for job in workflow["jobs"].values():
        (step,) = [step for step in job["steps"] if step.get("run") == SHOW_RUNTIME]
        assert step["env"] == {"OPENBLAS_VERBOSE": "2"}


def test_the_workflow_golden_checks_every_perfbench_input():
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text(encoding="utf-8"))
    runs = [step["run"] for step in workflow["jobs"]["golden"]["steps"] if "run" in step]
    script = "tests/golden_all_inputs.py"
    assert runs[:2] == ["pip install -e '.[test]'", SHOW_RUNTIME]
    assert runs[2].endswith(f" python {script}")
    assert (ROOT / script).is_file()


def test_the_golden_job_also_checks_inputs_through_rounds_of_any_size():
    # the K = 8 workload never forms a round of the engine's minimum size,
    # so a second pass sets it to 1 over the first 16 input seeds
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text(encoding="utf-8"))
    runs = [step["run"] for step in workflow["jobs"]["golden"]["steps"] if "run" in step]
    assert runs[3] == ("PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} "
                       "python tests/golden_all_inputs.py --round-min 1 --seeds 0-15")


def test_the_test_extra_pins_the_numpy_line_of_the_goldens():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (test,) = re.findall(r"^test = (\[.*\])$", pyproject, flags=re.M)
    assert '"numpy>=2.4,<2.5"' in test


# the last line of a benchmark run must report correct outputs
CORRECT_CHECK = """import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)"""


def test_the_golden_job_runs_the_benchmark_once_per_workload():
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text(encoding="utf-8"))
    steps = workflow["jobs"]["golden"]["steps"]
    assert steps[-1]["name"] == "One short benchmark run of each workload"
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert steps[-1]["run"] == (
        f"for workload in {' '.join(names)}; do\n"
        '  python perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0 \\\n'
        f"    | tail -n 1 | python -c '{CORRECT_CHECK}'\n"
        "done\n")


def test_the_benchmark_check_passes_only_a_correct_last_line():
    def status(line):
        return subprocess.run([sys.executable, "-c", CORRECT_CHECK], input=line, text=True,
                              capture_output=True).returncode

    assert status('{"correct": true, "attempted": 4, "failed": 0, "metrics": {}}') == 0
    assert status('{"correct": false, "attempted": 4, "failed": 1, "metrics": {}}') != 0
    assert status('{"correct": 1}') != 0
    assert status("Traceback (most recent call last):") != 0
