"""The CI workflow runs the tier-1 command that ROADMAP.md states, on 3.10 and
3.11, once as written and once in Python's development mode (``-X dev``)."""

import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent


def test_the_workflow_runs_the_tier1_command():
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text(encoding="utf-8")).group(1)
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text(encoding="utf-8"))
    (job,) = workflow["jobs"].values()
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    runs = [step["run"] for step in job["steps"] if "run" in step]
    dev = tier1.replace(" python -m ", " python -X dev -m ", 1)
    assert dev != tier1
    assert runs == ["pip install -e '.[test]'", tier1, dev]
