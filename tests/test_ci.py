"""The CI workflow benchmarks exactly the workloads BENCHMARK.json declares."""

import json
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_STEPS = (
    "Benchmark workloads give correct outputs",
    "Traced benchmark workloads give correct outputs",
)


def test_benchmark_steps_loop_over_the_declared_workloads():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    steps = {
        step.get("name"): step.get("run", "")
        for job in workflow["jobs"].values()
        for step in job["steps"]
    }
    for name in BENCHMARK_STEPS:
        loop = re.search(r"^\s*for workload in (.*); do$", steps[name], re.MULTILINE)
        assert loop is not None, name
        assert sorted(loop.group(1).split()) == sorted(declared), name
