"""Smoke test of the benchmark runner at a tiny size.

    python3 -m pytest bench/tests -q

Every metric listed in BENCHMARK.json must come out with its unit, on every
workload, nothing inside the numerical envelope may fail, and the per-layer
counts and the inputs attempted and failed must repeat exactly for the same
seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
IN_PROCESS = ["compose", "lift"]

_runs = {}


def run(workload, seed, trace, repeat=0):
    """(result, report) of one tiny benchmark run, cached per arguments."""
    key = (workload, seed, trace, repeat)
    if key not in _runs:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        report = next(line for line in lines if line.startswith("report "))
        _runs[key] = json.loads(lines[-1]), json.loads(report[len("report "):])
    return _runs[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_listed_metric_is_emitted_with_its_unit(workload, trace):
    result, report = run(workload, 1, trace)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # edge inputs count only in ok_frac and fail.*
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in listed}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert set(report["samples"]) == set(emitted)


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_another_seed_changes_the_inputs_but_not_the_names(workload):
    first, first_report = run(workload, 1, 0)
    second, second_report = run(workload, 2, 0)
    assert first_report["inputs_digest"] != second_report["inputs_digest"]
    assert set(first["metrics"]) == set(second["metrics"])


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_traced_counts_repeat_for_the_same_seed(workload):
    first, _ = run(workload, 1, 1)
    second, _ = run(workload, 1, 1, repeat=1)
    counts = [name for name in first["metrics"]
              if name.endswith(".calls_per_op") or name.endswith("count")]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_attempted_and_failed_repeat_for_the_same_seed(workload):
    first, _ = run(workload, 1, 0)
    second, _ = run(workload, 1, 0, repeat=1)
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
