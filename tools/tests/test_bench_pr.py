"""Smoke test of the pairwise benchmark comparison at a tiny size.

    python3 -m pytest tools/tests -q

It needs git and a commit: both sides are the checkout's HEAD, so every
comparison it makes is of a revision against itself.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "tools"))

import bench_pr  # noqa: E402


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("needs git and a git checkout")
    workdir = tmp_path_factory.mktemp("bench_pr")
    trees = {side: workdir / side for side in ("parent", "change")}
    commits = {side: bench_pr.export("HEAD", tree) for side, tree in trees.items()}
    return trees, commits


@pytest.fixture(scope="module")
def report(trees):
    trees, _ = trees
    return {"workloads": {"compose": bench_pr.compare_workload(trees, "compose", SPEC, 2, 1.0)},
            "kernels": bench_pr.compare_kernels(trees)}


def test_both_sides_are_the_named_commit(trees):
    trees, commits = trees
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()
    assert commits["parent"] == commits["change"] == head
    for tree in trees.values():
        assert (tree / "bench" / "run.py").is_file() and not (tree / ".git").exists()


def test_every_end_to_end_metric_is_compared_over_interleaved_pairs(report):
    compose = report["workloads"]["compose"]
    assert [(r["pair"], r["seed"], r["side"]) for r in compose["runs"]] == [
        (0, 1, "parent"), (0, 1, "change"), (1, 2, "change"), (1, 2, "parent")]
    assert all(r["correct"] and r["failed"] == 0 for r in compose["runs"])
    assert set(compose["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in compose["metrics"].values():
        for side in ("parent", "change"):
            assert len(metric[side]["samples"]) == 2
            assert metric[side]["iqr"] >= 0.0
        assert 0 <= metric["pairs_won"] <= metric["pairs"] == 2


def test_kernels_are_timed_with_their_squaring_count(report):
    kernels = report["kernels"]
    assert {(row["function"], row["n_modes"]) for row in kernels} == {
        (name, n) for name in ("lift_from_gqh", "vacuum_phase_tracked") for n in (1, 2, 4, 8)}
    for row in kernels:
        assert row["parent"]["squarings"] == row["change"]["squarings"] >= 0
        assert row["parent"]["us_per_call"] > 0 and row["change"]["us_per_call"] > 0


def test_the_environment_is_recorded():
    env = bench_pr.environment()
    assert env["python"] and env["numpy"] and env["cpu_count"] >= 1
    assert all(key.endswith("_NUM_THREADS") for key in env["thread_variables"])
