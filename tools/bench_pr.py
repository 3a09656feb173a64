"""Compare the benchmark of a change against its parent, in interleaved pairs.

    OPENBLAS_NUM_THREADS=1 python3 tools/bench_pr.py --parent HEAD~1 --change HEAD \\
        --out BENCH_<n>.json

Both revisions are exported with ``git archive`` into a temporary directory,
so only committed files are measured.  For every workload of ``BENCHMARK.json``
it runs ``bench/run.py --trace 0`` of each export for the benchmark's
``run_seconds``, in ``PAIRS`` pairs: one parent run and one change run per pair
with the same seed (1 for the first pair, then 2, 3, ...), the first side
alternating from pair to pair so that a drift of the host's speed falls on
both sides alike.  For every end-to-end metric the output holds both
sides' samples, their medians and interquartile ranges, and the number of
pairs in which the change did better.

It also times ``lift_from_gqh`` and ``vacuum_phase_tracked`` in process, at
N = 1, 2, 4, 8 on seeded generators of fixed spectral norm ||K||_2, and
counts the squarings (``ig_multiply`` calls of the lift engine) each makes.
That part runs in this process's environment, so set ``*_NUM_THREADS`` to
pin its BLAS threads; ``bench/run.py`` removes those variables for its own
workers.  The environment (Python, numpy, scipy, BLAS, CPU count and every
``*_NUM_THREADS``) is recorded with the results.

Not measured: wall times of CLI commands and of the test suite.
Needs git, and only the standard library and numpy.
"""

import argparse
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TOOLS = Path(__file__).resolve().parent

#: interleaved parent/change pairs of benchmark runs per workload
PAIRS = 10
#: modes and spectral norms ||K||_2 of the in-process kernel inputs; no norm
#: is a power of two times a likely squaring threshold, where rounding of the
#: normalization would decide the squaring count
KERNEL_MODES = (1, 2, 4, 8)
KERNEL_NORMS = (0.45, 0.9, 1.8, 3.6)
#: each kernel input is timed as the best of KERNEL_REPEATS loops of
#: KERNEL_CALLS calls, in each of KERNEL_ROUNDS rounds that alternate the sides
KERNEL_CALLS = 20
KERNEL_REPEATS = 5
KERNEL_ROUNDS = 3


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(rev, dest):
    """The committed tree of ``rev`` extracted into ``dest``; its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return commit


def bench_run(tree, workload, seed, seconds):
    """The result line of one ``bench/run.py --trace 0`` run in ``tree``."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"bench/run.py failed in {tree} (exit {done.returncode}):\n"
                         f"{done.stderr}")
    return json.loads(lines[-1])


def summary(samples):
    q1, q3 = np.percentile(samples, [25, 75])
    return {"samples": samples, "median": statistics.median(samples), "iqr": float(q3 - q1)}


def compare_workload(trees, workload, spec, pairs, seconds):
    """Interleaved runs of one workload and the per-metric comparison."""
    runs, values = [], {"parent": [], "change": []}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = bench_run(trees[side], workload, pair + 1, seconds)
            runs.append({"pair": pair, "side": side, "seed": pair + 1, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"]})
            values[side].append({name: m["value"] for name, m in result["metrics"].items()})
    metrics = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        parent = [v[name] for v in values["parent"]]
        change = [v[name] for v in values["change"]]
        metrics[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": summary(parent), "change": summary(change),
            "pairs_won": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": pairs,
        }
    return {"runs": runs, "metrics": metrics}


def kernel_timings():
    """Print the in-process timings of the gausslift on ``sys.path`` as JSON."""
    from gausslift import (QuadraticHamiltonian, generator, lift_from_gqh, standard_kahler,
                           vacuum_phase_tracked)

    squarings = []
    engine_multiply = generator.ig_multiply

    def counted(a, b):
        squarings.append(1)
        return engine_multiply(a, b)

    rows = []
    for n_modes in KERNEL_MODES:
        k = standard_kahler(n_modes)
        for norm in KERNEL_NORMS:
            # a seeded (h, f, c) whose K = Omega h has spectral norm ``norm``
            rng = np.random.default_rng([n_modes, int(norm * 1000)])
            a = rng.standard_normal((k.dim, k.dim))
            h = (a + a.T) * norm / np.linalg.norm(k.omega @ (a + a.T), 2)
            f, c = rng.standard_normal(k.dim), rng.uniform(-np.pi, np.pi)
            cases = {"lift_from_gqh": (lift_from_gqh, QuadraticHamiltonian(h=h, f=f, c=c)),
                     "vacuum_phase_tracked": (vacuum_phase_tracked, k.omega @ h)}
            for name, (call, arg) in cases.items():
                squarings.clear()
                generator.ig_multiply = counted
                try:
                    call(arg, k)
                finally:
                    generator.ig_multiply = engine_multiply
                best = float("inf")
                for _ in range(KERNEL_REPEATS):
                    start = time.perf_counter()
                    for _ in range(KERNEL_CALLS):
                        call(arg, k)
                    best = min(best, (time.perf_counter() - start) / KERNEL_CALLS)
                rows.append({"function": name, "n_modes": n_modes, "norm_K": norm,
                             "squarings": len(squarings), "us_per_call": best * 1e6})
    print(json.dumps(rows))


def kernel_run(tree):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    code = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); "
            "import bench_pr; bench_pr.kernel_timings()")
    done = subprocess.run([sys.executable, "-c", code], cwd=tree, env=env,
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"kernel timing failed in {tree}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def compare_kernels(trees):
    """Kernel rows of both sides, each time the best over alternating rounds."""
    best = {"parent": None, "change": None}
    for rnd in range(KERNEL_ROUNDS):
        for side in (("parent", "change") if rnd % 2 == 0 else ("change", "parent")):
            rows = kernel_run(trees[side])
            if best[side] is None:
                best[side] = rows
            for kept, row in zip(best[side], rows):
                kept["us_per_call"] = min(kept["us_per_call"], row["us_per_call"])
    return [{"function": p["function"], "n_modes": p["n_modes"], "norm_K": p["norm_K"],
             "parent": {"squarings": p["squarings"], "us_per_call": p["us_per_call"]},
             "change": {"squarings": c["squarings"], "us_per_call": c["us_per_call"]}}
            for p, c in zip(best["parent"], best["change"])]


def environment():
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy"), "blas": blas, "machine": platform.machine(),
            "system": platform.system(), "cpu_count": os.cpu_count(),
            "thread_variables": {key: value for key, value in sorted(os.environ.items())
                                 if key.endswith("_NUM_THREADS")}}


def compare(parent, change, spec, workdir):
    """The report of both revisions, exported under ``workdir``."""
    trees = {side: workdir / side for side in ("parent", "change")}
    revs = {"parent": parent, "change": change}
    commits = {side: export(revs[side], trees[side]) for side in trees}
    seconds = float(spec["run_seconds"])
    report = {
        "parent": {"rev": parent, "commit": commits["parent"]},
        "change": {"rev": change, "commit": commits["change"]},
        "settings": {"pairs": PAIRS, "seconds": seconds},
        "environment": environment(),
        "workloads": {},
        "kernels": compare_kernels(trees),
        "not_measured": ["CLI wall times", "test suite wall time"],
    }
    for workload in spec["workloads"]:
        report["workloads"][workload["name"]] = compare_workload(
            trees, workload["name"], spec, PAIRS, seconds)
        print(f"{workload['name']}: done", file=sys.stderr)
    return report


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1", help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="bench_pr_") as scratch:
        report = compare(args.parent, args.change, spec, Path(scratch))
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, result in report["workloads"].items():
        for name, m in result["metrics"].items():
            print(f"{workload:11s} {name:12s} parent {m['parent']['median']:10.4g} "
                  f"(IQR {m['parent']['iqr']:.3g})  change {m['change']['median']:10.4g} "
                  f"(IQR {m['change']['iqr']:.3g})  won {m['pairs_won']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
