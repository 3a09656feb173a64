"""Run one gausslift benchmark workload and print its metrics.

    python3 bench/run.py --workload compose --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json and bench/METRICS.md): ``fig2-sweep``,
``compose`` and ``lift``.  Each runs in a fresh worker process
(bench/worker.py) driven by one closed-loop client.  Workers start from this
process's environment with every ``*_NUM_THREADS`` variable removed, so the
program's own BLAS threading default is what gets measured; the benchmark
never pins threads itself.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
time from starting a worker until its first op is ready, over
``SETUP_STARTS`` fresh workers; the last of them also runs the timed loop.
The loop cycles over the workload's input pool, so each input runs many
times; the latency metrics are taken over each input's best latency in the
run, which the host's speed phases (see bench/METRICS.md) leave alone.
``attempted`` and ``failed`` count the distinct inputs inside the numerical
envelope, whose outcome is deterministic, so they repeat exactly for a seed.
The edge inputs run once, untimed; ``ok_frac`` counts them with the others.
``--trace 1`` runs a fixed op list untraced and then traced in one worker,
and reports the per-layer metrics.

Every output the workload checks must be correct; otherwise the result says
``"correct": false`` and the exit code is 1.  The last line of standard output
is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SETUP_STARTS = 5

#: a worker gets this long beyond --seconds before it is stopped
WORKER_GRACE_S = 150.0


def clean_environment():
    """This environment without thread-count overrides, with src importable."""
    env = dict(os.environ)
    removed = {k: env.pop(k) for k in list(env) if k.endswith("_NUM_THREADS")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env, removed


def start_worker(args, mode, env):
    """Start a worker; return (process, seconds until it reported READY)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        finish(proc, 30.0)
        raise SystemExit(f"worker ({mode}) failed during set-up (exit {proc.returncode})")
    return proc, ready


def finish(proc, timeout):
    """Wait for a worker and return its result line, if any; stop it if it
    overruns."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("worker overran its time limit and was stopped")
    if proc.returncode:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1]) if out.strip() else None


def percentile(values, q):
    """Linear-interpolated percentile of a non-empty list, q in [0, 1]."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def timed_run(args, env):
    """The run worker's result with the end-to-end metrics, after
    SETUP_STARTS - 1 workers that only set up."""
    setup = []
    for _ in range(SETUP_STARTS - 1):
        proc, ready = start_worker(args, "setup", env)
        finish(proc, WORKER_GRACE_S)
        setup.append(ready)
    proc, ready = start_worker(args, "run", env)
    setup.append(ready)
    result = finish(proc, args.seconds + WORKER_GRACE_S)
    best_ok = result.pop("best_ok_s")
    best_failed = result.pop("best_failed_s")
    if not best_ok:
        raise SystemExit(f"no op completed in the timed loop ({result['timed_ops']} ran)")
    failed = sum(result["failures"].values()) + sum(result["edge_failures"].values())
    result["metrics"] = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(best_ok) / (sum(best_ok) + sum(best_failed)),
        "op_p50_ms": percentile(best_ok, 0.5) * 1e3,
        "op_p90_ms": percentile(best_ok, 0.9) * 1e3,
        "ok_frac": 1.0 - failed / (result["attempted"] + result["edge_attempted"]),
        "peak_rss_mb": result.pop("peak_rss_mb"),
    }
    result["samples"] = dict.fromkeys(result["metrics"], len(best_ok))
    result["samples"].update(setup_s=len(setup), peak_rss_mb=1,
                             ok_frac=result["attempted"] + result["edge_attempted"])
    return result


def traced_run(args, env):
    """The trace worker's result, with the per-layer metrics."""
    proc, _ = start_worker(args, "trace", env)
    result = finish(proc, args.seconds + WORKER_GRACE_S)
    result["samples"] = dict.fromkeys(result["metrics"],
                                      result["attempted"] + result["edge_attempted"])
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gausslift" / "__init__.py").is_file():
        raise SystemExit(f"no gausslift sources under {ROOT / 'src'}")

    env, removed = clean_environment()
    result = traced_run(args, env) if args.trace else timed_run(args, env)
    values = result.pop("metrics")
    samples = result.pop("samples")
    listed = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise SystemExit(f"the worker did not produce {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    attempted = result["attempted"]
    failed = sum(result["failures"].values())
    fail_frac = ((failed + sum(result["edge_failures"].values()))
                 / (attempted + result["edge_attempted"]))
    result["env"]["removed_thread_variables"] = removed

    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:>14.6g} {metric['unit']:8s} n={samples[name]}")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "samples": {name: samples[name] for name in metrics},
              "fail_frac": fail_frac, **result}
    print("report " + json.dumps(report))
    correct = bool(result["check"]["passed"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
