"""Benchmark worker: sets up one workload and drives it with one closed-loop client.

run.py starts it with every ``*_NUM_THREADS`` variable removed from the
environment and ``src`` on ``PYTHONPATH``:

    python3 bench/worker.py --workload compose --seed 1 --seconds 30 --mode run

Modes: ``setup`` exits once set-up is done; ``run`` runs the workload's edge
inputs once, untimed, times the closed loop over its other inputs for
``--seconds``, keeping each input's best latency, and then checks the recorded
outputs; ``trace`` runs a fixed, seed-determined op list over all inputs
untraced and then traced, for the per-layer numbers.
The worker prints ``READY`` when set-up is done and, except in setup mode, one
JSON line with its results.
"""

# gausslift comes before numpy, so the threading default the program sets up
# (if any) is the one that gets measured.
import gausslift  # noqa: F401  isort: skip

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import gausslift.errors
import numpy as np
import scipy

from tracer import Tracer, write_spans
import workloads
from workloads import BENCH_DIR, ROOT, WORKLOADS, CliFailure, Fig2Sweep

OUT_DIR = BENCH_DIR / "out"

#: every exception class of the library, for the per-class failure counts
ERROR_CLASSES = sorted(
    name for name, obj in vars(gausslift.errors).items()
    if isinstance(obj, type) and issubclass(obj, Exception)
)

#: ops per second of --seconds in a traced run (fixed per seed and length);
#: fig2-sweep traces a single op
TRACE_OPS_PER_S = {"fig2-sweep": 0, "compose": 50, "lift": 8}
TRACE_WARMUP_OPS = 10
IMPORT_SAMPLES = 3


def failure_class(exc):
    name = exc.kind if isinstance(exc, CliFailure) else type(exc).__name__
    return name if name in ERROR_CLASSES else "other"


class Tally:
    """What the ops run so far did, per input of the workload's pool.

    Each input's outcome is deterministic, so the inputs attempted and failed
    repeat exactly for a seed, however many times a run repeats them.  An
    input that raised at least once counts as failed; one that both raised
    and completed is also listed as ``flaky``.
    """

    def __init__(self, keep_all):
        self.keep_all = keep_all
        self.timing = True
        self.error = {}  # input -> class name of its exception, or None
        self.flaky = set()
        self.outputs = {}  # input (op index if keep_all) -> first output
        self.best_s = {}  # input -> lowest latency in the timed loop
        self.ops = 0
        self.op_failures = Counter()  # per op, by class
        self.failed_ops = Counter()  # per input, ops that raised

    def add(self, i, j, elapsed, out=None, error=None):
        """Op ``i`` on input ``j`` took ``elapsed`` s and returned ``out``,
        or raised an exception of class ``error``."""
        seen = self.error.get(j, error)
        if (seen is None) != (error is None):
            self.flaky.add(j)
        self.error[j] = seen or error
        if error is None:
            self.outputs.setdefault(i if self.keep_all else j, out)
        else:
            self.op_failures[error] += 1
            self.failed_ops[j] += 1
        if self.timing:
            self.ops += 1
            self.best_s[j] = min(elapsed, self.best_s.get(j, elapsed))

    def failures(self, inputs):
        """Failed inputs among ``inputs``, per exception class."""
        return dict(Counter(self.error[j] for j in inputs if self.error.get(j) is not None))


def run_ops(workload, inputs, tally, tracer=None, until=None):
    """Run op ``i`` on the ``i``-th input index of ``inputs``, until they run
    out or the clock reads ``until``."""
    clock = time.perf_counter
    for i, j in enumerate(inputs):
        if until is not None and clock() >= until:
            return
        if tracer is not None:
            tracer.op_id = i + 1
        start = clock()
        try:
            out = workload.op(j)
        except Exception as exc:  # every raised class counts against attempted
            tally.add(i, j, clock() - start, error=failure_class(exc))
        else:
            tally.add(i, j, clock() - start, out=out)


def closed_loop(workload, seconds):
    """Ops back to back, each started when the previous one is done, for
    ``seconds``, cycling over the inputs inside the envelope.  Before that,
    untimed, every edge input runs once, and in-process workloads run every
    input once, so the timed loop starts warm and every input has an
    outcome."""
    tally = Tally(workload.keep_all)
    tally.timing = False
    run_ops(workload, range(workload.pool_size) if workload.warm_pass else workload.edge,
            tally)
    tally.timing = True
    start = time.perf_counter()
    run_ops(workload, itertools.cycle(workload.timed), tally, until=start + seconds)
    return tally, time.perf_counter() - start


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def blas_record():
    """Loaded OpenBLAS libraries with their runtime thread counts, via ctypes."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    paths.add(path)
    except OSError:
        pass
    libs = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    entry["config"] = config().decode(errors="replace")
        libs.append(entry)
    return libs


def environment():
    blas = blas_record()
    numpy_blas = [b for b in blas if "64_" in b["library"]] or blas
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "blas_threads": numpy_blas[0].get("threads", 0) if numpy_blas else 0,
    }


def import_ms():
    """Median time to import gausslift.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import gausslift.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              capture_output=True, text=True)
        samples.append(float(done.stdout) * 1e3)
    return statistics.median(samples)


def check(workload, outputs):
    passed, gate_dev, edge_dev, detail = workload.check(outputs)
    return {"passed": passed and bool(outputs), "max_phase_dev_rad": gate_dev,
            "edge_max_phase_dev_rad": edge_dev, **detail}


def measure(workload, seconds):
    tally, elapsed = closed_loop(workload, seconds)
    best = {True: [], False: []}
    for j, seconds_best in tally.best_s.items():
        best[tally.error[j] is None].append(seconds_best)
    return {
        "best_ok_s": best[True],
        "best_failed_s": best[False],
        "peak_rss_mb": peak_rss_mb(),
        "attempted": len(workload.timed),
        "failures": tally.failures(workload.timed),
        "edge_attempted": len(workload.edge),
        "edge_failures": tally.failures(workload.edge),
        "flaky_inputs": len(tally.flaky),
        "timed_ops": tally.ops,
        "op_failures": dict(tally.op_failures),
        "loop_s": elapsed,
        "check": check(workload, tally.outputs),
    }


def trace(workload, seconds, env, spans_path):
    n_ops = max(1, int(TRACE_OPS_PER_S[workload.name] * seconds))
    indices = [i % workload.pool_size for i in range(n_ops)]
    clock = time.perf_counter
    if n_ops > 1:
        run_ops(workload, indices[:TRACE_WARMUP_OPS], Tally(False))
    start = clock()
    run_ops(workload, indices, Tally(False))
    untraced = clock() - start

    tracer = Tracer()
    tally = Tally(workload.keep_all)
    tracer.install(callers=[workloads])
    try:
        start = clock()
        run_ops(workload, indices, tally, tracer=tracer)
        traced = clock() - start
    finally:
        tracer.uninstall()
    write_spans(tracer, spans_path)
    failures = tally.op_failures
    result = check(workload, tally.outputs)
    edge = set(workload.edge)
    edge_ops = sum(j in edge for j in indices)
    failed = {False: Counter(), True: Counter()}  # failed ops per class, by edge
    for j, n in tally.failed_ops.items():
        failed[j in edge][tally.error[j]] += n

    layer = {}
    for name, st in tracer.functions.items():
        layer[f"{name}.calls_per_op"] = st.calls / n_ops
        layer[f"{name}.ms_per_op"] = st.total_s * 1e3 / n_ops
        layer[f"{name}.self_ms_per_op"] = st.self_s * 1e3 / n_ops
        layer[f"{name}.fail_count"] = st.fails
    for module, self_s in tracer.module_self_s.items():
        layer[f"{module}.self_ms_per_op"] = self_s * 1e3 / n_ops
    for cls in ERROR_CLASSES + ["other"]:
        layer[f"fail.{cls}.count"] = failures[cls]
    layer["cli.import_ms"] = import_ms()
    layer["oracle.max_phase_dev_rad"] = result["max_phase_dev_rad"]
    layer["oracle.edge_max_phase_dev_rad"] = result["edge_max_phase_dev_rad"]
    layer["env.blas_threads"] = env["blas_threads"]
    layer["trace.overhead_frac"] = traced / untraced
    return {
        "metrics": layer,
        "attempted": n_ops - edge_ops,
        "failures": dict(failed[False]),
        "edge_attempted": edge_ops,
        "edge_failures": dict(failed[True]),
        "untraced_s": untraced,
        "traced_s": traced,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "check": result,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    args = parser.parse_args()

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    print("READY", flush=True)
    if args.mode == "setup":
        return

    env = environment()
    if args.mode == "run":
        result = measure(workload, args.seconds)
    else:
        if isinstance(workload, Fig2Sweep):
            workload.in_process = True
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.csv"
        result = trace(workload, args.seconds, env, spans)
    result["env"] = env
    result["inputs_digest"] = workload.inputs_digest
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
