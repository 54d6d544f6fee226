#!/usr/bin/env python3
"""Benchmark of undersolve: closed loop, one client, one process.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it runs the ops untraced for half the time and traced
for the other half, and prints the per-layer metrics.  The last line of
standard output is one JSON object (correct, attempted, failed,
metrics); the exit code is 1 when any correctness check failed.  See
README.md next to this file for the workloads and metrics.
"""

import os

# One BLAS thread, set before numpy is first imported: the single-threaded
# baseline, and no contention between BLAS threads on a small machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / "work"
WORKLOAD_NAMES = ("solve", "exact-files")

MIN_SAMPLES = 11        # the tail percentile needs ten samples beyond it
WARMUP_SECONDS = 3.0    # the first seconds of a process run measurably slower
SETUP_REPEATS = 11
SPAN_CAP = 1_000_000    # stop starting traced op cycles past this many spans


def import_program():
    """Import undersolve from this checkout's src/, never from elsewhere."""
    package = SRC_DIR / "undersolve"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: program source not found at {package}")
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(1, str(BENCH_DIR))
    import undersolve
    if Path(undersolve.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: undersolve imported from {undersolve.__file__}, not {package}")


@dataclass
class Sample:
    seconds: float
    outcome: object


def timed(op):
    from workloads import Outcome
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception:
        seconds = time.perf_counter() - start
        outcome = Outcome(problems=[traceback.format_exc(limit=3)])
    else:
        seconds = time.perf_counter() - start
        outcome = op.check(result)
    return Sample(seconds, outcome)


def run_phase(ops, seconds, min_samples, tracer=None):
    """Closed loop over whole cycles of ``ops`` until ``seconds`` have
    passed and at least ``min_samples`` ops ran."""
    samples = []
    start = time.perf_counter()
    while True:
        at_cycle_start = len(samples) % len(ops) == 0
        if at_cycle_start and samples:
            done = time.perf_counter() - start >= seconds and len(samples) >= min_samples
            if done or (tracer is not None and tracer.span_count >= SPAN_CAP):
                return samples
        if tracer is not None:
            tracer.op = len(samples)
        samples.append(timed(ops[len(samples) % len(ops)]))


def tail(values):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, samples).  Below MIN_SAMPLES it is the maximum."""
    ordered = sorted(values)
    index = len(ordered) - MIN_SAMPLES if len(ordered) >= MIN_SAMPLES else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def setup_seconds():
    """Median wall time of a fresh interpreter importing undersolve.cli,
    which every CLI call pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import undersolve.cli"], env=env,
                       cwd=BENCH_DIR, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])   # the first may compile bytecode


def environment():
    import numpy as np
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ[BLAS_THREAD_VARS[0]],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": platform.processor(),
    }


def iteration_table(samples, notes):
    """Iteration count per input and method; a count that differs between
    ops on the same input is reported as a workload/algorithm change."""
    table = {}
    for sample in samples:
        for label, count in sample.outcome.iterations.items():
            if table.setdefault(label, count) != count:
                notes.append(f"workload/algorithm changed: {label} ran {count} "
                             f"iterations, earlier {table[label]}")
    return table


def end_to_end(samples, setup_s):
    """End-to-end metrics, and the tail, which is printed and recorded but
    not gated: host contention moves it by more than any bound allows."""
    ok = [s for s in samples if not s.outcome.problems]
    seconds = [s.seconds for s in samples]
    tail_value, tail_pct, count = tail(seconds)
    per_iter = [s.seconds / n * 1e6 for s in samples
                if (n := sum(s.outcome.iterations.values()))]
    metrics = {
        "op_s.p50": (statistics.median(seconds), "s"),
        "ops_per_s": (len(ok) / sum(seconds), "1/s"),
        "iter_us.p50": (statistics.median(per_iter) if per_iter else 0.0, "us"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {"op_s.tail": f"{tail_value:.6g} s = p{tail_pct:.1f} of {count} samples"}
    return metrics, details


def run_workload(name, seed, seconds, trace):
    import numpy as np
    import workloads
    from spans import Summary, Tracer, layer_metrics

    rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(name)])
    work = workloads.WORKLOADS[name](rng, WORK_DIR / name)
    notes = []
    try:
        warmup = run_phase(work.ops[:1], WARMUP_SECONDS, 1)
        gc.collect()
        if trace:
            untraced = run_phase(work.ops, seconds / 2, 1)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(work.ops, seconds / 2, 1, tracer)
            finally:
                tracer.uninstall()
            measured = untraced + traced
            overhead = (statistics.median(s.seconds for s in traced)
                        / statistics.median(s.seconds for s in untraced) - 1.0)
            metrics, absent = layer_metrics(
                Summary(tracer), len(traced), [s.outcome for s in traced],
                sum(s.seconds for s in traced), overhead)
            details = {"absent": absent, "traced_ops": len(traced), "untraced_ops": len(untraced)}
            OUT_DIR.mkdir(exist_ok=True)
            tracer.save(OUT_DIR / f"spans-{name}-seed{seed}.npz")
        else:
            measured = run_phase(work.ops, seconds, MIN_SAMPLES)
            metrics, details = end_to_end(measured, setup_seconds())
    finally:
        work.cleanup()

    attempted = warmup + measured
    failed = [s for s in attempted if s.outcome.problems]
    iterations = iteration_table(attempted, notes)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "inputs": work.inputs, "iterations": iterations,
        "attempted": len(attempted), "failed": len(failed),
        "fail_ratio": len(failed) / len(attempted),
        "problems": [p for s in failed for p in s.outcome.problems][:20],
        "notes": notes, "details": details,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return record


def print_record(record):
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print("environment " + json.dumps(record["environment"]))
    for fp in record["inputs"]:
        print("input " + json.dumps(fp))
    print("iterations " + json.dumps(record["iterations"], sort_keys=True))
    for line in record["notes"] + record["problems"]:
        print(line)
    for key, value in record["details"].items():
        print(f"{key}: {value}")
    for key, m in record["metrics"].items():
        print(f"  {key:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':<40} {record['fail_ratio']:>16.6g} "
          f"({record['failed']} of {record['attempted']} ops)")


def run_all(args):
    """Each workload in a fresh process, so peak memory is its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd).returncode
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_program()
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_record(record)
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
