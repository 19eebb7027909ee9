"""Run one nambu benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fi_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Load model: one process, one thread, a closed loop; the next item starts
when the previous verdict has returned. An item is one `fi_check` call,
one `nambu run` script, or one kernel job (see workloads.py).

With `--trace 0` the run sets up several times (import nambu, generate the
inputs, one warm-up item) and reports the median set-up time, then runs
items until their summed time reaches `--seconds` and at least 100 items
have run. Each item's output is checked against its known answer after the
item's timer stops. With `--trace 1` it runs a fixed number of items, each
once untraced and once traced (spans.py) in alternating order, so the
operation counts depend on the seed alone, and reports the per-layer
metrics and the tracing overhead.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. A results file with the environment
record goes to `.bench_results/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
MIN_ITEMS = 100

sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "seed": seed,
    }


def import_nambu():
    """A fresh import of nambu from this checkout's src/."""
    for mod in [m for m in sys.modules if m == "nambu" or m.startswith("nambu.")]:
        del sys.modules[mod]
    nambu = importlib.import_module("nambu")
    for layer in spans.LAYERS:
        importlib.import_module(f"nambu.{layer}")
    if Path(nambu.__file__).resolve().parent != (SRC / "nambu").resolve():
        raise ImportError(f"nambu imported from {nambu.__file__}, not from {SRC}")
    return nambu


def set_up(workload, seed: int):
    """Time SETUP_REPEATS set-ups; keep the last one's inputs and warm-up verdict."""
    times = []
    workdir = WORK / f"{workload.name}-seed{seed}"
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        nambu = import_nambu()
        items, warm = workload.setup(nambu, seed, workdir)
        generated = time.perf_counter() - t0
        dt, problem = run_one(workload, warm)
        times.append(generated + dt)
    return nambu, items, times, problem


def run_one(workload, item, tracer=None):
    """One timed item, then its oracle; returns (seconds, problem or None)."""
    if tracer is not None:
        tracer.begin_item()
    t0 = time.perf_counter()
    try:
        out, error = workload.run(item), None
    except Exception as exc:  # a raising item is a failed item, not a crash
        out, error = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_item()
    if error is None:
        try:
            error = workload.check(item, out)
        except Exception as exc:
            error = f"oracle raised {type(exc).__name__}: {exc}"
    return dt, error


def run_items(workload, items, seconds):
    """Closed loop over the pool; returns (durations, failures).

    It runs whole cycles of the schedule until the items' summed time
    reaches `seconds` and MIN_ITEMS items have run, so every run holds each
    item class in the same share.
    """
    durations, failures = [], []
    i = 0
    while sum(durations) < seconds or i < MIN_ITEMS or i % workload.cycle:
        dt, error = run_one(workload, items[i % len(items)])
        durations.append(dt)
        if error is not None:
            failures.append(f"item {i}: {error}")
        i += 1
    return durations, failures


def run_traced(workload, items, nambu):
    """Each of the first `trace_items` items untraced and traced, in alternating order.

    Returns (tracer, untraced durations, traced durations, failures).
    """
    tracer = spans.Tracer()
    tracer.prepare(nambu)
    plain, traced, failures = [], [], []
    for i in range(workload.trace_items):
        item = items[i % len(items)]
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            dt, error = run_one(workload, item, tracer if with_trace else None)
            (traced if with_trace else plain).append(dt)
            if error is not None:
                failures.append(f"item {i}{' traced' if with_trace else ''}: {error}")
    return tracer, plain, traced, failures


def end_to_end(durations, failures, setup_times) -> dict:
    deciles = statistics.quantiles(durations, n=10)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (len(durations) / sum(durations), "1/s"),
        "item_ms.p50": (statistics.median(durations) * 1e3, "ms"),
        "item_ms.p90": (deciles[8] * 1e3, "ms"),
        "ok_frac": (1 - len(failures) / len(durations), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "nambu" / "__init__.py").is_file():
        print(f"error: no nambu sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    nambu, items, setup_times, warm_problem = set_up(workload, args.seed)
    record = {"workload": workload.name, "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed), "setup_runs_s": setup_times}
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        tracer, plain, traced, failures = run_traced(workload, items, nambu)
        metrics = tracer.metrics(sum(traced))
        metrics["trace.overhead_frac"] = ((sum(traced) - sum(plain)) / sum(plain), "ratio")
        tracer.write(stem.with_suffix(".spans"))
        attempted = len(plain) + len(traced)
        record.update(items_per_pass=len(traced), untraced_s=sum(plain), traced_s=sum(traced))
    else:
        # The input pool outlives every item; frozen, it is not traversed by
        # the collections an item triggers, as a user's lone input would not be.
        gc.collect()
        gc.freeze()
        durations, failures = run_items(workload, items, args.seconds)
        metrics = end_to_end(durations, failures, setup_times)
        attempted = len(durations)
        record.update(samples=attempted, p90_samples_beyond=attempted - int(0.9 * attempted),
                      timed_s=sum(durations))

    if warm_problem is not None:
        failures.insert(0, f"warm-up item: {warm_problem}")
        attempted += 1
    record.update(attempted=attempted, failed=len(failures), failures=failures[:20],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["env"]
    print(f"# {workload.name} seed={args.seed} python={env['python']} nproc={env['nproc']} "
          f"PYTHONDONTWRITEBYTECODE={env['PYTHONDONTWRITEBYTECODE'] or '(unset)'}")
    print(f"# failed {len(failures)} of {attempted} items attempted")
    for problem in failures[:5]:
        print(f"#   {problem}")
    for k, (v, u) in metrics.items():
        print(f"{k:34s} {v:>16.6g} {u}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    rows, status = [], 0
    for name in sorted(WORKLOADS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        rows.append((name, result))
        if not result["correct"]:
            status = 1
    for name, result in rows:
        print(f"{name}: correct={result['correct']} failed {result['failed']} "
              f"of {result['attempted']} attempted")
        for k, m in result["metrics"].items():
            print(f"  {k:34s} {m['value']:>16.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
