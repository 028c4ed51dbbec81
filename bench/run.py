"""The nashfan benchmark.

    python3 bench/run.py --workload a3_tower --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Measures set-up in several fresh
processes, then runs the workload in one worker process under a
wall-clock kill bound, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

from spans import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("a3_tower", "cyclic_sweep", "a3_normal_form")
SETUP_RUNS = 8          # set-up-only processes, besides the worker's own set-up
SETUP_KILL_S = 20
SPANS_DIR = ".bench_out"


def kill_bound(seconds: int) -> float:
    """Wall-clock limit of the worker: a hung run is killed, never waited on."""
    return min(140.0, 60.0 + 4 * seconds)


def start_worker(args, extra, timeout):
    """Run worker.py; return (start time, exit code or None if killed, stdout)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or ""
        return t0, None, out.decode() if isinstance(out, bytes) else out
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
    return t0, proc.returncode, proc.stdout


def summary_of(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "nashfan", "__init__.py")):
        print("error: run from the root of a nashfan checkout (src/nashfan is missing)", file=sys.stderr)
        return 2

    correct = True
    setups = []
    for _ in range(0 if args.trace else SETUP_RUNS):
        t0, code, out = start_worker(args, ["--setup-only"], SETUP_KILL_S)
        summary = summary_of(out) if code == 0 else None
        if summary is None:
            print("error: set-up failed", file=sys.stderr)
            return 1
        setups.append(summary["ready"] - t0)

    spans_out = os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    extra = ["--spans-out", spans_out] if args.trace else []
    t0, code, out = start_worker(args, extra, kill_bound(args.seconds))
    elapsed = time.monotonic() - t0
    summary = summary_of(out) if code == 0 else None
    done = sum(line.startswith("op ") for line in out.splitlines())

    if summary is None:
        # killed or crashed: every operation it started counts as failed
        reason = "killed after %.0f s" % elapsed if code is None else f"exited with {code}"
        print(f"worker {reason}; all {done + 1} operations count as failed", file=sys.stderr)
        correct = False
        attempted = failed = done + 1
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        walls, op_times, layers = [elapsed], [elapsed], {}
        raw_walls, probe_times = walls, [0.0]
    else:
        setups.append(summary["ready"] - t0)
        attempted, failed = summary["attempted"], summary["failed"]
        rss_mb = summary["peak_rss_kb"] / 1024
        walls, op_times = summary["walls"], summary["op_times"]
        raw_walls, probe_times = summary["raw_walls"], summary["probe_times"]
        layers = summary.get("layers", {})
        if summary["guard_ok"] is False:
            print("fixture guard failed: bench/fixtures/gb_j7.json differs from gb --n 7", file=sys.stderr)
            correct = False
    correct = correct and failed == 0

    print(f"{args.workload} seed {args.seed}: {len(walls)} untraced passes, "
          f"{len(op_times)} latency samples, {failed}/{attempted} operations failed; "
          f"median pass {statistics.median(raw_walls):.3f} s as measured, "
          f"probe {statistics.median(probe_times) * 1000:.3f} ms")
    if args.trace:
        if summary is not None:
            overhead = statistics.median(t - u for t, u in zip(summary["traced_walls"], raw_walls))
            print(f"spans written to {spans_out}; absent metrics: {', '.join(summary['absent']) or 'none'}")
        else:
            overhead = 0.0
        metrics = layers or {name: metric(0, unit) for name, unit, _, _ in LAYER_METRICS}
        metrics["trace_overhead_s"] = metric(overhead, "s")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "norm_wall_s": metric(statistics.median(walls), "s"),
            "norm_op_p50_ms": metric(statistics.median(op_times) * 1000, "ms"),
            "norm_op_p95_ms": metric(percentile(op_times, 95) * 1000, "ms"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
