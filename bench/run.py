"""Benchmark of the adjtorelli package: end-to-end and per-layer metrics.

    python3 bench/run.py --workload quartic_sweep --seed 0 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from its src/.
One process runs one workload, one op at a time (a closed loop with a single
caller).  With --trace 0 it sets the workload up several times (fresh
import, shared inputs, one warm-up op) and reports the median as setup_s,
then times ops until their summed wall time reaches --seconds.  Set-up and
op times are the process's CPU time: the package is single-threaded and
waits on nothing, so this is its latency on a core of its own, without the
time the shared host takes the virtual CPU away (steal), which wall time
counts; the wall times are printed beside them.  With --trace 1
it runs a fixed number of ops with the tracer installed, alternating op by
op with the same ops on a plain import of the package, and reports per-layer
busy times and work counters over the traced run plus the tracing overhead;
spans go to bench/out/.  Every op's answer is checked outside the timed
interval; failed / attempted is printed as failed_frac.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from time import perf_counter_ns, process_time_ns

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, SRC)

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Package  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


class Run:
    """Ops of one workload with their latencies and check outcomes.

    With a tracer, each op runs in a span of its own id and everything else
    (turning inputs into arguments, checking the answer) runs paused.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies = []  # CPU seconds per op
        self.walls = []  # wall seconds per op
        self.attempted = 0
        self.failed = 0

    def one(self, state, checker, index):
        item = self.workload.item(index)
        with self._paused():
            args = self.workload.prepare(state, item)
        if self.tracer:
            self.tracer.op = index
        start, cpu = perf_counter_ns(), process_time_ns()
        try:
            with self._span():
                result, error = self.workload.op(state, args), None
        except Exception:  # an op that raises is a failed op, not a crash
            result, error = None, traceback.format_exc()
        self.latencies.append((process_time_ns() - cpu) * 1e-9)
        self.walls.append((perf_counter_ns() - start) * 1e-9)
        self.attempted += 1
        problems = [error] if error else []
        if not error:
            try:
                with self._paused():
                    problems = self.workload.check(checker, item, args, result)
            except Exception:
                problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            sys.stderr.write(f"op {index} failed: {'; '.join(problems)}\n")

    def _paused(self):
        return self.tracer.pause() if self.tracer else nullcontext()

    def _span(self):
        return self.tracer.span("bench.op") if self.tracer else nullcontext()


def set_up(workload):
    """CPU and wall seconds of one set-up, the fresh import and its state."""
    gc.collect()
    start, cpu = perf_counter_ns(), process_time_ns()
    mods = Package()
    state = workload.setup(mods)
    return (process_time_ns() - cpu) * 1e-9, (perf_counter_ns() - start) * 1e-9, mods, state


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - idx - 1


def measure(workload, seconds):
    setups, setup_walls = [], []
    for _ in range(SETUP_REPS):
        cpu, wall, mods, state = set_up(workload)
        setups.append(cpu)
        setup_walls.append(wall)
    checker = workload.checker(mods)
    ops = Run(workload)
    gc.collect()
    index = 1
    while sum(ops.walls) < seconds:
        ops.one(state, checker, index)
        index += 1
    lat = ops.latencies
    tail_s, tail_pct, beyond = tail(lat)
    metrics = {
        "op_cpu_p50_s": (statistics.median(lat), "s"),
        "op_cpu_tail_s": (tail_s, "s"),
        "ops_per_cpu_s": ((ops.attempted - ops.failed) / sum(lat), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"op_cpu_tail_s is p{tail_pct:.1f} of {len(lat)} ops ({beyond} beyond it)",
             f"failed_frac {ops.failed / ops.attempted:.4f} ({ops.failed} of {ops.attempted})",
             f"wall time: op p50 {statistics.median(ops.walls):.4f} s, tail "
             f"{tail(ops.walls)[0]:.4f} s, {ops.attempted - ops.failed} ops in "
             f"{sum(ops.walls):.4f} s against {sum(lat):.4f} s of CPU",
             "setup_s runs (CPU): " + ", ".join(f"{s:.4f}" for s in setups)
             + "; wall: " + ", ".join(f"{s:.4f}" for s in setup_walls)]
    return ops.attempted, ops.failed, metrics, notes


def measure_traced(workload, seed):
    """Fixed ops with the tracer, alternating with the same ops on a second,
    plain import of the package so that drift hits both sides alike."""
    ops = range(1, workload.trace_ops + 1)
    tracer = tracing.Tracer()
    wrapped = Package()
    tracing.install(tracer, wrapped)
    with tracer.span("bench.setup"):
        traced_state = workload.setup(wrapped)
    with tracer.pause():
        traced_checker = workload.checker(wrapped)
    _, _, plain, plain_state = set_up(workload)
    plain_checker = workload.checker(plain)
    traced, untraced = Run(workload, tracer), Run(workload)
    for index in ops:
        plain.activate()
        untraced.one(plain_state, plain_checker, index)
        wrapped.activate()
        traced.one(traced_state, traced_checker, index)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"trace-{workload.name}-seed{seed}.jsonl")
    tracer.write(spans_path)

    metrics = tracing.layer_metrics(tracer)
    metrics["trace.ops"] = (len(ops), "count")
    metrics["trace.overhead_frac"] = (
        sum(traced.latencies) / sum(untraced.latencies) - 1, "ratio")
    notes = [f"spans written to {os.path.relpath(spans_path, ROOT)}",
             f"ops took {sum(untraced.latencies):.4f} s of CPU untraced, "
             f"{sum(traced.latencies):.4f} s traced"]
    return (traced.attempted + untraced.attempted, traced.failed + untraced.failed,
            metrics, notes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        mods = Package()
    except ImportError as exc:
        sys.stderr.write(f"cannot import the package from {SRC}: {exc}\n")
        return 2
    origin = os.path.abspath(mods["cli"].__file__)
    if not origin.startswith(SRC + os.sep):
        sys.stderr.write(f"package imported from {origin}, not from {SRC}\n")
        return 2

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            attempted, failed, metrics, notes = measure_traced(workload, args.seed)
        else:
            attempted, failed, metrics, notes = measure(workload, args.seconds)

    print(f"# {workload.name} seed {args.seed} trace {args.trace}: "
          f"python {sys.version.split()[0]}, {os.cpu_count()} cpus")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
