"""Smoke check of the benchmark's own code: one checked op per workload.

    python -m pytest bench/test_bench.py
"""

import json
import os

import pytest

import run
import tracer as tracing
from workloads import WORKLOADS, Package

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_op_per_workload_is_checked_correct(name, tmp_path):
    workload = WORKLOADS[name](0, str(tmp_path))
    mods = Package()
    state = workload.setup(mods)
    ops = run.Run(workload)
    ops.one(state, workload.checker(mods), 1)
    assert (ops.attempted, ops.failed) == (1, 0)


def test_a_wrong_answer_is_counted_as_failed(tmp_path):
    workload = WORKLOADS["quartic_sweep"](0, str(tmp_path))
    mods = Package()
    state = workload.setup(mods)
    # answer for 2*R instead of R: the representative or a certificate is off
    workload.op = lambda state, args: state["mods"]["torelli"].check(
        args[0], args[1].scale(args[0].field.coerce(2)), trials=1, seed=args[2])
    ops = run.Run(workload)
    for index in (1, 2, 3):
        ops.one(state, workload.checker(mods), index)
    assert ops.failed == 3


def test_workloads_and_metrics_match_the_spec(tmp_path):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    workload = WORKLOADS["quartic_sweep"](0, str(tmp_path))
    _, failed, metrics, _ = run.measure(workload, seconds=1e-9)
    assert failed == 0
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value, _ in metrics.values())
    layer = tracing.layer_metrics(tracing.Tracer())
    names = list(layer) + ["trace.ops", "trace.overhead_frac"]
    assert names == [m["name"] for m in SPEC["per_layer"]]


def test_traced_counters_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        workload = WORKLOADS["quartic_sweep"](0, str(tmp_path))
        workload.trace_ops = 1
        _, failed, metrics, _ = run.measure_traced(workload, 0)
        assert failed == 0
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["adjoint.image_membership_calls"] > 0
