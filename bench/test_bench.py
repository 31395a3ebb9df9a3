"""Tests of the benchmark's own machinery (no probin solves)."""

import json
from pathlib import Path

import numpy as np
import pytest

import layers
import workloads
from run import run_ops, summarize, tail_percentile
from calibrate import REFERENCE_S, Calibrator
from spans import Tracer, self_times, totals_by_name

ROOT = Path(__file__).resolve().parent.parent


def _key(op):
    return (op.kind, op.cycle, op.stratum, json.dumps(op.spec, sort_keys=True),
            json.dumps(op.params, sort_keys=True))


@pytest.mark.parametrize("workload", sorted(workloads.STRATA))
def test_op_list_is_a_function_of_the_seed(workload):
    table = workloads.load_references()
    first = [_key(op) for op in workloads.build_ops(workload, 7, table)]
    again = [_key(op) for op in workloads.build_ops(workload, 7, table)]
    other = [_key(op) for op in workloads.build_ops(workload, 8, table)]
    assert first == again
    assert first != other
    # every seed covers the same strata in the same order
    assert [k[2] for k in first] == [k[2] for k in other]


def test_every_solve_op_has_an_independent_reference():
    table = workloads.load_references()
    for workload in workloads.STRATA:
        for op in workloads.build_ops(workload, 1, table):
            if op.kind == "picone":
                continue
            assert op.ref is not None and 0 < op.tol <= workloads.DIRICHLET_LIMIT_TOL
            own = "shoot" if op.kind == "shoot" else "rayleigh"
            assert op.ref_source != "table:" + own


class _Op:
    def __init__(self, cycle, fail=False):
        self.kind, self.stratum, self.cycle, self.fail = "synthetic", "", cycle, fail


def _execute(op):
    if op.fail:
        raise AttributeError("module 'numpy' has no attribute 'trapz'")
    return 1.0


def _check(op, result):
    return True, 0.0, ""


def test_attribute_error_is_a_failed_op_not_an_abort():
    ops = [_Op(0), _Op(0, fail=True), _Op(0)]
    outcomes, _ = run_ops(ops, _execute, _check)
    assert [o.ok for o in outcomes] == [True, False, True]
    assert outcomes[1].error == "AttributeError"
    summary = summarize(outcomes)
    assert (summary["attempted"], summary["failed"], summary["op_s.n"]) == (3, 1, 2)
    assert summary["errors"] == {"AttributeError": 1}
    assert summary["fail_frac"] == pytest.approx(1 / 3)
    assert summary["ok_per_s.raw"] == summary["ok_per_s"]  # nothing to calibrate


def test_timings_are_absent_when_no_op_is_correct():
    outcomes, _ = run_ops([_Op(0, fail=True)] * 4, _execute, _check)
    summary = summarize(outcomes)
    assert summary["failed"] == 4 and summary["ok_per_s"] == 0.0
    assert "op_s.p50" not in summary and "op_s.tail" not in summary


def test_loop_runs_until_the_deadline():
    ticks = iter(range(1000))  # each clock read advances one second
    ops = [_Op(0) for _ in range(20)]
    outcomes, wall = run_ops(ops, _execute, _check, seconds=10, clock=lambda: next(ticks))
    assert len(outcomes) == 3 and wall >= 10


def test_self_times_of_a_synthetic_span_tree():
    # op [0, 10] -> a [1, 5] -> b [2, 3];  op -> a2 [6, 9]
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 5.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 1.0, 3.0]
    tot = totals_by_name(["op", "a", "b"], [0, 1, 2, 1], start, end, parent)
    assert tot == {"op": (1, 10.0, 3.0), "a": (2, 7.0, 6.0), "b": (1, 1.0, 1.0)}


def test_tracer_wrappers_nest_and_restore():
    clock = iter(float(t) for t in range(100))
    tracer = Tracer(clock=lambda: next(clock))

    class Module:
        @staticmethod
        def leaf(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Module.leaf(x) * 2

    original = Module.leaf
    tracer.wrap(Module, "leaf", "m.leaf")
    tracer.wrap(Module, "outer", "m.outer")
    assert Module.outer(1) == 4
    tracer.restore()
    assert Module.leaf is original
    cols = tracer.columns()
    assert [tracer.names[i] for i in cols["name"]] == ["m.outer", "m.leaf"]
    assert cols["parent"].tolist() == [-1, 0]
    own = self_times(cols["start"], cols["end"], cols["parent"])
    assert own.tolist() == [2.0, 1.0]


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(20))) == (50, 9)
    assert tail_percentile(list(range(100))) == (90, 89)
    assert tail_percentile(list(range(1000))) == (99, 989)
    assert tail_percentile([1.0] * 50) is None  # nothing lies beyond a tie
    assert tail_percentile([]) is None


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == [name for name, _ in layers.PER_LAYER]
    assert [m["unit"] for m in doc["per_layer"]] == [unit for _, unit in layers.PER_LAYER]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.STRATA)
    names = {m["name"] for m in doc["end_to_end"]}
    assert names == {"setup_s", "ok_per_s", "op_s.p50", "peak_rss_mb"}
    assert all(np.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def test_calibration_uses_the_kernel_samples_nearest_the_op():
    cal = Calibrator(["python"])
    ref = REFERENCE_S["python"]
    # a host that halves its speed at t = 40
    cal.samples["python"] = [(t, ref if t < 40 else 2 * ref) for t in range(0, 100, 5)]
    assert cal.factor("python", at=10.0) == 1.0
    assert cal.factor("python", at=90.0) == 0.5
    assert cal.factor("python") == 0.5  # the median over all 20 samples
