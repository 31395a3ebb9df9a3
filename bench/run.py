"""Benchmark of probin: a closed loop with one client, one op at a time.

    python3 bench/run.py --workload shoot_sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports probin from src/ there and
needs no build.  The workloads and why each was chosen are in
BENCHMARK.json and workloads.py.

--trace 0 runs the workload's op list until --seconds have passed and
reports the end-to-end metrics.  --trace 1 runs one cycle untraced, the
same cycle traced, and the cycle untraced again, all in this process with
the solution caches emptied before each pass, and reports the per-layer
metrics; the spans go to .bench_build/spans-<workload>-<seed>.npz.  The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from calibrate import OP_KERNEL, REFERENCE_S, SPAWN_KERNEL, Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".bench_build"

# Set-up is timed in this many fresh processes, each followed by the
# spawn kernel; setup_s is their median, calibrated.
SETUP_PROBES = 9
# Kernel timings taken before the first op (the first one warms caches).
CALIBRATION_WARMUP = 3
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
CHILD_TIMEOUT_S = 170


@dataclass
class Outcome:
    op: object
    seconds: float
    ok: bool
    error: Optional[str] = None  # exception class, or why the check failed
    err: Optional[float] = None  # relative deviation from the reference
    fingerprint: Optional[list] = None
    start: float = 0.0  # clock reading when the op began


def run_ops(ops, execute, check, fingerprint=None, seconds=None, clock=time.perf_counter,
            on_op=None):
    """Closed loop over ops until `seconds` have passed (the op in flight
    completes) or the list ends.

    An op that raises is recorded as failed with its exception class and
    the loop goes on; only its own time is lost.  Returns (outcomes, wall).
    """
    outcomes = []
    t0 = clock()
    for i, op in enumerate(ops):
        if seconds is not None and clock() - t0 >= seconds:
            break
        if on_op is not None:
            on_op(i)
        t = clock()
        try:
            result = execute(op)
        except Exception as exc:  # one failing op must not end the workload
            dt = clock() - t
            print("op %d (%s %s) raised:\n%s" % (i, op.kind, op.stratum, traceback.format_exc()),
                  file=sys.stderr)
            outcomes.append(Outcome(op, dt, False, type(exc).__name__, start=t))
            continue
        dt = clock() - t
        ok, err, why = check(op, result)
        fp = fingerprint(result) if fingerprint is not None else None
        outcomes.append(Outcome(op, dt, ok, None if ok else why, err, fp, t))
    return outcomes, clock() - t0


def percentile(samples, q):
    """Nearest-rank percentile."""
    xs = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[rank - 1]


def tail_percentile(samples, min_beyond=10):
    """(q, value) for the highest q in PERCENTILES with at least
    min_beyond samples strictly above its value, or None."""
    for q in reversed(PERCENTILES):
        if not samples:
            break
        value = percentile(samples, q)
        if sum(1 for x in samples if x > value) >= min_beyond:
            return q, value
    return None


def summarize(outcomes, factor_of=None):
    """End-to-end figures over the correct ops; timings are absent when
    no op is correct.

    factor_of(outcome) scales an op's time to the reference host speed.
    Goodput divides by the time spent in ops, so the calibration kernels
    run between ops do not count against it."""
    scaled = [o.seconds * (factor_of(o) if factor_of else 1.0) for o in outcomes]
    good = [t for t, o in zip(scaled, outcomes) if o.ok]
    errors = {}
    for o in outcomes:
        if not o.ok:
            errors[o.error] = errors.get(o.error, 0) + 1
    out = {
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(good),
        "fail_frac": 1.0 - len(good) / len(outcomes) if outcomes else 0.0,
        "errors": errors,
        "busy_s.raw": sum(o.seconds for o in outcomes),
        "ok_per_s": len(good) / sum(scaled) if scaled else 0.0,
        "ok_per_s.raw": len(good) / sum(o.seconds for o in outcomes) if outcomes else 0.0,
        "op_s.n": len(good),
    }
    if good:
        out["op_s.p50"] = statistics.median(good)
        out["op_s.p50.raw"] = statistics.median(o.seconds for o in outcomes if o.ok)
        tail = tail_percentile(good)
        if tail is not None:
            out["op_s.tail"] = {"percentile": tail[0], "value": tail[1]}
    return out


def environment() -> dict:
    import numpy

    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "nproc": os.cpu_count(),
    }


def setup(workload, seed):
    """Import probin from this checkout and build the op list."""
    sys.path.insert(0, str(ROOT / "src"))
    import probin

    origin = Path(probin.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise RuntimeError("probin imported from %s, not from this checkout" % origin)
    import ops as ops_mod
    import workloads

    op_list = workloads.build_ops(workload, seed, workloads.load_references())
    for op in op_list:
        ops_mod.prepare(op)
    return ops_mod, op_list


def _self_cmd(args, *extra):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def time_to_ready(cmd) -> float:
    """Seconds from spawning cmd until it prints 'ready'."""
    t = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t
        proc.stdout.close()
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or line.strip() != "ready":
            raise RuntimeError("%s did not get ready" % " ".join(cmd))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return seconds


def time_setup(args):
    """(calibrated, raw) median time from spawn to ready over fresh
    processes.  Each probe is followed by the spawn kernel, and the raw
    median is scaled by REFERENCE_S over the kernel's median."""
    probes, kernels = [], []
    for _ in range(SETUP_PROBES):
        probes.append(time_to_ready(_self_cmd(args, "--setup-probe")))
        kernels.append(time_to_ready(SPAWN_KERNEL))
    raw = statistics.median(probes)
    return raw * REFERENCE_S["spawn"] / statistics.median(kernels), raw


def calibrated_loop(op_list, ops_mod, seconds):
    """run_ops with each op's calibration kernel timed just before it."""
    cal = Calibrator(sorted({OP_KERNEL[op.kind] for op in op_list}))
    for _ in range(CALIBRATION_WARMUP):
        cal.sample()
    outcomes, _ = run_ops(op_list, ops_mod.execute, ops_mod.check, ops_mod.fingerprint,
                          seconds=seconds,
                          on_op=lambda i: cal.sample([OP_KERNEL[op_list[i].kind]]))
    cal.sample()
    return outcomes, cal


def traced_cycle(cycle, ops_mod):
    """The cycle untraced, traced and untraced again in this process.

    The solution caches are emptied before every pass, so each pass solves
    what the others solve.  Returns (tracer, counters, traced outcomes,
    the two untraced passes' outcomes)."""
    import layers
    from spans import Tracer

    def clear_caches():  # the lru_caches behind rayleigh_spec and solve_spec
        ops_mod.rayleigh._solve_cached.cache_clear()
        ops_mod.shoot._solve_cached.cache_clear()

    def untraced():
        clear_caches()
        return run_ops(cycle, ops_mod.execute, ops_mod.check, ops_mod.fingerprint)[0]

    before = untraced()
    clear_caches()
    tracer = Tracer()
    counters = layers.install(tracer)

    def traced_execute(op, _run=ops_mod.execute):
        idx = tracer.open("bench.op")
        try:
            return _run(op)
        finally:
            tracer.close(idx)

    def set_op(i):
        tracer.op_id = i

    try:
        outcomes, _ = run_ops(cycle, traced_execute, ops_mod.check, ops_mod.fingerprint,
                              on_op=set_op)
    finally:
        tracer.restore()
    return tracer, counters, outcomes, (before, untraced())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the fresh processes that time set-up
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "probin" / "__init__.py").is_file():
        print("no src/probin under %s: run from a checkout of the repository" % ROOT,
              file=sys.stderr)
        return 2
    ops_mod, op_list = setup(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    env = environment()
    if args.trace == 0:
        setup_s, setup_raw = time_setup(args)
        outcomes, cal = calibrated_loop(op_list, ops_mod, seconds=args.seconds)
        summary = summarize(
            outcomes, lambda o: cal.factor(OP_KERNEL[o.op.kind], at=o.start + 0.5 * o.seconds))
        summary["factors"] = {kind: cal.factor(kind) for kind in cal.samples}
        summary["setup_s.raw"] = setup_raw
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ok_per_s": {"value": summary["ok_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        if "op_s.p50" in summary:
            metrics["op_s.p50"] = {"value": summary["op_s.p50"], "unit": "s"}
        correct = summary["failed"] == 0 and summary["attempted"] > 0
    else:
        import layers

        tracer, counters, outcomes, passes = traced_cycle(
            [op for op in op_list if op.cycle == 0], ops_mod)
        summary = summarize(outcomes)
        untraced = [sum(o.seconds for o in p) for p in passes]
        metrics = layers.metrics(tracer, counters, outcomes, summary["busy_s.raw"], untraced)
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.save(SPAN_DIR / ("spans-%s-%d.npz" % (args.workload, args.seed)))
        prints = [o.fingerprint for o in outcomes]
        same = all([o.fingerprint for o in p] == prints for p in passes)
        summary["traced_equals_untraced"] = same
        correct = same and summary["attempted"] > 0 and all(
            o.ok for p in (outcomes, *passes) for o in p)

    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "summary": summary, "environment": env}))
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
