"""Run every workload over several seeds and record the figures.

    python3 bench/record.py --seeds 1-10 [--seconds 30] [--out bench/BENCH_0.json]

Run from the root of the repository.  Each seed is one cold run of
bench/run.py with --trace 0; the first seed of each workload is also run
once with --trace 1.  The output holds every run's metrics, the median
and quartiles of each end-to-end metric with its spread (interquartile
range over median), the same for the uncalibrated goodput and median op
time, the per-layer figures, and the environment and solver
settings they were measured with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# uncalibrated figures, next to the calibrated metrics of each run
RAW_METRICS = ("setup_s.raw", "ok_per_s.raw", "op_s.p50.raw")
RAW_FIELDS = RAW_METRICS + ("busy_s.raw", "factors", "errors")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s failed with code %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])
    result = json.loads(lines[-1])
    result["process_s"] = wall
    result["summary"] = detail["summary"]
    result["environment"] = detail["environment"]
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", default=str(HERE / "BENCH_0.json"))
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    from probin.rayleigh import MinimizeConfig
    from probin.shoot import ShootConfig

    seeds = _seeds(args.seeds)
    out = {
        "command": "python3 bench/record.py --seeds %s --seconds %g" % (args.seeds, args.seconds),
        "seeds": seeds,
        "run_seconds": args.seconds,
        "shoot_config": asdict(ShootConfig()),
        "rayleigh_m": wl.RAYLEIGH_M,
        "minimize_config": asdict(MinimizeConfig()),
        "workloads": {},
    }
    for name in wl.STRATA:
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, args.seconds, 0))
            m = runs[-1]["metrics"]
            print(name, seed, {k: round(v["value"], 4) for k, v in m.items()},
                  "failed=%d" % runs[-1]["failed"], flush=True)
        traced = run_once(name, seeds[0], args.seconds, 1)
        out["environment"] = runs[0]["environment"]
        metric_names = sorted(runs[0]["metrics"])
        out["workloads"][name] = {
            "why": wl.WHY[name],
            "end_to_end": {
                k: dict(spread([r["metrics"][k]["value"] for r in runs]),
                        unit=runs[0]["metrics"][k]["unit"])
                for k in metric_names
            },
            "raw_end_to_end": {
                k: spread([r["summary"][k] for r in runs]) for k in RAW_METRICS
            },
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "runs": [{k: r["metrics"][k]["value"] for k in metric_names} for r in runs],
            "raw": [{k: r["summary"].get(k) for k in RAW_FIELDS} for r in runs],
            "process_s": [round(r["process_s"], 2) for r in runs],
            "per_layer": {"seed": seeds[0], "correct": traced["correct"],
                          "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
        for k, v in out["workloads"][name]["end_to_end"].items():
            print("%s %s median %.6g spread %.4f" % (name, k, v["median"], v["spread"]), flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
