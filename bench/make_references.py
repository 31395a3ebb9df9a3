"""Regenerate bench/references.json, the benchmark's reference table.

    python3 bench/make_references.py [--out bench/references.json]

Run from the root of the repository.  For every pre-drawn variant of
every stratum (workloads.draw_variants) the table records:

- shoot: the shooting eigenvalue, from the public probin.shoot.robin_mismatch,
  bracketed by doubling and root-found by tests/oracles.py:bisect to float
  resolution (shoot.solve_first_eigenvalue cannot be used: it raises
  AttributeError on numpy >= 2.4);
- rayleigh: probin.rayleigh.rayleigh_spec at m = 2000 with the default
  MinimizeConfig, with its convergence flag (skipped for the large-alpha
  Dirichlet-limit points, which have a closed form);
- closed_form: flat_robin_lambda or disk_robin_lambda (p = 2) or
  mixed_dn_lambda (large alpha) from tests/oracles.py, where one applies.

The table is written only if every point meets the tolerances the
benchmark applies to it, every Rayleigh reference converged, and every
Barta check of the verify_checks points passes.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads as wl  # noqa: E402


def _closed_form(kind, p, alpha):
    if kind == "mixed_dn_lambda":
        return oracles.mixed_dn_lambda(p, 1.0)
    if kind == "flat_robin_lambda":
        return oracles.flat_robin_lambda(1.0, alpha)
    return oracles.disk_robin_lambda(alpha)


def reference_point(task):
    """All reference values of one (workload, stratum, p, alpha) task."""
    import ops

    workload, stratum, p, alpha = task
    spec = wl.spec_dict(stratum.family, p, alpha)
    kind = wl.closed_form_kind(stratum.family, p, alpha)
    point = {"p": p, "alpha": alpha, "spec": spec, "closed_form_kind": kind,
             "closed_form": _closed_form(kind, p, alpha) if kind else None}

    problem_spec = ops.ProblemSpec.from_dict(spec)
    problem = problem_spec.build()
    t = time.perf_counter()
    is_high, a = ops.high_side(problem)
    lo, hi = ops.bracket(is_high, a)
    point["shoot"] = oracles.bisect(lambda lam: 1.0 if is_high(lam) else -1.0, lo, hi)
    point["shoot_s"] = round(time.perf_counter() - t, 3)

    point["rayleigh"] = None
    if kind != "mixed_dn_lambda":
        t = time.perf_counter()
        sol = ops.rayleigh.rayleigh_spec(problem_spec, wl.RAYLEIGH_M, ops.MINIMIZE_CONFIG)
        point["rayleigh_s"] = round(time.perf_counter() - t, 3)
        point["rayleigh"] = sol.lambda_val
        point["rayleigh_converged"] = bool(sol.diagnostics["converged"])
        if workload == "verify_checks":
            for trial in ("eigenfunction", "perturbed"):
                op = wl.Op("barta", 0, stratum.name, spec, params={"trial": trial})
                ops.prepare(op)
                _, reps = ops.execute(op)
                point.setdefault("barta_margins", []).append(reps[0].margin)
                if reps[0].status == "fail":
                    point.setdefault("violations", []).append("barta %s fails" % trial)
    point["violations"] = point.get("violations", []) + _violations(point)
    return workload, stratum.name, point


def _violations(point):
    out = []
    rel = lambda x, ref: abs(x - ref) / abs(ref)  # noqa: E731
    if point["closed_form"] is not None:
        tol = wl.closed_form_tol(point["closed_form_kind"])
        for solver in ("shoot", "rayleigh"):
            if point[solver] is not None and rel(point[solver], point["closed_form"]) > tol:
                err = rel(point[solver], point["closed_form"])
                out.append("%s off the closed form by %.3g" % (solver, err))
    else:
        worst = max(rel(point["shoot"], point["rayleigh"]), rel(point["rayleigh"], point["shoot"]))
        if worst > wl.CROSS_SOLVER_TOL:
            out.append("solvers disagree by %.3g" % worst)
    if point["rayleigh"] is not None and not point["rayleigh_converged"]:
        out.append("rayleigh reference not converged")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(wl.REFERENCES))
    args = parser.parse_args(argv)

    tasks = [
        (workload, st, p, alpha)
        for workload, strata in wl.STRATA.items()
        for st in strata
        for p, alpha in wl.draw_variants(workload, st, wl.VARIANTS[workload])
    ]
    start = time.perf_counter()
    results = [reference_point(t) for t in tasks]

    table = {}
    bad = 0
    for workload, stratum, point in results:
        table.setdefault(workload, {}).setdefault(stratum, []).append(point)
        for v in point["violations"]:
            bad += 1
            print("%s/%s p=%g alpha=%g: %s" % (workload, stratum, point["p"], point["alpha"], v))
    if bad:
        print("%d violations; table not written" % bad)
        return 1

    from probin.rayleigh import MinimizeConfig
    from probin.shoot import ShootConfig

    doc = {
        "generated_by": "python3 bench/make_references.py",
        "method": __doc__.split("\n\n", 2)[2].strip(),
        "pool_seed": wl.POOL_SEED,
        "variants": wl.VARIANTS,
        "shoot_config": asdict(ShootConfig()),
        "rayleigh_m": wl.RAYLEIGH_M,
        "minimize_config": asdict(MinimizeConfig()),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "generation_s": round(time.perf_counter() - start, 1),
        "workloads": {
            workload: {st.name: table[workload][st.name] for st in wl.STRATA[workload]}
            for workload in wl.STRATA
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("wrote %s (%d points)" % (args.out, len(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
