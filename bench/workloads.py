"""Workload definitions: problem families, strata and seeded op lists.

A workload is a fixed sequence of strata, run in cycles.  A stratum
names a problem family, the sign of alpha and ranges for p and |alpha|.
The committed reference table (references.json, written by
make_references.py) holds VARIANTS pre-drawn problems per stratum with
eigenvalues from both solvers.  A run's seed picks, for every cycle, one
variant per stratum that the run has not used yet.  Every seed therefore
carries the same mix of geometries and parameter ranges, which keeps the
metrics comparable across seeds, while the problems themselves differ.

This module does not import probin, so op lists can be built and tested
without the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

REFERENCES = Path(__file__).with_name("references.json")

# Rayleigh solves run at the CLI default mesh with the default
# MinimizeConfig; shooting at the default ShootConfig.
RAYLEIGH_M = 2000

# Relative tolerances against independent references.
CLOSED_FORM_TOL = 1e-6  # flat and disk closed forms, p = 2
DIRICHLET_LIMIT_TOL = 1e-2  # mixed Dirichlet/Neumann limit, large alpha
CROSS_SOLVER_TOL = 1e-3  # the other solver's eigenvalue

# Near p = 3 the eigenvalue approaches the Dirichlet limit like
# alpha^(-1/(p-1)); from 3e5 on it is within 0.5 % of it.
DIRICHLET_ALPHA_MIN = 3e5

FAMILIES = {
    "flat": {"type": "inradius_model", "R": 1.0, "kappa": 0.0, "lambda_mc": 0.0, "n": 2},
    "disk": {"type": "geodesic_ball", "R": 1.0, "kappa": 0.0, "n": 2},
    "hyperbolic_ball": {"type": "geodesic_ball", "R": 1.0, "kappa": -1.0, "n": 3},
    "spherical_cap": {"type": "geodesic_ball", "R": 1.0, "kappa": 1.0, "n": 3},
    "curvature_model": {"type": "inradius_model", "R": 1.0, "kappa": 1.0, "lambda_mc": 0.5, "n": 3},
    "double_robin": {"type": "double_robin", "R": 0.5},
    "warped_ball": {
        "type": "warped_product", "R": 1.0, "n": 3,
        "warping": {"kind": "polynomial", "coefficients": [0.0, 1.0, 0.0, 0.1]},
    },
}


@dataclass(frozen=True)
class Stratum:
    name: str
    family: str
    sign: float  # sign of alpha
    p: tuple  # (low, high), uniform
    alpha: tuple  # (low, high) of |alpha|, log-uniform


def _both_signs(p, pos, neg):
    return [
        s for fam in FAMILIES for s in (
            Stratum(fam + "+", fam, 1.0, p, pos),
            Stratum(fam + "-", fam, -1.0, p, neg),
        )
    ]


# Shooting cost barely depends on the problem (36-45 integrations of a
# fixed step count), so the sweep covers the whole parameter box.  The
# negative side stops at |alpha| = 3: beyond it the Rayleigh reference
# needs more than the default 200 000 iterations near p = 1.5 and is not
# converged (flat, p = 1.5, alpha = -10: 141 s, 1.8 % off).
SHOOT_STRATA = _both_signs((1.5, 3.0), (0.1, 10.0), (0.1, 3.0)) + [
    Stratum("flat_p2+", "flat", 1.0, (2.0, 2.0), (0.1, 10.0)),
    Stratum("disk_p2-", "disk", -1.0, (2.0, 2.0), (0.1, 3.0)),
    Stratum("flat_dirichlet", "flat", 1.0, (1.5, 3.0), (DIRICHLET_ALPHA_MIN, 1e6)),
]

# Rayleigh cost does depend on the problem.  Near p = 1.5 it is erratic:
# a 3 % change of p or alpha moves the iteration count by up to 2.5x
# (double-Robin, p ~ 1.5, alpha ~ 1: 4.3 to 11 s).  Balls at p >= 2.5 take
# 1 to 2.8 s a solve.  With those in a cycle, a 30 s run holds about three
# cycles and the median op time moved by 8 to 12 % from seed to seed.  The
# strata below are weighted toward p != 2 and cost 0.05 to 0.5 s a solve.
# Their windows are narrow because the cost also grows with |alpha| and
# varies by about 15 % between neighbouring problems.
RAYLEIGH_STRATA = [
    Stratum("flat_p2+", "flat", 1.0, (2.0, 2.0), (0.55, 0.65)),
    Stratum("disk_p2-", "disk", -1.0, (2.0, 2.0), (0.5, 0.6)),
    Stratum("spherical_cap-", "spherical_cap", -1.0, (1.725, 1.775), (0.45, 0.55)),
    Stratum("curvature_model+", "curvature_model", 1.0, (2.925, 2.975), (0.55, 0.65)),
    Stratum("double_robin+", "double_robin", 1.0, (2.475, 2.525), (0.7, 0.8)),
    Stratum("flat-", "flat", -1.0, (1.725, 1.775), (0.6, 0.7)),
    Stratum("hyperbolic_ball-", "hyperbolic_ball", -1.0, (1.725, 1.775), (0.35, 0.45)),
    Stratum("double_robin-", "double_robin", -1.0, (2.475, 2.525), (0.7, 0.8)),
    Stratum("warped_ball+", "warped_ball", 1.0, (2.0, 2.0), (0.4, 0.5)),
    Stratum("disk+", "disk", 1.0, (1.725, 1.775), (0.4, 0.5)),
]

# Barta sandwiches need a Robin eigenfunction; each stratum's solution is
# used twice per cycle (the eigenfunction itself and a perturbed trial),
# so the second use is served from the rayleigh_spec cache.
VERIFY_STRATA = [
    Stratum("flat_p2+", "flat", 1.0, (2.0, 2.0), (0.3, 1.0)),
    Stratum("curvature_model-", "curvature_model", -1.0, (2.4, 2.6), (0.3, 0.5)),
    Stratum("hyperbolic_ball+", "hyperbolic_ball", 1.0, (2.0, 2.0), (0.3, 0.6)),
    Stratum("double_robin-", "double_robin", -1.0, (2.9, 3.0), (0.3, 0.7)),
    Stratum("spherical_cap+", "spherical_cap", 1.0, (1.7, 1.8), (0.3, 0.6)),
    Stratum("warped_ball+", "warped_ball", 1.0, (2.0, 2.0), (0.3, 0.7)),
]

# The Picone cases of the default verification matrix: per exponent, three
# random smooth pairs and one proportional pair (trial 3).  Pairs drawn
# afresh fail the 1e-8 identity tolerance now and then: one in about a
# hundred at p = 3 deviates by 1.7e-8, the central-difference error on
# 50 001 nodes.
PICONE_P = (1.5, 2.0, 3.0)
PICONE_TRIALS = 4

STRATA = {
    "shoot_sweep": SHOOT_STRATA,
    "rayleigh_cascade": RAYLEIGH_STRATA,
    "verify_checks": VERIFY_STRATA,
}

# Variants per stratum in the reference table: the most cycles one run can
# make before its op list is used up.
VARIANTS = {"shoot_sweep": 6, "rayleigh_cascade": 16, "verify_checks": 20}

POOL_SEED = 20020617

WHY = {
    "shoot_sweep": (
        "every sweep and verification check solves by shooting; about 99 % of a "
        "solve is the RK4 kernel, so this isolates shoot and _kernels"
    ),
    "rayleigh_cascade": (
        "Rayleigh solves at m=2000 weighted toward p != 2, where the coarse "
        "cascade levels dominate; shooting stays idle"
    ),
    "verify_checks": (
        "Picone and Barta checks do their own numpy work and reuse cached "
        "Rayleigh solutions, so a cache or verify change shows here"
    ),
}


def draw_variants(workload: str, stratum: Stratum, count: int) -> list:
    """(p, alpha) pairs of the reference pool; fixed by POOL_SEED."""
    rng = random.Random("%d:%s:%s" % (POOL_SEED, workload, stratum.name))
    out = []
    for _ in range(count):
        p = rng.uniform(*stratum.p) if stratum.p[0] != stratum.p[1] else stratum.p[0]
        lo, hi = stratum.alpha
        mag = lo * (hi / lo) ** rng.random()
        out.append((round(p, 6), round(stratum.sign * mag, 6)))
    return out


def spec_dict(family: str, p: float, alpha: float) -> dict:
    doc = json.loads(json.dumps(FAMILIES[family]))
    doc.update({"p": p, "alpha": alpha})
    return doc


def closed_form_kind(family: str, p: float, alpha: float) -> Optional[str]:
    """Which closed form of tests/oracles.py applies, if any."""
    if family == "flat" and alpha >= DIRICHLET_ALPHA_MIN:
        return "mixed_dn_lambda"
    if p == 2.0 and family in ("flat", "disk"):
        return family + "_robin_lambda"
    return None


def closed_form_tol(kind: str) -> float:
    return DIRICHLET_LIMIT_TOL if kind == "mixed_dn_lambda" else CLOSED_FORM_TOL


@dataclass
class Op:
    """One closed-loop operation and the reference its output must meet."""

    kind: str  # "shoot" | "rayleigh" | "barta" | "picone"
    cycle: int
    stratum: str = ""
    spec: Optional[dict] = None
    ref: Optional[float] = None
    tol: Optional[float] = None
    ref_source: str = ""
    params: dict = field(default_factory=dict)
    problem_spec: object = None  # the probin ProblemSpec, set at setup


def load_references(path=REFERENCES) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _reference(point: dict, solver: str):
    """(value, relative tolerance, source) for a solve by `solver`."""
    if point.get("closed_form") is not None:
        kind = point["closed_form_kind"]
        return point["closed_form"], closed_form_tol(kind), kind
    other = "rayleigh" if solver == "shoot" else "shoot"
    return point[other], CROSS_SOLVER_TOL, "table:" + other


def build_ops(workload: str, seed: int, table: dict) -> list:
    """The run's op list: whole cycles over the workload's strata."""
    if workload not in STRATA:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random(seed)
    pools = table["workloads"][workload]
    order = {name: rng.sample(range(len(pts)), len(pts)) for name, pts in pools.items()}
    cycles = min(len(pts) for pts in pools.values())
    ops = []
    for c in range(cycles):
        for k, st in enumerate(STRATA[workload]):
            point = pools[st.name][order[st.name][c]]
            if workload == "verify_checks":
                ops.append(_solve_op("barta", c, st.name, point, trial="eigenfunction"))
                ops.append(_picone_op(c, PICONE_P[k % len(PICONE_P)], rng))
                ops.append(_solve_op("barta", c, st.name, point, trial="perturbed"))
            else:
                kind = "shoot" if workload == "shoot_sweep" else "rayleigh"
                ops.append(_solve_op(kind, c, st.name, point))
    return ops


def _solve_op(kind, cycle, stratum, point, **params) -> Op:
    ref, tol, source = _reference(point, "shoot" if kind == "shoot" else "rayleigh")
    return Op(kind, cycle, stratum, point["spec"], ref, tol, source, dict(params))


def _picone_op(cycle, p, rng) -> Op:
    return Op("picone", cycle, "picone", params={"p": p, "trial": rng.randrange(PICONE_TRIALS)})

