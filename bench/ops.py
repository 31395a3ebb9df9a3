"""Execution and checking of one benchmark op against probin.

Import this only after src/ of the checkout is on sys.path.  Calls go
through module attributes (shoot.robin_mismatch, rayleigh.rayleigh_spec,
verify.picone_check, ...) so that the wrappers of a traced run see them.

The shooting op root-finds the public boundary mismatch with the same
bracket schedule and tolerance as shoot.solve_first_eigenvalue: on
numpy >= 2.4 that function raises AttributeError (np.trapz) after its
root-find, on every problem, so it cannot carry a workload yet.
"""

from __future__ import annotations

import math

import numpy as np

from probin import rayleigh, shoot, verify
from probin.problems import ProblemSpec
from probin.rayleigh import MinimizeConfig
from probin.shoot import ShootConfig

from workloads import PICONE_P, RAYLEIGH_M

SHOOT_CONFIG = ShootConfig()
MINIMIZE_CONFIG = MinimizeConfig()
PICONE_NODES = 50001


def high_side(problem):
    """Function lam -> True when lam lies above the first eigenvalue,
    read from the sign of the Robin mismatch at the matching end."""
    robins = problem.robin_ends()
    end = robins[0][0] if len(robins) == 1 else "right"
    s = 1.0 if end == "left" else -1.0

    def is_high(lam):
        return shoot.robin_mismatch(problem, lam, SHOOT_CONFIG) * s > 0.0

    alpha = problem.bc_left.alpha if end == "left" else problem.bc_right.alpha
    return is_high, alpha


def bracket(is_high, alpha, config=SHOOT_CONFIG):
    """Growing bracket (lo, hi) with is_high(hi) and not is_high(lo)."""
    if alpha > 0:
        lo, hi = 0.0, 1.0
        for _ in range(config.max_bracket_steps):
            if is_high(hi):
                return lo, hi
            lo, hi = hi, hi * config.bracket_growth
    else:
        lo, hi = -1.0, 0.0
        for _ in range(config.max_bracket_steps):
            if not is_high(lo):
                return lo, hi
            lo, hi = lo * config.bracket_growth, lo
    raise RuntimeError("no sign change of the Robin mismatch")


def shoot_eigenvalue(problem, config=SHOOT_CONFIG) -> float:
    is_high, alpha = high_side(problem)
    lo, hi = bracket(is_high, alpha, config)
    while hi - lo > config.lambda_tol * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if is_high(mid):
            hi = mid
        else:
            lo = mid
    return lo


def _default_picone_draws():
    """The random numbers verify.default_suite draws for its Picone pairs,
    in its order: per exponent, three pairs of (phase, slope) for u and v."""
    rng = np.random.default_rng(20240817)
    return {
        p: [[(rng.uniform(0, 6.28), rng.uniform(-1, 1)) for _ in "uv"] for _ in range(3)]
        for p in PICONE_P
    }


PICONE_DRAWS = _default_picone_draws()


def picone_pair(params):
    """(u, v, grid) of a Picone case of the default verification matrix."""
    grid = np.linspace(0.0, 1.0, PICONE_NODES)
    if params["trial"] == 3:
        v = np.exp(0.3 * np.sin(2.2 * grid))
        return 1.7 * v, v, grid
    (a, b), (c, d) = PICONE_DRAWS[params["p"]][params["trial"]]
    u = np.exp(0.4 * np.sin(2.0 * grid + a) + 0.3 * b * grid)
    v = np.exp(0.5 * np.cos(1.7 * grid + c) + 0.2 * d * grid * grid)
    return u, v, grid


def prepare(op) -> None:
    if op.spec is not None:
        op.problem_spec = ProblemSpec.from_dict(op.spec)


def execute(op):
    """Run one op; returns (eigenvalue or None, list of reports)."""
    if op.kind == "shoot":
        return shoot_eigenvalue(op.problem_spec.build()), []
    if op.kind == "rayleigh":
        sol = rayleigh.rayleigh_spec(op.problem_spec, RAYLEIGH_M, MINIMIZE_CONFIG)
        return sol.lambda_val, []
    if op.kind == "barta":
        sol = rayleigh.rayleigh_spec(op.problem_spec, RAYLEIGH_M, MINIMIZE_CONFIG)
        problem = op.problem_spec.build()
        if op.params["trial"] == "eigenfunction":
            rep = verify.barta_sandwich(problem, sol, lam=sol.lambda_val)
        else:
            bump = 0.05 * np.sin(math.pi * sol.grid / problem.length) ** 2
            rep = verify.barta_sandwich(problem, (sol.grid, sol.phi + bump),
                                        lam=sol.lambda_val, tolerance=1e-12)
        return sol.lambda_val, [rep]
    if op.kind == "picone":
        u, v, grid = picone_pair(op.params)
        tol = 1e-9 if op.params["trial"] == 3 else 1e-8
        return None, [verify.picone_check(u, v, grid, op.params["p"], tol_identity=tol)]
    raise ValueError("unknown op kind %r" % (op.kind,))


def check(op, result):
    """(ok, relative error or None, reason) for an op's result."""
    lam, reports = result
    err = None
    if op.ref is not None:
        err = abs(lam - op.ref) / abs(op.ref)
        if not err <= op.tol:
            return False, err, "eigenvalue off %s by %.3g (tol %g)" % (op.ref_source, err, op.tol)
    for rep in reports:
        if rep.status == "fail":
            return False, err, "%s failed, margin %.3g" % (rep.name, rep.margin)
        if op.kind == "picone" and op.params["trial"] == 3 and rep.extras["max_abs_L"] > 1e-10:
            return False, err, "Picone L does not vanish for u = c v"
    return True, err, ""


def fingerprint(result):
    """Numbers that a traced and an untraced pass must reproduce exactly."""
    lam, reports = result
    return [repr(x) for x in [lam] + [rep.margin for rep in reports]]
