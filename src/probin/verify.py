"""Numerical certification of the comparison theorems and identities.

Each check produces VerificationReport records with a signed margin: the
slack in the asserted inequality or equality, which must stay above
-tolerance to pass.  A check that solves eigenvalues takes solve, a
function from a ProblemSpec to its EigenSolution (shoot.solve_spec by
default).  Strict inequalities are asserted non-strictly with
tolerance, and a strictness flag records whether the margin cleared ten
times the tolerance (discretization cannot certify strictness itself).
Hypothesis-gated checks (log-concavity) emit skip records rather than
silently passing.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .coeffs import log_concavity_margin
from .errors import DomainError
from .problems import (
    EigenSolution,
    ProblemSpec,
    SturmProblem,
    ThreePoint,
    Warping,
    boundary_mean_curvature,
    inverse_momentum,
    momentum,
    polynomial_warping,
    ricci_lower_bound,
    sn_warping,
)
from .shoot import solve_spec

STRICTNESS_FACTOR = 10.0

# Tolerances of the checks below that take no tolerance argument
_TOL_PICONE_NONNEG = 1e-10  # pointwise L >= 0
_TOL_PICONE_COLLAPSE = 1e-10  # max |L| for a proportional pair u = c*v
_TOL_RICCATI = 1e-4  # sup-norm residual of the Riccati identity
_TOL_LOG_DERIV_BOUND = 1e-6  # |u'/u|^(p-1) <= |alpha|
_TOL_REFLECTION = 1e-8  # double-Robin against half-interval eigenvalue
_TOL_SYMMETRY = 1e-6  # evenness of the double-Robin eigenfunction
_TOL_INRADIUS_EQUALITY = 1e-5  # ball against matched model eigenvalue
_TOL_INRADIUS_BOUND = 1e-6  # one-sided model bounds (slack and warped)

# Interior nodes per block of the Picone check: its temporaries then stay
# in cache instead of being allocated, faulted in and trimmed at full
# length on every call.  8 192 timed fastest of 1 024 .. 50 000 on
# 50 001-node pairs (2 vCPUs, 4 MB L2).
_BLOCK = 8192


@dataclass
class VerificationReport:
    """Outcome of one check: what was compared, and the side condition.

    margin, passed and status are derived from those, so a report cannot
    disagree with itself; a "skip" report compares nothing."""

    name: str
    params: dict
    lhs: float
    rhs: float
    tolerance: float
    kind: str  # "eq" | "le" | "ge" | "sandwich" | "skip"
    holds: bool  # the check's side condition
    extras: dict

    @property
    def margin(self) -> float:
        """Signed slack of the comparison: nonnegative when it holds."""
        if self.kind == "eq":
            return -abs(self.lhs - self.rhs)
        if self.kind == "le":
            return self.rhs - self.lhs
        if self.kind == "ge":
            return self.lhs - self.rhs
        if self.kind == "sandwich":
            target = self.extras["target"]
            return min(target - self.lhs, self.rhs - target)
        return math.nan

    @property
    def passed(self) -> Optional[bool]:
        """The margin clears the tolerance and the side condition holds;
        None for a skip."""
        if self.kind == "skip":
            return None
        return bool(self.margin >= -self.tolerance and self.holds)

    @property
    def status(self) -> str:  # "pass" | "fail" | "skip"
        if self.kind == "skip":
            return "skip"
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        """The report as a JSON object; a skip's lhs, rhs and margin are null."""
        return {
            "name": self.name,
            "params": self.params,
            "lhs": _json_number(self.lhs),
            "rhs": _json_number(self.rhs),
            "margin": _json_number(self.margin),
            "tolerance": self.tolerance,
            "passed": self.passed,
            "status": self.status,
            "kind": self.kind,
            "extras": {k: _json_number(v) for k, v in self.extras.items()},
        }


def _json_number(value):
    """value, or None where it is a non-finite float: JSON has no NaN."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _report(name, params, kind, lhs, rhs, tolerance, extras=None, holds=True) -> VerificationReport:
    """Report of a comparison; extras gain the strictness flag."""
    rep = VerificationReport(
        name=name, params=dict(params), lhs=float(lhs), rhs=float(rhs),
        tolerance=float(tolerance), kind=kind, holds=bool(holds), extras=dict(extras or {}),
    )
    rep.extras.setdefault("strict", bool(rep.margin > STRICTNESS_FACTOR * rep.tolerance))
    return rep


def _skip(name, params, reason) -> VerificationReport:
    return VerificationReport(
        name=name, params=dict(params), lhs=math.nan, rhs=math.nan,
        tolerance=0.0, kind="skip", holds=True, extras={"reason": reason},
    )


def reports_to_jsonl(reports: Sequence[VerificationReport], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_json_dict(), sort_keys=True, allow_nan=False))
            fh.write("\n")


def reports_to_csv(reports: Sequence[VerificationReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "params", "status", "lhs", "rhs", "margin", "tolerance", "kind"])
        for rep in reports:
            writer.writerow([
                rep.name,
                json.dumps(rep.params, sort_keys=True),
                rep.status,
                "%.12g" % rep.lhs,
                "%.12g" % rep.rhs,
                "%.12g" % rep.margin,
                "%.12g" % rep.tolerance,
                rep.kind,
            ])


# ----------------------------------------------------------------------
# Sampled fields and their interior derivatives
# ----------------------------------------------------------------------

def _sampled(what, grid, *fields):
    """grid and fields as float arrays, or DomainError unless they are
    1-D, of one length, at least 3 nodes, finite, on a strictly
    increasing grid: the three-point stencil needs no less."""
    arrays = [np.asarray(x, dtype=float) for x in (grid, *fields)]
    if any(x.ndim != 1 for x in arrays):
        raise DomainError("%s needs 1-D grid and samples" % what)
    if len({x.size for x in arrays}) != 1:
        raise DomainError("%s needs samples of the grid's length, got sizes %s"
                          % (what, [x.size for x in arrays]))
    if arrays[0].size < 3:
        raise DomainError("%s needs at least 3 nodes, got %d" % (what, arrays[0].size))
    if not all(np.isfinite(x).all() for x in arrays):
        raise DomainError("%s needs finite grid and samples" % what)
    if not (arrays[0][1:] > arrays[0][:-1]).all():
        raise DomainError("%s needs a strictly increasing grid" % what)
    return arrays


def _blocks(n):
    """(lo, hi) slices of an n-node grid whose interior nodes lo+1 .. hi-2
    are consecutive blocks of at most _BLOCK interior nodes: each block
    reads its own nodes and one neighbour on each side."""
    for first in range(1, n - 1, _BLOCK):
        yield first - 1, min(first + _BLOCK, n - 1) + 1


def _uniform_step(grid):
    """The step of an exactly uniform grid, else None: numpy's test for
    the scalar branch of np.gradient, made block by block so that no
    full-length array of spacings is formed."""
    h = grid[1] - grid[0]
    for lo, hi in _blocks(grid.size):
        if not (np.diff(grid[lo:hi]) == h).all():
            return None
    return h


# ----------------------------------------------------------------------
# Picone identity
# ----------------------------------------------------------------------

def picone_check(u, v, grid, p, tol_identity=1e-8) -> VerificationReport:
    """Pointwise check of L(u,v) = R(u,v) >= 0 for u >= 0, v > 0.

    L = |u'|^p + (p-1)(u/v)^p |v'|^p - p (u/v)^(p-1) |v'|^(p-2) v' u'
    R = |u'|^p - |v'|^(p-2) v' * (u^p / v^(p-1))'

    Derivatives are numpy's three-point differences on the interior nodes,
    where the comparison runs (ThreePoint); numpy takes its scalar branch
    only when the whole grid is exactly uniform (_uniform_step), else each
    block's stencil forms numpy's weights from its own spacing.  The fields are
    formed and reduced over blocks of _BLOCK interior nodes, so that every
    temporary stays cache-sized; each node's value is the same IEEE
    expression as on full arrays, and the block extrema are combined with
    np.max/np.min, so a NaN anywhere still comes out NaN.  The margin
    folds both assertions: identity deviation at tol_identity, pointwise
    nonnegativity of L at _TOL_PICONE_NONNEG.  extras carry max |L|, which
    a proportional pair u = c*v must drive to zero.  p must lie in
    (1, inf), as a SturmProblem's does.
    """
    if not 1.0 < p < math.inf:
        raise DomainError("picone check needs 1 < p < inf, got %r" % (p,))
    grid, u, v = _sampled("picone check", grid, u, v)
    if np.any(v <= 0.0):
        raise DomainError("picone check needs v > 0")
    if np.any(u < 0.0):
        raise DomainError("picone check needs u >= 0")
    h = _uniform_step(grid)
    devs, mins, max_abs = [], [], []
    for lo, hi in _blocks(grid.size):
        ub, vb = u[lo:hi], v[lo:hi]
        w = ub ** p / vb ** (p - 1.0)
        stencil = ThreePoint(grid[lo:hi], h)
        dui, dvi, dwi = stencil.interior(ub), stencil.interior(vb), stencil.interior(w)
        ratio = ub[1:-1] / vb[1:-1]
        mv = momentum(dvi, p)
        du_p = np.abs(dui) ** p
        lhs_field = du_p + (p - 1.0) * ratio ** p * np.abs(dvi) ** p \
            - p * ratio ** (p - 1.0) * mv * dui
        rhs_field = du_p - mv * dwi
        devs.append(np.max(np.abs(lhs_field - rhs_field)))
        mins.append(np.min(lhs_field))
        max_abs.append(np.max(np.abs(lhs_field)))

    dev = float(np.max(devs))
    min_l = float(np.min(mins))
    # fold the nonnegativity slack into the same margin scale
    folded = max(dev, (tol_identity / _TOL_PICONE_NONNEG) * max(0.0, -min_l))
    max_abs_l = float(np.max(max_abs))
    return _report(
        "picone_identity", {"p": p, "nodes": int(grid.size)}, "eq",
        lhs=folded, rhs=0.0, tolerance=tol_identity,
        extras={"max_deviation": dev, "min_L": min_l, "max_abs_L": max_abs_l},
    )


# ----------------------------------------------------------------------
# Barta-type sandwich
# ----------------------------------------------------------------------

def barta_sandwich(
    problem: SturmProblem,
    trial,
    lam: float,
    tolerance: float = 1e-4,
) -> VerificationReport:
    """inf(-D_p v / m(v)) <= lambda <= sup(...) for a positive trial v.

    trial is either an EigenSolution (its momentum samples are used
    directly) or a pair (grid, values) whose momentum is formed from
    central differences.  lam is the eigenvalue the sandwich brackets.
    """
    solution = isinstance(trial, EigenSolution)
    grid, v = (trial.grid, trial.phi) if solution else _sampled("barta trial", *trial)
    stencil = ThreePoint.of_grid(grid)
    psi_v = trial.psi if solution else momentum(stencil(v), problem.p)
    if np.any(v <= 0.0):
        raise DomainError("barta trial must be positive")

    dpsi = stencil.interior(psi_v)
    sl = slice(1, -1)
    ld = np.asarray(problem.weight.log_deriv(grid[sl]), dtype=float)
    ratio = -(dpsi + ld * psi_v[sl]) / momentum(v[sl], problem.p)
    lo = float(np.min(ratio))
    hi = float(np.max(ratio))

    extras = {"target": float(lam)}
    for end, sign, alpha in problem.robin_ends():
        idx = 0 if end == "left" else -1
        extras["boundary_defect_%s" % end] = float(
            sign * psi_v[idx] + alpha * momentum(v[idx], problem.p)
        )
    return _report(
        "barta_sandwich",
        {"p": problem.p, "interval": (problem.a, problem.b)},
        "sandwich", lhs=lo, rhs=hi, tolerance=tolerance, extras=extras,
    )


# ----------------------------------------------------------------------
# First-eigenfunction shape suite (sign, log-derivative bound, Riccati)
# ----------------------------------------------------------------------

def eigenfunction_shape_suite(problem: SturmProblem, solution: EigenSolution) -> list:
    """Structure checks for a solved problem with Robin at the left end.

    Always checked: the sign of u' matches the sign of alpha away from the
    Neumann end, and the logarithmic derivative v = u'/u satisfies its
    first-order identity (momentum form) up to _TOL_RICCATI in sup norm.
    Only for strictly log-concave weights: v is monotone (decreasing for
    alpha > 0, increasing for alpha < 0) and |v|^(p-1) <= |alpha|;
    otherwise those two checks are emitted as skips.

    On a shooting solution riccati_identity checks the integrator against
    its own equation, since shooting integrates this Riccati variable: a
    consistency check of the sampling and the (phi, psi) rebuild, not a
    cross-validation.  The independent signal is the agreement of the
    shooting and Rayleigh eigenvalues.
    """
    if problem.bc_left.kind != "robin" or problem.bc_right.kind != "neumann":
        raise DomainError("shape suite expects Robin at the left end, Neumann at the right")
    alpha = problem.bc_left.alpha
    p = problem.p
    lam = solution.lambda_val
    base = {"alpha": alpha, "p": p, "R": problem.length}
    grid, phi, psi = solution.grid, solution.phi, solution.psi
    reports = []

    # (sign) u' keeps the sign of alpha on [0, R); psi vanishes only at R
    s = 1.0 if alpha > 0 else -1.0
    reports.append(_report(
        "eigenfunction_gradient_sign", base, "ge",
        lhs=float(np.min(s * psi[:-1])), rhs=0.0, tolerance=0.0,
    ))

    # momentum-form Riccati identity for v = u'/u:
    # (m(v))' + (w'/w) m(v) + (p-1)|v|^p + lam = 0
    mv = psi / momentum(phi, p)
    vv = inverse_momentum(mv, p)
    dmv = ThreePoint.of_grid(grid).interior(mv)
    sl = slice(1, -1)
    ld = np.asarray(problem.weight.log_deriv(grid[sl]), dtype=float)
    resid = dmv + ld * mv[sl] + (p - 1.0) * np.abs(vv[sl]) ** p + lam
    reports.append(_report(
        "riccati_identity", base, "eq",
        lhs=float(np.max(np.abs(resid))), rhs=0.0, tolerance=_TOL_RICCATI,
    ))

    # a singular right endpoint is a pole of the drift; the log-concavity
    # hypothesis is one-sided there, so gate on the half-open interval
    b_eff = problem.b - 1e-3 * problem.length if problem.singular_right else problem.b
    lc = log_concavity_margin(problem.weight, (problem.a, b_eff))
    if lc >= -1e-10:
        reason = "weight not strictly log-concave ((log w)'' max = %.3g)" % lc
        reports.append(_skip("log_derivative_monotone", base, reason))
        reports.append(_skip("log_derivative_bound", base, reason))
        return reports

    dv = np.diff(vv)
    if alpha > 0:
        worst = float(np.max(dv))  # should be decreasing
    else:
        worst = float(-np.min(dv))  # should be increasing
    reports.append(_report(
        "log_derivative_monotone", base, "le",
        lhs=worst, rhs=0.0, tolerance=1e-7 * max(1.0, abs(alpha)),
        extras={"log_concavity_margin": lc},
    ))
    reports.append(_report(
        "log_derivative_bound", base, "le",
        lhs=float(np.max(np.abs(mv))), rhs=abs(alpha), tolerance=_TOL_LOG_DERIV_BOUND,
        extras={"log_concavity_margin": lc},
    ))
    return reports


# ----------------------------------------------------------------------
# Reflection identity: double-Robin interval vs half interval
# ----------------------------------------------------------------------

def reflection_identity(R: float, alpha: float, p: float,
                        solve: Callable = solve_spec) -> VerificationReport:
    """First eigenvalue of [0, 2R] with Robin(alpha) at both ends equals
    that of [0, R] with Robin(alpha)/Neumann, and the double-Robin
    eigenfunction is even about the midpoint.

    With a shooting solve the two routes are independent: the full
    problem is shot from the left Robin end across the whole interval,
    the half problem from its Neumann end.  A Rayleigh solve solves the
    full problem on its half mesh of m/2 cells and the half problem on
    m, so the row then measures that mesh difference, not the solver.
    """
    full = solve(ProblemSpec("double_robin", R=R, alpha=alpha, p=p))
    half = solve(ProblemSpec("inradius_model", R=R, alpha=alpha, p=p,
                             kappa=0.0, lambda_mc=0.0, n=2))
    sym_defect = float(np.max(np.abs(full.phi - full.phi[::-1])))
    return _report(
        "reflection_identity", {"R": R, "alpha": alpha, "p": p}, "eq",
        lhs=full.lambda_val, rhs=half.lambda_val, tolerance=_TOL_REFLECTION,
        extras={"symmetry_defect": sym_defect, "symmetry_tol": _TOL_SYMMETRY},
        holds=sym_defect <= _TOL_SYMMETRY,
    )


# ----------------------------------------------------------------------
# Monotonicity family checks
# ----------------------------------------------------------------------

def radius_monotonicity_suite(radii: Sequence[float], base: ProblemSpec,
                              solve: Callable = solve_spec) -> list:
    """lambda strictly decreasing in the interval length, for alpha > 0:
    base solved at each radius, in increasing order."""
    if base.alpha <= 0:
        raise DomainError("radius monotonicity is stated for alpha > 0")
    radii = sorted(radii)
    lams = [solve(replace(base, R=r)).lambda_val for r in radii]
    reports = []
    for i in range(len(radii) - 1):
        reports.append(_report(
            "radius_monotonicity",
            {"R_small": radii[i], "R_large": radii[i + 1], "alpha": base.alpha, "p": base.p},
            "le", lhs=lams[i + 1], rhs=lams[i], tolerance=1e-12,
        ))
    return reports


def alpha_monotonicity_suite(alphas: Sequence[float], base: ProblemSpec,
                             solve: Callable = solve_spec) -> list:
    """lambda strictly increasing in alpha, with sign(lambda) =
    sign(alpha): base solved at each alpha, in increasing order."""
    alphas = sorted(alphas)
    lams = [solve(replace(base, alpha=a)).lambda_val for a in alphas]
    reports = []
    for i in range(len(alphas) - 1):
        reports.append(_report(
            "alpha_monotonicity",
            {"alpha_small": alphas[i], "alpha_large": alphas[i + 1], "p": base.p, "R": base.R},
            "le", lhs=lams[i], rhs=lams[i + 1], tolerance=1e-12,
        ))
    for a, lam in zip(alphas, lams):
        reports.append(_report(
            "eigenvalue_sign", {"alpha": a, "p": base.p, "R": base.R}, "ge",
            lhs=lam * math.copysign(1.0, a), rhs=0.0, tolerance=1e-12,
        ))
    return reports


def dirichlet_limit_suite(ps: Sequence[float], base: ProblemSpec,
                          solve: Callable = solve_spec) -> list:
    """At alpha = 1e6 the eigenvalue of base at each exponent p is within
    1% of the closed-form mixed Dirichlet/Neumann value
    (p-1)*(pi_p/(2R))^p."""
    reports = []
    for p in ps:
        lam = solve(replace(base, p=p, alpha=1e6)).lambda_val
        pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
        limit = (p - 1.0) * (pi_p / (2.0 * base.R)) ** p
        reports.append(_report(
            "dirichlet_limit", {"p": p, "R": base.R}, "eq",
            lhs=lam, rhs=limit, tolerance=0.01 * limit,
        ))
    return reports


# ----------------------------------------------------------------------
# Curvature comparison across space forms (Cheng-type)
# ----------------------------------------------------------------------

def cheng_comparison_suite(
    kappas: Sequence[float],
    n: int,
    R0: float,
    alpha: float,
    p: float,
    solve: Callable = solve_spec,
) -> list:
    """On geodesic balls of fixed radius, the eigenvalue is monotone in
    the curvature: nonincreasing for alpha > 0, nondecreasing for
    alpha < 0.  The equality row solves the lowest curvature's ball again
    through the warped_product spec with f = sn: a second cache key that
    reaches the same builder, so it checks that the two spec types
    dispatch to the same problem."""
    kappas = sorted(kappas)
    lams = []
    for k in kappas:
        spec = ProblemSpec("geodesic_ball", R=R0, alpha=alpha, p=p, kappa=k, n=n)
        lams.append(solve(spec).lambda_val)
    reports = []
    for i in range(len(kappas) - 1):
        k0, k1 = kappas[i], kappas[i + 1]
        params = {"kappa_low": k0, "kappa_high": k1, "n": n, "R0": R0, "alpha": alpha, "p": p}
        reports.append(_report(
            "curvature_comparison", params, "le" if alpha > 0 else "ge",
            lhs=lams[i + 1], rhs=lams[i], tolerance=1e-12,
        ))
    twin = ProblemSpec("warped_product", R=R0, alpha=alpha, p=p, n=n,
                       warping=sn_warping(kappas[0]))
    lam_twin = solve(twin).lambda_val
    reports.append(_report(
        "curvature_comparison_equal",
        {"kappa": kappas[0], "n": n, "R0": R0, "alpha": alpha, "p": p},
        "eq", lhs=lam_twin, rhs=lams[0], tolerance=1e-9,
    ))
    return reports


# ----------------------------------------------------------------------
# Inradius model bound (sharp lower/upper bound via the 1-D model)
# ----------------------------------------------------------------------

def ball_model_spec(kappa: float, n: int, R0: float, alpha: float, p: float) -> ProblemSpec:
    """The inradius model matched to a geodesic ball: lambda_mc is the
    boundary mean-curvature bound sn'(R0)/sn(R0) and R equals R0 (which
    is then exactly the model cutoff; the reduction is exact)."""
    lam_mc = boundary_mean_curvature(sn_warping(kappa), R0)
    return ProblemSpec("inradius_model", R=R0, alpha=alpha, p=p, kappa=kappa, lambda_mc=lam_mc, n=n)


def inradius_equality_check(
    kappa: float, n: int, R0: float, alpha: float, p: float,
    solve: Callable = solve_spec,
) -> VerificationReport:
    """On a space-form ball the model bound is attained: the radial ball
    eigenvalue equals the matched inradius-model eigenvalue.

    The reduction is exact, so the ball and the model, each solved once
    by solve, must agree within the solver-tolerance floor
    50 * lambda_tol * max(1, |lambda_ball|), lambda_tol read off the
    ball solution's diagnostics, as well as within the row's tolerance;
    extras carry the floor and at_floor.
    """
    ball = solve(ProblemSpec("geodesic_ball", R=R0, alpha=alpha, p=p, kappa=kappa, n=n))
    lam_ball = ball.lambda_val
    lam_model = solve(ball_model_spec(kappa, n, R0, alpha, p)).lambda_val
    floor = 50.0 * ball.diagnostics["lambda_tol"] * max(1.0, abs(lam_ball))
    at_floor = abs(lam_ball - lam_model) <= floor
    return _report(
        "inradius_model_equality",
        {"kappa": kappa, "n": n, "R0": R0, "alpha": alpha, "p": p},
        "eq", lhs=lam_ball, rhs=lam_model, tolerance=_TOL_INRADIUS_EQUALITY,
        extras={"floor": floor, "at_floor": bool(at_floor)}, holds=at_floor,
    )


def inradius_slack_check(
    kappa: float, n: int, R0: float, alpha: float, p: float,
    d_kappa: float = 0.0, d_lambda: float = 0.0,
    solve: Callable = solve_spec,
) -> VerificationReport:
    """Slackened curvature or mean-curvature bounds push the model value
    strictly to the safe side of the ball eigenvalue: below it for
    alpha > 0, above it for alpha < 0."""
    if d_kappa == 0.0 and d_lambda == 0.0:
        raise DomainError("need a nonzero slack")
    ball = ProblemSpec("geodesic_ball", R=R0, alpha=alpha, p=p, kappa=kappa, n=n)
    matched = ball_model_spec(kappa, n, R0, alpha, p)
    model = replace(matched, kappa=kappa - d_kappa, lambda_mc=matched.lambda_mc - d_lambda)
    lam_ball = solve(ball).lambda_val
    lam_model = solve(model).lambda_val
    params = {
        "kappa": kappa, "n": n, "R0": R0, "alpha": alpha, "p": p,
        "d_kappa": d_kappa, "d_lambda": d_lambda,
    }
    return _report("inradius_model_slack", params, "ge" if alpha > 0 else "le",
                   lhs=lam_ball, rhs=lam_model, tolerance=_TOL_INRADIUS_BOUND)


def inradius_warped_check(
    warping: Warping, n: int, R0: float, alpha: float, p: float,
    solve: Callable = solve_spec,
) -> VerificationReport:
    """For a warped-product ball, extract the curvature bounds from the
    warping function and assert the model bound with those bounds.  The
    model's builder refuses an R0 past their cutoff and takes one at it,
    as on a space-form ball, as the singular equality case."""
    kappa_eff = ricci_lower_bound(warping, n, R0)
    lambda_eff = boundary_mean_curvature(warping, R0)
    wp = ProblemSpec("warped_product", R=R0, alpha=alpha, p=p, n=n, warping=warping)
    model = ProblemSpec(
        "inradius_model", R=R0, alpha=alpha, p=p,
        kappa=kappa_eff, lambda_mc=lambda_eff, n=n,
    )
    lam_m = solve(wp).lambda_val
    lam_model = solve(model).lambda_val
    params = {
        "warping": warping.kind or "custom", "n": n, "R0": R0,
        "alpha": alpha, "p": p, "kappa_eff": kappa_eff, "lambda_eff": lambda_eff,
    }
    return _report("inradius_model_warped", params, "ge" if alpha > 0 else "le",
                   lhs=lam_m, rhs=lam_model, tolerance=_TOL_INRADIUS_BOUND)


# ----------------------------------------------------------------------
# Default suite
# ----------------------------------------------------------------------

def default_suite(solve: Callable = solve_spec) -> list:
    """Run every check on its default parameter matrix.

    Reports are sorted by name and parameters, which fixes the row order
    of the written reports."""
    reports = []

    # Picone: random smooth positive pairs plus the proportional case
    rng = np.random.default_rng(20240817)
    grid = np.linspace(0.0, 1.0, 50001)
    for p in (1.5, 2.0, 3.0):
        for trial in range(3):
            u = np.exp(0.4 * np.sin(2.0 * grid + rng.uniform(0, 6.28))
                       + 0.3 * rng.uniform(-1, 1) * grid)
            v = np.exp(0.5 * np.cos(1.7 * grid + rng.uniform(0, 6.28))
                       + 0.2 * rng.uniform(-1, 1) * grid * grid)
            rep = picone_check(u, v, grid, p)
            rep.params["trial"] = trial
            reports.append(rep)
        v = np.exp(0.3 * np.sin(2.2 * grid))
        rep = picone_check(1.7 * v, v, grid, p, tol_identity=1e-9)
        rep.name = "picone_identity_proportional"
        rep.holds = rep.extras["max_abs_L"] <= _TOL_PICONE_COLLAPSE
        reports.append(rep)

    # Barta sandwich on the flat problem
    flat = ProblemSpec("inradius_model", R=1.0, alpha=1.0, p=2.0,
                       kappa=0.0, lambda_mc=0.0, n=2)
    prob = flat.build()
    sol = solve(flat)
    rep = barta_sandwich(prob, sol, lam=sol.lambda_val)
    rep.name = "barta_sandwich_eigenfunction"
    reports.append(rep)
    bump = 0.05 * np.sin(math.pi * sol.grid / prob.length) ** 2
    rep = barta_sandwich(prob, (sol.grid, sol.phi + bump), lam=sol.lambda_val,
                         tolerance=1e-12)
    rep.name = "barta_sandwich_perturbed"
    reports.append(rep)

    # Eigenfunction shape checks on log-concave and log-linear weights
    cases = [
        (1.0, 0.0, 3, 1.0, 1.0, 2.0),    # strictly log-concave
        (1.0, 0.0, 3, 1.0, -1.0, 2.0),
        (0.0, 0.5, 2, 1.0, 1.0, 3.0),    # strictly log-concave, p != 2
        (-1.0, 1.0, 3, 1.0, 1.0, 2.0),   # log-linear weight: skips
    ]
    for kappa, lam_mc, n, R, alpha, p in cases:
        spec = ProblemSpec("inradius_model", R=R, alpha=alpha, p=p,
                           kappa=kappa, lambda_mc=lam_mc, n=n)
        for rep in eigenfunction_shape_suite(spec.build(), solve(spec)):
            rep.params.update({"kappa": kappa, "lambda_mc": lam_mc, "n": n})
            reports.append(rep)

    # Reflection identity matrix
    for R in (0.5, 1.0):
        for alpha in (-1.0, 1.0):
            for p in (1.5, 2.0, 3.0):
                reports.append(reflection_identity(R, alpha, p, solve))

    # Monotone families
    reports.extend(radius_monotonicity_suite((0.5, 1.0, 2.0), flat, solve))
    reports.extend(alpha_monotonicity_suite((-1.0, -0.1, 0.1, 1.0), flat, solve))
    reports.extend(dirichlet_limit_suite((1.5, 2.0, 3.0), flat, solve))

    # Curvature comparison
    for alpha in (1.0, -1.0):
        reports.extend(cheng_comparison_suite((-1.0, -0.5, 0.0, 0.5, 1.0),
                                              2, 1.0, alpha, 2.0, solve))

    # Inradius model bound: equality on space-form balls, slack, warped
    for kappa, n in ((0.0, 2), (-1.0, 3)):
        for alpha in (1.0, -1.0):
            for p in (2.0, 3.0):
                reports.append(inradius_equality_check(kappa, n, 1.0, alpha, p, solve))
                reports.append(inradius_slack_check(kappa, n, 1.0, alpha, p,
                                                    d_lambda=0.3, solve=solve))
                reports.append(inradius_slack_check(kappa, n, 1.0, alpha, p,
                                                    d_kappa=0.5, solve=solve))
    warped = polynomial_warping((0.0, 1.0, 0.0, 0.1))
    reports.append(inradius_warped_check(warped, 2, 1.0, 1.0, 2.0, solve))

    reports.sort(key=lambda r: (r.name, json.dumps(r.params, sort_keys=True)))
    return reports
