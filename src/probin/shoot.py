"""Shooting solver for the first eigenvalue of a SturmProblem.

The degenerate ODE (w psi)' = -lam*w*|phi|^(p-2)phi, with the momentum
psi = |phi'|^(p-2) phi', is integrated for log phi and the Riccati
variable w = psi/phi^(p-1) (see _kernels), launched from the Neumann (or
singular) endpoint with (w, log phi) = (0, 0), or from the left end of a
two-Robin problem with (alpha, 0).  At the other (Robin) endpoint lam is
root-found by bracketed bisection on the sign of w - (orientation)*alpha.
A trial reads w at the Robin end straight off the kernel's outputs; only
a returned path (integrate, the converged eigenfunction) is rebuilt as
(phi, psi) from log phi and phi'/phi.

Launch corners are non-smooth: at a Neumann end the field |w|^(1/(p-1))
is not Lipschitz for p > 2, and at a singular end the drift w'/w blows up.
Both are handled the same way: a short closed-form series carries the
state to a small offset eps, and a fixed geometric subdivision of the
first two grid cells resolves the remaining steepness before the uniform
RK4 steps take over.  The schedule is deterministic, so runs remain
bit-reproducible.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import rk4_path
from .errors import BracketFailure, DomainError, ToleranceFailure
from .problems import EigenSolution, ProblemSpec, SturmProblem, inverse_momentum, momentum

# Offset of the series launch from a Neumann or singular corner, times
# (b-a); geometric substeps covering the first grid cell and uniform
# substeps covering the second one.
_EPS_SINGULAR = 1e-6
_GEOM_SUBSTEPS = 32
_UNIFORM_SUBSTEPS = 8


@dataclass(frozen=True)
class ShootConfig:
    rk_steps: int = 4096
    lambda_tol: float = 1e-10  # relative bisection width
    bracket_growth: float = 2.0
    max_bracket_steps: int = 60

    def __post_init__(self):
        if self.rk_steps < 64:
            raise DomainError("rk_steps must be >= 64")
        if self.lambda_tol <= 0:
            raise DomainError("lambda_tol must be positive")
        if self.bracket_growth <= 1.0:
            raise DomainError("bracket_growth must exceed 1")


@dataclass
class ShootTrajectory:
    """A trajectory normalized to max phi = 1.  A trajectory that crosses
    zero may stop there: its nodes after the crossing are NaN."""

    grid: np.ndarray  # in integration order (launch -> mismatch end)
    phi: np.ndarray
    psi: np.ndarray
    crossed: bool  # phi <= 0 somewhere: lam lies above the first eigenvalue


@dataclass
class _Plan:
    """Lambda-independent integration layout for one problem."""

    problem: SturmProblem
    direction: float  # +1 integrate left->right, -1 right->left
    launch_t: float
    mismatch_alpha: float
    robin_launch_alpha: Optional[float]  # set for two-Robin problems
    singular: bool
    eps: float
    steps: np.ndarray  # signed step sizes
    ld: np.ndarray  # drift at boundaries and midpoints, len 2*len(steps)+1
    node_pos: np.ndarray  # the rk_steps+1 node positions in integration order
    node_step: np.ndarray  # node j (j>=1) -> index into step results


def _build_plan(problem: SturmProblem, config: ShootConfig) -> _Plan:
    robins = problem.robin_ends()
    if not robins:
        raise DomainError("shooting needs at least one robin endpoint")

    # match at the last Robin end and launch from the other end: from the
    # Neumann end, or with the first Robin condition imposed if both are
    # Robin; integration runs toward the matched end's outward side
    _, direction, mismatch_alpha = robins[-1]
    robin_launch_alpha = robins[0][2] if len(robins) == 2 else None
    launch_t = problem.b if direction < 0 else problem.a
    singular = problem.singular_right if direction < 0 else problem.singular_left

    n_steps = config.rk_steps
    h = problem.length / n_steps
    node_pos = launch_t + direction * h * np.arange(n_steps + 1)

    if robin_launch_alpha is None:
        # Neumann or singular corner: series offset + graded first cells.
        eps = min(_EPS_SINGULAR * problem.length, 0.25 * h)
        geo = eps * (h / eps) ** (np.arange(_GEOM_SUBSTEPS + 1) / _GEOM_SUBSTEPS)
        geo[-1] = h
        uni = h + (h / _UNIFORM_SUBSTEPS) * np.arange(1, _UNIFORM_SUBSTEPS + 1)
        uni[-1] = 2.0 * h
        offsets = np.concatenate([geo, uni, h * np.arange(3, n_steps + 1)])
        # node 0 is stored analytically
        node_step = np.concatenate([[-1, _GEOM_SUBSTEPS - 1], _GEOM_SUBSTEPS
                                    + _UNIFORM_SUBSTEPS - 1 + np.arange(n_steps - 1)])
    else:
        eps = 0.0
        offsets = h * np.arange(0.0, n_steps + 1)
        node_step = np.arange(-1, n_steps, dtype=np.int64)

    bounds = launch_t + direction * offsets
    bounds[-1] = launch_t + direction * problem.length  # land exactly
    steps = np.diff(bounds)
    lattice = np.empty(2 * steps.size + 1)
    lattice[0::2] = bounds
    lattice[1::2] = 0.5 * (bounds[:-1] + bounds[1:])
    ld = np.asarray(problem.weight.log_deriv(lattice), dtype=float)

    return _Plan(problem, direction, launch_t, mismatch_alpha,
                 robin_launch_alpha, singular, eps, steps, ld, node_pos, node_step)


def _launch_state(plan: _Plan, lam: float, p: float):
    """(w, log phi) at the first step boundary."""
    if plan.robin_launch_alpha is not None:
        return plan.robin_launch_alpha, 0.0
    d = plan.direction
    eps = plan.eps
    if plan.singular:
        # w ~ s^order near the corner: (w*psi)' = -lam*w*|phi|^(p-2)phi
        # gives psi = -d*lam*s/(order+1) to leading order, error O(s^2).
        slope = lam / (plan.problem.singular_order + 1.0)
    else:
        ld0 = float(plan.problem.weight.log_deriv(plan.launch_t))
        slope = lam * (1.0 - 0.5 * ld0 * d * eps)
    w = -d * slope * eps
    # log phi(t0 + d*eps) = -invm(slope)*eps^q/q = -invm(slope*eps)*eps/q
    # to leading order, for either direction (the d factors cancel by
    # oddness of invm).
    logphi = -float(inverse_momentum(slope * eps, p)) * eps * (p - 1.0) / p
    if lam < 0.0:
        # The true w rises from 0 towards the Riccati equilibrium
        # w* = ((-lam)/(p-1))^((p-1)/p), where w' = -lam - (p-1)|w|^(p/(p-1))
        # vanishes, and stays below it; the leading-order w passes it once
        # |lam|*eps > w*.  So |phi'/phi| stays below invm(w*) and
        # |log phi(eps)| below invm(w*)*eps.  Near p = 1 the leading-order
        # log phi passes that by far (p = 1.03, lam = -1e7: 6.3e25 against
        # 188), and every later increment would be below its ulp.
        w_star = (-lam / (p - 1.0)) ** ((p - 1.0) / p)
        w = math.copysign(min(abs(w), w_star), w)
        logphi = math.copysign(min(abs(logphi), float(inverse_momentum(w_star, p)) * eps), logphi)
    return w, logphi


def _shoot(plan: _Plan, lam: float, p: float):
    """One integration at lam: (crossed, log phi, phi'/phi), the kernel's
    per-step outputs, NaN after a zero crossing.  Raises ToleranceFailure
    if the path turns non-finite before phi crosses zero."""
    w0, logphi0 = _launch_state(plan, lam, p)
    out_logphi = np.full(plan.steps.size, np.nan)
    out_slope = np.full(plan.steps.size, np.nan)
    crossed = rk4_path(
        w0, logphi0, lam, p - 1.0, 1.0 / (p - 1.0),
        plan.steps, plan.ld, out_logphi, out_slope,
    )
    if not (crossed or (math.isfinite(out_logphi[-1]) and math.isfinite(out_slope[-1]))):
        raise ToleranceFailure(
            "non-finite trajectory at lam = %r: the step is too coarse for the "
            "boundary layer; raise rk_steps" % lam)
    return crossed, out_logphi, out_slope


def _trajectory(plan: _Plan, p: float, run) -> ShootTrajectory:
    """(phi, psi) on the grid nodes, rebuilt from the outputs of _shoot."""
    crossed, out_logphi, out_slope = run
    # node 0 is the exact endpoint state: phi = 1, w = alpha or 0
    w_launch = plan.robin_launch_alpha or 0.0
    steps = plan.node_step[1:]
    logphi = np.concatenate([[0.0], out_logphi[steps]])
    slope = np.concatenate([[float(inverse_momentum(w_launch, p))], out_slope[steps]])
    phi = np.exp(logphi - np.nanmax(logphi))
    if crossed:  # phi < 0 after the last step written
        phi[1:][steps == np.count_nonzero(~np.isnan(out_logphi)) - 1] *= -1.0
    psi = momentum(slope * phi, p)
    psi[0] = w_launch * phi[0] ** (p - 1.0)
    return ShootTrajectory(plan.node_pos.copy(), phi, psi, crossed)


def _mismatch(plan: _Plan, p: float, run) -> float:
    """w(end) - (orientation)*alpha, read off the last step of _shoot."""
    crossed, _, out_slope = run
    s = -plan.direction
    if crossed:
        # phi crossed zero: lam is above the first eigenvalue
        return s * math.inf
    return float(momentum(out_slope[-1], p)) - s * plan.mismatch_alpha


def integrate(problem: SturmProblem, lam: float) -> ShootTrajectory:
    """Fixed-step RK4 trajectory, at the default ShootConfig, from the
    launch endpoint to the Robin endpoint at spectral parameter lam,
    normalized to max phi = 1.
    Raises ToleranceFailure if it turns non-finite before phi crosses
    zero.  This, and the converged eigenfunction of
    solve_first_eigenvalue, are the only places (phi, psi) is rebuilt
    from the kernel's log phi and phi'/phi."""
    plan = _build_plan(problem, ShootConfig())
    return _trajectory(plan, problem.p, _shoot(plan, lam, problem.p))


def robin_mismatch(problem: SturmProblem, lam: float, config: ShootConfig = ShootConfig()) -> float:
    """Boundary defect F(lam) = w(end) - (orientation)*alpha of the Riccati
    variable w = psi/|phi|^(p-2)phi.

    F is scale-free: it is continuous and increasing in lam (decreasing
    at a right Robin end) up to the first lam at which phi reaches zero
    at the end, and changes sign at the first eigenvalue.  Once phi
    crosses zero F is (orientation)*inf, on the "lam too large" side.
    F is read off the kernel's last slope; no (phi, psi) trajectory is
    rebuilt.
    """
    plan = _build_plan(problem, config)
    return _mismatch(plan, problem.p, _shoot(plan, lam, problem.p))


def eigen_residual(problem: SturmProblem, grid, phi, psi, lam: float) -> float:
    """Relative discrete L1 residual of (w*psi)' + lam*w*|phi|^(p-2)phi."""
    w = np.asarray(problem.weight.value(grid), dtype=float)
    wpsi = w * psi
    interior = slice(1, -1)
    h2 = grid[2:] - grid[:-2]
    d_wpsi = (wpsi[2:] - wpsi[:-2]) / h2
    drive = lam * w[interior] * np.asarray(momentum(phi[interior], problem.p))
    num = float(np.sum(np.abs(d_wpsi + drive)))
    den = float(np.sum(np.abs(drive)))
    if den == 0.0:
        return num
    return num / den


def solve_first_eigenvalue(problem: SturmProblem, config: ShootConfig = ShootConfig()) -> EigenSolution:
    """Smallest-magnitude eigenvalue with sign(lam) = sign(alpha) and a
    positive eigenfunction, by bracketed bisection on the Robin mismatch.

    The eigenfunction is returned on an ascending grid, normalized to
    max phi = 1; diagnostics carry the bracket, the counts of
    integrations, bracket steps and bisections, the final mismatch, the
    L^p norm of the normalized eigenfunction, and the number of its
    nodes that underflow to 0.0 (phi spans more than the double range).
    They also carry steps (bracket steps plus bisections), converged
    (always True: a failure raises) and phase_s, the seconds spent in
    the bracket search, the bisection and the eigenfunction finish.
    Trials read the mismatch off the kernel's outputs; only the converged
    eigenfunction is rebuilt as (phi, psi).
    """
    t_bracket = time.perf_counter()
    plan = _build_plan(problem, config)
    p = problem.p
    alpha = plan.mismatch_alpha
    s = -plan.direction
    integrations = 0
    low = None  # (lam, _shoot outputs) of the last trial below the eigenvalue

    def is_high(lam: float) -> bool:
        nonlocal integrations, low
        run = _shoot(plan, lam, p)
        integrations += 1
        high = _mismatch(plan, p, run) * s > 0.0
        if not high:
            low = (lam, run)
        return high

    # the eigenvalue has the sign of alpha: step away from 0 on that side
    # until a trial lands beyond it
    sign = 1.0 if alpha > 0 else -1.0
    near, far = 0.0, sign
    for _ in range(config.max_bracket_steps):
        if is_high(far) == (sign > 0.0):
            break
        near = far
        far *= config.bracket_growth
    else:
        raise BracketFailure("no sign change for lam between 0 and %g" % far)
    lo, hi = (near, far) if sign > 0.0 else (far, near)

    bracket = (lo, hi)
    bracket_steps = integrations
    t_bisect = time.perf_counter()
    bisections = 0
    while hi - lo > config.lambda_tol * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # float resolution reached
        if is_high(mid):
            hi = mid
        else:
            lo = mid
        bisections += 1
        if bisections > 400:
            raise ToleranceFailure("bisection stalled at [%r, %r]" % (lo, hi))

    t_finish = time.perf_counter()
    lam = lo  # the side with a positive trajectory
    if low is not None and low[0] == lam:
        run = low[1]
    else:
        run = _shoot(plan, lam, p)
        integrations += 1
    traj = _trajectory(plan, p, run)
    if traj.crossed:
        raise ToleranceFailure("trajectory invalid at the converged eigenvalue")
    mismatch = _mismatch(plan, p, run)

    order = np.argsort(traj.grid)
    grid = traj.grid[order]
    phi = traj.phi[order]
    psi = traj.psi[order]

    w = np.asarray(problem.weight.value(grid), dtype=float)
    f = w * np.abs(phi) ** p
    lp_norm = float(np.sum(np.diff(grid) * (f[1:] + f[:-1]) / 2.0)) ** (1.0 / p)
    res = eigen_residual(problem, grid, phi, psi, lam)
    t_end = time.perf_counter()

    return EigenSolution(
        lambda_val=float(lam),
        grid=grid,
        phi=phi,
        psi=psi,
        residual=res,
        method="shooting",
        diagnostics={
            "bracket": bracket,
            "integrations": integrations,
            "bracket_steps": bracket_steps,
            "bisections": bisections,
            "mismatch": mismatch,
            "lp_norm": lp_norm,
            "phi_underflow_nodes": int(np.count_nonzero(phi == 0.0)),
            "rk_steps": config.rk_steps,
            "steps": bracket_steps + bisections,
            "converged": True,
            "phase_s": {
                "bracket": t_bisect - t_bracket,
                "bisect": t_finish - t_bisect,
                "finish": t_end - t_finish,
            },
        },
    )


@functools.lru_cache(maxsize=1024)
def _solve_cached(spec: ProblemSpec, config: ShootConfig) -> EigenSolution:
    return solve_first_eigenvalue(spec.build(), config)


def solve_spec(spec: ProblemSpec, config: ShootConfig = ShootConfig()) -> EigenSolution:
    """Cached shooting solve keyed by the problem spec."""
    return _solve_cached(spec, config)
