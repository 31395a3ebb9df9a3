"""Shooting solver for the first eigenvalue of a SturmProblem.

The degenerate ODE (w psi)' = -lam*w*|phi|^(p-2)phi, with the momentum
psi = |phi'|^(p-2) phi', is integrated for log phi and the Riccati
variable w = psi/phi^(p-1) (see _kernels), launched from the Neumann (or
singular) endpoint with (w, log phi) = (0, 0), or from the left end of a
two-Robin problem with (alpha, 0).  At the other (Robin) endpoint lam is
root-found by bracketed bisection on the sign of w - (orientation)*alpha.
A trial integrates the Riccati state alone: it asks the kernel for the
crossing flag and the slope phi'/phi after the last step, reads w at
the Robin end off that slope, and forms no log phi.  Only a returned
path (integrate, the converged eigenfunction) has the kernel form log
phi and write it and the slope at every step, and is rebuilt as
(phi, psi) from them.

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
import numbers
import time
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from ._kernels import kernel_array, rk4_path
from .errors import BracketFailure, DomainError, ToleranceFailure
from .problems import (EigenSolution, ProblemSpec, SturmProblem, _read_only, inverse_momentum,
                       momentum)

# Offset of the series launch from a Neumann or singular corner, times
# (b-a); geometric substeps covering the first grid cell and uniform
# substeps covering the second one.
_EPS_SINGULAR = 1e-6
_GEOM_SUBSTEPS = 32
_UNIFORM_SUBSTEPS = 8

MIN_RK_STEPS = 64  # the fewest RK4 steps a ShootConfig takes


@dataclass(frozen=True)
class ShootConfig:
    rk_steps: int = 4096
    lambda_tol: float = 1e-10  # relative bisection width
    # the bracket grows from 0 by this factor, for at most this many steps
    bracket_growth: ClassVar[float] = 2.0
    max_bracket_steps: ClassVar[int] = 60

    def __post_init__(self):
        if not (isinstance(self.rk_steps, numbers.Integral) and self.rk_steps >= MIN_RK_STEPS):
            raise DomainError("rk_steps must be an integer >= %d, got %r"
                              % (MIN_RK_STEPS, self.rk_steps))
        # written so that NaN fails too: nan <= 0 is False, and a NaN or
        # infinite tolerance would end the bisection before its first step
        if not 0.0 < self.lambda_tol < math.inf:
            raise DomainError("lambda_tol must be positive and finite")


@dataclass
class ShootTrajectory:
    """A trajectory normalized to max phi = 1.  A trajectory that crosses
    zero may stop there: its nodes after the crossing are NaN."""

    grid: np.ndarray  # in integration order (launch -> mismatch end)
    phi: np.ndarray
    psi: np.ndarray
    crossed: bool  # phi <= 0 somewhere: lam lies above the first eigenvalue


@dataclass(frozen=True, eq=False)
class _Plan:
    """Lambda-independent integration layout for one problem.  Plans are
    shared between calls (see _build_plan): their arrays are read-only."""

    problem: SturmProblem
    rk_steps: int
    direction: float  # +1 integrate left->right, -1 right->left
    mismatch_alpha: float
    robin_launch_alpha: Optional[float]  # set for two-Robin problems
    singular: bool
    eps: float
    launch_drift: Optional[float]  # the weight's log-derivative at a Neumann launch
    # _kernels.kernel_array: per step h, h/2, h/6 and the drift at its
    # start, midpoint and end
    kernel: np.ndarray
    node_pos: np.ndarray  # the rk_steps+1 node positions in integration order
    node_step: np.ndarray  # node j (j>=1) -> index into step results


# The plan of the last _build_plan call.  A root-find integrates one
# problem some 36 times at one step count; they share one plan.
_last_plan: Optional[_Plan] = None


def _build_plan(problem: SturmProblem, rk_steps: int) -> _Plan:
    """The integration plan of problem in rk_steps steps, reused while
    calls pass the same problem object and step count.  The previous
    plan is dropped before another is built, so at most one is held."""
    global _last_plan
    plan = _last_plan
    if plan is None or plan.problem is not problem or plan.rk_steps != rk_steps:
        plan = _last_plan = None
        plan = _last_plan = _make_plan(problem, rk_steps)
    return plan


def _make_plan(problem: SturmProblem, rk_steps: int) -> _Plan:
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

    h = problem.length / rk_steps
    node_pos = launch_t + direction * h * np.arange(rk_steps + 1)

    launch_drift = None
    if robin_launch_alpha is None:
        # Neumann or singular corner: series offset + graded first cells.
        eps = min(_EPS_SINGULAR * problem.length, 0.25 * h)
        if not singular:
            launch_drift = float(problem.weight.log_deriv(launch_t))
        geo = eps * (h / eps) ** (np.arange(_GEOM_SUBSTEPS + 1) / _GEOM_SUBSTEPS)
        geo[-1] = h
        uni = h + (h / _UNIFORM_SUBSTEPS) * np.arange(1, _UNIFORM_SUBSTEPS + 1)
        uni[-1] = 2.0 * h
        offsets = np.concatenate([geo, uni, h * np.arange(3, rk_steps + 1)])
        # node 0 is stored analytically
        node_step = np.concatenate([[-1, _GEOM_SUBSTEPS - 1], _GEOM_SUBSTEPS
                                    + _UNIFORM_SUBSTEPS - 1 + np.arange(rk_steps - 1)])
    else:
        eps = 0.0
        offsets = h * np.arange(0.0, rk_steps + 1)
        node_step = np.arange(-1, rk_steps, dtype=np.int64)

    bounds = launch_t + direction * offsets
    bounds[-1] = launch_t + direction * problem.length  # land exactly
    lattice = np.empty(2 * bounds.size - 1)
    lattice[0::2] = bounds
    lattice[1::2] = 0.5 * (bounds[:-1] + bounds[1:])
    kernel = kernel_array(np.diff(bounds), problem.weight.log_deriv(lattice))

    return _Plan(problem, rk_steps, direction, mismatch_alpha, robin_launch_alpha, singular,
                 eps, launch_drift, kernel, _read_only(node_pos), _read_only(node_step))


def _launch_state(plan: _Plan, lam: float, p: float, path: bool):
    """(w, log phi) at the first step boundary.  A trial (path False)
    gets a NaN log phi off a Robin launch: its kernel does not read it,
    so it is not formed."""
    if plan.robin_launch_alpha is not None:
        return plan.robin_launch_alpha, 0.0
    d = plan.direction
    eps = plan.eps
    if plan.singular:
        # w ~ s^order near the corner: (w*psi)' = -lam*w*|phi|^(p-2)phi
        # gives psi = -d*lam*s/(order+1) to leading order, error O(s^2).
        slope = lam / (plan.problem.singular_order + 1.0)
    else:
        slope = lam * (1.0 - 0.5 * plan.launch_drift * d * eps)
    w = -d * slope * eps
    if lam < 0.0:
        # The true w rises from 0 towards the Riccati equilibrium
        # w* = ((-lam)/(p-1))^((p-1)/p), where w' = -lam - (p-1)|w|^(p/(p-1))
        # vanishes, and stays below it; the leading-order w passes it once
        # |lam|*eps > w*.
        w_star = (-lam / (p - 1.0)) ** ((p - 1.0) / p)
        w = math.copysign(min(abs(w), w_star), w)
    if not path:
        return w, math.nan
    # log phi(t0 + d*eps) = -invm(slope)*eps^q/q = -invm(slope*eps)*eps/q
    # to leading order, for either direction (the d factors cancel by
    # oddness of invm).
    logphi = -float(inverse_momentum(slope * eps, p)) * eps * (p - 1.0) / p
    if lam < 0.0:
        # So |phi'/phi| stays below invm(w*) and |log phi(eps)| below
        # invm(w*)*eps.  Near p = 1 the leading-order log phi passes that
        # by far (p = 1.03, lam = -1e7: 6.3e25 against 188), and every
        # later increment would be below its ulp.
        logphi = math.copysign(min(abs(logphi), float(inverse_momentum(w_star, p)) * eps), logphi)
    return w, logphi


def _shoot(plan: _Plan, lam: float, p: float, path: bool = False):
    """One integration at lam: (crossed, log phi, phi'/phi), the kernel's
    outputs, NaN after a zero crossing.  A path gets log phi and phi'/phi
    at every step.  A trial (path False) gets phi'/phi at the last step
    and a NaN log phi, which no caller reads: the flag and that slope
    are all a root-find needs.  Raises ToleranceFailure if the
    integration turns non-finite before phi crosses zero, which shows as
    a NaN last slope."""
    w0, logphi0 = _launch_state(plan, lam, p, path)
    n = plan.kernel.shape[0] if path else 1
    out_logphi = np.empty(n)
    out_slope = np.empty(n)
    crossed = rk4_path(w0, logphi0, lam, p - 1.0, 1.0 / (p - 1.0),
                       plan.kernel, out_logphi, out_slope)
    if not (crossed or math.isfinite(out_slope[-1])):
        raise ToleranceFailure(
            "non-finite trajectory at lam = %r: the step is too coarse for the "
            "boundary layer; raise rk_steps" % lam)
    return crossed, out_logphi, out_slope


def _trajectory(plan: _Plan, p: float, run) -> ShootTrajectory:
    """(phi, psi) on the grid nodes, rebuilt from the outputs of a _shoot
    path."""
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
    """w(end) - (orientation)*alpha, read off the last step of _shoot
    (a trial or a path)."""
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
    from the kernel's log phi and phi'/phi.  Calls on one problem object
    share its integration plan (see robin_mismatch); the returned grid is
    the caller's own copy."""
    plan = _build_plan(problem, ShootConfig.rk_steps)
    return _trajectory(plan, problem.p, _shoot(plan, lam, problem.p, path=True))


def robin_mismatch(problem: SturmProblem, lam: float, config: ShootConfig = ShootConfig()) -> float:
    """Boundary defect F(lam) = w(end) - (orientation)*alpha of the Riccati
    variable w = psi/|phi|^(p-2)phi.

    F is scale-free: it is continuous and increasing in lam (decreasing
    at a right Robin end) up to the first lam at which phi reaches zero
    at the end, and changes sign at the first eigenvalue.  Once phi
    crosses zero F is (orientation)*inf, on the "lam too large" side.
    F is read off the kernel's last slope.  The trial integrates the
    Riccati state alone: the kernel forms no log phi, writes the last
    step only, and no (phi, psi) trajectory is rebuilt.

    The lam-independent integration plan (the step sizes, the weight's
    log-derivative at every step's ends and midpoint, laid out as the
    kernel's rows: per step h, h/2, h/6 and the start, midpoint and end
    drift) is kept for the last problem object and step count, so the
    trials of a root-find over one problem build it once, whatever their
    lambda_tol; another problem object, or another rk_steps, builds it
    anew.
    """
    plan = _build_plan(problem, config.rk_steps)
    return _mismatch(plan, problem.p, _shoot(plan, lam, problem.p))


def eigen_residual(grid, w, phi, psi, lam: float, p: float) -> float:
    """Relative discrete L1 residual of (w*psi)' + lam*w*|phi|^(p-2)phi,
    with w the weight at the grid nodes."""
    wpsi = w * psi
    interior = slice(1, -1)
    h2 = grid[2:] - grid[:-2]
    d_wpsi = (wpsi[2:] - wpsi[:-2]) / h2
    drive = lam * w[interior] * np.asarray(momentum(phi[interior], p))
    num = float(np.sum(np.abs(d_wpsi + drive)))
    den = float(np.sum(np.abs(drive)))
    if den == 0.0:
        return num
    return num / den


def _trapezoid(grid, f) -> float:
    """The trapezoid rule's integral of the node values f."""
    return float(np.sum(np.diff(grid) * (f[1:] + f[:-1]) / 2.0))


def solve_first_eigenvalue(problem: SturmProblem, config: ShootConfig = ShootConfig()) -> EigenSolution:
    """The first eigenvalue, with a positive eigenfunction, by bracketed
    bisection on the Robin mismatch.  The bracket grows from 0 on the
    side of the eigenvalue's sign.  That is the sign of alpha with one
    Robin end or two of one sign; with two Robin ends of opposite signs
    a trial at lam = 0 tells it.

    The eigenfunction is returned on an ascending grid, normalized to
    max phi = 1; diagnostics carry the bracket, the counts of
    integrations, bracket steps and bisections, the final mismatch, the
    L^p norm of the normalized eigenfunction, and the number of its
    nodes that underflow to 0.0 (phi spans more than the double range).
    They also carry steps (bracket steps plus bisections), converged
    (always True: a failure raises) and phase_s, the seconds spent in
    the bracket search, the bisection and the eigenfunction finish.
    Trials integrate the Riccati state alone and read the mismatch off
    the kernel's last slope; the converged eigenvalue is integrated once
    more for its whole path, log phi included, from which the
    eigenfunction is rebuilt as (phi, psi).
    That final integration is counted in integrations, which is
    therefore bracket steps plus bisections plus one; evals repeats it
    under the name both solvers use for their passes over the problem.
    """
    t_bracket = time.perf_counter()
    plan = _build_plan(problem, config.rk_steps)
    p = problem.p
    alpha = plan.mismatch_alpha
    s = -plan.direction
    integrations = 0

    def is_high(lam: float) -> bool:
        nonlocal integrations
        integrations += 1
        return _mismatch(plan, p, _shoot(plan, lam, p)) * s > 0.0

    # step away from 0 on the eigenvalue's side until a trial lands beyond it
    sign = 1.0 if alpha > 0 else -1.0
    if (plan.robin_launch_alpha or 0.0) * alpha < 0.0:
        sign = -1.0 if is_high(0.0) else 1.0
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
    run = _shoot(plan, lam, p, path=True)
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
    # the constant trial's quotient bounds the first eigenvalue above
    w_end = {"left": float(w[0]), "right": float(w[-1])}
    q = sum(alpha * w_end[end] for end, _, alpha in problem.robin_ends()) / _trapezoid(grid, w)
    if lam - q > 1e-6 * abs(q) + 10.0 * config.lambda_tol * max(1.0, abs(q)):
        raise ToleranceFailure("eigenvalue %r above the constant trial's quotient %r: the "
                               "RK4 step is too coarse for the problem" % (lam, q))
    lp_norm = _trapezoid(grid, w * np.abs(phi) ** p) ** (1.0 / p)
    res = eigen_residual(grid, w, phi, psi, lam, p)
    t_end = time.perf_counter()

    return EigenSolution(
        lambda_val=float(lam),
        grid=grid,
        method="shooting",
        diagnostics={
            "bracket": bracket,
            "integrations": integrations,
            "evals": integrations,
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
        finish=lambda: (phi, psi, res),
    )


@functools.lru_cache(maxsize=1024)
def _solve_cached(spec: ProblemSpec, config: ShootConfig) -> EigenSolution:
    return solve_first_eigenvalue(spec.build(), config)


def solve_spec(spec: ProblemSpec, config: ShootConfig = ShootConfig()) -> EigenSolution:
    """Cached shooting solve keyed by the problem spec."""
    return _solve_cached(spec, config)
