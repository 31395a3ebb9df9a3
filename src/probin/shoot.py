"""Shooting solver for the first eigenvalue of a SturmProblem.

The degenerate ODE is integrated as the first-order system

    phi' = |psi|^(q-2) psi,        psi' = -lam*|phi|^(p-2)phi - (w'/w)*psi

with the momentum psi = |phi'|^(p-2) phi' and q = p/(p-1), launched from
the Neumann (or singular) endpoint with (phi, psi) = (1, 0) and integrated
toward the Robin endpoint, where lam is root-found by bracketed
bisection on the sign of the boundary mismatch.  Problems with two Robin
endpoints are launched from the left Robin end with (phi, psi) =
(1, alpha) instead.  The system is (p-1)-homogeneous, so a trajectory
that would overflow is rescaled on the way and always reaches the Robin
endpoint.

Launch corners are non-smooth: at a Neumann end the field |psi|^(q-2)psi
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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import rk4_path
from .errors import BracketFailure, DomainError, ToleranceFailure
from .problems import EigenSolution, ProblemSpec, SturmProblem

SENTINEL = 1e15

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
    """A trajectory is defined up to a positive factor: (phi, psi) and
    (c*phi, c^(p-1)*psi) solve the same equation."""

    grid: np.ndarray  # in integration order (launch -> mismatch end)
    phi: np.ndarray
    psi: np.ndarray
    crossed: bool  # phi <= 0 somewhere: lam lies above the first eigenvalue


def momentum(x, p: float):
    """|x|^(p-2) x, the p-Laplacian momentum map; momentum(0) = 0."""
    return np.sign(x) * np.abs(x) ** (p - 1.0)


def inverse_momentum(y, p: float):
    """Inverse of momentum: |y|^(q-2) y with q = p/(p-1)."""
    return np.sign(y) * np.abs(y) ** (1.0 / (p - 1.0))


@dataclass
class _Plan:
    """Lambda-independent integration layout for one problem."""

    problem: SturmProblem
    direction: float  # +1 integrate left->right, -1 right->left
    launch_t: float
    mismatch_sign: float  # outward-orientation sign at the mismatch end
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
    for bc in (problem.bc_left, problem.bc_right):
        if bc.kind == "dirichlet":
            raise DomainError("shooting does not handle dirichlet conditions")

    if len(robins) == 1:
        end = robins[0][0]
        # launch from the opposite (Neumann) end
        direction = -1.0 if end == "left" else 1.0
        robin_launch_alpha = None
    else:
        # two Robin ends: impose the left condition at launch, match right
        end = "right"
        direction = 1.0
        robin_launch_alpha = problem.bc_left.alpha

    mismatch_sign = 1.0 if end == "left" else -1.0
    mismatch_alpha = problem.bc_left.alpha if end == "left" else problem.bc_right.alpha
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
        node_step = np.empty(n_steps + 1, dtype=np.int64)
        node_step[0] = -1  # node 0 stored analytically
        node_step[1] = _GEOM_SUBSTEPS - 1
        node_step[2] = _GEOM_SUBSTEPS + _UNIFORM_SUBSTEPS - 1
        node_step[3:] = _GEOM_SUBSTEPS + _UNIFORM_SUBSTEPS - 1 + np.arange(1, n_steps - 1)
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

    return _Plan(
        problem=problem,
        direction=direction,
        launch_t=launch_t,
        mismatch_sign=mismatch_sign,
        mismatch_alpha=mismatch_alpha,
        robin_launch_alpha=robin_launch_alpha,
        singular=singular,
        eps=eps,
        steps=steps,
        ld=ld,
        node_pos=node_pos,
        node_step=node_step,
    )


def _launch_state(plan: _Plan, lam: float, p: float):
    """State at the first step boundary, plus the exact endpoint state."""
    if plan.robin_launch_alpha is not None:
        a = plan.robin_launch_alpha
        return (1.0, a), (1.0, a)
    d = plan.direction
    eps = plan.eps
    if plan.singular:
        # w ~ s^order near the corner: (w*psi)' = -lam*w*|phi|^(p-2)phi
        # gives psi = -d*lam*s/(order+1) to leading order, error O(s^2).
        slope = lam / (plan.problem.singular_order + 1.0)
    else:
        ld0 = float(plan.problem.weight.log_deriv(plan.launch_t))
        slope = lam * (1.0 - 0.5 * ld0 * d * eps)
    psi_eps = -d * slope * eps
    # phi(t0 + d*eps) = 1 - invm(slope)*eps^q/q to leading order, for
    # either direction (the d factors cancel by oddness of invm).
    q = p / (p - 1.0)
    phi_eps = 1.0 - float(inverse_momentum(slope, p)) * eps ** q / q
    return (phi_eps, psi_eps), (1.0, 0.0)


def _run(plan: _Plan, lam: float, p: float) -> ShootTrajectory:
    (phi0, psi0), (phi_exact, psi_exact) = _launch_state(plan, lam, p)
    m = plan.steps.size
    out_phi = np.empty(m)
    out_psi = np.empty(m)
    scale, crossed = rk4_path(
        phi0, psi0, lam, p - 1.0, 1.0 / (p - 1.0),
        plan.steps, plan.ld, out_phi, out_psi,
    )
    if not (crossed or (math.isfinite(out_phi[-1]) and math.isfinite(out_psi[-1]))):
        raise ToleranceFailure("non-finite trajectory at lam = %r" % lam)

    grid = plan.node_pos.copy()
    phi = np.empty(grid.size)
    psi = np.empty(grid.size)
    phi[0], psi[0] = scale * phi_exact, scale ** (p - 1.0) * psi_exact
    phi[1:] = out_phi[plan.node_step[1:]]
    psi[1:] = out_psi[plan.node_step[1:]]
    return ShootTrajectory(grid, phi, psi, crossed)


def integrate(problem: SturmProblem, lam: float, config: ShootConfig = ShootConfig()) -> ShootTrajectory:
    """Fixed-step RK4 trajectory from the launch endpoint to the Robin
    endpoint at spectral parameter lam, defined up to a positive factor
    (rescaled whenever it would pass the overflow cap).  Raises
    ToleranceFailure if it turns non-finite before phi crosses zero."""
    return _run(_build_plan(problem, config), lam, problem.p)


def _mismatch_from_traj(plan: _Plan, traj: ShootTrajectory, p: float) -> float:
    s = plan.mismatch_sign
    if traj.crossed:
        # phi crossed zero: lam is above the first eigenvalue
        return s * SENTINEL
    return traj.psi[-1] - s * plan.mismatch_alpha * float(momentum(traj.phi[-1], p))


def robin_mismatch(problem: SturmProblem, lam: float, config: ShootConfig = ShootConfig()) -> float:
    """Boundary defect F(lam) = psi(end) - (orientation)*alpha*|phi|^(p-2)phi(end).

    F carries the trajectory's positive factor, so only its sign is
    meaningful: it changes sign at the first eigenvalue.  When phi
    develops a zero the value is a signed sentinel on the "lam too large"
    side.
    """
    plan = _build_plan(problem, config)
    return _mismatch_from_traj(plan, _run(plan, lam, problem.p), problem.p)


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
    """
    plan = _build_plan(problem, config)
    p = problem.p
    alpha = plan.mismatch_alpha
    s = plan.mismatch_sign
    integrations = 0
    low = None  # (lam, trajectory) of the last trial below the eigenvalue

    def is_high(lam: float) -> bool:
        nonlocal integrations, low
        traj = _run(plan, lam, p)
        integrations += 1
        high = _mismatch_from_traj(plan, traj, p) * s > 0.0
        if not high:
            low = (lam, traj)
        return high

    growth = config.bracket_growth
    if alpha > 0:
        lo, hi = 0.0, 1.0
        for _ in range(config.max_bracket_steps):
            if is_high(hi):
                break
            lo = hi
            hi *= growth
        else:
            raise BracketFailure("no sign change for lam in (0, %g]" % hi)
    else:
        lo, hi = -1.0, 0.0
        for _ in range(config.max_bracket_steps):
            if not is_high(lo):
                break
            hi = lo
            lo *= growth
        else:
            raise BracketFailure("no sign change for lam in [%g, 0)" % lo)

    bracket = (lo, hi)
    bracket_steps = integrations
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

    lam = lo  # the side with a positive trajectory
    if low is not None and low[0] == lam:
        traj = low[1]
    else:
        traj = _run(plan, lam, p)
        integrations += 1
    if traj.crossed:
        raise ToleranceFailure("trajectory invalid at the converged eigenvalue")
    mismatch = _mismatch_from_traj(plan, traj, p)

    order = np.argsort(traj.grid)
    grid = traj.grid[order]
    phi = traj.phi[order]
    psi = traj.psi[order]
    scale = float(np.max(phi))
    phi = phi / scale
    psi = psi / scale ** (p - 1.0)

    w = np.asarray(problem.weight.value(grid), dtype=float)
    f = w * np.abs(phi) ** p
    lp_norm = float(np.sum(np.diff(grid) * (f[1:] + f[:-1]) / 2.0)) ** (1.0 / p)
    res = eigen_residual(problem, grid, phi, psi, lam)

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
            "mismatch": float(mismatch) / scale ** (p - 1.0),
            "lp_norm": lp_norm,
            "phi_underflow_nodes": int(np.count_nonzero(phi == 0.0)),
            "rk_steps": config.rk_steps,
        },
    )


@functools.lru_cache(maxsize=1024)
def _solve_cached(spec: ProblemSpec, config: ShootConfig) -> EigenSolution:
    return solve_first_eigenvalue(spec.build(), config)


def solve_spec(spec: ProblemSpec, config: ShootConfig = ShootConfig()) -> EigenSolution:
    """Cached shooting solve keyed by the problem spec."""
    return _solve_cached(spec, config)
