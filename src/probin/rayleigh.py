"""Variational solver: minimize the discretized Rayleigh quotient.

Piecewise-linear trial functions on a uniform grid, trapezoid constraint
quadrature with the weight folded in, midpoint weights for the energy.
The minimizer is spectral projected gradient descent: Barzilai-Borwein
steps safeguarded by monotone Armijo backtracking, so the quotient
sequence is nonincreasing by construction.  solve_rayleigh wraps it in a
coarse-to-fine mesh cascade, which is what makes deep convergence on
fine grids affordable without preconditioning.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .problems import EigenSolution, ProblemSpec, SturmProblem

_BB_TAU_MIN = 1e-12
_BB_TAU_MAX = 1e8


@dataclass(frozen=True)
class MinimizeConfig:
    max_iters: int = 200000
    stall_window: int = 50
    stall_tol: float = 1e-12  # quotient decrease over the window
    armijo: float = 1e-6
    track_history: bool = False


@dataclass
class DiscreteFunctional:
    """Discrete Rayleigh functional of a SturmProblem on m cells.

    E(u) = sum_cells |du/h|^p * w_mid * h + sum_(j,c) c*|u_j|^p with
    c = alpha * w(node) at each Robin node; N(u) = sum_j nw_j*|u_j|^p.
    Dirichlet nodes are dropped from the degrees of freedom (free_mask).
    """

    grid: np.ndarray
    node_weights: np.ndarray
    mid_weights: np.ndarray
    p: float
    robin_terms: list
    free_mask: np.ndarray
    h: float


def discretize(problem: SturmProblem, m: int) -> DiscreteFunctional:
    if m < 16:
        raise DomainError("need at least 16 cells")
    grid = np.linspace(problem.a, problem.b, m + 1)
    h = (problem.b - problem.a) / m
    w_nodes = np.asarray(problem.weight.value(grid), dtype=float)
    mids = 0.5 * (grid[:-1] + grid[1:])
    w_mid = np.asarray(problem.weight.value(mids), dtype=float)
    if np.any(w_nodes < 0.0) or np.any(w_mid <= 0.0):
        raise DomainError("weight not positive at quadrature points")
    node_weights = h * w_nodes
    node_weights[0] *= 0.5
    node_weights[-1] *= 0.5

    robin_terms = []
    free_mask = np.ones(m + 1, dtype=bool)
    for idx, bc in ((0, problem.bc_left), (m, problem.bc_right)):
        if bc.kind == "robin":
            robin_terms.append((idx, bc.alpha * float(w_nodes[idx])))
        elif bc.kind == "dirichlet":
            free_mask[idx] = False
    return DiscreteFunctional(grid, node_weights, w_mid, problem.p, robin_terms, free_mask, h)


def _pow_signed(x, expo):
    return np.sign(x) * np.abs(x) ** expo


def energy(func: DiscreteFunctional, u: np.ndarray) -> float:
    d = np.diff(u) / func.h
    e = func.h * float(np.sum(func.mid_weights * np.abs(d) ** func.p))
    for j, c in func.robin_terms:
        e += c * abs(u[j]) ** func.p
    return e


def norm_p(func: DiscreteFunctional, u: np.ndarray) -> float:
    return float(np.sum(func.node_weights * np.abs(u) ** func.p))


def quotient(func: DiscreteFunctional, u: np.ndarray) -> float:
    """E(u)/N(u); for alpha > 0 problems this upper-bounds the discrete
    minimum for any admissible u."""
    n = norm_p(func, u)
    if n <= 0.0:
        raise DomainError("trial function has zero p-norm")
    return energy(func, u) / n


def _energy_grad(func: DiscreteFunctional, u: np.ndarray) -> np.ndarray:
    p = func.p
    d = np.diff(u) / func.h
    flux = func.mid_weights * _pow_signed(d, p - 1.0)
    g = np.zeros_like(u)
    g[:-1] -= flux
    g[1:] += flux
    g *= p
    for j, c in func.robin_terms:
        g[j] += p * c * _pow_signed(u[j], p - 1.0)
    return g


def _norm_grad(func: DiscreteFunctional, u: np.ndarray) -> np.ndarray:
    return func.p * func.node_weights * _pow_signed(u, func.p - 1.0)


def _normalize(func: DiscreteFunctional, u: np.ndarray) -> np.ndarray:
    n = norm_p(func, u)
    if n <= 0.0:
        raise DomainError("iterate collapsed to zero p-norm")
    return u / n ** (1.0 / func.p)


def minimize(
    func: DiscreteFunctional,
    seed: Optional[np.ndarray] = None,
    config: MinimizeConfig = MinimizeConfig(),
) -> EigenSolution:
    """Projected descent on the Rayleigh quotient over N(u) = 1.

    Returns the quotient as the eigenvalue estimate and the minimizer
    samples; diagnostics flag non-convergence at the iteration cap.
    """
    m = func.grid.size - 1
    if seed is None:
        u = 1.0 + 1e-3 * np.linspace(0.0, 1.0, m + 1)
    else:
        u = np.asarray(seed, dtype=float).copy()
        if u.shape != (m + 1,):
            raise DomainError("seed has wrong length")
    u[~func.free_mask] = 0.0
    u = _normalize(func, u)

    q = quotient(func, u)
    g = _energy_grad(func, u) - q * _norm_grad(func, u)
    g[~func.free_mask] = 0.0

    tau = 1.0 / max(1.0, float(np.max(np.abs(g))))
    history = [q] if config.track_history else None
    recent = [q]
    converged = False
    iters = 0
    u_prev = None
    g_prev = None

    while iters < config.max_iters:
        iters += 1
        gg = float(np.dot(g, g))
        if gg == 0.0:
            converged = True
            break

        if u_prev is not None:
            s = u - u_prev
            y = g - g_prev
            sy = float(np.dot(s, y))
            if sy > 0.0:
                # adaptive two-point step: the short step when the two
                # estimates disagree, which breaks cycling on the badly
                # conditioned p != 2 landscapes
                bb1 = float(np.dot(s, s)) / sy
                bb2 = sy / float(np.dot(y, y))
                tau = bb2 if bb2 < 0.8 * bb1 else bb1
            tau = min(max(tau, _BB_TAU_MIN), _BB_TAU_MAX)

        accepted = False
        t = tau
        for _ in range(60):
            v = u - t * g
            v[~func.free_mask] = 0.0
            try:
                v = _normalize(func, v)
            except DomainError:
                t *= 0.5
                continue
            qv = quotient(func, v)
            if qv <= q - config.armijo * t * gg:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # no descent direction at float resolution
            converged = True
            break

        u_prev, g_prev = u, g
        u, q = v, qv
        g = _energy_grad(func, u) - q * _norm_grad(func, u)
        g[~func.free_mask] = 0.0

        if history is not None:
            history.append(q)
        recent.append(q)
        if len(recent) > config.stall_window:
            recent.pop(0)
            if recent[0] - q < config.stall_tol:
                converged = True
                break

    # orient positive and present like the shooting output
    if float(np.sum(u)) < 0.0:
        u = -u
    scale = float(np.max(np.abs(u)))
    phi = u / scale
    dphi = np.gradient(phi, func.grid, edge_order=2)
    psi = _pow_signed(dphi, func.p - 1.0)
    gnorm = float(np.sqrt(np.dot(g, g)))

    diagnostics = {
        "iterations": iters,
        "converged": converged,
        "grad_norm": gnorm,
        "m": m,
    }
    if history is not None:
        diagnostics["quotient_history"] = np.asarray(history)

    return EigenSolution(
        lambda_val=float(q),
        grid=func.grid.copy(),
        phi=phi,
        psi=psi,
        residual=gnorm,
        method="rayleigh",
        diagnostics=diagnostics,
    )


def solve_rayleigh(
    problem: SturmProblem,
    m: int = 2000,
    config: MinimizeConfig = MinimizeConfig(),
) -> EigenSolution:
    """Mesh-cascade minimization: solve coarse, prolong, re-minimize.

    The coarsest level takes the default ramp start; every finer level is
    seeded with the interpolated minimizer of the previous one.
    """
    levels = [m]
    while levels[-1] > 40:
        levels.append(levels[-1] // 2)
    levels.reverse()

    sol = None
    for mk in levels:
        func = discretize(problem, mk)
        seed = None
        if sol is not None:
            seed = np.interp(func.grid, sol.grid, sol.phi)
        sol = minimize(func, seed=seed, config=config)
    return sol


@functools.lru_cache(maxsize=256)
def _solve_cached(spec: ProblemSpec, m: int, config: MinimizeConfig) -> EigenSolution:
    return solve_rayleigh(spec.build(), m, config)


def rayleigh_spec(spec: ProblemSpec, m: int = 2000, config: MinimizeConfig = MinimizeConfig()) -> EigenSolution:
    """Cached variational solve keyed by the problem spec."""
    return _solve_cached(spec, m, config)
