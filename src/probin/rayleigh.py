"""Variational solver: minimize the discretized Rayleigh quotient.

Piecewise-linear trial functions on a uniform grid, trapezoid constraint
quadrature with the weight folded in, midpoint weights for the energy.
minimize works on the one mesh it is given, in three stages:

- seed: the p = 2 discrete eigenvector of the mesh, by shifted inverse
  iteration, with the Robin parameters mapped so that the boundary
  log-derivative matches the p problem's;
- Newton: bordered Newton steps on the discrete Euler-Lagrange system
  E'(u) = q N'(u) on the sphere N(u) = 1.  In 1-D the Hessian of E - qN
  is tridiagonal, so a step costs one factorization and two solves
  (Keller's bordering algorithm).  Cells whose slope a step would carry
  through zero take the secant curvature, the Hessian is shifted where
  it is indefinite on the sphere, and if Newton still gives up it is
  continued in p from the exponent halfway to 2;
- finish: if Newton has not converged, spectral projected gradient
  descent (Barzilai-Borwein steps safeguarded by monotone Armijo
  backtracking) takes over on the same mesh.

Every accepted step lowers the quotient, or once it has converged leaves
it within rounding, so the quotient sequence is nonincreasing up to
rounding.  The tridiagonal solves are written here in Python: the
package needs numpy only.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .problems import EigenSolution, ProblemSpec, SturmProblem, inverse_momentum, momentum

_ARMIJO = 1e-6  # sufficient-decrease factor of both line searches
_BB_TAU_MIN = 1e-12
_BB_TAU_MAX = 1e8
_DESCENT_MAX = 200000  # descent iterations
_STALL_WINDOW = 50  # descent iterations over which the quotient must fall
_STALL_TOL = 1e-12  # by at least this much, or the descent has converged

_SEED_MAX = 200  # inverse iterations
_SEED_RTOL = 1e-13  # quotient decrease of one inverse iteration, per unit of shift
_NEWTON_MAX = 50  # steps before the descent takes over
_NEWTON_RTOL = 1e-10  # residual, relative to the flux and mass terms it balances
_NEWTON_DECREMENT = 1e-13  # predicted quotient decrease that ends Newton, per unit of |q|
_NEWTON_HALVINGS = 30
_CONTINUATION_LEVELS = 3  # halvings of p - 2 when Newton gives up from the p = 2 seed
# |u'| and |u| are floored at this fraction of their maxima in the
# Hessian: |u'|^(p-2) vanishes (p > 2) or blows up (p < 2) where u' = 0
_HESSIAN_FLOOR = 1e-8
_EPS = float(np.finfo(float).eps)
_AU_ROUNDING = 16.0 * _EPS  # rounding of A u allowed in the residual, per unit of |A| |u|
_Q_ROUNDING = 4.0 * _EPS  # quotient rise a Newton step may make, per unit of |q|

DEFAULT_CELLS = 2000  # default mesh of solve_rayleigh and rayleigh_spec


@dataclass(frozen=True)
class MinimizeConfig:
    track_history: bool = False  # diagnostics carry every accepted quotient


@dataclass
class DiscreteFunctional:
    """Discrete Rayleigh functional of a SturmProblem on m cells.

    E(u) = sum_cells |du/h|^p * w_mid * h + sum_(j,c) c*|u_j|^p with
    c = alpha * w(node) at each Robin node; N(u) = sum_j nw_j*|u_j|^p.
    """

    grid: np.ndarray
    node_weights: np.ndarray
    mid_weights: np.ndarray
    p: float
    robin_terms: list
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

    ends = ((0, problem.bc_left), (m, problem.bc_right))
    robin_terms = [(j, bc.alpha * float(w_nodes[j])) for j, bc in ends if bc.kind == "robin"]
    return DiscreteFunctional(grid, node_weights, w_mid, problem.p, robin_terms, h)


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
    flux = func.mid_weights * momentum(d, p)
    g = np.zeros_like(u)
    g[:-1] -= flux
    g[1:] += flux
    g *= p
    for j, c in func.robin_terms:
        g[j] += p * c * momentum(u[j], p)
    return g


def _norm_grad(func: DiscreteFunctional, u: np.ndarray) -> np.ndarray:
    return func.p * func.node_weights * momentum(u, func.p)


def _normalize(func: DiscreteFunctional, u: np.ndarray) -> np.ndarray:
    n = norm_p(func, u)
    if n <= 0.0:
        raise DomainError("iterate collapsed to zero p-norm")
    return u / n ** (1.0 / func.p)


def _residual(func: DiscreteFunctional, u: np.ndarray, q: float) -> np.ndarray:
    """E'(u) - q N'(u)."""
    return _energy_grad(func, u) - q * _norm_grad(func, u)


def _factor(diag: np.ndarray, off: np.ndarray):
    """Pivots and multipliers of the LDL^T factorization of a symmetric
    tridiagonal matrix, without pivoting.  A pivot that cancels to exactly
    zero is replaced by its rounding level: the matrices factorized here
    are singular only along the direction that bordering projects out."""
    d = float(diag[0]) or _EPS
    piv = [d]
    mult = []
    for a, b in zip(diag[1:].tolist(), off.tolist()):
        ell = b / d
        d = a - ell * b
        if d == 0.0:
            d = _EPS * abs(a) or _EPS
        mult.append(ell)
        piv.append(d)
    return np.array(piv), mult


def _solve(factors, rhs: np.ndarray) -> np.ndarray:
    """Thomas forward and back substitution with _factor's output."""
    piv, mult = factors
    prev = float(rhs[0])
    fwd = [prev]
    for ell, r in zip(mult, rhs[1:].tolist()):
        prev = r - ell * prev
        fwd.append(prev)
    z = (np.array(fwd) / piv).tolist()
    x = z[-1]
    out = [x]
    for ell, zi in zip(reversed(mult), reversed(z[:-1])):
        x = zi - ell * x
        out.append(x)
    out.reverse()
    return np.array(out)


def _p2_seed(func: DiscreteFunctional):
    """The p = 2 discrete first eigenvector, by inverse iteration.

    A Robin end |u'|^(p-2) u' = alpha |u|^(p-2) u fixes the log-derivative
    u'/u = sign(alpha) |alpha|^(1/(p-1)) there, so the p = 2 problem takes
    that as its Robin parameter: its eigenvector then has the boundary
    layer of the p problem (at p = 1.5, alpha = -10 it decays like
    e^(-100 t), not e^(-10 t)).  K u = lambda M u with K the stiffness
    matrix of the mid weights plus those Robin loads and
    M = diag(node_weights).  The shift starts one width below the
    constant trial's quotient, and the width doubles until K - shift*M
    has only positive pivots, so that the shift lies below the first
    eigenvalue.  Returns the eigenvector and the number of inverse
    iterations."""
    robin = []
    for j, c in func.robin_terms:
        w = 2.0 * func.node_weights[j] / func.h  # the weight at the end node
        robin.append((j, float(w * inverse_momentum(c / w, func.p)) if c else 0.0))
    f2 = dataclasses.replace(func, p=2.0, robin_terms=robin)
    stiff = func.mid_weights / func.h
    ones = np.ones(func.grid.size)
    q = quotient(f2, ones)
    width = max(1.0, abs(q))
    for _ in range(64):
        diag, off = _assemble(f2, q - width, stiff, ones)
        factors = _factor(diag, off)
        if np.all(factors[0] > 0.0):
            break
        width *= 2.0
    else:
        raise DomainError("found no shift below the p = 2 eigenvalue")

    u = ones
    iters = 0
    while iters < _SEED_MAX:
        iters += 1
        v = _solve(factors, func.node_weights * u)
        u = v / float(np.max(np.abs(v)))
        q_prev, q = q, quotient(f2, u)
        # the quotients of inverse iteration decrease toward the eigenvalue
        if q_prev - q <= _SEED_RTOL * width:
            break
    return u, iters


def _curvatures(func: DiscreteFunctional, u: np.ndarray):
    """w |u'|^(p-2) / h per cell and |u|^(p-2) per node, with |u'| and
    |u| floored at _HESSIAN_FLOOR of their maxima."""
    p = func.p
    du = np.abs(np.diff(u)) / func.h
    au = np.abs(u)
    du = np.maximum(du, _HESSIAN_FLOOR * float(np.max(du)))
    au = np.maximum(au, _HESSIAN_FLOOR * float(np.max(au)))
    # a constant trial has no slope to floor against: at p < 2 its cell
    # curvatures are infinite, and Newton leaves it to the descent
    with np.errstate(divide="ignore"):
        cells = func.mid_weights * du ** (p - 2.0) / func.h
    return cells, au ** (p - 2.0)


def _assemble(func: DiscreteFunctional, q: float, stiff: np.ndarray, node: np.ndarray):
    """Diagonal and off-diagonal of the tridiagonal matrix with cell
    stiffnesses stiff and node terms node * (robin - q * node_weights)."""
    diag = -q * func.node_weights * node
    for j, c in func.robin_terms:
        diag[j] += c * node[j]
    diag[:-1] += stiff
    diag[1:] += stiff
    return diag, -stiff


def _bordered_step(func: DiscreteFunctional, q: float, stiff, node, r, gn):
    """The step x1 - (N'.x1 / N'.x2) x2 with A x1 = -r and A x2 = N', for
    A = E'' - q N'' assembled from stiff and node.

    The step descends when A is positive definite on the tangent space of
    N(u) = 1, that is when A has no negative pivot, or one and
    N'.x2 < 0 (Haynsworth inertia of the bordered matrix).  Near a
    minimum that holds.  Far from it (a p = 2 seed for p = 5 has slopes
    that vanish where the p-problem's do not) it can fail, and then q in
    A is lowered, by a width that doubles, until it holds."""
    shift = q
    width = abs(q) or 1.0
    for _ in range(64):
        diag, off = _assemble(func, shift, stiff, node)
        factors = _factor(diag, off)
        negative = np.count_nonzero(factors[0] < 0.0)
        if negative <= 1:
            x2 = _solve(factors, gn)
            if negative == 0 or float(np.dot(gn, x2)) < 0.0:
                break
        shift = q - width
        width *= 2.0
    else:
        return np.full_like(r, np.nan)
    x1 = _solve(factors, -r)
    return x1 - (float(np.dot(gn, x1)) / float(np.dot(gn, x2))) * x2


def _residual_small(func, u, q, r, gn, stiff, node) -> bool:
    """Newton's stopping test: |r| within _NEWTON_RTOL of the flux and
    mass terms it balances, once each node is allowed the rounding error
    of A u (which dominates where |u'|^(p-2) is large, at p < 2)."""
    p = func.p
    flux = func.mid_weights * np.abs(np.diff(u) / func.h) ** (p - 1.0)
    scale = p * float(np.max(flux)) + abs(q) * float(np.max(np.abs(gn)))
    au = np.abs(u)
    rounding = abs(q) * func.node_weights * node * au
    for j, c in func.robin_terms:
        rounding[j] += abs(c) * node[j] * au[j]
    cell = stiff * (au[:-1] + au[1:])
    rounding[:-1] += cell
    rounding[1:] += cell
    return float(np.max(np.abs(r) - _AU_ROUNDING * rounding)) <= _NEWTON_RTOL * scale


def _newton(func: DiscreteFunctional, u: np.ndarray, q: float, history):
    """Bordered Newton steps from a normalized u.

    With A = E'' - qN'' and r = E' - qN', A x1 = -r and A x2 = N' give the
    step x1 - (N'.x1 / N'.x2) x2, tangent to N(u) = 1.  A is singular
    along u at an eigenpair (A u = (p-1) r), so the residual is tested
    before A is factorized.

    For p < 2 the tangent of the flux |u'|^(p-2) u' is flatter than its
    secant through 0 by the factor p - 1, so a cell whose slope the step
    carries through zero overshoots by that factor and, at p <= 1.5,
    never settles.  Such cells get the secant curvature instead and the
    step is solved again; for p >= 2 the tangent is the larger and stays.

    A step is accepted when the quotient falls by the Armijo amount or,
    once that is below rounding, rises by no more than rounding.  Newton
    has converged when the residual test fires or the step's predicted
    decrease (the Newton decrement -r.delta) is below _NEWTON_DECREMENT.
    Returns (u, q, steps, converged); it gives up unconverged when a
    curvature is infinite, a step is not a descent direction, its line
    search fails or _NEWTON_MAX steps are spent."""
    p = func.p
    tangent = p * (p - 1.0)
    secant = p * max(p - 1.0, 1.0)
    for steps in range(_NEWTON_MAX + 1):
        gn = _norm_grad(func, u)
        r = _residual(func, u, q)
        cells, nodes = _curvatures(func, u)
        if not np.all(np.isfinite(cells)):
            break
        stiff = tangent * cells
        node = tangent * nodes
        if _residual_small(func, u, q, r, gn, stiff, node):
            return u, q, steps, True
        if steps == _NEWTON_MAX:
            break
        delta = _bordered_step(func, q, stiff, node, r, gn)
        du = np.diff(u)
        over = du * (du + np.diff(delta)) < 0.0
        if secant > tangent and over.any():
            stiff = np.where(over, secant * cells, stiff)
            delta = _bordered_step(func, q, stiff, node, r, gn)
        slope = float(np.dot(r, delta))
        if not slope < 0.0:  # also catches a non-finite step
            break
        if -slope <= _NEWTON_DECREMENT * abs(q):
            # the full step would lower the quotient by less than that:
            # where |u| or |u'| is floored (p < 2 far from a strongly
            # negative Robin end) the residual can stay above its test
            return u, q, steps, True
        # no node moves further than the largest |u| (the quadratic model
        # is worthless beyond that, and where a singular end's weight
        # vanishes the step there can be 1e7 times larger)
        t = min(1.0, float(np.max(np.abs(u))) / float(np.max(np.abs(delta))))
        for _ in range(_NEWTON_HALVINGS):
            v = _normalize(func, u + t * delta)
            qv = quotient(func, v)
            if qv <= q + _ARMIJO * t * slope + _Q_ROUNDING * abs(q):
                break
            t *= 0.5
        else:
            break
        u, q = v, qv
        if history is not None:
            history.append(q)
    return u, q, steps, False


def _newton_continued(func: DiscreteFunctional, u: np.ndarray, q: float, history, levels: int):
    """Newton from u; if it gives up, continuation in p.

    The minimizer at the exponent halfway to 2 is found the same way from
    its own p = 2 seed, and Newton restarts from it; that is adopted if it
    ends lower.  Far from p = 2 the p = 2 seed can be too poor for Newton
    (p = 8: the slope profile (R - t)^(1/7) at a Neumann end has to grow
    out of a linear one).  Returns (u, q, steps, seed iterations,
    converged); levels bounds the halvings."""
    u, q, steps, converged = _newton(func, u, q, history)
    seed_iters = 0
    if converged or levels == 0 or func.p == 2.0:
        return u, q, steps, seed_iters, converged
    mid = dataclasses.replace(func, p=0.5 * (func.p + 2.0))
    v, seed_iters = _p2_seed(mid)
    v = _normalize(mid, v)
    v, _, mid_steps, mid_seed, mid_converged = _newton_continued(
        mid, v, quotient(mid, v), None, levels - 1)
    steps += mid_steps
    seed_iters += mid_seed
    if mid_converged:
        v = _normalize(func, v)
        v, qv, v_steps, v_converged = _newton(func, v, quotient(func, v), None)
        steps += v_steps
        if qv <= q:
            u, q, converged = v, qv, v_converged
            if history is not None:
                history.append(q)
    return u, q, steps, seed_iters, converged


def _descend(func: DiscreteFunctional, u: np.ndarray, q: float, history):
    """Projected Barzilai-Borwein descent from a normalized u.

    Returns (u, q, iterations, converged)."""
    g = _residual(func, u, q)
    tau = 1.0 / max(1.0, float(np.max(np.abs(g))))
    recent = [q]
    converged = False
    iters = 0
    u_prev = None
    g_prev = None

    while iters < _DESCENT_MAX:
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
            try:
                v = _normalize(func, v)
            except DomainError:
                t *= 0.5
                continue
            qv = quotient(func, v)
            if qv <= q - _ARMIJO * t * gg:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # no descent direction at float resolution
            converged = True
            break

        u_prev, g_prev = u, g
        u, q = v, qv
        g = _residual(func, u, q)

        if history is not None:
            history.append(q)
        recent.append(q)
        if len(recent) > _STALL_WINDOW:
            recent.pop(0)
            if recent[0] - q < _STALL_TOL:
                converged = True
                break
    return u, q, iters, converged


def minimize(func: DiscreteFunctional, config: MinimizeConfig = MinimizeConfig()) -> EigenSolution:
    """Minimize the Rayleigh quotient over N(u) = 1 on func's mesh.

    Starts from the p = 2 discrete eigenvector.  Newton steps follow; if
    their residual test does not fire, projected descent finishes.
    Returns the quotient as the eigenvalue estimate and the minimizer
    samples; diagnostics flag non-convergence at the iteration cap and
    time the three stages.
    """
    m = func.grid.size - 1
    t_seed = time.perf_counter()
    u, seed_iters = _p2_seed(func)
    u = _normalize(func, u)
    q = quotient(func, u)
    history = [q] if config.track_history else None

    t_newton = time.perf_counter()
    u, q, newton_steps, more_seed, converged = _newton_continued(
        func, u, q, history, _CONTINUATION_LEVELS)
    seed_iters += more_seed
    t_finish = time.perf_counter()
    iters = 0
    if not converged:
        u, q, iters, converged = _descend(func, u, q, history)
    t_end = time.perf_counter()

    # orient positive and present like the shooting output
    if float(np.sum(u)) < 0.0:
        u = -u
    scale = float(np.max(np.abs(u)))
    phi = u / scale
    dphi = np.gradient(phi, func.grid, edge_order=2)
    psi = momentum(dphi, func.p)
    g = _residual(func, u, q)
    gnorm = float(np.sqrt(np.dot(g, g)))

    diagnostics = {
        "iterations": iters,
        "steps": newton_steps + iters,
        "seed_iterations": seed_iters,
        "converged": converged,
        "grad_norm": gnorm,
        "m": m,
        "phase_s": {
            "seed": t_newton - t_seed,
            "newton": t_finish - t_newton,
            "finish": t_end - t_finish,
        },
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
    m: int = DEFAULT_CELLS,
    config: MinimizeConfig = MinimizeConfig(),
) -> EigenSolution:
    """Minimize the Rayleigh quotient of problem on m cells."""
    return minimize(discretize(problem, m), config=config)


@functools.lru_cache(maxsize=256)
def _solve_cached(spec: ProblemSpec, m: int, config: MinimizeConfig) -> EigenSolution:
    return solve_rayleigh(spec.build(), m, config)


def rayleigh_spec(spec: ProblemSpec, m: int = DEFAULT_CELLS, config: MinimizeConfig = MinimizeConfig()) -> EigenSolution:
    """Cached variational solve keyed by the problem spec."""
    return _solve_cached(spec, m, config)
