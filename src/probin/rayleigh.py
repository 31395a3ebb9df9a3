"""Variational solver: minimize the discretized Rayleigh quotient.

Piecewise-linear trial functions on a uniform grid, trapezoid constraint
quadrature with the weight folded in, midpoint weights for the energy.
minimize works on the one mesh it is given, by one of two routes chosen
from the signs of the Robin terms:

- one Robin end, with a positive coefficient: E is convex, and the
  inverse power method for the p-Laplacian (Biezuner, Ercole & Martins
  2009; Hein & Buehler 2010) solves E'(v) = N'(u) up to a scale that
  keeps its powers 1/(p - 1) on numbers in [0, 1], by cumulative sums
  with no loop in Python, and normalizes v, from the constant.  It
  stops once an iteration lowers the quotient by at most
  _LAMBDA_RTOL of it, or once its last three falls shrink at a steady
  linear rate whose geometric tail is at most that;
- otherwise (a Robin coefficient <= 0, two Robin ends, or no Robin
  end): node j of E'(u) = lambda N'(u) is a half-linear three-term
  recurrence, and marched in Riccati form from one end it meets the
  other end's condition, with every ratio u_(j+1)/u_j positive, exactly
  at the discrete first eigenvalue (discrete half-linear Sturm theory:
  Rehak 2001; Dosly & Rehak 2005).  Newton in lambda on the end value,
  safeguarded by bisection, finds that root; its start comes from the
  same root-find on two coarser meshes of the same interval, built by
  _mesh like any other, extrapolated.  Each root-find ends on its first
  Newton step of at most a bound times max(1, |lambda|), with no march
  to confirm it: sqrt(_LAMBDA_RTOL) on the solved mesh, and _COARSE_STEP
  on the coarse ones, whose roots only need to put the start within the
  solved mesh's bound.  A root-find march carries only z, dz/dlambda
  and the end value, and forms no ratio.  The eigenvector is the
  product of the ratios of one more march on the solved mesh, at the
  returned lambda, the one march that forms them, so it is positive by
  construction.

A functional that is its own mirror image (two equal Robin ends on
weights that read the same backward: the double-Robin interval) has an
even first eigenvector.  minimize solves its half on nodes 0..m // 2,
whose middle node is a Neumann end, by the route the half's one Robin
end picks, and mirrors the half's eigenvector.

minimize returns once the root-find or the inverse power loop ends.
The solution forms the eigenvector (marched, mirrored and normalized),
phi, psi and the residual on the first read of any of them (_finish),
so a caller that reads only lambda and the diagnostics never pays for
them, and phase_s["solve"] does not include them.

Only p and the Robin terms of a functional depend on more than its
geometry.  discretize draws the rest from a mesh built once per (weight,
a, b, m) and kept in an lru_cache of _MESH_CACHE meshes: the grid, h,
the read-only node and mid weights and w at the two end nodes.  The
mesh forms, on first use, and keeps the march's tuples of Python floats,
np.gradient's weights for the eigenfunction's derivative, the
palindrome test of the mirror image and the half mesh.  The coarse
levels of the march's start are meshes of the same cache.  Every solve
on a geometry (a sweep over p or alpha) shares them, bit for bit.

The package needs numpy only.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceFailure
from .problems import EigenSolution, ProblemSpec, SturmProblem, ThreePoint, _read_only, momentum

_INVERSE_MAX = 200  # iterations of the inverse power method
_MARCH_MAX = 200  # marches before the root-find gives up
# lambda's relative tolerance on either route, reported as lambda_tol.
# The inverse power method ends on a quotient fall of at most this per
# unit of q, or where the last three fall at a steady linear rate, on
# falls still to come that sum to at most this.  The fine level's
# root-find ends on its first Newton step in lambda of at most
# sqrt(_LAMBDA_RTOL) max(1, |lambda|); Newton's error after such a step
# is about its square, _LAMBDA_RTOL max(1, |lambda|)
_LAMBDA_RTOL = 1e-13
# the coarse levels' root-finds end on their first Newton step of at
# most _COARSE_STEP max(1, |lambda|): Newton's error after it is about
# 1e-8, so the start extrapolated from them lands well inside the fine
# level's first-step stop, sqrt(_LAMBDA_RTOL) = 3.2e-7
_COARSE_STEP = 1e-4
# the march's start comes from meshes of min(_COARSE_CELLS, n // 4) and
# twice as many cells, on a solved mesh of n cells: 125 and 250 both at
# m = 2000 and on its 1 000-cell double-Robin half
_COARSE_CELLS = 125
_HUGE = float(np.finfo(float).max)
_MESH_CACHE = 32  # meshes _mesh keeps, coarse levels included

DEFAULT_CELLS = 2000  # default mesh of solve_rayleigh and rayleigh_spec
MIN_CELLS = 16  # the fewest cells discretize takes


@dataclass(frozen=True)
class MinimizeConfig:
    """No settings: rayleigh_spec still takes one, and ignores it."""


@dataclass(frozen=True, eq=False)
class _Mesh:
    """What a weight on [a, b] in m cells fixes, whatever p and the Robin
    terms: the grid, h, the node weights (trapezoid, the weight folded
    in), the weights at the cell midpoints and w at the two end nodes;
    and the weight and the interval, on which _march_start builds its
    coarse meshes.  The arrays are read-only, since every functional on
    the mesh shares them.  The facts below are formed on a functional's
    first use of them and kept, so a mesh that one solve uses pays for
    none it does not need."""

    grid: np.ndarray
    h: float
    node_weights: np.ndarray
    mid_weights: np.ndarray
    end_weights: tuple
    weight: object
    interval: tuple

    @functools.cached_property
    def floats(self):
        """The node and mid weights as tuples of Python floats, which the
        march reads."""
        return tuple(self.node_weights.tolist()), tuple(self.mid_weights.tolist())

    @functools.cached_property
    def palindrome(self) -> bool:
        """The node and mid weights read the same backward."""
        nw, mid = self.node_weights, self.mid_weights
        return np.array_equal(nw, nw[::-1]) and np.array_equal(mid, mid[::-1])

    @functools.cached_property
    def half(self) -> "_Mesh":
        """The mesh on nodes 0..k, k = m // 2, of the half of a functional
        that is its own mirror image.  With m even node k keeps half its
        weight, the other half being its mirror's, which makes this the
        trapezoid mesh of [a, mid].  With m odd node k keeps its full
        weight: its mirror is node k + 1, and the middle cell between them
        has zero slope.  Its interval is [a, (a + b)/2] either way."""
        k = (self.grid.size - 1) // 2
        nw = self.node_weights[:k + 1].copy()
        if self.grid.size % 2:  # m even
            nw[k] *= 0.5
        a, b = self.interval
        return _Mesh(self.grid[:k + 1], self.h, _read_only(nw), self.mid_weights[:k],
                     (self.end_weights[0], float(self.node_weights[k]) / self.h),
                     self.weight, (a, 0.5 * (a + b)))

    @functools.cached_property
    def gradient(self) -> ThreePoint:
        """np.gradient(., grid, edge_order=2) with its weights formed."""
        return ThreePoint.of_grid(self.grid)


@functools.lru_cache(maxsize=_MESH_CACHE)
def _mesh(weight, a: float, b: float, m: int) -> _Mesh:
    """The mesh of a weight on [a, b] in m cells, built once for every
    functional on it.  Equal geometries share one Weight object (the
    weight factories of coeffs and problems are memoized), so a sweep
    over p or alpha builds one mesh."""
    grid = np.linspace(a, b, m + 1)
    h = (b - a) / m
    w_nodes = np.asarray(weight.value(grid), dtype=float)
    mids = 0.5 * (grid[:-1] + grid[1:])
    w_mid = np.array(weight.value(mids), dtype=float)  # a copy, since it is frozen below
    if np.any(w_nodes < 0.0) or np.any(w_mid <= 0.0):
        raise DomainError("weight not positive at quadrature points")
    node_weights = h * w_nodes
    node_weights[0] *= 0.5
    node_weights[-1] *= 0.5
    return _Mesh(_read_only(grid), h, _read_only(node_weights), _read_only(w_mid),
                 (float(w_nodes[0]), float(w_nodes[-1])), weight, (a, b))


@dataclass
class DiscreteFunctional:
    """Discrete Rayleigh functional of a SturmProblem on m cells.

    E(u) = sum_cells |du/h|^p * w_mid * h + sum_(j,c) c*|u_j|^p with
    c = alpha * w(node) at each Robin node, node -1 at a right end, so a
    functional on any mesh of the interval reads the terms as they are;
    N(u) = sum_j nw_j*|u_j|^p.  The grid, h and weights are read from its
    mesh (func.mesh.grid, .h, .node_weights, .mid_weights), which it
    shares with every functional on the same geometry.
    """

    mesh: _Mesh
    p: float
    robin_terms: list


def discretize(problem: SturmProblem, m: int) -> DiscreteFunctional:
    if not (isinstance(m, numbers.Integral) and m >= MIN_CELLS):
        raise DomainError("need an integer number of cells, at least %d, got %r" % (MIN_CELLS, m))
    mesh = _mesh(problem.weight, problem.a, problem.b, m)
    ends = ((0, problem.bc_left, mesh.end_weights[0]), (-1, problem.bc_right, mesh.end_weights[1]))
    robin_terms = [(j, bc.alpha * w) for j, bc, w in ends if bc.kind == "robin"]
    return DiscreteFunctional(mesh, problem.p, robin_terms)


def energy(func: DiscreteFunctional, u: np.ndarray) -> float:
    d = (u[1:] - u[:-1]) / func.mesh.h
    e = func.mesh.h * float(np.add.reduce(func.mesh.mid_weights * np.abs(d) ** func.p))
    for j, c in func.robin_terms:
        e += c * abs(u[j]) ** func.p
    return e


def norm_p(func: DiscreteFunctional, u: np.ndarray) -> float:
    return float(np.add.reduce(func.mesh.node_weights * np.abs(u) ** func.p))


def quotient(func: DiscreteFunctional, u: np.ndarray) -> float:
    """E(u)/N(u); for alpha > 0 problems this upper-bounds the discrete
    minimum for any admissible u."""
    n = norm_p(func, u)
    if n <= 0.0:
        raise DomainError("trial function has zero p-norm")
    return energy(func, u) / n


def _constant_quotient(func: DiscreteFunctional) -> float:
    """quotient(func, u) for a constant u, bit for bit: u has no cell
    energy, so it is the sum of the Robin coefficients over the sum of
    the node weights."""
    return sum((c for _, c in func.robin_terms), 0.0) / float(np.add.reduce(func.mesh.node_weights))


def _energy_grad(func: DiscreteFunctional, u: np.ndarray) -> np.ndarray:
    p = func.p
    d = (u[1:] - u[:-1]) / func.mesh.h
    flux = func.mesh.mid_weights * momentum(d, p)
    g = np.zeros_like(u)
    g[:-1] -= flux
    g[1:] += flux
    g *= p
    for j, c in func.robin_terms:
        g[j] += p * c * math.copysign(abs(float(u[j])) ** (p - 1.0), u[j])
    return g


def _norm_grad(func: DiscreteFunctional, u: np.ndarray) -> np.ndarray:
    return func.p * func.mesh.node_weights * momentum(u, func.p)


def _normalize(func: DiscreteFunctional, u: np.ndarray):
    """u scaled to N(u) = 1, and N(u).  Raises ToleranceFailure where N(u)
    is not finite and positive, which an inverse step's v, in [0, 1 + b - a],
    reaches only at p log(1 + b - a) > 709 (flat R = 10, p = 400)."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or 0 * inf at a pole
        n = norm_p(func, u)
    if not 0.0 < n < math.inf:
        raise ToleranceFailure("iterate's p-norm is %r at p = %r: beyond the float range"
                               % (n, func.p))
    return u / n ** (1.0 / func.p), n


def _residual(func: DiscreteFunctional, u: np.ndarray, q: float) -> np.ndarray:
    """E'(u) - q N'(u)."""
    return _energy_grad(func, u) - q * _norm_grad(func, u)


def _convex(func: DiscreteFunctional) -> bool:
    """Exactly one Robin end, with a positive coefficient: E is convex and
    the inverse power method applies."""
    return len(func.robin_terms) == 1 and func.robin_terms[0][1] > 0.0


def _inverse_step(func: DiscreteFunctional, u: np.ndarray):
    """A positive multiple of the v with E'(v) = N'(u), for one Robin end
    with a positive coefficient, and its energy E.  Its callers pass
    u >= 0 with no -0.0, so N'(u)/p = node_weights u^(p-1) takes no sign.

    Divided by p, node j of E'(v) = N'(u) reads
    f_(j-1) - f_j + c_j |v_j|^(p-2) v_j = b_j, with the cell fluxes
    f = w_mid |v'|^(p-2) v', b = node_weights |u|^(p-2) u >= 0, c_j the
    Robin coefficient (0 elsewhere) and f_(-1) = f_m = 0.  So |f_j| is the
    sum of b beyond cell j, seen from the Robin end, and v >= 0 grows away
    from that end.  It is summed from the Robin node, whose value its
    balance fixes: near a large-alpha end that value is small, and a sum
    from the other end, shifted to meet it, would leave it a difference
    of two O(1) numbers.

    The equation is homogeneous, so it is solved with b over K, the
    largest of the |f_j|/w_mid,j and the Robin balance total/c: every
    power 1/(p - 1) acts on a number in [0, 1], and normalizing v removes
    its factor K^(-1/(p-1)).  A cell's energy w_mid |v'|^p h is
    h |v' f|/K, so E(v) is read off the scaled slopes and the fluxes."""
    p = func.p
    part = np.add.accumulate(func.mesh.node_weights * u ** (p - 1.0))
    total = float(part[-1])
    (j, c), = func.robin_terms
    flux = total - part[:-1] if j == 0 else part[:-1]  # |f|
    slopes = flux / func.mesh.mid_weights  # |f|/w_mid, scaled and raised in place
    k = max(float(np.maximum.reduce(slopes)), total / c)
    slopes /= k
    slopes **= 1.0 / (p - 1.0)
    v_robin = (total / c / k) ** (1.0 / (p - 1.0))
    away = slice(None, None, 1 if j == 0 else -1)  # node order away from the Robin end
    v = np.zeros(u.size)
    np.add.accumulate(func.mesh.h * slopes[away], out=v[away][1:])
    v += v_robin
    return v, func.mesh.h * float(np.add.reduce(slopes * flux)) / k + c * v_robin ** p


def _inverse_power(func: DiscreteFunctional, u: np.ndarray, q: float):
    """The inverse power method from a normalized u: v solves
    E'(v) = N'(u) up to a positive factor and is normalized, which never
    raises the quotient while E is convex.  Each new quotient is E(v), as
    the step read it off its fluxes, over the norm that normalizing v
    formed.  A rise within rounding is not taken.

    Converged once an iteration lowers the quotient by at most
    _LAMBDA_RTOL of it, or once the last three falls shrink at a steady
    linear rate rho, the last fall over the one before it, and the falls
    still to come, fall rho/(1 - rho) as a geometric series, sum to at
    most _LAMBDA_RTOL of q.  Steady means rho <= 1/2 and within a factor
    2 of the ratio before it: a rate read off two falls alone can stop
    before the rate has settled (after 2 iterations at p = 1.05,
    alpha = 1e6 on the hyperbolic ball, 9.7e-7 off).
    Returns (u, q, iterations, converged)."""
    falls = ()  # the last two falls, oldest first
    for iters in range(1, _INVERSE_MAX + 1):
        v, e = _inverse_step(func, u)
        v, n = _normalize(func, v)
        qv = e / n
        q_prev = q
        if qv < q:
            u, q = v, qv
        fall = q_prev - qv
        if fall <= _LAMBDA_RTOL * q_prev:
            return u, q, iters, True
        if len(falls) == 2:
            rho, rho_prev = fall / falls[1], falls[1] / falls[0]
            if (rho <= 0.5 and rho_prev <= 2.0 * rho <= 4.0 * rho_prev
                    and fall * rho <= _LAMBDA_RTOL * q * (1.0 - rho)):
                return u, q, iters, True
        falls = (falls + (fall,))[-2:]
    return u, q, _INVERSE_MAX, False


def _chain(func: DiscreteFunctional):
    """The march's chain, from its launch node to its end node: node
    weights and mid weights as Python floats (the mesh's tuples), the two
    nodes' Robin coefficients (0 at a Neumann end), h and p; and whether
    it runs from right to left.  It runs toward the end with the smaller
    Robin coefficient, the way u grows: marched the other way, its end
    value is lost to rounding near its root."""
    robin = dict(func.robin_terms)
    c_left, c_right = robin.get(0, 0.0), robin.get(-1, 0.0)
    nw, mid = func.mesh.floats
    flip = c_left < c_right
    if flip:
        nw, mid, c_left, c_right = nw[::-1], mid[::-1], c_right, c_left
    return (nw, mid, c_left, c_right, func.mesh.h, func.p), flip


def _march(lam: float, chain, ratios=None):
    """E'(u) = lam N'(u) at every node but the end node, marched in
    Riccati form.

    Divided by p, node j reads f_(j-1) - f_j + (c_j - lam nw_j) Phi(u_j)
    = 0, with Phi(s) = |s|^(p-2) s, the cell fluxes
    f_j = w_mid,j Phi((u_(j+1) - u_j)/h), f_(-1) = 0 and c_j the Robin
    coefficient (0 elsewhere).  With z_j = f_(j-1)/Phi(u_j) and the
    ratio r_j = u_(j+1)/u_j it is
    y_j = z_j + c_j - lam nw_j,  r_j = 1 + h Phi^-1(y_j/w_mid,j),
    z_(j+1) = y_j/Phi(r_j),
    which neither overflows nor underflows as u does.  The end node's
    balance is y_m = 0.  lam lies below the discrete first eigenvalue
    exactly when every r_j > 0 and y_m > 0 (discrete half-linear Sturm
    theory).  dy/dlam rides along: dy_j = dz_j - nw_j, and differentiating
    r and z gives dz_(j+1) = dy_j/r_j^p; unrolled, that is
    dy_j = -sum_(i<=j) nw_i (u_i/u_j)^p.

    lam must be a Python float: a numpy scalar makes every step several
    times slower.  Returns (y_m, dy_m/dlam), or None if some r_j <= 0,
    where the march stops.  Where ratios is a list, each r_j reached is
    appended to it: only _finish's march passes one, and a root-find
    march forms no ratio."""
    nw, mid, c_launch, c_end, h, p = chain
    e = 1.0 / (p - 1.0)
    q = p - 1.0
    h_q = h ** -q
    z, dz = c_launch, 0.0
    keep = ratios is not None
    for w, wm in zip(nw, mid):
        y = z - lam * w
        dz -= w
        s = y / wm
        try:
            t = s ** e if s >= 0.0 else -(-s) ** e
        except OverflowError:  # |s|^e beyond the float range, at p near 1
            if s < 0.0:
                return None
            # r = inf: z_(j+1) = w_mid,j Phi(t/r) -> w_mid,j h^-(p-1), and dz_(j+1) -> 0
            if keep:
                ratios.append(math.inf)
            z, dz = wm * h_q, 0.0
            continue
        r = 1.0 + h * t
        if not r > 0.0:
            return None
        rq = r ** q
        z = y / rq
        dz /= rq * r
        if keep:
            ratios.append(r)
    return z + c_end - lam * nw[-1], dz - nw[-1]


def _march_root(func: DiscreteFunctional, lam: float, rtol: float = math.sqrt(_LAMBDA_RTOL)):
    """The discrete first eigenvalue of func, for any Robin ends but a
    single positive one, from a start lam.

    The root is bracketed from the start: above by the constant trial's
    quotient (_constant_quotient), below by the sum of c_j/nw_j over the
    negative Robin coefficients, since E(u) >= sum c_j |u_j|^p and
    nw_j |u_j|^p <= N(u).  Newton steps on the end value of _march, with
    the exact derivative, are taken while they stay inside the bracket,
    and bisection otherwise.  The root-find stops at its first Newton
    step of at most rtol max(1, |lam|), where Newton's error is about the
    step's square, and returns lam plus that step, with no march to
    confirm it; or when the bracket's ends are adjacent floats, at the
    lower one.  rtol is sqrt(_LAMBDA_RTOL) on the solved mesh, and
    _COARSE_STEP on the coarse levels of _march_start, whose roots only
    seed it.

    Returns (lam, marches, converged); lam is the bracket's lower end,
    unconverged, after _MARCH_MAX marches with no stop."""
    chain, _ = _chain(func)
    lo = sum((c / float(func.mesh.node_weights[j]) for j, c in func.robin_terms if c < 0.0), 0.0)
    hi = _constant_quotient(func)
    lam = min(max(float(lam), lo), hi)
    converged = False
    for marches in range(1, _MARCH_MAX + 1):
        end = _march(lam, chain)
        step = None
        if end is not None:
            y, dy = end
            step = -y / dy
            if abs(step) <= rtol * max(1.0, abs(lam)):
                return lam + step, marches, True
        if end is not None and y > 0.0:
            lo = lam
        else:
            hi = lam
        if step is None or not lo < lam + step < hi:
            step = 0.5 * (lo + hi) - lam
        if not lo < lam + step < hi:  # lo and hi are adjacent floats
            lam, converged = lo, True
            break
        lam += step
    else:
        lam = lo
    return lam, marches, converged


def _march_start(func: DiscreteFunctional):
    """A start for _march_root on func: its roots on _mesh's meshes of
    func's interval in c = min(_COARSE_CELLS, n // 4) and 2c cells, for
    func's n cells, extrapolated to func's h as second order in h, with
    the ratio (h/h_2c)^2, which need not be a whole number.  Both
    coarse root-finds stop at their first Newton step of at most
    _COARSE_STEP max(1, |lam|), not at the fine level's
    sqrt(_LAMBDA_RTOL): the start needs them only to about 1e-8.  Returns
    the start and the coarse marches."""
    mesh = func.mesh
    n = mesh.grid.size - 1
    c = min(_COARSE_CELLS, n // 4)
    lam, marches = math.inf, 0
    for cells in (c, 2 * c):
        coarse = _mesh(mesh.weight, *mesh.interval, cells)
        lam_prev = lam
        lam, k, _ = _march_root(DiscreteFunctional(coarse, func.p, func.robin_terms), lam,
                                _COARSE_STEP)
        marches += k
    r = (mesh.h / coarse.h) ** 2
    return lam + (lam - lam_prev) * (1.0 - r) / 3.0, marches


def _mirror_image(func: DiscreteFunctional) -> bool:
    """func reads the same from either end: two Robin ends with one
    coefficient, and node and mid weights that read the same backward
    (the double-Robin interval)."""
    ends = [c for _, c in func.robin_terms]
    return len(ends) == 2 and ends[0] == ends[1] and func.mesh.palindrome


def minimize(func: DiscreteFunctional) -> EigenSolution:
    """Minimize the Rayleigh quotient over N(u) = 1 on func's mesh.

    A functional that is its own mirror image is solved on its half
    (_Mesh.half), with a Neumann end at the middle node, and the half's
    eigenvector is mirrored.  With exactly one Robin end, and its
    coefficient positive: the inverse power method from the normalized
    constant.  Otherwise: the coarse march root-finds, then the march.
    The diagnostics flag whether a convergence test fired, count the
    passes over the solved mesh (evals: every march, coarse and fine, or
    every inverse power iteration), give lambda's relative tolerance on
    either route (lambda_tol) and time the two stages.  Their m is func's
    cell count, also where the half was solved.  phi, psi and the
    residual are formed on their first read (_finish), after minimize
    has returned.
    """
    m = func.mesh.grid.size - 1
    t_seed = time.perf_counter()
    mirror = _mirror_image(func)
    solved = DiscreteFunctional(func.mesh.half, func.p, func.robin_terms[:1]) if mirror else func
    u = None
    if _convex(solved):
        u, seed_iters = _normalize(solved, np.ones(solved.mesh.grid.size))[0], 0
        t_solve = time.perf_counter()
        u, q, iters, converged = _inverse_power(solved, u, _constant_quotient(solved))
        steps = evals = iters
    else:
        q, seed_iters = _march_start(solved)
        t_solve = time.perf_counter()
        q, steps, converged = _march_root(solved, q)
        iters = 0
        evals = seed_iters + steps
    t_end = time.perf_counter()

    diagnostics = {
        "iterations": iters,
        "steps": steps,
        "seed_iterations": seed_iters,
        "evals": evals,
        "converged": converged,
        "lambda_tol": _LAMBDA_RTOL,
        "m": m,
        "phase_s": {"seed": t_solve - t_seed, "solve": t_end - t_solve},
    }

    return EigenSolution(
        lambda_val=float(q),
        grid=func.mesh.grid,
        method="rayleigh",
        diagnostics=diagnostics,
        finish=functools.partial(_finish, func, solved, q, u),
    )


def _finish(func: DiscreteFunctional, solved: DiscreteFunctional, q: float, u) -> tuple:
    """(phi, psi, residual) of minimize's solve of func at q: from the
    inverse power method's iterate u on solved or, where u is None, the
    product of the ratios of one march on solved at q, each capped at
    _HUGE so that log u stays finite near p = 1.  A solved that is not
    func is a mirror image's half, and is mirrored.  phi = u/max u, psi
    its momentum, and residual the norm of E'(u) - q N'(u) at N(u) = 1.

    That march reaches the end node: q is the bracket's lower end, below
    the root, or within about _LAMBDA_RTOL max(1, |q|) of it; marched the
    way u grows (_chain), u first vanishes at a node far past the root.

    It raises nothing, so minimize keeps every check that can.  Only
    _normalize could raise, where N(u) is not finite and positive.  The
    inverse power method's u has N(u) = 1 on solved, and its mirror
    image N(u) = 2 up to rounding.  The march's u = exp(log u - max
    log u) lies in [0, 1] and is 1 at the maximum: N(u) is finite, and
    positive where that node has a positive weight.  A node weight is 0
    only where the weight vanishes, at a singular end, which is a
    Neumann end (c = 0).  The march launches from it unless c = 0 at
    both ends, where every ratio is 1; as the launch node (y = 0) its
    first ratio is exactly 1, so its neighbour, of positive weight,
    shares the maximum."""
    march, mirror = u is None, solved is not func
    if march:
        chain, flip = _chain(solved)
        log_u = np.zeros(solved.mesh.grid.size)
        ratios = []
        _march(q, chain, ratios)
        np.add.accumulate(np.log(np.minimum(ratios, _HUGE)), out=log_u[1:])
        u = np.exp((log_u[::-1] if flip else log_u) - np.maximum.reduce(log_u))
    if mirror:  # node k is its own mirror when m is even
        u = np.concatenate((u, u[-2::-1] if (func.mesh.grid.size - 1) % 2 == 0 else u[::-1]))
    if mirror or march:
        u = _normalize(func, u)[0]
    scale = float(np.maximum.reduce(u))
    phi = u / scale
    psi = momentum(func.mesh.gradient(phi), func.p)
    g = _residual(func, u, q)
    return phi, psi, math.sqrt(np.dot(g, g))


def solve_rayleigh(problem: SturmProblem, m: int = DEFAULT_CELLS) -> EigenSolution:
    """Minimize the Rayleigh quotient of problem on m cells."""
    return minimize(discretize(problem, m))


@functools.lru_cache(maxsize=256)
def _solve_cached(spec: ProblemSpec, m: int) -> EigenSolution:
    return solve_rayleigh(spec.build(), m)


def rayleigh_spec(spec: ProblemSpec, m: int = DEFAULT_CELLS, config: MinimizeConfig = MinimizeConfig()) -> EigenSolution:
    """Cached variational solve keyed by the problem spec.  config has no
    settings and is ignored."""
    return _solve_cached(spec, m)
