"""Variational solver: discretization, quotient, the inverse power method
and the march, convergence."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

import probin.rayleigh

from probin.coeffs import ModelParams, Weight, const_weight
from probin.errors import DomainError, ToleranceFailure
from probin.problems import (
    BoundaryCondition,
    ProblemSpec,
    SturmProblem,
    ThreePoint,
    double_robin_problem,
    geodesic_ball_problem,
    inradius_model_problem,
    momentum,
)
from probin.rayleigh import (
    _HUGE,
    _LAMBDA_RTOL,
    _MESH_CACHE,
    DiscreteFunctional,
    _chain,
    _constant_quotient,
    _inverse_step,
    _march,
    _march_root,
    _mesh,
    _mirror_image,
    _norm_grad,
    _normalize,
    discretize,
    energy,
    minimize,
    norm_p,
    quotient,
    solve_rayleigh,
)
from probin.shoot import solve_first_eigenvalue

from oracles import cheeger_ratio, flat_robin_lambda, mixed_dn_lambda
from test_plan import FAMILIES

FLAT_ANCHOR = 0.740173884394967
_EPS = float(np.finfo(float).eps)
# flat p = 1.2 at m = 2000, alpha = -3 and alpha = -10: the quotient where
# a projected gradient descent converged, an upper bound on the discrete
# minimum
LAM_P12_M3 = -145.649722176157
LAM_P12_M10 = -21716.1545989089


def _flat(alpha, p, r_len=1.0):
    return inradius_model_problem(ModelParams(0.0, 0.0, 2), r_len, alpha, p)


def _robin_right(alpha, p):
    # [0, 1] with the Robin end on the right, where _flat has it on the left
    return SturmProblem(0.0, 1.0, p, const_weight(), BoundaryCondition.neumann(),
                        BoundaryCondition.robin(alpha))


def test_trapezoid_node_weights():
    func = discretize(_flat(1.0, 2.0), 16)
    h = 1.0 / 16
    expected = np.full(17, h)
    expected[0] = expected[-1] = h / 2
    assert func.mesh.node_weights == pytest.approx(expected, rel=1e-15)


def test_robin_terms_placement():
    assert discretize(_flat(1.0, 2.0), 32).robin_terms == [(0, 1.0)]
    func = discretize(double_robin_problem(1.0, 1.0, 2.0), 32)
    assert func.robin_terms == [(0, 1.0), (-1, 1.0)]
    ball = discretize(geodesic_ball_problem(-1.0, 2, 1.0, 2.0, 2.0), 32)
    # boundary coefficient carries the weight at the Robin node
    assert ball.robin_terms == [(-1, pytest.approx(2.0 * math.sinh(1.0)))]
    assert ball.mesh.node_weights[0] == 0.0  # singular center node


def test_m_floor():
    with pytest.raises(DomainError):
        discretize(_flat(1.0, 2.0), 8)


def test_weight_must_be_positive_at_the_quadrature_points():
    # a weight that changes sign at t = 1/2
    weight = Weight(value=lambda t: np.asarray(t, dtype=float) - 0.5,
                    log_deriv=lambda t: 1.0 / (np.asarray(t, dtype=float) - 0.5),
                    log_second=lambda t: -1.0 / (np.asarray(t, dtype=float) - 0.5) ** 2)
    problem = SturmProblem(0.0, 1.0, 2.0, weight,
                           BoundaryCondition.neumann(), BoundaryCondition.robin(1.0))
    with pytest.raises(DomainError):
        discretize(problem, 64)


@pytest.mark.parametrize("m", [100.5, 100.0, math.nan])
def test_cells_must_be_an_integer(m):
    # np.linspace raised a bare TypeError here before
    problem = _flat(1.0, 2.0)
    with pytest.raises(DomainError, match="integer"):
        discretize(problem, m)
    with pytest.raises(DomainError, match="integer"):
        solve_rayleigh(problem, m)


def _spec(family, p, alpha, **geometry):
    return ProblemSpec.from_dict(dict(FAMILIES[family], p=p, alpha=alpha, **geometry))


def test_specs_that_differ_in_p_or_alpha_share_one_mesh():
    """The weight factories hand equal geometries one Weight object, so
    the mesh is built once for every p and alpha on a geometry, and again
    for any other R, kappa, n, warping or m."""
    for family in FAMILIES:
        mesh = discretize(_spec(family, 2.0, 1.0).build(), 2000).mesh
        for p, alpha in ((1.5, -3.0), (2.0, 1e4), (3.0, 0.5)):
            assert discretize(_spec(family, p, alpha).build(), 2000).mesh is mesh, family
        assert discretize(_spec(family, 2.0, 1.0, R=0.4).build(), 2000).mesh is not mesh
        assert discretize(_spec(family, 2.0, 1.0).build(), 1000).mesh is not mesh
    others = [_spec("hyperbolic_ball", 2.0, 1.0, kappa=-2.0),
              _spec("hyperbolic_ball", 2.0, 1.0, n=4),
              _spec("curvature_model", 2.0, 1.0, lambda_mc=0.25),
              _spec("warped_ball", 2.0, 1.0, warping={"kind": "polynomial",
                                                       "coefficients": [0.0, 1.0, 0.0, 0.2]})]
    meshes = {id(discretize(s.build(), 2000).mesh) for s in others}
    meshes |= {id(discretize(_spec(f, 2.0, 1.0).build(), 2000).mesh) for f in FAMILIES}
    assert len(meshes) == len(others) + len(FAMILIES)


def test_cached_mesh_arrays_are_read_only():
    """The solved mesh and the march start's two coarse meshes, which
    the solve leaves in _mesh's cache."""
    func = discretize(_spec("hyperbolic_ball", 1.75, -0.5).build(), 2000)
    minimize(func)
    fine = func.mesh
    hits = _mesh.cache_info().hits
    levels = [_mesh(fine.weight, *fine.interval, cells) for cells in (125, 250)]
    assert _mesh.cache_info().hits == hits + 2
    for mesh in [fine] + levels:
        for a in (mesh.grid, mesh.node_weights, mesh.mid_weights):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0


def _same_solution(a, b):
    """Bit-identical lambda, samples, residual and diagnostics but the
    wall times."""
    assert a.lambda_val.hex() == b.lambda_val.hex() and a.residual.hex() == b.residual.hex()
    for x, y in ((a.grid, b.grid), (a.phi, b.phi), (a.psi, b.psi)):
        assert x.tobytes() == y.tobytes()
    da, db = dict(a.diagnostics), dict(b.diagnostics)
    del da["phase_s"], db["phase_s"]
    assert da == db


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cold_and_warm_solves_agree_bit_for_bit(family, sign):
    """A solve on a mesh built afresh and one on the cached mesh, with its
    tuples, gradient stencil, palindrome test and half mesh formed, and
    the march start's two coarse meshes cached: alpha > 0 takes the
    inverse power method, alpha < 0 the march, which reads the coarse
    meshes too (two-Robin: on the half mesh, in both cases)."""
    problem = _spec(family, 1.75, 0.5 * sign).build()
    _mesh.cache_clear()
    cold = solve_rayleigh(problem, 2000)
    hits = _mesh.cache_info().hits
    warm = solve_rayleigh(problem, 2000)
    assert _mesh.cache_info().hits == hits + (1 if sign > 0 else 3)
    _same_solution(cold, warm)
    assert cold.diagnostics["converged"]
    assert (cold.diagnostics["iterations"] > 0) == (sign > 0)


def test_mesh_cache_stays_within_its_bound():
    _mesh.cache_clear()
    for i in range(_MESH_CACHE + 8):
        discretize(double_robin_problem(0.5 + 0.01 * i, 1.0, 2.0), 32)
    info = _mesh.cache_info()
    assert info.maxsize == _MESH_CACHE and info.currsize == _MESH_CACHE and info.hits == 0


# exactly uniform grids, where numpy takes its scalar branch: spacing
# 3/16 (double-Robin, R = 1.5), where numpy's weights would round
# differently, and 1/1024, where they are exact; then the linspace of
# every bench family at m = 2000, which is not exactly uniform
_STENCIL_MESHES = [("double_robin R=1.5 m=16", _spec("double_robin", 2.0, 1.0, R=1.5), 16, True),
                   ("flat m=1024", _spec("flat", 2.0, 1.0), 1024, True)] + [
    (family + " m=2000", _spec(family, 2.0, 1.0), 2000, False) for family in sorted(FAMILIES)]


@pytest.mark.parametrize("spec,m,uniform", [row[1:] for row in _STENCIL_MESHES],
                         ids=[row[0] for row in _STENCIL_MESHES])
def test_mesh_gradient_is_numpy_gradient_bit_for_bit(spec, m, uniform):
    mesh = discretize(spec.build(), m).mesh
    grid = mesh.grid
    assert (mesh.gradient.h is not None) == uniform
    noise = np.random.default_rng(3).standard_normal(m + 1)
    for f in (np.exp(np.sin(3.0 * grid)), noise, grid ** 3 - grid):
        want = np.gradient(f, grid, edge_order=2)
        assert mesh.gradient(f).tobytes() == want.tobytes()
        assert mesh.gradient.interior(f).tobytes() == want[1:-1].tobytes()
    if m == 16:  # the scalar branch is needed
        assert (ThreePoint(grid, None)(noise) != np.gradient(noise, grid, edge_order=2)).any()


def test_quotient_constant_trial():
    func = discretize(_flat(0.5, 2.0, r_len=2.0), 64)
    u = np.ones(65)
    assert quotient(func, u) == pytest.approx(0.25, rel=1e-14)  # alpha / R


@pytest.mark.parametrize("m", [16, 250, 2000])
@pytest.mark.parametrize("prob", [
    _flat(-1.0, 1.5), double_robin_problem(0.5, -3.0, 2.5),
    geodesic_ball_problem(1.0, 3, 1.0, -1.0, 1.75), geodesic_ball_problem(-1.0, 3, 1.0, -1.0, 3.0),
], ids=["flat", "double_robin", "spherical_cap", "hyperbolic_ball"])
def test_constant_quotient_is_the_quotient_of_ones(prob, m):
    """The march's bracket top, in closed form, is the constant trial's
    quotient to the last bit."""
    func = discretize(prob, m)
    assert _constant_quotient(func) == float(quotient(func, np.ones(m + 1)))


def test_quotient_ramp_dirichlet():
    # the ramp vanishes at the alpha = 1e6 Robin end, so it pays no boundary term
    func = discretize(_flat(1e6, 2.0), 2000)
    u = func.mesh.grid.copy()
    assert quotient(func, u) == pytest.approx(3.0, abs=1e-5)


def test_quotient_scale_invariance():
    func = discretize(_flat(1.0, 3.0), 100)
    rng = np.random.default_rng(5)
    u = 1.0 + 0.3 * rng.standard_normal(101)
    q0 = quotient(func, u)
    for c in (2.0, -0.7, 1e4):
        assert quotient(func, c * u) == pytest.approx(q0, rel=1e-12)


def test_quotient_rejects_zero_norm():
    func = discretize(_flat(1.0, 2.0), 32)
    with pytest.raises(DomainError):
        quotient(func, np.zeros(33))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_gradients_match_finite_differences(p):
    from probin.rayleigh import _energy_grad, _norm_grad
    func = discretize(_flat(-1.0, p), 24)
    rng = np.random.default_rng(11)
    u = 1.0 + 0.2 * rng.standard_normal(25)
    ge = _energy_grad(func, u)
    gn = _norm_grad(func, u)
    h = 1e-7
    for j in (0, 5, 12, 24):
        e = np.zeros_like(u)
        e[j] = h
        assert (energy(func, u + e) - energy(func, u - e)) / (2 * h) == pytest.approx(
            ge[j], rel=2e-5, abs=1e-7)
        assert (norm_p(func, u + e) - norm_p(func, u - e)) / (2 * h) == pytest.approx(
            gn[j], rel=2e-5, abs=1e-7)


def test_minimize_flat_interval():
    sol = solve_rayleigh(_flat(1.0, 2.0), 2000)
    assert sol.lambda_val == pytest.approx(FLAT_ANCHOR, abs=1e-3)
    assert sol.method == "rayleigh"
    assert sol.diagnostics["converged"]


def _p2_matrix_eigenpair(func):
    """Smallest eigenpair of K u = lambda M u for a p = 2 functional with
    Robin or Neumann ends: K the stiffness of the mid weights plus the
    Robin loads, M = diag(node_weights), symmetrized by the mass square
    root and handed to LAPACK.  Returns LAPACK's eigenvalue and the
    Rayleigh quotient of its eigenvector, summed from differences."""
    k = func.mesh.mid_weights / func.mesh.h
    diag = np.zeros(func.mesh.grid.size)
    diag[:-1] += k
    diag[1:] += k
    for j, c in func.robin_terms:
        diag[j] += c
    s = 1.0 / np.sqrt(func.mesh.node_weights)
    vals, vecs = eigh_tridiagonal(diag * s * s, -k * s[:-1] * s[1:],
                                  select="i", select_range=(0, 0))
    u = vecs[:, 0] * s
    e = np.sum(k * np.diff(u) ** 2) + sum(c * u[j] ** 2 for j, c in func.robin_terms)
    return vals[0], e / np.sum(func.mesh.node_weights * u * u)


def test_minimize_matches_tridiagonal_eigensolver():
    """p = 2: the discrete minimum has a closed matrix form; the minimizer
    must find the same value to high accuracy."""
    func = discretize(_flat(1.0, 2.0), 400)
    sol = minimize(func)
    assert sol.lambda_val == pytest.approx(_p2_matrix_eigenpair(func)[0], rel=1e-9, abs=1e-10)


@pytest.mark.parametrize("prob", [
    _flat(1.0, 2.0), _flat(-1.0, 2.0), double_robin_problem(0.5, 1.0, 2.0),
    double_robin_problem(0.5, -1.0, 2.0), _flat(-10.0, 2.0),
], ids=["flat+", "flat-", "double_robin", "double_robin-", "flat alpha=-10"])
def test_solve_rayleigh_matches_tridiagonal_eigensolver_at_m2000(prob):
    """At m = 2000 the symmetrized matrix has entries near 1.6e7, so
    LAPACK's eigenvalue carries an absolute error of about eps times
    that (5e-10 relative here); the quotient of its eigenvector is
    accurate to second order and is the 1e-11 reference."""
    sol = solve_rayleigh(prob, 2000)
    lapack_value, lapack_quotient = _p2_matrix_eigenpair(discretize(prob, 2000))
    assert sol.lambda_val == pytest.approx(lapack_quotient, rel=1e-11)
    assert sol.lambda_val == pytest.approx(lapack_value, rel=5e-9)
    assert sol.diagnostics["converged"]


def test_inverse_power_reaches_the_minimum_near_p1():
    """At p = 1.1 the minimizer's slopes vary over many orders of
    magnitude, where gradient steps stall far above the minimum.  At
    alpha = 1e4 the Dirichlet-limit closed form is within 1e-8 of the
    eigenvalue; with two Robin ends it is that of the half interval,
    whose Robin/Neumann problem the inverse power method solves too."""
    for prob, half in ((_flat(1e4, 1.1), 1.0), (double_robin_problem(0.5, 1e4, 1.1), 0.5)):
        sol = solve_rayleigh(prob, 2000)
        assert sol.lambda_val == pytest.approx(mixed_dn_lambda(1.1, half), rel=1e-7)
        assert sol.diagnostics["converged"] and sol.diagnostics["iterations"] > 0


def _solve_quietly(family, p, alpha):
    """The m = 2000 solve, with any numpy warning (an overflow in the
    inverse step's powers) raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_rayleigh(_spec(family, p, alpha).build(), 2000)
    assert sol.diagnostics["converged"]
    return sol.lambda_val


@pytest.mark.parametrize("alpha", [3.0, 10.0])
@pytest.mark.parametrize("family,half", [("flat", 1.0), ("double_robin", 0.5)],
                         ids=["flat", "double_robin"])
def test_inverse_power_near_p1_meets_the_dirichlet_limit(family, half, alpha):
    """At p = 1.001 the step's power 1/(p - 1) is 1000, and the Robin to
    Dirichlet gap shrinks like alpha^(-1/(p-1)): at alpha >= 3 the Robin
    eigenvalue is the Dirichlet-Neumann one on [0, half] in closed form,
    to far below rounding.  The discrete error is second order in h,
    about 41 (h/half)^2 at p = 1.001 (1.6e-4, 1.0e-5 and 6.5e-7 on the
    flat interval at m = 500, 2000 and 8000), so 50 (h/half)^2 bounds it:
    1.25e-5 flat, and 5e-5 on the double-Robin half of 1000 cells."""
    lam = _solve_quietly(family, 1.001, alpha)
    assert lam == pytest.approx(mixed_dn_lambda(1.001, half), rel=50.0 * (0.5e-3 / half) ** 2)


@pytest.mark.parametrize("family,p,alpha", [
    ("flat", 1.001, 0.1), ("flat", 1.001, 0.3), ("flat", 1.002, 0.1),
    ("curvature_model", 1.001, 0.1), ("warped_ball", 1.001, 0.1),
], ids=lambda v: v if isinstance(v, str) else repr(v))
def test_inverse_power_near_p1_small_alpha_keeps_the_constant(family, p, alpha):
    """Near p = 1 a small alpha makes the eigenfunction constant to
    rounding: lambda is at most Q, the constant trial's quotient, and
    within 1e-6 of it."""
    lam = _solve_quietly(family, p, alpha)
    q = _constant_quotient(discretize(_spec(family, p, alpha).build(), 2000))
    assert q * (1.0 - 1e-6) <= lam <= q


@pytest.mark.parametrize("family", ["flat", "disk"])
def test_inverse_power_beyond_the_float_range_at_large_p_fails(family):
    """The inverse step's v lies in [0, 1 + R], so with R = 10 at p = 400
    |v|^p passes the float range, where lambda is about 1e-397.  That is
    a solver failure, ToleranceFailure, raised at once and with no
    warning (the disk's pole node weighs 0, and 0 * inf is NaN)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceFailure, match="beyond the float range"):
            solve_rayleigh(_spec(family, 400.0, 1.0, R=10.0).build(), 2000)


# the weight of each family, and its Robin and far ends
_CHEEGER = {
    "hyperbolic_ball": (lambda r: math.sinh(r) ** 2, 1.0, 0.0),
    "spherical_cap": (lambda r: math.sin(r) ** 2, 1.0, 0.0),
    "curvature_model": (lambda t: (math.cos(t) - 0.5 * math.sin(t)) ** 2, 0.0, 1.0),
    "warped_ball": (lambda r: (r + 0.1 * r ** 3) ** 2, 1.0, 0.0),
}


@pytest.mark.parametrize("alpha", [3.0, 100.0])
@pytest.mark.parametrize("family", list(_CHEEGER))
def test_inverse_power_near_p1_meets_the_cheeger_bound(family, alpha):
    """At p = 1.001 and alpha >= 3 the Robin eigenvalue is the Dirichlet
    one to far below rounding, so Cheeger's inequality bounds it below by
    (h/p)^p, h = |boundary|/|volume| (cheeger_ratio), and Q, the constant
    trial's quotient, bounds it above.  The lower bound holds with about
    0.7 % to spare."""
    p = 1.001
    lam = _solve_quietly(family, p, alpha)
    q = _constant_quotient(discretize(_spec(family, p, alpha).build(), 2000))
    assert (cheeger_ratio(*_CHEEGER[family]) / p) ** p <= lam <= q


@pytest.mark.parametrize("p", [1.1, 2.0, 8.0])
@pytest.mark.parametrize("alpha", [1.0, 1e4])
def test_positive_alpha_never_marches(monkeypatch, alpha, p):
    """With one Robin end and its coefficient positive, the solve is the
    inverse power method from the constant: no seed and no march."""
    def refuse(*args):
        raise AssertionError("the alpha > 0 route marched")

    monkeypatch.setattr(probin.rayleigh, "_march", refuse)
    for prob in (_flat(alpha, p), geodesic_ball_problem(0.0, 2, 1.0, alpha, p)):
        d = solve_rayleigh(prob, 2000).diagnostics
        assert d["converged"] and d["seed_iterations"] == 0


@pytest.mark.parametrize("p", [1.1, 2.0, 8.0])
@pytest.mark.parametrize("alpha", [1.0, 1e4])
def test_inverse_step_solves_its_equation(alpha, p):
    """The inverse step's v must satisfy E'(v) = N'(u)/K at every node,
    divided by p: f_(j-1) - f_j + c_j |v_j|^(p-2) v_j = b_j/K, where K is
    the largest of the |f_j/w_mid,j| and total/c that E'(v) = N'(u)
    gives.  Every flux and the load are sums of b, so each is allowed
    24 eps sum |b|/K in all.  A flux read off two neighbouring values of
    v is allowed its change under their rounding, 4 eps (|v_j| +
    |v_(j+1)|); a Robin term its change under the rounding of a
    cumulative sum, 4 eps sum |v| (at large alpha the value at a Robin
    node cancels to near zero).  The Robin end is on either side: v is
    summed from it."""
    def spread(x, dx):  # the largest change of |x|^(p-2) x within dx
        return np.maximum(np.abs(momentum(x + dx, p) - momentum(x, p)),
                          np.abs(momentum(x - dx, p) - momentum(x, p)))

    for prob in (_flat(alpha, p), _robin_right(alpha, p)):
        func = discretize(prob, 2000)
        u = 1.0 + 0.5 * np.sin(3.0 * func.mesh.grid) + func.mesh.grid  # positive, lopsided
        v = _inverse_step(func, u)[0]
        b = func.mesh.node_weights * momentum(u, p)
        (j, c), = func.robin_terms
        total = float(np.sum(b))
        k = max(float(np.max(np.abs(((total if j == 0 else 0.0) - np.cumsum(b)[:-1])
                                    / func.mesh.mid_weights))), total / c)
        b /= k
        dv = 4.0 * _EPS * float(np.sum(np.abs(v)))
        d = np.diff(v) / func.mesh.h
        flux = func.mesh.mid_weights * momentum(d, p)
        av = np.abs(v)
        flux_spread = func.mesh.mid_weights * spread(d, 4.0 * _EPS * (av[:-1] + av[1:])
                                                     / func.mesh.h)
        lhs = -b
        lhs[1:] += flux
        lhs[:-1] -= flux
        allowed = np.full(v.size, 24.0 * _EPS * float(np.sum(np.abs(b))))
        allowed[1:] += flux_spread
        allowed[:-1] += flux_spread
        for j, c in func.robin_terms:
            lhs[j] += c * momentum(v[j], p)
            allowed[j] += c * spread(v[j], dv)
        assert np.all(np.abs(lhs) <= allowed), prob.bc_left


@pytest.mark.parametrize("p", [1.1, 2.0, 8.0])
@pytest.mark.parametrize("alpha", [1.0, 1e4])
def test_inverse_step_energy_matches_energy(alpha, p):
    """The energy the inverse step reads off its slopes and fluxes is
    E(v) as energy() forms it from the differences of v, with the Robin
    end at either side."""
    for prob in (_flat(alpha, p), _robin_right(alpha, p)):
        func = discretize(prob, 2000)
        u = 1.0 + 0.5 * np.sin(3.0 * func.mesh.grid) + func.mesh.grid
        v, e = _inverse_step(func, u)
        assert e == pytest.approx(energy(func, v), rel=1e-13)


@pytest.mark.parametrize("alpha,p,lam", [(-3.0, 1.2, LAM_P12_M3), (-10.0, 1.2, LAM_P12_M10)],
                         ids=["flat p=1.2 alpha=-3", "flat p=1.2 alpha=-10"])
def test_march_reaches_the_minimum_at_p12(alpha, p, lam):
    """Near p = 1, with the Robin layer a few cells wide, the march
    converges at or below the quotient a gradient descent reached, and
    within 3e-7 of it."""
    sol = minimize(discretize(_flat(alpha, p), 2000))
    d = sol.diagnostics
    assert d["converged"] and d["iterations"] == 0 and d["steps"] > 0
    assert lam * (1.0 + 3e-7) <= sol.lambda_val <= lam


@pytest.mark.parametrize("prob,max_marches,rel", [
    (_flat(-1.0, 1.5), 4, 1e-4),
    (_flat(-10.0, 3.0), 4, 1e-4),
    # the uniform mesh leaves 3.1e-4 in the two e^(-100 t) boundary layers
    (double_robin_problem(0.5, -10.0, 1.5), 4, 5e-4),
    (_flat(-3.0, 8.0), 4, 1e-4),
], ids=["flat p=1.5", "flat p=3 alpha=-10", "double_robin p=1.5 alpha=-10", "flat p=8 alpha=-3"])
def test_march_far_from_p2(prob, max_marches, rel):
    """Problems far from p = 2 converge within max_marches fine marches
    and agree with shooting."""
    sol = solve_rayleigh(prob, 2000)
    d = sol.diagnostics
    assert d["converged"] and d["steps"] <= max_marches
    lam_s = solve_first_eigenvalue(prob).lambda_val
    assert sol.lambda_val == pytest.approx(lam_s, rel=rel)


@pytest.mark.parametrize("prob,rel", [
    (_flat(-10.0, 1.75), 1e-4),
    (geodesic_ball_problem(1.0, 3, 1.0, -10.0, 1.5), 5e-4),
    (_flat(-3.0, 1.2), 2e-3),
], ids=["flat p=1.75 alpha=-10", "spherical_cap p=1.5 alpha=-10", "flat p=1.2 alpha=-3"])
def test_march_eigenfunction_is_nonnegative(prob, rel):
    """The eigenvector is a product of positive ratios: no node is
    negative, however deep the boundary layer (down to 1e-104 of the
    maximum here).  The eigenvalue agrees with shooting to within the
    mesh error of the layer."""
    sol = solve_rayleigh(prob, 2000)
    assert sol.diagnostics["converged"] and float(np.min(sol.phi)) >= 0.0
    assert sol.lambda_val == pytest.approx(solve_first_eigenvalue(prob).lambda_val, rel=rel)


@pytest.mark.parametrize("prob", [
    _flat(-2.0, 1.03), _flat(-3.0, 1.03), _flat(-2.0, 1.05), _flat(-3.0, 1.05),
    double_robin_problem(0.5, -3.0, 1.05), _flat(-2.0, 1.001),
], ids=["flat p=1.03 alpha=-2", "flat p=1.03 alpha=-3", "flat p=1.05 alpha=-2",
        "flat p=1.05 alpha=-3", "double_robin p=1.05 alpha=-3", "flat p=1.001 alpha=-2"])
def test_march_near_p1(prob):
    """Near p = 1 the ratio u_(j+1)/u_j can pass the float range (at
    p = 1.001 |s|^1000 does, where a float power raises OverflowError):
    every solve still converges with no warning, phi >= 0, and the
    eigenvalue is the quotient of its own eigenvector."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_rayleigh(prob, 2000)
    assert sol.diagnostics["converged"] and float(np.min(sol.phi)) >= 0.0
    assert sol.lambda_val == pytest.approx(quotient(discretize(prob, 2000), sol.phi), rel=1e-12)


def test_march_brackets_the_p2_eigenvalue():
    """At p = 2 the march is below the LAPACK eigenvalue (every ratio
    positive and its end value y > 0) just under it and above it just
    over it, and its dy/dlambda matches a central difference, for one
    Robin end and for two of either sign."""
    for prob in (_flat(-1.0, 2.0), double_robin_problem(0.5, -1.0, 2.0),
                 double_robin_problem(0.5, 1.0, 2.0)):
        func = discretize(prob, 400)
        chain, _ = _chain(func)
        lam = _p2_matrix_eigenpair(func)[1]
        ratios = []
        y, dy = _march(lam - 1e-6, chain, ratios)
        assert min(ratios) > 0.0 and y > 0.0
        end = _march(lam + 1e-6, chain)
        assert end is None or end[0] < 0.0
        d = 1e-5
        fd = (_march(lam + d, chain)[0] - _march(lam - d, chain)[0]) / (2 * d)
        assert dy == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("m", [16, 17, 250, 1000, 2001])
@pytest.mark.parametrize("prob", [
    _flat(-1.0, 1.5), _flat(-10.0, 1.5), geodesic_ball_problem(0.0, 2, 1.0, -2.0, 2.5),
    double_robin_problem(0.5, -0.9, 2.4),
], ids=["flat-1", "flat-10", "disk", "double_robin"])
def test_march_starts_from_coarse_meshes_at_every_m(prob, m):
    """The start comes from two coarse meshes of min(125, n // 4) and
    twice as many cells, for the n cells solved (the half's, on the
    double-Robin interval), whether or not they divide n: not from the
    top of the bracket.  The root is the one found from there."""
    func = discretize(prob, m)
    sol = minimize(func)
    assert sol.diagnostics["seed_iterations"] > 0 and sol.diagnostics["steps"] <= 4
    lam = _march_root(func, math.inf)[0]  # from the top of the bracket
    assert sol.lambda_val == pytest.approx(lam, rel=1e-12)


@pytest.mark.parametrize("prob,max_seed", [
    (geodesic_ball_problem(0.0, 2, 1.0, -0.55, 2.0), 4),
    (geodesic_ball_problem(1.0, 3, 1.0, -0.5, 1.75), 4),
    (_flat(-0.65, 1.75), 4),
    (geodesic_ball_problem(-1.0, 3, 1.0, -0.4, 1.75), 3),
    (double_robin_problem(0.5, -0.75, 2.5), 4),
], ids=["disk p=2", "spherical_cap p=1.75", "flat p=1.75", "hyperbolic_ball p=1.75",
        "double_robin p=2.5"])
def test_march_counts_at_m2000(monkeypatch, prob, max_seed):
    """One fine march, and no more coarse marches than the seed levels
    need: the two coarse levels stop at their first Newton step of at
    most _COARSE_STEP max(1, |lambda|), the fine level at its first of
    at most sqrt(_LAMBDA_RTOL) max(1, |lambda|), none with a confirming
    march.  The root is the one found from the top of the bracket.  No
    root-find march, coarse or fine, forms a ratio.  Only the fine
    level's eigenvector is formed, by one more march at the returned
    lambda, once phi is read: it forms one ratio per cell of the solved
    mesh."""
    marches = []

    def spy(lam, chain, ratios=None):
        end = _march(lam, chain, ratios)
        marches.append((lam, len(chain[0]), ratios is not None, len(ratios or ()), end))
        return end

    monkeypatch.setattr(probin.rayleigh, "_march", spy)
    func = discretize(prob, 2000)
    sol = minimize(func)
    d = sol.diagnostics
    assert d["converged"] and d["steps"] == 1
    assert d["seed_iterations"] <= max_seed
    assert d["evals"] == d["seed_iterations"] + d["steps"] == len(marches)
    assert not any(formed for _, _, formed, _, _ in marches)
    fine = marches[-1][1]
    sol.phi
    assert len(marches) == d["evals"] + 1
    lam, nodes, formed, reached, end = marches[-1]
    assert lam == sol.lambda_val and formed and end is not None
    assert nodes == fine == reached + 1 == _solved(func).mesh.grid.size
    assert sol.lambda_val == pytest.approx(_march_root(func, math.inf)[0], rel=1e-12)


def _two_robin(alpha_left, alpha_right, p):
    return SturmProblem(0.0, 1.0, p, const_weight(), BoundaryCondition.robin(alpha_left),
                        BoundaryCondition.robin(alpha_right))


def _solved(func):
    """The functional that minimize marches on: the half of a mirror
    image, func itself otherwise."""
    if _mirror_image(func):
        return DiscreteFunctional(func.mesh.half, func.p, func.robin_terms[:1])
    return func


def _eigenvector(ratios, flip):
    """The product of a march's ratios, max-normalized, flipped back to
    the mesh's node order where the chain runs from right to left."""
    log_u = np.concatenate(([0.0], np.cumsum(np.log(np.minimum(ratios, _HUGE)))))
    u = np.exp(log_u - np.max(log_u))
    return u[::-1] if flip else u


def _assert_phi_is_the_march_at_the_root(prob, m):
    """Solve prob on m cells; a march at the returned lambda reaches the
    end node, and phi is the product of its ratios (capped at _HUGE),
    normalized.  The half of a mirror image is marched.  Returns the
    solve's diagnostics."""
    func = discretize(prob, m)
    sol = minimize(func)
    solved = _solved(func)
    chain, flip = _chain(solved)
    ratios = []
    end = _march(sol.lambda_val, chain, ratios)
    assert sol.diagnostics["converged"] and end is not None
    assert len(ratios) == solved.mesh.grid.size - 1
    u = _eigenvector(ratios, flip)
    assert float(np.max(np.abs(sol.phi[:u.size] - u))) <= 1e-14
    return sol.diagnostics


_MOVED_CASES = ([(family, alpha) for family in FAMILIES for alpha in (-0.3, -3.0)]
                + [("double_robin", -10.0), ("double_robin", -100.0)]
                + [("two_robin", -1.0, 3.0), ("two_robin", 3.0, -0.1)])


def _case_problem(case, p):
    family, *alphas = case
    if family == "two_robin":
        return _two_robin(*alphas, p)
    return _spec(family, p, alphas[0]).build()


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 8.0])
@pytest.mark.parametrize("case", _MOVED_CASES, ids=lambda case: " ".join(map(str, case)))
def test_moved_eigenvector_is_the_march_at_the_root(case, p):
    """The fine root-find moves lambda by its last Newton step and makes
    no march there.  phi, formed on read, is the product of the ratios
    of one march at that moved lambda, which reaches the end node: on
    every bench family, deep double-Robin layers and Robin ends of
    opposite signs, at m = 2000.  For p >= 2 and |alpha| <= 3 the root
    takes one fine march."""
    d = _assert_phi_is_the_march_at_the_root(_case_problem(case, p), 2000)
    if p >= 2.0 and max(map(abs, case[1:])) <= 3.0:
        assert d["steps"] == 1


# the cases above at m = 250 and odd m = 2001, where the coarse meshes'
# nodes are not nodes of the solved mesh, and the flat deep layers of
# test_deep_layer_march on those and at m = 2000: at p = 1.001 all
# ratios but one pass the float range
_ROOT_SOLVES = ([(case, p, m) for case in _MOVED_CASES for p in (1.1, 1.5, 2.0, 3.0, 8.0)
                 for m in (250, 2001)]
                + [(("flat", alpha), p, m) for alpha, p in ((-100.0, 1.5), (-10.0, 1.1), (-2.0, 1.001))
                   for m in (250, 2000, 2001)])


@pytest.mark.parametrize("case,p,m", _ROOT_SOLVES,
                         ids=[" ".join(map(str, (*case, p, m))) for case, p, m in _ROOT_SOLVES])
def test_march_at_the_root_reaches_the_end(case, p, m):
    _assert_phi_is_the_march_at_the_root(_case_problem(case, p), m)


@pytest.mark.parametrize("p", [1.1, 2.0, 5.0])
def test_march_end_derivative_is_its_norm_sum(p):
    """The march carries dy/dlambda as dz, one node at a time.  Unrolled,
    its end value dy_m is -sum_j nw_j (u_j/u_m)^p over the product u of
    the same march's ratios, the exact derivative of Newton's step.  They
    agree within 1e-12, on chains run either way."""
    for prob in (_flat(-1.0, p), _robin_right(-1.0, p), _spec("disk", p, -1.0).build(),
                 _two_robin(3.0, -0.1, p), double_robin_problem(0.5, -1.0, p)):
        func = discretize(prob, 2000)
        chain, _ = _chain(func)
        lam = solve_rayleigh(prob, 2000).lambda_val
        ratios = []
        _, dy = _march(lam - 1e-3 * max(1.0, abs(lam)), chain, ratios)
        log_u = np.concatenate(([0.0], np.cumsum(np.log(ratios))))
        norm = float(np.sum(np.asarray(chain[0]) * np.exp(p * (log_u - log_u[-1]))))
        assert dy == pytest.approx(-norm, rel=1e-12), prob


@pytest.mark.parametrize("p,alpha,lam,steps,infinite", [
    (1.5, -100.0, -227958.9624380261, 4, 0),
    (1.1, -10.0, -31446.123200588103, 3, 0),
    (1.001, -2.0, -3969.4805494133575, 2, 1999),
], ids=["flat p=1.5 alpha=-100", "flat p=1.1 alpha=-10", "flat p=1.001 alpha=-2"])
def test_deep_layer_march(monkeypatch, p, alpha, lam, steps, infinite):
    """Flat Robin layers at m = 2000 where u spans far more than the
    float range.  At p = 1.5, alpha = -100 no confirming march is made
    (a root-find to a step of 1e-13 takes 5 fine marches), and at
    p = 1.1, alpha = -10, whose third Newton step is already below
    1e-13, none is added.  Reading phi makes one march, at the returned
    lambda, which reaches the end node; at p = 1.001 all its ratios but
    one pass the float range, and are capped at _HUGE.  Every solve
    converges with phi >= 0 and no warning, to the lambda pinned here (a
    root-find to a step of 1e-13) within 1e-12."""
    seen = []

    def spy(lam, chain, ratios=None):
        end = _march(lam, chain, ratios)
        seen.append((lam, int(np.count_nonzero(np.isinf(ratios or []))), end is not None))
        return end

    monkeypatch.setattr(probin.rayleigh, "_march", spy)
    sol = solve_rayleigh(_flat(alpha, p), 2000)
    d = sol.diagnostics
    del seen[:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = sol.phi
    assert d["converged"] and float(np.min(phi)) >= 0.0 and np.all(np.isfinite(sol.psi))
    assert sol.lambda_val == pytest.approx(lam, rel=1e-12)
    assert d["steps"] == steps and seen == [(sol.lambda_val, infinite, True)]


@pytest.mark.parametrize("p,alpha", [(1.001, -2.0), (1.001, -100.0), (1.002, -3.0)])
def test_infinite_ratios_are_capped(p, alpha):
    """Marched from the Neumann end, u grows toward a Robin end with
    alpha < 0, and near p = 1 its ratios pass the float range.  Capped
    at _HUGE, each adds log(_HUGE) to log u, which stays finite and
    nondecreasing, and phi, formed with no warning, is exp of it less
    its maximum."""
    func = discretize(_robin_right(alpha, p), 2000)
    sol = minimize(func)
    chain, flip = _chain(func)
    ratios = []
    _march(sol.lambda_val, chain, ratios)
    ratios = np.array(ratios)
    assert sol.diagnostics["converged"] and not flip and np.any(np.isinf(ratios))
    log_u = np.concatenate(([0.0], np.cumsum(np.log(np.minimum(ratios, _HUGE)))))
    assert np.all(np.isfinite(log_u)) and np.all(np.diff(log_u) >= 0.0)
    assert np.diff(log_u)[np.isinf(ratios)] == pytest.approx(math.log(_HUGE), rel=1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = sol.phi
    assert phi[-1] == 1.0 and phi == pytest.approx(np.exp(log_u - log_u[-1]), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("p,alpha,m", [
    (1.5, -10.0, 2000), (1.3, -3.0, 2000), (2.5, -0.75, 2000), (2.5, 0.75, 2000),
    (1.1, 1e4, 2000), (1.3, 1e4, 2000), (2.5, 0.75, 16), (2.5, 0.75, 32),
    (5.0, 0.75, 2001), (8.0, 1e4, 2001),
])
def test_two_robin_eigenfunction_is_even(p, alpha, m):
    """The double-Robin problem is its own mirror image, and so is its
    eigenvector: the half problem's, mirrored at the middle node (even
    m) or the middle cell (odd m).  It is exactly even, however deep its
    boundary layers, with phi >= 0, and the eigenvalue is the quotient
    of its own eigenvector.  For alpha < 0 it solves
    E'(u) = lambda N'(u) to 1e-8 of lambda N'(u).  Near the Dirichlet
    limit the half's inverse power method takes at most 10 iterations."""
    prob = double_robin_problem(0.5, alpha, p)
    func = discretize(prob, m)
    sol = solve_rayleigh(prob, m)
    d = sol.diagnostics
    assert d["converged"] and float(np.min(sol.phi)) >= 0.0
    assert np.array_equal(sol.phi, sol.phi[::-1])
    assert sol.lambda_val == pytest.approx(quotient(func, sol.phi), rel=1e-12)
    if alpha < 0.0:
        u = _normalize(func, sol.phi)[0]
        assert sol.residual <= 1e-8 * float(np.linalg.norm(sol.lambda_val * _norm_grad(func, u)))
    if alpha >= 1e4:
        assert d["evals"] <= 10


def test_two_robin_negative_alpha_marches_at_most_six_times():
    """With both coefficients negative u grows from the middle out to
    each end, and the half problem's march runs that way, from its
    Neumann node to its Robin end: at most 6 fine marches.  The
    diagnostics' m is the full mesh's cell count, not the half's."""
    for p in (1.1, 1.3, 1.5, 2.5):
        for alpha in (-3.0, -10.0, -100.0):
            d = solve_rayleigh(double_robin_problem(0.5, alpha, p), 2000).diagnostics
            assert d["converged"] and d["steps"] <= 6 and d["m"] == 2000, (p, alpha)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("alpha_left,alpha_right", [
    (1.0, 3.0), (100.0, 300.0), (-1.0, 3.0), (3.0, -0.1), (-0.2, 0.5),
])
def test_two_unequal_robin_ends_agree_with_shooting(alpha_left, alpha_right, p):
    """Two Robin ends with unequal coefficients are no mirror image: the
    one chain runs toward the smaller coefficient.  Of opposite signs the
    eigenvalue may have either sign (alpha = (-0.2, 0.5) at p = 3 gives
    lambda < 0, at p = 2 lambda > 0), and shooting finds its side by a
    trial at lambda = 0."""
    prob = _two_robin(alpha_left, alpha_right, p)
    sol = solve_rayleigh(prob, 2000)
    assert sol.diagnostics["converged"] and float(np.min(sol.phi)) >= 0.0
    assert sol.lambda_val == pytest.approx(solve_first_eigenvalue(prob).lambda_val, rel=1e-6)


# 1 to 40 nodes, and around 2^11 (the m = 2000 meshes have 2001 nodes)
_TRIDIAGONAL_SIZES = list(range(1, 41)) + [2000, 2001, 2047, 2048, 2049, 2050]


def _random_chain(rng, n):
    """A p = 2 march chain of n nodes on [0, 1]: node weights h times
    U(0.5, 1.5), mid weights U(0.5, 1.5), launch and end Robin
    coefficients U(-2, 2)."""
    h = 1.0 / max(n - 1, 1)
    c = rng.uniform(-2.0, 2.0, 2)
    return (list(h * rng.uniform(0.5, 1.5, n)), list(rng.uniform(0.5, 1.5, n - 1)),
            float(c[0]), float(c[1]), h, 2.0)


def _chain_matrix(chain, lam):
    """diag and off of the symmetric tridiagonal K + C - lam M of a p = 2
    chain, and diag's magnitude before its terms cancel."""
    nw, mid, c_launch, c_end, h, _ = chain
    nw, k = np.asarray(nw), np.asarray(mid) / h
    diag, size = -lam * nw, abs(lam) * nw
    for d in (diag, size):
        d[:-1] += k
        d[1:] += k
    diag[0] += c_launch
    diag[-1] += c_end
    size[0] += abs(c_launch)
    size[-1] += abs(c_end)
    return diag, -k, size


def _eigvals(diag, off):
    return eigvalsh_tridiagonal(diag, off) if diag.size > 1 else diag.copy()


def _chain_eigvals(chain):
    """The eigenvalues of K u = lam M u, symmetrized by the mass square root."""
    diag, off, _ = _chain_matrix(chain, 0.0)
    s = 1.0 / np.sqrt(np.asarray(chain[0]))
    return _eigvals(diag * s * s, off * s[:-1] * s[1:])


@pytest.mark.parametrize("n", _TRIDIAGONAL_SIZES)
def test_factor_solve_residual_against_dense(n):
    """At p = 2 the march is the LDL^T elimination of K + C - lam M from
    its launch node: pivot j is w_mid,j r_j / h, and the last is y_m.  The
    product of its ratios u solves every row but the end row, whose
    residual is y_m u_end, within 8 eps of the row's terms summed in
    magnitude (dense product), below the first eigenvalue and just under
    it."""
    rng = np.random.default_rng(n)
    chain = _random_chain(rng, n)
    lam1 = float(_chain_eigvals(chain)[0])
    for lam in (lam1 - 1.0 - abs(lam1), lam1 - 1e-6 * (1.0 + abs(lam1))):
        ratios = []
        end = _march(lam, chain, ratios)
        assert end is not None and all(r > 0.0 for r in ratios)
        u = np.concatenate(([1.0], np.cumprod(ratios)))
        diag, off, size = _chain_matrix(chain, lam)
        a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        residual = a @ u
        residual[-1] -= end[0] * u[-1]
        terms = size * u
        terms[:-1] += np.abs(off) * u[1:]
        terms[1:] += np.abs(off) * u[:-1]
        assert np.all(np.abs(residual) <= 8.0 * _EPS * terms), lam


@pytest.mark.parametrize("n", _TRIDIAGONAL_SIZES)
def test_factor_pivots_have_the_inertia_of_the_matrix(n):
    """At p = 2 the march's pivots (w_mid,j r_j / h, then y_m) have the
    inertia of K + C - lam M (LAPACK): it reaches the end with y_m > 0
    exactly when the matrix is positive definite, and where it stops at
    node k the leading k x k block is positive definite and the leading
    (k + 1) x (k + 1) block is not.  Checked for lam below the first
    eigenvalue, between the first two and at random, on every matrix and
    block with no eigenvalue within 1e-12 |A| of zero (scaled by the mass
    square root), where rounding could flip the sign."""
    rng = np.random.default_rng(10_000 + n)
    chain = _random_chain(rng, n)
    lams = _chain_eigvals(chain)
    top = float(lams[min(n - 1, 3)]) + 1.0
    choices = [lams[0] - 1.0, 0.5 * (lams[0] + lams[1]) if n > 1 else lams[0] + 1.0]
    choices += list(rng.uniform(lams[0] - 1.0, top, 4))
    checked = 0

    def clear(eig):
        return float(np.min(np.abs(eig))) > 1e-12 * float(np.max(np.abs(eig)))

    s = 1.0 / np.sqrt(np.asarray(chain[0]))
    for lam in map(float, choices):
        diag, off, _ = _chain_matrix(chain, lam)
        diag, off = diag * s * s, off * s[:-1] * s[1:]  # congruent: the same inertia
        eig = _eigvals(diag, off)
        ratios = []
        end = _march(lam, chain, ratios)
        k = len(ratios)
        if end is not None:
            if not clear(eig):
                continue
            assert (end[0] > 0.0) == bool(np.all(eig > 0.0)), lam
        else:
            block = _eigvals(diag[:k + 1], off[:k])
            if not clear(block):
                continue
            assert np.any(block < 0.0), lam
            assert k == 0 or bool(np.all(_eigvals(diag[:k], off[:k - 1]) > 0.0)), lam
        checked += 1
    assert checked >= 4


def test_rayleigh_diagnostics_schema():
    sol = solve_rayleigh(geodesic_ball_problem(-1.0, 3, 1.0, 1.0, 3.0), 2000)
    d = sol.diagnostics
    assert set(d) == {"iterations", "steps", "seed_iterations", "evals", "converged", "lambda_tol",
                      "m", "phase_s"}
    assert d["m"] == 2000 and d["converged"] and d["lambda_tol"] == _LAMBDA_RTOL
    assert d["seed_iterations"] == 0
    assert d["steps"] == d["iterations"] > 0  # alpha > 0: inverse power iterations
    assert set(d["phase_s"]) == {"seed", "solve"}
    assert all(t >= 0.0 for t in d["phase_s"].values())
    # the march route reports the same keys and the same tolerance
    march = solve_rayleigh(geodesic_ball_problem(-1.0, 3, 1.0, -1.0, 3.0), 2000).diagnostics
    assert set(march) == set(d) and march["iterations"] == 0
    assert march["lambda_tol"] == _LAMBDA_RTOL


def test_shoot_diagnostics_schema():
    # both solvers report steps, converged and phase_s
    sol = solve_first_eigenvalue(geodesic_ball_problem(-1.0, 3, 1.0, 1.0, 3.0))
    d = sol.diagnostics
    assert d["converged"] is True
    assert d["steps"] == d["bracket_steps"] + d["bisections"] > 0
    assert set(d["phase_s"]) == {"bracket", "bisect", "finish"}
    assert all(t >= 0.0 for t in d["phase_s"].values())
    assert {"bracket", "integrations", "mismatch", "lp_norm", "phi_underflow_nodes",
            "rk_steps", "lambda_tol"} <= set(d)


def test_minimize_dirichlet_both_ends():
    # Dirichlet is the alpha -> +inf limit: alpha = 1e6 at both ends of
    # [0, 1] is within 1e-3 of pi^2, with phi all but zero at the ends
    sol = solve_rayleigh(double_robin_problem(0.5, 1e6, 2.0), 2000)
    assert sol.lambda_val == pytest.approx(mixed_dn_lambda(2.0, 0.5), abs=1e-3)
    assert sol.phi[0] < 1e-5 and sol.phi[-1] < 1e-5


def test_minimize_pure_neumann_gives_zero():
    prob = SturmProblem(0.0, 1.0, 2.0, const_weight(),
                        BoundaryCondition.neumann(), BoundaryCondition.neumann())
    sol = solve_rayleigh(prob, 200)
    assert abs(sol.lambda_val) < 1e-8
    assert np.ptp(sol.phi) < 1e-3  # essentially constant


def test_negative_alpha_gives_negative_quotient():
    prob = _flat(-1.0, 2.0)
    func = discretize(prob, 500)
    assert quotient(func, np.ones(501)) < 0.0
    sol = solve_rayleigh(prob, 2000)
    assert sol.lambda_val == pytest.approx(flat_robin_lambda(1.0, -1.0), abs=2e-3)
    assert sol.lambda_val < 0


def test_descent_is_monotone(monkeypatch):
    """The inverse power method lowers the quotient at every step, up to
    rounding, and returns the last quotient it accepted.  A spy on
    _inverse_step forms each step's quotient as the method does: E(v)
    over N(v)."""
    quotients = []

    def spy(func, u):
        v, e = _inverse_step(func, u)
        quotients.append(e / norm_p(func, v))
        return v, e

    monkeypatch.setattr(probin.rayleigh, "_inverse_step", spy)
    sol = minimize(discretize(_flat(1.0, 3.0), 250))
    assert sol.diagnostics["converged"] and len(quotients) == sol.diagnostics["iterations"] > 1
    assert np.all(np.diff(quotients) <= 4 * _EPS * np.abs(quotients[:-1]))
    accepted = np.minimum.accumulate(quotients)
    assert sol.lambda_val == accepted[-1] and np.all(np.diff(accepted) <= 0.0)


def _inverse_power_reference(func):
    """The inverse power method from the normalized constant, run on
    until an iteration lowers the quotient by at most 1e-15 of it or
    does not lower it: the quotient and the iterations taken."""
    u, q = _normalize(func, np.ones(func.mesh.grid.size))[0], _constant_quotient(func)
    for iters in range(1, 61):
        v, e = _inverse_step(func, u)
        v, n = _normalize(func, v)
        fall = q - e / n
        if fall <= 0.0:
            return q, iters
        u, q = v, e / n
        if fall <= 1e-15 * q:
            return q, iters
    raise AssertionError("the reference loop took more than 60 iterations")


@pytest.mark.parametrize("alpha", [0.01, 1.0, 1e6])
@pytest.mark.parametrize("p", [1.001, 1.05, 1.5, 2.0, 3.0, 8.0])
@pytest.mark.parametrize("family", sorted(set(FAMILIES) - {"double_robin"}))
def test_inverse_power_stops_at_the_reference_minimum(family, p, alpha):
    """minimize stops once an iteration's fall is at most 1e-13 of q, or
    once its last three falls shrink at a steady linear rate and the
    geometric tail of that rate is within 1e-13 of q.  Either way lambda
    is within 2e-13 of a loop run on to a fall of 1e-15, in no more
    iterations than that loop.  The hyperbolic ball at p = 1.05,
    alpha = 1e6 is the case where a rate read off two falls alone
    stopped after 2 iterations, 9.7e-7 off."""
    func = discretize(_spec(family, p, alpha).build(), 2000)
    sol = minimize(func)
    lam_ref, ref_iters = _inverse_power_reference(func)
    assert sol.diagnostics["converged"]
    assert abs(sol.lambda_val - lam_ref) <= 2e-13 * abs(lam_ref)
    assert sol.diagnostics["iterations"] <= ref_iters


@pytest.mark.parametrize("alpha", [0.01, 1.0, 1e4])
@pytest.mark.parametrize("p", [1.001, 1.5, 3.0, 8.0])
def test_inverse_step_receives_no_negative_entry(monkeypatch, p, alpha):
    """_inverse_step forms N'(u)/p as node_weights u^(p-1), with no sign,
    which is node_weights |u|^(p-2) u only where every entry of u is >= 0
    and none is -0.0.  A spy checks every iterate the solves hand it, on
    every family with one positive Robin end (the double-Robin interval
    on its half), also at p = 1.001 and alpha = 1e4, where entries
    underflow to 0."""
    iterates = []

    def spy(func, u):
        iterates.append((u.copy(), func.p))
        return _inverse_step(func, u)

    monkeypatch.setattr(probin.rayleigh, "_inverse_step", spy)
    for family in sorted(FAMILIES):
        minimize(discretize(_spec(family, p, alpha).build(), 2000))
    assert len(iterates) >= len(FAMILIES)
    for u, q in iterates:
        assert np.all(u >= 0.0) and not np.signbit(u).any()
        assert np.array_equal(u ** (q - 1.0), momentum(u, q))
    if (p, alpha) == (1.001, 1e4):
        assert any(not u.all() for u, _ in iterates)


@pytest.mark.parametrize("prob,label", [
    (_flat(1.0, 2.0), "flat p=2"),
    (geodesic_ball_problem(0.0, 2, 1.0, 1.0, 2.0), "disk p=2"),
    (_flat(-1.0, 1.5), "flat p=1.5 negative"),
])
def test_mesh_convergence_ladder(prob, label):
    lams = [solve_rayleigh(prob, m).lambda_val for m in (250, 500, 1000, 2000)]
    diffs = np.abs(np.diff(lams))
    assert diffs[0] >= 1.5 * diffs[1]
    assert diffs[1] >= 1.5 * diffs[2]


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_cross_solver_agreement_sample(p):
    prob = geodesic_ball_problem(-1.0, 3, 1.0, 1.0, p)
    lam_s = solve_first_eigenvalue(prob).lambda_val
    lam_r = solve_rayleigh(prob, 2000).lambda_val
    assert abs(lam_s - lam_r) / max(1.0, abs(lam_s)) <= 1e-3


def test_quotient_of_shooting_eigenfunction():
    prob = _flat(1.0, 2.0)
    sol = solve_first_eigenvalue(prob)
    func = discretize(prob, 2000)
    u = np.interp(func.mesh.grid, sol.grid, sol.phi)
    assert quotient(func, u) == pytest.approx(sol.lambda_val, abs=1e-3)
    # any admissible trial upper-bounds the minimum for alpha > 0
    assert quotient(func, u) >= solve_rayleigh(prob, 2000).lambda_val - 1e-9


def test_package_solves_without_scipy():
    """scipy is a test dependency only: a fresh interpreter that imports
    probin and runs p != 2 Rayleigh solves on both routes must never load
    it.  alpha = 1 takes the inverse power method; alpha = -1 and
    Neumann at both ends take the march (counted here)."""
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, probin, probin.rayleigh as r\n"
        "calls = []\n"
        "march = r._march\n"
        "r._march = lambda lam, chain, ratios=None: calls.append(1) or march(lam, chain, ratios)\n"
        "neumann = probin.BoundaryCondition.neumann()\n"
        "for alpha, marches in ((1.0, False), (-1.0, True)):\n"
        "    spec = probin.ProblemSpec.from_dict({'type': 'geodesic_ball', 'R': 1.0, 'kappa': -1.0,"
        " 'n': 3, 'alpha': alpha, 'p': 2.5})\n"
        "    sol = probin.rayleigh_spec(spec, 2000)\n"
        "    assert sol.diagnostics['converged'] and bool(calls) == marches\n"
        "calls.clear()\n"
        "sol = probin.solve_rayleigh(probin.SturmProblem(0.0, 1.0, 2.5, probin.const_weight(),"
        " neumann, neumann), 2000)\n"
        "assert sol.diagnostics['converged'] and calls and abs(sol.lambda_val) < 1e-8\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
