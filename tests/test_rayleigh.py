"""Variational solver: discretization, quotient, descent, convergence."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from probin.coeffs import ModelParams, const_weight
from probin.errors import DomainError
from probin.problems import (
    BoundaryCondition,
    SturmProblem,
    double_robin_problem,
    geodesic_ball_problem,
    inradius_model_problem,
)
from probin.rayleigh import (
    MinimizeConfig,
    discretize,
    energy,
    minimize,
    norm_p,
    quotient,
    solve_rayleigh,
)
from probin.shoot import solve_first_eigenvalue

from oracles import flat_robin_lambda, mixed_dn_lambda

FLAT_ANCHOR = 0.740173884394967


def _flat(alpha, p, r_len=1.0):
    return inradius_model_problem(ModelParams(0.0, 0.0, 2), r_len, alpha, p)


def test_trapezoid_node_weights():
    func = discretize(_flat(1.0, 2.0), 16)
    h = 1.0 / 16
    expected = np.full(17, h)
    expected[0] = expected[-1] = h / 2
    assert func.node_weights == pytest.approx(expected, rel=1e-15)


def test_robin_terms_placement():
    assert discretize(_flat(1.0, 2.0), 32).robin_terms == [(0, 1.0)]
    func = discretize(double_robin_problem(1.0, 1.0, 2.0), 32)
    assert func.robin_terms == [(0, 1.0), (32, 1.0)]
    ball = discretize(geodesic_ball_problem(-1.0, 2, 1.0, 2.0, 2.0), 32)
    # boundary coefficient carries the weight at the Robin node
    assert ball.robin_terms == [(32, pytest.approx(2.0 * math.sinh(1.0)))]
    assert ball.node_weights[0] == 0.0  # singular center node


def test_m_floor():
    with pytest.raises(DomainError):
        discretize(_flat(1.0, 2.0), 8)


def test_quotient_constant_trial():
    func = discretize(_flat(0.5, 2.0, r_len=2.0), 64)
    u = np.ones(65)
    assert quotient(func, u) == pytest.approx(0.25, rel=1e-14)  # alpha / R


def test_quotient_ramp_dirichlet():
    # the ramp vanishes at the alpha = 1e6 Robin end, so it pays no boundary term
    func = discretize(_flat(1e6, 2.0), 2000)
    u = func.grid.copy()
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
    k = func.mid_weights / func.h
    diag = np.zeros(func.grid.size)
    diag[:-1] += k
    diag[1:] += k
    for j, c in func.robin_terms:
        diag[j] += c
    s = 1.0 / np.sqrt(func.node_weights)
    vals, vecs = eigh_tridiagonal(diag * s * s, -k * s[:-1] * s[1:],
                                  select="i", select_range=(0, 0))
    u = vecs[:, 0] * s
    e = np.sum(k * np.diff(u) ** 2) + sum(c * u[j] ** 2 for j, c in func.robin_terms)
    return vals[0], e / np.sum(func.node_weights * u * u)


def test_minimize_matches_tridiagonal_eigensolver():
    """p = 2: the discrete minimum has a closed matrix form; the minimizer
    must find the same value to high accuracy."""
    func = discretize(_flat(1.0, 2.0), 400)
    sol = minimize(func)
    assert sol.lambda_val == pytest.approx(_p2_matrix_eigenpair(func)[0], rel=1e-9, abs=1e-10)


@pytest.mark.parametrize("prob", [
    _flat(1.0, 2.0), _flat(-1.0, 2.0), double_robin_problem(0.5, 1.0, 2.0),
], ids=["flat+", "flat-", "double_robin"])
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


@pytest.mark.parametrize("alpha,p", [(-3.0, 1.2), (-10.0, 1.2), (1e4, 1.1)],
                         ids=["flat p=1.2 alpha=-3", "flat p=1.2 alpha=-10", "flat p=1.1 alpha=1e4"])
def test_descent_finishes_when_newton_gives_up(alpha, p):
    """Here Newton gives up, continuation in p included, and 4, 70 and 59
    descent iterations follow; the projected descent must converge and
    lower the quotient further."""
    sol = minimize(discretize(_flat(alpha, p), 2000), config=MinimizeConfig(track_history=True))
    d = sol.diagnostics
    assert d["iterations"] > 1 and d["converged"]
    # the descent appends an entry per accepted step, and every one lies
    # strictly below the last, so the final quotient is below the one
    # d["iterations"] entries back whether or not the last step was accepted
    hist = d["quotient_history"]
    assert hist[-1] == sol.lambda_val < hist[-d["iterations"]]


@pytest.mark.parametrize("prob,max_steps", [
    (_flat(-1.0, 1.5), 15),  # tangent overshoots through zero: secant cells
    (_flat(-10.0, 3.0), 12),  # seed's boundary layer from the mapped Robin parameter
    (geodesic_ball_problem(-1.0, 3, 1.0, 100.0, 5.0), 20),  # indefinite: shifted
    (geodesic_ball_problem(-1.0, 3, 1.0, 1.0, 8.0), 20),  # step capped at the center
    (_flat(-3.0, 8.0), 150),  # stalls from the p = 2 seed: continued in p
], ids=["flat p=1.5", "flat p=3 alpha=-10", "ball p=5 alpha=100", "ball p=8", "flat p=8 alpha=-3"])
def test_newton_far_from_p2(prob, max_steps):
    """Each of Newton's safeguards keeps one of these off the descent and
    within max_steps.  Without it they took 225 steps and 121 descent
    iterations, 23, 29 and 29 steps, and 200 000 descent iterations
    without converging.  All agree with shooting."""
    sol = solve_rayleigh(prob, 2000)
    d = sol.diagnostics
    assert d["converged"] and d["iterations"] == 0 and d["steps"] <= max_steps
    lam_s = solve_first_eigenvalue(prob).lambda_val
    assert sol.lambda_val == pytest.approx(lam_s, rel=1e-4)


def test_rayleigh_diagnostics_schema():
    sol = solve_rayleigh(geodesic_ball_problem(-1.0, 3, 1.0, 1.0, 3.0), 2000)
    d = sol.diagnostics
    assert d["m"] == 2000 and d["converged"]
    assert d["seed_iterations"] > 0
    assert d["steps"] >= d["iterations"] >= 0
    assert set(d["phase_s"]) == {"seed", "newton", "finish"}
    assert all(t >= 0.0 for t in d["phase_s"].values())
    assert d["grad_norm"] == sol.residual


def test_shoot_diagnostics_schema():
    # both solvers report steps, converged and phase_s
    sol = solve_first_eigenvalue(geodesic_ball_problem(-1.0, 3, 1.0, 1.0, 3.0))
    d = sol.diagnostics
    assert d["converged"] is True
    assert d["steps"] == d["bracket_steps"] + d["bisections"] > 0
    assert set(d["phase_s"]) == {"bracket", "bisect", "finish"}
    assert all(t >= 0.0 for t in d["phase_s"].values())
    assert {"bracket", "integrations", "mismatch", "lp_norm", "phi_underflow_nodes",
            "rk_steps"} <= set(d)


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


def test_descent_is_monotone():
    func = discretize(_flat(1.0, 3.0), 250)
    sol = minimize(func, config=MinimizeConfig(track_history=True))
    hist = sol.diagnostics["quotient_history"]
    assert np.all(np.diff(hist) <= 1e-14 * np.maximum(1.0, np.abs(hist[:-1])))


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
    u = np.interp(func.grid, sol.grid, sol.phi)
    assert quotient(func, u) == pytest.approx(sol.lambda_val, abs=1e-3)
    # any admissible trial upper-bounds the minimum for alpha > 0
    assert quotient(func, u) >= solve_rayleigh(prob, 2000).lambda_val - 1e-9


def test_package_solves_without_scipy():
    """scipy is a test dependency only: a fresh interpreter that imports
    probin and runs a p != 2 Rayleigh solve must never load it."""
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, probin\n"
        "spec = probin.ProblemSpec.from_dict({'type': 'geodesic_ball', 'R': 1.0, 'kappa': -1.0,"
        " 'n': 3, 'alpha': 1.0, 'p': 2.5})\n"
        "sol = probin.rayleigh_spec(spec, 2000)\n"
        "assert sol.diagnostics['converged']\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
