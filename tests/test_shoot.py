"""Shooting solver: momentum map, trajectories, eigenvalues."""

import math

import numpy as np
import pytest

import probin.shoot
from probin._kernels import rk4_path
from probin.coeffs import ModelParams
from probin.errors import ToleranceFailure
from probin.problems import (
    double_robin_problem,
    geodesic_ball_problem,
    inradius_model_problem,
)
from probin.shoot import (
    ShootConfig,
    integrate,
    inverse_momentum,
    momentum,
    robin_mismatch,
    solve_first_eigenvalue,
)

from oracles import disk_robin_lambda, flat_robin_lambda

FLAT_ANCHOR = 0.740173884394967       # flat_robin_lambda(1, 1)
FLAT_ANCHOR_NEG = -1.4392288398906454  # flat_robin_lambda(1, -1)


def _flat(alpha, p, r_len=1.0):
    return inradius_model_problem(ModelParams(0.0, 0.0, 2), r_len, alpha, p)


def test_momentum_examples():
    assert momentum(-2.0, 3.0) == pytest.approx(-4.0, rel=1e-15)
    assert inverse_momentum(-4.0, 3.0) == pytest.approx(-2.0, rel=1e-15)
    x = np.linspace(-2.0, 2.0, 9)
    assert np.all(momentum(x, 2.0) == x)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.5])
def test_momentum_bijection(p):
    rng = np.random.default_rng(3)
    x = rng.uniform(-5.0, 5.0, 64)
    assert inverse_momentum(momentum(x, p), p) == pytest.approx(x, rel=1e-12)
    assert momentum(0.0, p) == 0.0


def test_trajectory_dirichlet_hit():
    # lam = (pi/2)^2 turns the far Robin end into a Dirichlet node
    traj = integrate(_flat(1.0, 2.0), (math.pi / 2) ** 2)
    assert abs(traj.phi[-1]) < 1e-6
    assert traj.grid[0] == 1.0 and traj.grid[-1] == 0.0  # launched at the Neumann end


def test_trajectory_constant_at_lambda_zero():
    traj = integrate(_flat(1.0, 2.0), 0.0)
    assert np.all(traj.phi == 1.0)
    assert np.all(traj.psi == 0.0)
    assert not traj.crossed


def test_trajectory_robin_ratio_at_eigenvalue():
    traj = integrate(_flat(1.0, 2.0), FLAT_ANCHOR)
    assert traj.psi[-1] / momentum(traj.phi[-1], 2.0) == pytest.approx(1.0, abs=1e-5)


def test_trajectory_rescaled_past_overflow_cap():
    # alpha = -30: phi = cosh(k(1-x)) grows by cosh(30) ~ 5e12 > 1e12, so
    # the path is rescaled on the way and still reaches the Robin node
    lam = flat_robin_lambda(1.0, -30.0)
    traj = integrate(_flat(-30.0, 2.0), lam)
    assert traj.grid[-1] == 0.0 and traj.grid.size == 4097
    assert not traj.crossed
    assert traj.phi[-1] / traj.phi[0] == pytest.approx(math.cosh(math.sqrt(-lam)), rel=1e-6)


def _nan_path(crossed):
    def rk4_path(phi0, psi0, lam, pm1, qm1, hs, ld, out_phi, out_psi):
        out_phi[:] = np.nan
        out_psi[:] = np.nan
        return 1.0, crossed
    return rk4_path


def test_non_finite_trajectory_fails_loudly(monkeypatch):
    monkeypatch.setattr(probin.shoot, "rk4_path", _nan_path(False))
    with pytest.raises(ToleranceFailure):
        robin_mismatch(_flat(1.0, 2.0), 1.0)
    # after phi has crossed zero the trial is simply "too high"
    monkeypatch.setattr(probin.shoot, "rk4_path", _nan_path(True))
    assert robin_mismatch(_flat(1.0, 2.0), 1.0) > 1e14


def test_mismatch_at_lambda_zero_has_known_sign():
    # Robin at the left end: F(0) = -alpha * momentum(1)
    assert robin_mismatch(_flat(1.0, 2.0), 0.0) == pytest.approx(-1.0, rel=1e-12)
    assert robin_mismatch(_flat(-0.5, 3.0), 0.0) == pytest.approx(0.5, rel=1e-12)
    # Robin at the right end flips the orientation
    disk = geodesic_ball_problem(0.0, 2, 1.0, 2.0, 2.0)
    assert robin_mismatch(disk, 0.0) == pytest.approx(2.0, rel=1e-12)


def test_mismatch_vanishes_at_oracle_roots():
    assert abs(robin_mismatch(_flat(1.0, 2.0), FLAT_ANCHOR)) < 1e-6
    assert abs(robin_mismatch(_flat(-1.0, 2.0), FLAT_ANCHOR_NEG)) < 1e-6


def test_mismatch_sentinel_above_first_eigenvalue():
    # far above the first eigenvalue phi crosses zero: signed sentinel
    val = robin_mismatch(_flat(1.0, 2.0), 40.0)
    assert val > 1e14


def test_solve_flat_interval_against_oracle():
    sol = solve_first_eigenvalue(_flat(1.0, 2.0))
    assert sol.lambda_val == pytest.approx(FLAT_ANCHOR, rel=1e-8)
    sol = solve_first_eigenvalue(_flat(-1.0, 2.0))
    assert sol.lambda_val == pytest.approx(FLAT_ANCHOR_NEG, rel=1e-8)


def test_solve_strongly_negative_alpha_against_oracles():
    # eigenfunctions whose range passes the overflow cap
    sol = solve_first_eigenvalue(_flat(-30.0, 2.0))
    assert sol.lambda_val == pytest.approx(flat_robin_lambda(1.0, -30.0), rel=1e-8)
    assert np.all(sol.phi > 0)
    sol = solve_first_eigenvalue(geodesic_ball_problem(0.0, 2, 1.0, -40.0, 2.0))
    assert sol.lambda_val == pytest.approx(disk_robin_lambda(-40.0), rel=1e-8)
    assert np.all(sol.phi > 0)


def test_solve_disk_against_bessel_oracle():
    sol = solve_first_eigenvalue(geodesic_ball_problem(0.0, 2, 1.0, 1.0, 2.0))
    assert sol.lambda_val == pytest.approx(disk_robin_lambda(1.0), rel=1e-8)


def test_solution_shape_and_diagnostics():
    sol = solve_first_eigenvalue(_flat(1.0, 2.0))
    assert np.all(np.diff(sol.grid) > 0)
    assert np.max(sol.phi) == pytest.approx(1.0, abs=0)
    assert np.all(sol.phi > 0)
    assert sol.residual < 1e-6
    assert sol.method == "shooting"
    assert sol.diagnostics["lp_norm"] > 0


@pytest.mark.parametrize("alpha", [1.0, -1.0])
def test_lp_norm_against_closed_form(alpha):
    # p = 2 on [0, 1], Neumann at 1: phi = cos(k(1-x)) for alpha > 0 and
    # cosh(k(1-x)) / cosh(k) for alpha < 0, both with max phi = 1
    lam = flat_robin_lambda(1.0, alpha)
    if alpha > 0:
        k = math.sqrt(lam)
        expected = math.sqrt(0.5 + math.sin(2.0 * k) / (4.0 * k))
    else:
        k = math.sqrt(-lam)
        expected = math.sqrt(0.5 + math.sinh(2.0 * k) / (4.0 * k)) / math.cosh(k)
    sol = solve_first_eigenvalue(_flat(alpha, 2.0))
    assert sol.diagnostics["lp_norm"] == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("alpha", [1.0, -1.0])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_gradient_reconstruction_and_residual(alpha, p):
    sol = solve_first_eigenvalue(_flat(alpha, p))
    dphi = np.gradient(sol.phi, sol.grid, edge_order=2)
    rec = inverse_momentum(sol.psi, p)
    # smooth region: away from the Neumann corner where phi' is a
    # fractional power and centered differences lose their order
    smooth = np.abs(sol.psi) >= 0.05 * np.max(np.abs(sol.psi))
    smooth[0] = smooth[-1] = False
    assert np.max(np.abs(rec[smooth] - dphi[smooth])) < 1e-5
    assert sol.residual < 1e-6
    assert np.all(sol.phi > 0)
    assert sol.lambda_val * alpha > 0


@pytest.mark.parametrize("problem,label", [
    (_flat(1.0, 2.0), "flat robin-left"),
    (geodesic_ball_problem(-1.0, 3, 1.0, 1.0, 2.0), "ball robin-right"),
])
def test_gradient_sign_structure(problem, label):
    sol = solve_first_eigenvalue(problem)
    if problem.bc_left.kind == "robin":
        # positive alpha: increasing toward the Neumann end at the right
        assert np.all(sol.psi[:-1] > 0)
    else:
        # ball: decreasing away from the center
        assert np.all(sol.psi[1:] < 0)


@pytest.mark.parametrize("spec", [
    ("flat", 1.0, 1.5), ("flat", 1.0, 2.0), ("flat", 1.0, 3.0),
    ("flat", -1.0, 3.0), ("ball", 1.0, 3.0), ("disk", 1.0, 2.0),
])
def test_step_halving_stability(spec):
    kind, alpha, p = spec
    if kind == "flat":
        prob = _flat(alpha, p)
    elif kind == "ball":
        prob = geodesic_ball_problem(-1.0, 3, 1.0, alpha, p)
    else:
        prob = geodesic_ball_problem(0.0, 2, 1.0, alpha, p)
    full = solve_first_eigenvalue(prob, ShootConfig(rk_steps=4096))
    half = solve_first_eigenvalue(prob, ShootConfig(rk_steps=2048))
    tol = 10.0 * 1e-10 * max(1.0, abs(full.lambda_val))
    assert abs(full.lambda_val - half.lambda_val) < tol


def test_double_robin_even_symmetry():
    sol = solve_first_eigenvalue(double_robin_problem(1.0, 1.0, 3.0))
    assert np.max(np.abs(sol.phi - sol.phi[::-1])) < 1e-6
    assert sol.lambda_val > 0


def test_solver_rejects_neumann_only():
    from probin.coeffs import const_weight
    from probin.errors import DomainError
    from probin.problems import BoundaryCondition, SturmProblem
    prob = SturmProblem(0.0, 1.0, 2.0, const_weight(),
                        BoundaryCondition.neumann(), BoundaryCondition.neumann())
    with pytest.raises(DomainError):
        solve_first_eigenvalue(prob)


def test_alpha_grid_against_oracle():
    for alpha in (0.25, 0.5, 2.0, 10.0):
        sol = solve_first_eigenvalue(_flat(alpha, 2.0))
        assert sol.lambda_val == pytest.approx(flat_robin_lambda(1.0, alpha), rel=1e-8)


@pytest.mark.parametrize("alpha,underflows", [(-800.0, True), (-400.0, False)])
def test_eigenfunction_underflow_is_counted(alpha, underflows):
    # phi = cosh(k(1-x)) / cosh(k) with k ~ |alpha|: at alpha = -800 it
    # spans e^-800, below the smallest double, at -400 it does not
    sol = solve_first_eigenvalue(_flat(alpha, 2.0))
    assert sol.lambda_val == pytest.approx(flat_robin_lambda(1.0, alpha), rel=1e-9)
    count = sol.diagnostics["phi_underflow_nodes"]
    assert count == np.count_nonzero(sol.phi == 0.0)
    assert (count > 0) == underflows


@pytest.mark.parametrize("problem", [
    _flat(1.0, 2.0), _flat(-1.0, 3.0), geodesic_ball_problem(-1.0, 3, 1.0, 2.0, 1.5),
], ids=["flat+", "flat-", "ball+"])
def test_integration_counters_match_kernel_calls(monkeypatch, problem):
    calls = []

    def counting(*args):
        calls.append(args[2])
        return rk4_path(*args)

    monkeypatch.setattr(probin.shoot, "rk4_path", counting)
    d = solve_first_eigenvalue(problem).diagnostics
    assert d["integrations"] == len(calls)
    # the converged eigenvalue is the last trial below it: not integrated again
    assert d["integrations"] == d["bracket_steps"] + d["bisections"]
    assert len(set(calls)) == len(calls)
