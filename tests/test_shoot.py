"""Shooting solver: momentum map, trajectories, eigenvalues."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import probin.shoot
from probin._kernels import rk4_path
from probin.coeffs import ModelParams, const_weight
from probin.errors import BracketFailure, ToleranceFailure
from probin.problems import (
    BoundaryCondition,
    ProblemSpec,
    SturmProblem,
    double_robin_problem,
    geodesic_ball_problem,
    inradius_model_problem,
)
from probin.shoot import (
    ShootConfig,
    _build_plan,
    _launch_state,
    _shoot,
    integrate,
    inverse_momentum,
    momentum,
    robin_mismatch,
    solve_first_eigenvalue,
)

from oracles import disk_robin_lambda, flat_robin_lambda, half_line_robin_lambda
from test_plan import _plan_args, _run_kernel

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


def test_trajectory_spanning_twelve_decades():
    # alpha = -30: phi = cosh(k(1-x)) grows by cosh(30) ~ 5e12 across the
    # interval; log phi carries that range and the path reaches the Robin node
    lam = flat_robin_lambda(1.0, -30.0)
    traj = integrate(_flat(-30.0, 2.0), lam)
    assert traj.grid[-1] == 0.0 and traj.grid.size == 4097
    assert not traj.crossed
    assert traj.phi[-1] / traj.phi[0] == pytest.approx(math.cosh(math.sqrt(-lam)), rel=1e-6)


def _nan_path(crossed):
    # a kernel that stops after the first step: a path appends that step
    # only, and a trial, which appends at the last step, nothing
    def rk4_path(w0, logphi0, lam, pm1, qm1, kernel, logphis, slopes):
        if logphis is not None:
            logphis.append(0.0)
            slopes.append(0.0)
        return crossed
    return rk4_path


def test_non_finite_trajectory_fails_loudly(monkeypatch):
    monkeypatch.setattr(probin.shoot, "rk4_path", _nan_path(False))
    with pytest.raises(ToleranceFailure):
        robin_mismatch(_flat(1.0, 2.0), 1.0)
    with pytest.raises(ToleranceFailure):
        integrate(_flat(1.0, 2.0), 1.0)
    # after phi has crossed zero the trial is simply "too high", and the
    # path's nodes after the crossing are NaN
    monkeypatch.setattr(probin.shoot, "rk4_path", _nan_path(True))
    assert robin_mismatch(_flat(1.0, 2.0), 1.0) > 1e14
    traj = integrate(_flat(1.0, 2.0), 1.0)
    assert traj.crossed and np.isfinite(traj.phi[0]) and np.isnan(traj.phi[2:]).all()


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
    # far above the first eigenvalue phi crosses zero: a signed infinity
    val = robin_mismatch(_flat(1.0, 2.0), 40.0)
    assert val > 1e14


def test_solve_flat_interval_against_oracle():
    sol = solve_first_eigenvalue(_flat(1.0, 2.0))
    assert sol.lambda_val == pytest.approx(FLAT_ANCHOR, rel=1e-8)
    sol = solve_first_eigenvalue(_flat(-1.0, 2.0))
    assert sol.lambda_val == pytest.approx(FLAT_ANCHOR_NEG, rel=1e-8)


def test_solve_strongly_negative_alpha_against_oracles():
    # eigenfunctions that span more than twelve decades
    sol = solve_first_eigenvalue(_flat(-30.0, 2.0))
    assert sol.lambda_val == pytest.approx(flat_robin_lambda(1.0, -30.0), rel=1e-8)
    assert np.all(sol.phi > 0)
    sol = solve_first_eigenvalue(geodesic_ball_problem(0.0, 2, 1.0, -40.0, 2.0))
    assert sol.lambda_val == pytest.approx(disk_robin_lambda(-40.0), rel=1e-8)
    assert np.all(sol.phi > 0)


@pytest.mark.parametrize("p,alpha", [(1.1, -2.0), (1.5, -30.0)])
def test_solve_boundary_layer_against_half_line_oracle(p, alpha):
    # phi ~ exp(-|alpha|^(1/(p-1)) x): the Riccati slope sits at its
    # equilibrium, which RK4 holds exactly
    sol = solve_first_eigenvalue(_flat(alpha, p))
    assert sol.lambda_val == pytest.approx(half_line_robin_lambda(p, alpha), rel=1e-9)


def test_unresolved_boundary_layer_fails_then_solves_with_more_steps():
    # h*p*|alpha|^(1/(p-1)) = 3.05 at 4096 steps, past the RK4 stability
    # edge (2.8): the trials blow up, and the solver says so
    problem = _flat(-10.0, 1.25)
    with pytest.raises(ToleranceFailure, match="non-finite trajectory.*rk_steps"):
        solve_first_eigenvalue(problem)
    sol = solve_first_eigenvalue(problem, ShootConfig(rk_steps=32768))
    assert sol.lambda_val == pytest.approx(half_line_robin_lambda(1.25, -10.0), rel=1e-9)  # -25000


@pytest.mark.parametrize("ratio", [1.0, 2.0, 2.4, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
def test_layer_past_the_rk4_edge_is_refused_not_misplaced(p, ratio):
    """alpha set so that h*p*|alpha|^(1/(p-1)) = ratio at 4 096 steps.
    Past RK4's stability edge the bisection once landed on a spurious
    root at p <= 3 (flat p = 2, ratio 2.4: -5.69e7 against -2.42e7, and
    -1.06e12 from ratio 2.8 on); every solve now lands on the half-line
    value or raises."""
    alpha = -(ratio * ShootConfig.rk_steps / p) ** (p - 1.0)
    try:
        lam = solve_first_eigenvalue(_flat(alpha, p)).lambda_val
    except (ToleranceFailure, BracketFailure):
        return
    assert lam == pytest.approx(half_line_robin_lambda(p, alpha), rel=1e-8)


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


@pytest.mark.parametrize("p,alpha_left,alpha_right,sign", [
    (3.0, -0.2, 0.5, -1.0), (2.0, 3.0, -0.1, 1.0), (2.0, -1.0, 3.0, -1.0),
])
def test_opposite_sign_robin_ends_agree_with_their_mirror_image(p, alpha_left, alpha_right, sign):
    """With Robin ends of opposite signs lambda may have either sign, and
    a trial at lambda = 0 picks the side the bracket grows on.  Both
    orientations of the interval give one eigenvalue, of that sign,
    with a positive eigenfunction."""
    def solve(al, ar):
        return solve_first_eigenvalue(SturmProblem(
            0.0, 1.0, p, const_weight(), BoundaryCondition.robin(al), BoundaryCondition.robin(ar)))

    sol, mirror = solve(alpha_left, alpha_right), solve(alpha_right, alpha_left)
    assert sol.lambda_val * sign > 0.0
    assert sol.lambda_val == pytest.approx(mirror.lambda_val, rel=1e-7)
    assert float(np.min(sol.phi)) >= 0.0 and float(np.min(mirror.phi)) >= 0.0


def test_solver_rejects_neumann_only():
    from probin.coeffs import const_weight
    from probin.errors import DomainError
    from probin.problems import BoundaryCondition, SturmProblem
    prob = SturmProblem(0.0, 1.0, 2.0, const_weight(),
                        BoundaryCondition.neumann(), BoundaryCondition.neumann())
    with pytest.raises(DomainError):
        solve_first_eigenvalue(prob)


@pytest.mark.parametrize("field,value", [
    ("lambda_tol", math.nan), ("lambda_tol", math.inf), ("lambda_tol", 0.0),
])
def test_config_rejects_nonpositive_or_non_finite(field, value):
    from probin.errors import DomainError
    with pytest.raises(DomainError):
        ShootConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("rk_steps", 100.5), ("rk_steps", 4096.0), ("rk_steps", math.nan), ("rk_steps", 63),
])
def test_config_rejects_bad_integer_settings(field, value):
    # before, 100.5 steps raised IndexError inside the plan
    from probin.errors import DomainError
    with pytest.raises(DomainError, match=field):
        ShootConfig(**{field: value})


def test_config_takes_numpy_integers():
    assert ShootConfig(rk_steps=np.int64(64)) == ShootConfig(rk_steps=64)


def test_config_fields_are_the_two_settings():
    # the bracket's growth and step limit are constants of the class
    assert [f.name for f in dataclasses.fields(ShootConfig)] == ["rk_steps", "lambda_tol"]
    assert (ShootConfig().bracket_growth, ShootConfig().max_bracket_steps) == (2.0, 60)
    with pytest.raises(TypeError):
        ShootConfig(max_bracket_steps=1)


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
    calls = []  # (lam, whether the call asks for the full path)

    def counting(*args):
        calls.append((args[2], args[6] is not None))
        return rk4_path(*args)

    monkeypatch.setattr(probin.shoot, "rk4_path", counting)
    sol = solve_first_eigenvalue(problem)
    d = sol.diagnostics
    assert d["integrations"] == len(calls)
    # every trial asks for its last step only; the converged eigenvalue is
    # integrated once more, for the eigenfunction's path
    assert d["integrations"] == d["bracket_steps"] + d["bisections"] + 1
    *trials, (lam, path) = calls
    assert path and lam == sol.lambda_val
    assert not any(path for _, path in trials)
    assert len({lam for lam, _ in trials}) == len(trials)


@pytest.mark.parametrize("lam", [-1e7, -1e9])
def test_launch_far_below_the_eigenvalue_is_not_a_crossing(lam):
    # flat p = 1.03, alpha = -1: the leading-order launch w = -lam*eps
    # (10 and 1000 here) overshoots the Riccati equilibrium w* (~1.8, 2.0)
    # that w relaxes to, and from there the first step flipped rho
    p = 1.03
    problem = _flat(-1.0, p)
    plan = _build_plan(problem, ShootConfig.rk_steps)
    args = _plan_args(plan, lam, p)
    assert abs(args[0]) == (-lam / (p - 1.0)) ** ((p - 1.0) / p)
    crossed, out_logphi, _ = _run_kernel(args, True)
    assert not (crossed and np.isnan(out_logphi[1]))
    if lam == -1e7:
        # the trial lands on the side it is on: below the first eigenvalue
        assert robin_mismatch(problem, lam) < 0.0


# the problem families of the benchmark
FAMILIES = [
    {"type": "inradius_model", "R": 1.0, "kappa": 0.0, "lambda_mc": 0.0, "n": 2},
    {"type": "geodesic_ball", "R": 1.0, "kappa": 0.0, "n": 2},
    {"type": "geodesic_ball", "R": 1.0, "kappa": -1.0, "n": 3},
    {"type": "geodesic_ball", "R": 1.0, "kappa": 1.0, "n": 3},
    {"type": "inradius_model", "R": 1.0, "kappa": 1.0, "lambda_mc": 0.5, "n": 3},
    {"type": "double_robin", "R": 0.5},
    {"type": "warped_product", "R": 1.0, "n": 3,
     "warping": {"kind": "polynomial", "coefficients": [0.0, 1.0, 0.0, 0.1]}},
]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f["type"] + str(f.get("kappa", "")))
def test_launch_below_the_equilibrium_is_the_leading_order_term(family):
    # the clamp at w* only binds once |lam|*eps > w*, beyond |lam| = 1e6
    for p in (1.03, 1.1, 1.5, 2.0, 3.0, 5.0):
        plan = _build_plan(ProblemSpec.from_dict(dict(family, alpha=-1.0, p=p)).build(),
                           ShootConfig.rk_steps)
        for lam in -np.logspace(-3.0, 6.0, 19):
            w0, logphi0 = _launch_state(plan, lam, p, True)
            if plan.robin_launch_alpha is not None:
                assert (w0, logphi0) == (-1.0, 0.0)
                continue
            if plan.singular:
                slope = lam / (plan.problem.singular_order + 1.0)
            else:
                ld0 = float(plan.problem.weight.log_deriv(plan.node_pos[0]))
                slope = lam * (1.0 - 0.5 * ld0 * plan.direction * plan.eps)
            assert w0 == -plan.direction * slope * plan.eps
            assert logphi0 == -float(inverse_momentum(slope * plan.eps, p)) * plan.eps * (p - 1.0) / p


def test_launch_log_phi_is_bounded_by_the_equilibrium_slope():
    # flat p = 1.03, alpha = -1, lam = -1e7: the leading-order launch
    # log phi(eps) is 6.3e25, every later increment is below its ulp, and
    # a path launched there has phi = 1.0 at 4 096 of the 4 097 nodes
    p, lam = 1.03, -1e7
    problem = _flat(-1.0, p)
    plan = _build_plan(problem, ShootConfig.rk_steps)
    _, logphi0 = _launch_state(plan, lam, p, True)
    w_star = (-lam / (p - 1.0)) ** ((p - 1.0) / p)
    assert 0.0 < logphi0 <= float(inverse_momentum(w_star, p)) * plan.eps
    crossed, logphis, _ = _shoot(plan, lam, p, path=True)
    assert not crossed and len(logphis) == plan.kernel.shape[0]
    assert np.all(np.diff(logphis) > 0.0)
    assert np.count_nonzero(integrate(problem, lam).phi == 1.0) == 1


@pytest.mark.parametrize("alpha", [100.0, -3.0])
def test_bracket_failure_after_max_bracket_steps(alpha, monkeypatch):
    # one bracket step tries lam = sign(alpha) only, and both eigenvalues
    # lie further out (2.42 and -9.09)
    monkeypatch.setattr(ShootConfig, "max_bracket_steps", 1)
    with pytest.raises(BracketFailure) as failure:
        solve_first_eigenvalue(_flat(alpha, 2.0))
    # |lam| = 2 is far inside RK4's stability edge
    assert "rk_steps" not in str(failure.value)


def test_bracket_past_the_rk4_edge_names_rk_steps():
    # double-Robin R = 0.5, p = 2, alpha = -4096: at the root h*p*big is
    # 2.0, but the doubling bracket's next point past it, -2^25, is at
    # 2.83, past the edge, so no trial there shows the sign change
    problem = double_robin_problem(0.5, -4096.0, 2.0)
    with pytest.raises(BracketFailure, match=r"past \|lam\| = 3.25e\+07 .*raise rk_steps"):
        solve_first_eigenvalue(problem)
    sol = solve_first_eigenvalue(problem, ShootConfig(rk_steps=16384))
    assert sol.lambda_val == pytest.approx(half_line_robin_lambda(2.0, -4096.0), rel=1e-8)


@pytest.mark.parametrize("family,p,alpha", [
    (FAMILIES[0], 1.001, 0.1), (FAMILIES[1], 1.002, 0.1), (FAMILIES[2], 1.002, 0.1),
    (FAMILIES[5], 1.001, 0.3),
], ids=["flat p=1.001", "disk p=1.002", "hyperbolic_ball p=1.002", "double_robin p=1.001"])
def test_eigenvalue_above_the_constant_trial_fails(family, p, alpha):
    """The constant trial's quotient, sum alpha w(end) over the integral
    of w, bounds the first eigenvalue above.  Near p = 1 the RK4 step
    resolves nothing, and the root-find lands far above it (flat
    p = 1.001, alpha = 0.1: 0.4747 against 0.1).  That raises
    ToleranceFailure, with no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceFailure, match="constant trial's quotient"):
            solve_first_eigenvalue(ProblemSpec.from_dict(dict(family, p=p, alpha=alpha)).build())


def test_eigenvalue_at_the_constant_trial_within_rounding_solves():
    """Hyperbolic ball at p = 1.005, alpha = 0.3: the eigenfunction is
    nearly constant and lambda is 1.8e-9 relative above the constant
    trial's quotient, which is RK4 error, not a failure."""
    sol = solve_first_eigenvalue(ProblemSpec.from_dict(dict(FAMILIES[2], p=1.005, alpha=0.3)).build())
    assert sol.lambda_val == pytest.approx(1.0187213380922457, rel=1e-8)
