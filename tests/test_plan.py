"""Shooting integration plans: reuse across calls, read-only arrays, and
outputs pinned bit for bit."""

import hashlib
import math

import numpy as np
import pytest

import probin.shoot
from probin._kernels import rk4_path
from probin.errors import ToleranceFailure
from probin.problems import ProblemSpec
from probin.shoot import (
    ShootConfig,
    _build_plan,
    _launch_state,
    _make_plan,
    _mismatch,
    _shoot,
    integrate,
    robin_mismatch,
    solve_first_eigenvalue,
)

# the problem families of the benchmark
FAMILIES = {
    "flat": {"type": "inradius_model", "R": 1.0, "kappa": 0.0, "lambda_mc": 0.0, "n": 2},
    "disk": {"type": "geodesic_ball", "R": 1.0, "kappa": 0.0, "n": 2},
    "hyperbolic_ball": {"type": "geodesic_ball", "R": 1.0, "kappa": -1.0, "n": 3},
    "spherical_cap": {"type": "geodesic_ball", "R": 1.0, "kappa": 1.0, "n": 3},
    "curvature_model": {"type": "inradius_model", "R": 1.0, "kappa": 1.0, "lambda_mc": 0.5, "n": 3},
    "double_robin": {"type": "double_robin", "R": 0.5},
    "warped_ball": {"type": "warped_product", "R": 1.0, "n": 3,
                    "warping": {"kind": "polynomial", "coefficients": [0.0, 1.0, 0.0, 0.1]}},
}


def _problem(family, alpha, p):
    return ProblemSpec.from_dict(dict(FAMILIES[family], alpha=alpha, p=p)).build()


def _digest(*arrays):
    """First 16 hex digits of the sha256 of the arrays' float64 bytes."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _run_kernel(args, path):
    """rk4_path on args (w0, log phi0, lam, p-1, 1/(p-1), kernel) as a
    path or a trial: (crossed, log phi, phi'/phi), the lists it appended
    to as arrays padded with NaN to one entry per step (a path) or one (a
    trial, whose log phi is None).  A float power that overflows stops
    the run, not at a crossing, as _shoot takes it."""
    n = len(args[5]) if path else 1
    logphis = [] if path else None
    slopes = []
    try:
        crossed = rk4_path(*args, logphis, slopes)
    except OverflowError:
        crossed = False
    # the kernel appends finite values only, at most one per step
    assert len(slopes) <= n and all(map(math.isfinite, slopes))
    if path:
        assert len(logphis) == len(slopes) and all(map(math.isfinite, logphis))
        logphis = np.array(logphis + [math.nan] * (n - len(logphis)))
    return crossed, logphis, np.array(slopes + [math.nan] * (n - len(slopes)))


def _plan_args(plan, lam, p):
    """rk4_path's arguments before its outputs, as Python floats, for a
    path (a trial ignores log phi0)."""
    w0, logphi0 = _launch_state(plan, lam, p, True)
    return float(w0), float(logphi0), float(lam), p - 1.0, 1.0 / (p - 1.0), plan.kernel


@pytest.fixture
def plan_builds(monkeypatch):
    """The problems that _build_plan builds a plan for, in order."""
    built = []

    def spy(problem, rk_steps):
        built.append(problem)
        return _make_plan(problem, rk_steps)

    monkeypatch.setattr(probin.shoot, "_make_plan", spy)
    return built


def test_plan_arrays_are_read_only():
    problem = _problem("flat", 1.0, 2.0)
    plan = _build_plan(problem, ShootConfig.rk_steps)
    for a in (plan.kernel, plan.node_pos, plan.node_step):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    # the grid a trajectory returns is the caller's own copy
    traj = integrate(problem, 0.5)
    traj.grid[0] = 0.5
    assert plan.node_pos[0] == 1.0 and integrate(problem, 0.5).grid[0] == 1.0


def test_mismatches_on_one_problem_build_one_plan(plan_builds):
    problem = _problem("disk", 2.0, 2.5)
    values = [robin_mismatch(problem, lam) for lam in (0.5, 1.0, 1.5, 2.0, 2.5)]
    assert plan_builds == [problem]
    # an equal config is the same key, and so is another tolerance at
    # the same step count; the trajectory and the solve reuse it too
    assert robin_mismatch(problem, 0.5, ShootConfig()) == values[0]
    assert robin_mismatch(problem, 0.5, ShootConfig(lambda_tol=1e-8)) == values[0]
    integrate(problem, 1.0)
    solve_first_eigenvalue(problem)
    assert plan_builds == [problem]


def test_another_problem_or_config_builds_anew(plan_builds):
    a = _problem("flat", 1.0, 2.0)
    b = _problem("hyperbolic_ball", 2.0, 1.5)
    coarse = ShootConfig(rk_steps=1024)
    calls = [(a, 0.5, ShootConfig()), (b, 2.0, ShootConfig()), (a, 0.7, ShootConfig()),
             (b, 1.0, ShootConfig()), (a, 0.5, coarse), (a, 0.5, ShootConfig())]
    values = [robin_mismatch(problem, lam, config) for problem, lam, config in calls]
    assert plan_builds == [a, b, a, b, a, a]
    fresh = [_mismatch(plan, problem.p, _shoot(plan, lam, problem.p))
             for problem, lam, config in calls
             for plan in [_make_plan(problem, config.rk_steps)]]
    assert [v.hex() for v in values] == [v.hex() for v in fresh]
    assert values[4] != values[0] == values[5]


# (family, alpha, p, lam, robin_mismatch as float.hex or None for a
# ToleranceFailure, whether the kernel reports a crossing, _digest of its
# log phi and phi'/phi outputs), recorded before the kernel read
# precomputed step columns
MISMATCH_PINS = [
    ("flat", 1.0, 2.0, 0.5, "-0x1.9544b2fb02260p-2", False, "91b42a95b1c8d03e"),  # w only
    ("flat", 1.0, 3.0, 3.0, "0x1.3a133798e9185p+8", False, "3807d206b50793d3"),  # w -> rho
    ("flat", 1.0, 2.0, 40.0, "inf", True, "d7d4c51491309997"),  # phi crosses zero
    ("double_robin", 100.0, 1.5, 3.0, "0x1.8cb742c380409p+6", False, "2ae0a3f9db9345e1"),  # rho launch
    ("double_robin", 100.0, 1.5, 8.0, "-inf", True, "a6a2bbdbe8a74971"),  # rho -> w -> rho, crossing
    ("flat", -1.0, 1.03, -100000.0, None, False, "2ff904ecf39a5ef8"),  # non-finite stop
    ("flat", -30.0, 2.0, -900.0, "0x1.1000000000000p-43", False, "669e1bb7d9df983e"),
    ("flat", -10.0, 1.5, -1000.0, "-0x1.4cb2edfc33c94p+1", False, "064b202db41e1d82"),
    ("disk", 2.0, 2.0, 1.0, "0x1.6cc77f4580b3ep+0", False, "42115b2d2e7fa99a"),
    ("hyperbolic_ball", 2.0, 1.5, 2.0, "0x1.6488ce7830a14p+0", False, "be0f9beb4e2a5612"),
    ("spherical_cap", -0.5, 2.5, -1.0, "-0x1.5de4429752808p-3", False, "443ab2796c222bff"),
    ("curvature_model", 0.8, 3.0, 0.4, "-0x1.25cfd59cf8336p-1", False, "7f12f4b39c43a64b"),
    ("warped_ball", 1.5, 2.0, 1.5, "0x1.f8ea84e95e3f4p-1", False, "c3c9a8c89782f3de"),
    ("double_robin", -0.9, 2.4, -3.0, "0x1.7fdde9f83489ep-2", False, "900abba7279fed0d"),
]


@pytest.mark.parametrize("family,alpha,p,lam,mismatch,crossed,digest", MISMATCH_PINS)
def test_mismatch_and_kernel_outputs_are_pinned(family, alpha, p, lam, mismatch, crossed, digest):
    problem = _problem(family, alpha, p)
    if mismatch is None:
        with pytest.raises(ToleranceFailure):
            robin_mismatch(problem, lam)
    else:
        assert robin_mismatch(problem, lam).hex() == mismatch
    plan = _build_plan(problem, ShootConfig.rk_steps)
    args = _plan_args(plan, lam, p)
    runs = []
    for path in (True, False):
        with np.errstate(over="ignore", invalid="ignore"):
            run = _run_kernel(args, path)
        assert run[0] == crossed
        runs.append(run)
    (_, path_logphi, path_slope), (_, trial_logphi, trial_slope) = runs
    assert _digest(path_logphi, path_slope) == digest
    # a trial's one slope is what the path appends last: the final state,
    # or none (NaN here) after a non-finite stop or a crossing before the
    # end; its log phi is not computed
    last = [float(path_logphi[-1]).hex(), float(path_slope[-1]).hex()]
    assert float(trial_slope[0]).hex() == last[1] and trial_logphi is None
    if mismatch is None or crossed:
        assert last == ["nan", "nan"]


# (family, alpha, p, lambda_val as float.hex, _digest of grid, phi and
# psi, residual as float.hex, first 16 hex digits of the sha256 of the
# repr of the sorted diagnostics without phase_s), recorded before the
# kernel read precomputed step columns; the diagnostics digests were
# recorded again when the converged eigenvalue got its own full-path
# integration, which moved integrations up by one and no other key.
# evals, the count both solvers report, repeats integrations and is
# checked as such, outside the digest; lambda_tol, added after these were
# recorded, is the default config's and is checked exactly, outside it too
SOLVE_PINS = [
    ("flat", 1.3, 2.5, "0x1.6e5c1df780000p-1", "a9eb53c1a65e13ae", "0x1.5863da5cfa935p-27", "e19597839c7db401"),
    ("disk", -0.7, 1.8, "-0x1.95d18ad300000p+0", "14c316017fd39093", "0x1.1a1a68c06f9f9p-26", "3f46eadc0a40dfc9"),
    ("hyperbolic_ball", 2.0, 1.7, "0x1.3db7d45c80000p+2", "f57ba63491109cc4", "0x1.d7fa58bc02827p-25", "bebfecd85a6541dc"),
    ("spherical_cap", -1.2, 2.2, "-0x1.0becae3780000p+2", "aa197a1a4cb50762", "0x1.8f1f48f666f1ap-24", "77e7264ea8855814"),
    ("curvature_model", 0.8, 3.0, "0x1.23746787c0000p+0", "ac2a997895706149", "0x1.bb2d7a31e809fp-25", "5ecfc435a425546f"),
    ("double_robin", -0.9, 2.4, "-0x1.270fb7ca80000p+1", "4f021ddae02a1d52", "0x1.1bd1bb0e1cfebp-25", "c3d97973675ce8b6"),
    ("warped_ball", 1.5, 2.0, "0x1.d153de2980000p+1", "deedb0fd9c487bd3", "0x1.93260e351caebp-25", "96e47508e45c1626"),
]


@pytest.mark.parametrize("family,alpha,p,lam,arrays,residual,diagnostics", SOLVE_PINS,
                         ids=[pin[0] for pin in SOLVE_PINS])
def test_solve_is_pinned(family, alpha, p, lam, arrays, residual, diagnostics):
    sol = solve_first_eigenvalue(_problem(family, alpha, p))
    assert sol.lambda_val.hex() == lam
    assert _digest(sol.grid, sol.phi, sol.psi) == arrays
    assert sol.residual.hex() == residual
    d = {k: v for k, v in sol.diagnostics.items() if k not in ("phase_s", "evals", "lambda_tol")}
    assert sol.diagnostics["evals"] == d["integrations"]
    assert sol.diagnostics["lambda_tol"] == ShootConfig.lambda_tol == 1e-10
    assert hashlib.sha256(repr(sorted(d.items())).encode()).hexdigest()[:16] == diagnostics


@pytest.mark.parametrize("family,alpha,p,direction", [
    ("flat", 1.3, 2.5, -1.0),
    ("hyperbolic_ball", 2.0, 1.7, 1.0),
    ("double_robin", -0.9, 2.4, 1.0),
    ("warped_ball", 1.5, 2.0, 1.0),
])
def test_solution_is_its_own_path_at_lambda(family, alpha, p, direction):
    # the converged eigenfunction is integrate's path at the returned
    # lambda, byte for byte, put in ascending order: reversed where the
    # plan runs right to left
    problem = _problem(family, alpha, p)
    assert _build_plan(problem, ShootConfig.rk_steps).direction == direction
    sol = solve_first_eigenvalue(problem)
    traj = integrate(problem, sol.lambda_val)
    order = slice(None, None, int(direction))
    for got, path in ((sol.grid, traj.grid), (sol.phi, traj.phi), (sol.psi, traj.psi)):
        assert got.tobytes() == path[order].tobytes()
    assert np.all(np.diff(sol.grid) > 0.0)
