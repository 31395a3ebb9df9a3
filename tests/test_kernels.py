"""RK4 kernel: one body on numpy arrays and on Python floats."""

import math

import numpy as np
import pytest

import probin._kernels
import probin.shoot
from probin._kernels import _rk4_core, rk4_path
from probin.coeffs import ModelParams
from probin.errors import ToleranceFailure
from probin.problems import double_robin_problem, inradius_model_problem
from probin.shoot import ShootConfig, _build_plan, _launch_state, integrate, robin_mismatch


def _flat(alpha, p):
    return inradius_model_problem(ModelParams(0.0, 0.0, 2), 1.0, alpha, p)


def _kernel_args(problem, lam):
    plan = _build_plan(problem, ShootConfig())
    w0, logphi0 = _launch_state(plan, lam, problem.p)
    pm1 = problem.p - 1.0
    return w0, logphi0, lam, pm1, 1.0 / pm1, plan.steps, plan.ld


def _core_on_arrays(args):
    out_logphi = np.full(args[5].size, np.nan)
    out_slope = np.full(args[5].size, np.nan)
    crossed = _rk4_core(*args, out_logphi, out_slope)
    return crossed, out_logphi, out_slope


def _core_on_lists(args):
    # what the pure-Python rk4_path feeds the core
    w0, logphi0, lam, pm1, qm1, hs, ld = args
    out_logphi = [math.nan] * hs.size
    out_slope = [math.nan] * hs.size
    crossed = _rk4_core(float(w0), float(logphi0), lam, pm1, qm1,
                        hs.tolist(), ld.tolist(), out_logphi, out_slope)
    return crossed, np.array(out_logphi), np.array(out_slope)


def _assert_same_everywhere(args):
    crossed_a, logphi_a, slope_a = _core_on_arrays(args)
    crossed_l, logphi_l, slope_l = _core_on_lists(args)
    assert crossed_l == crossed_a
    assert np.array_equal(logphi_l, logphi_a, equal_nan=True)
    assert np.array_equal(slope_l, slope_a, equal_nan=True)
    # and rk4_path, whichever form it takes here, returns the same
    out_logphi = np.empty(args[5].size)
    out_slope = np.empty(args[5].size)
    assert rk4_path(*args, out_logphi, out_slope) == crossed_a
    assert np.array_equal(out_logphi, logphi_a, equal_nan=True)
    assert np.array_equal(out_slope, slope_a, equal_nan=True)
    return crossed_a, logphi_a


@pytest.mark.parametrize("alpha,p,lam,wide,crossed", [
    (-30.0, 2.0, -1000.0, True, False),  # log phi spans more than 12 decades
    (1.0, 2.0, 40.0, False, True),  # phi crosses zero
    (-10.0, 1.5, -1000.0, True, False),
    (2.0, 3.0, 0.5, False, False),
])
def test_core_bit_identical_on_arrays_and_lists(alpha, p, lam, wide, crossed):
    # wide paths are the ones a (phi, psi) integrator would have to rescale
    crossed_a, logphi = _assert_same_everywhere(_kernel_args(_flat(alpha, p), lam))
    assert bool(crossed_a) == crossed
    assert (np.nanmax(logphi) - np.nanmin(logphi) > math.log(1e12)) == wide
    if crossed:
        # the path stops at the step that crosses zero
        assert np.isnan(logphi[-1]) and np.isfinite(logphi[0])


@pytest.mark.parametrize("lam,crossed", [(3.0, False), (8.0, True)])
def test_core_bit_identical_from_a_stiff_robin_launch(lam, crossed):
    # w(0) = alpha = 100 at p = 1.5: |phi'/phi| = 1e4 at launch, so the
    # kernel starts in the rho-form
    args = _kernel_args(double_robin_problem(0.5, 100.0, 1.5), lam)
    assert args[0] == 100.0
    assert _assert_same_everywhere(args)[0] == crossed


@pytest.mark.skipif(probin._kernels.njit is not None,
                    reason="numba compiles the core; the float adapter is not used")
def test_float_power_overflow_is_a_tolerance_failure():
    # p near 1 far below the eigenvalue: the boundary layer is far too thin
    # for the step, RK4 is unstable and |w|^(1/(p-1)) overflows.  A Python
    # float raises where a numpy scalar gives inf; both stop the path there
    problem = _flat(-1.0, 1.03)
    args = _kernel_args(problem, -1e5)
    with pytest.raises(OverflowError):
        _core_on_lists(args)
    with np.errstate(over="ignore", invalid="ignore"):
        crossed, logphi, slope = _core_on_arrays(args)
        out_logphi = np.empty(args[5].size)
        out_slope = np.empty(args[5].size)
        assert rk4_path(*args, out_logphi, out_slope) is False and crossed is False
    assert np.isnan(logphi[-1])
    assert np.array_equal(out_logphi, logphi, equal_nan=True)
    assert np.array_equal(out_slope, slope, equal_nan=True)
    with pytest.raises(ToleranceFailure, match="non-finite trajectory.*rk_steps"):
        robin_mismatch(problem, -1e5)


def test_integrate_against_cosine():
    # p = 2, Neumann at x = 1: phi = cos(k(1-x)), psi = phi' = k sin(k(1-x))
    lam = 1.0
    k = math.sqrt(lam)
    traj = integrate(_flat(1.0, 2.0), lam)
    assert traj.grid.size == 4097
    assert np.max(np.abs(traj.phi - np.cos(k * (1.0 - traj.grid)))) < 1e-8
    assert np.max(np.abs(traj.psi - k * np.sin(k * (1.0 - traj.grid)))) < 1e-8


def test_run_hands_the_kernel_numpy_arrays(monkeypatch):
    # the benchmark's step counter reads args[5].shape[0]
    seen = []

    def spy(*args):
        seen.append(args)
        return rk4_path(*args)

    monkeypatch.setattr(probin.shoot, "rk4_path", spy)
    problem = _flat(1.0, 2.0)
    integrate(problem, 0.5)
    (args,) = seen
    assert len(args) == 9
    assert all(isinstance(a, np.ndarray) for a in args[5:])
    assert args[5].shape[0] == _build_plan(problem, ShootConfig()).steps.size
