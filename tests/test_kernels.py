"""RK4 kernel: one body on numpy arrays and on Python floats."""

import math

import numpy as np
import pytest

import probin._kernels
import probin.shoot
from probin._kernels import _rk4_core, rk4_path
from probin.coeffs import ModelParams
from probin.errors import ToleranceFailure
from probin.problems import inradius_model_problem
from probin.shoot import ShootConfig, _build_plan, _launch_state, integrate, robin_mismatch


def _flat(alpha, p):
    return inradius_model_problem(ModelParams(0.0, 0.0, 2), 1.0, alpha, p)


def _kernel_args(problem, lam):
    plan = _build_plan(problem, ShootConfig())
    (phi0, psi0), _ = _launch_state(plan, lam, problem.p)
    pm1 = problem.p - 1.0
    return phi0, psi0, lam, pm1, 1.0 / pm1, plan.steps, plan.ld


def _core_on_arrays(args):
    out_phi = np.empty(args[5].size)
    out_psi = np.empty(args[5].size)
    result = _rk4_core(*args, out_phi, out_psi)
    return result, out_phi, out_psi


def _core_on_lists(args):
    # what the pure-Python rk4_path feeds the core
    phi0, psi0, lam, pm1, qm1, hs, ld = args
    out_phi = [0.0] * hs.size
    out_psi = [0.0] * hs.size
    result = _rk4_core(float(phi0), float(psi0), lam, pm1, qm1,
                       hs.tolist(), ld.tolist(), out_phi, out_psi)
    return result, np.array(out_phi), np.array(out_psi)


@pytest.mark.parametrize("alpha,p,lam,rescaled,crossed", [
    (-30.0, 2.0, -1000.0, True, False),  # passes the overflow cap
    (1.0, 2.0, 40.0, False, True),  # phi crosses zero
    (-10.0, 1.5, -1000.0, True, False),
    (2.0, 3.0, 0.5, False, False),
])
def test_core_bit_identical_on_arrays_and_lists(alpha, p, lam, rescaled, crossed):
    args = _kernel_args(_flat(alpha, p), lam)
    (scale_a, crossed_a), phi_a, psi_a = _core_on_arrays(args)
    (scale_l, crossed_l), phi_l, psi_l = _core_on_lists(args)
    assert (scale_a < 1.0) == rescaled and bool(crossed_a) == crossed
    assert scale_l == scale_a and crossed_l == crossed_a
    assert np.array_equal(phi_l, phi_a) and np.array_equal(psi_l, psi_a)
    # and rk4_path, whichever form it takes here, returns the same
    out_phi = np.empty(args[5].size)
    out_psi = np.empty(args[5].size)
    assert rk4_path(*args, out_phi, out_psi) == (scale_a, crossed_a)
    assert np.array_equal(out_phi, phi_a) and np.array_equal(out_psi, psi_a)


@pytest.mark.skipif(probin._kernels.njit is not None,
                    reason="numba compiles the core; the float adapter is not used")
def test_overflow_of_float_power_falls_back_to_arrays():
    # p near 1, |lam| = 1e9: a power in the step overflows; a Python float
    # raises where a numpy scalar gives inf, and rk4_path must give the
    # array result
    args = _kernel_args(_flat(-1.0, 1.03), 1e9)
    with pytest.raises(OverflowError):
        _core_on_lists(args)
    with np.errstate(over="ignore", invalid="ignore"):
        expected, phi_a, psi_a = _core_on_arrays(args)
        out_phi = np.empty(args[5].size)
        out_psi = np.empty(args[5].size)
        assert rk4_path(*args, out_phi, out_psi) == expected
    assert expected[1]  # phi crossed zero before the state blew up
    assert np.array_equal(out_phi, phi_a, equal_nan=True)
    assert np.array_equal(out_psi, psi_a, equal_nan=True)
    # without a crossing the overflow is a solver failure, not a crash
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ToleranceFailure):
        robin_mismatch(_flat(-1.0, 1.03), -1e9)


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
