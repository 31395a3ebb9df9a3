"""RK4 kernel: the Riccati-form integration on Python floats, its trials and paths."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import probin.shoot
from probin._kernels import kernel_array, rk4_path
from probin.coeffs import ModelParams
from probin.errors import ToleranceFailure
from probin.problems import ProblemSpec, double_robin_problem, inradius_model_problem
from probin.rayleigh import rayleigh_spec
from probin.shoot import ShootConfig, _build_plan, integrate, robin_mismatch

from test_plan import FAMILIES, _plan_args, _run_kernel


def _flat(alpha, p):
    return inradius_model_problem(ModelParams(0.0, 0.0, 2), 1.0, alpha, p)


def _kernel_args(problem, lam):
    return _plan_args(_build_plan(problem, ShootConfig.rk_steps), lam, problem.p)


def _reference_args(kernel):
    # the steps, and the drift at their ends and midpoints
    hs = kernel[:, 0].tolist()
    ld = kernel[:, 3:5].ravel().tolist() + [kernel[-1, 5]]
    return hs, ld


def _assert_same_everywhere(args):
    # the path rk4_path runs on the kernel array's rows, against the
    # generic field on the array's columns, bit for bit; the entries the
    # path does not reach are NaN in both
    ref_crossed, ref_logphi, ref_slope, _ = _reference_path(*args[:5], *_reference_args(args[5]))
    crossed, out_logphi, out_slope = _run_kernel(args, True)
    assert crossed == ref_crossed
    assert np.array_equal(out_logphi.view(np.int64), ref_logphi.view(np.int64))
    assert np.array_equal(out_slope.view(np.int64), ref_slope.view(np.int64))
    return crossed, out_logphi


@pytest.mark.parametrize("alpha,p,lam,wide,crossed", [
    (-30.0, 2.0, -1000.0, True, False),  # log phi spans more than 12 decades
    (1.0, 2.0, 40.0, False, True),  # phi crosses zero
    (-10.0, 1.5, -1000.0, True, False),
    (2.0, 3.0, 0.5, False, False),
])
def test_core_bit_identical_on_arrays_and_lists(alpha, p, lam, wide, crossed):
    # wide paths are the ones a (phi, psi) integrator would have to rescale
    path_crossed, logphi = _assert_same_everywhere(_kernel_args(_flat(alpha, p), lam))
    assert bool(path_crossed) == crossed
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


def test_float_power_overflow_is_a_tolerance_failure():
    # p near 1 far below the eigenvalue: the boundary layer is far too thin
    # for the step, RK4 is unstable and |w|^(1/(p-1)) overflows.  A Python
    # float power raises, out of a path and a trial alike, and the path
    # has appended the finite steps before it only
    problem = _flat(-1.0, 1.03)
    args = _kernel_args(problem, -1e5)
    logphis, slopes = [], []
    with pytest.raises(OverflowError):
        rk4_path(*args, logphis, slopes)
    assert 0 < len(logphis) == len(slopes) < args[5].shape[0]
    assert all(map(math.isfinite, logphis + slopes))
    slopes = []
    with pytest.raises(OverflowError):
        rk4_path(*args, None, slopes)
    assert slopes == []
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
    # the benchmark's step counter reads args[5].shape[0]: the (n, 6)
    # kernel array has one row per step
    seen = []

    def spy(*args):
        seen.append(args)
        return rk4_path(*args)

    monkeypatch.setattr(probin.shoot, "rk4_path", spy)
    problem = _flat(1.0, 2.0)
    integrate(problem, 0.5)
    (args,) = seen
    assert len(args) == 8
    assert all(type(a) is float for a in args[:5])
    assert isinstance(args[5], np.ndarray)
    # a Neumann launch grades the first two of the 4 096 grid cells into
    # 32 + 8 steps
    assert args[5].shape == (4096 - 2 + 32 + 8, 6)
    assert args[5] is _build_plan(problem, ShootConfig.rk_steps).kernel
    # a path hands over lists, and gets one entry per step in each
    assert type(args[6]) is type(args[7]) is list
    assert len(args[6]) == len(args[7]) == args[5].shape[0]
    # a trial hands over the same kernel, no log phi list, and gets its
    # last step only
    seen.clear()
    robin_mismatch(problem, 0.5)
    (args,) = seen
    assert len(args) == 8
    assert all(type(a) is float for a in args[:5])
    assert args[5] is _build_plan(problem, ShootConfig.rk_steps).kernel
    assert args[6] is None
    assert type(args[7]) is list and len(args[7]) == 1


def test_kernel_array_holds_the_step_columns():
    rng = np.random.default_rng(7)
    hs = np.repeat(rng.uniform(-0.1, -0.01, 5), 40)
    ld = rng.standard_normal(2 * hs.size + 1)
    kernel = kernel_array(hs, ld)
    assert kernel.shape == (hs.size, 6) and not kernel.flags.writeable
    assert np.array_equal(kernel, np.column_stack(
        [hs, 0.5 * hs, hs / 6.0, ld[0:-1:2], ld[1::2], ld[2::2]]))
    rows = kernel.rows
    assert kernel.shape[0] == len(rows)
    assert isinstance(rows, tuple) and all(isinstance(r, tuple) for r in rows)
    assert [list(r) for r in rows] == kernel.tolist()


def _reference_path(w0, logphi0, lam, pm1, qm1, hs, ld):
    """The kernel's integration with the field in its generic form
    y' = c0 + (g*drift + c2*s)*y, z' = k*drift + d1*s, one step body for
    both forms, on Python floats.  Returns (crossed, log phi, phi'/phi,
    rho_forms), rho_forms[i] telling the form of step i."""
    n = len(hs)
    out_logphi = [math.nan] * n
    out_slope = [math.nan] * n
    rho_forms = []

    def field(rho_form):  # (e, c0, g, c2, k, d1)
        if rho_form:
            return pm1, 1.0, 1.0 / pm1, lam / pm1, -1.0 / pm1, -lam / pm1
        return qm1, -lam, -1.0, -pm1, 0.0, 1.0

    def power(y, e):
        return y ** e if y >= 0.0 else -((-y) ** e)

    def run():
        big = max(1.0, (abs(lam) / pm1) ** (1.0 / (pm1 + 1.0)))
        rho_form = False
        e, c0, g, c2, k, d1 = field(rho_form)
        y = w0
        logphi = z = logphi0
        slope = s = power(y, e)
        switch = abs(s) > big
        for i in range(n):
            if switch:
                rho_form = not rho_form
                e, c0, g, c2, k, d1 = field(rho_form)
                if rho_form:
                    y, z = 1.0 / slope, logphi + math.log(abs(slope))
                else:
                    y, z = math.copysign(abs(slope) ** pm1, slope), logphi
                s = power(y, e)
            rho_forms.append(rho_form)
            h = hs[i]
            l0, lm, l1 = ld[2 * i], ld[2 * i + 1], ld[2 * i + 2]
            k1y, k1z = c0 + (g * l0 + c2 * s) * y, k * l0 + d1 * s
            t = y + 0.5 * h * k1y
            s = power(t, e)
            k2y, k2z = c0 + (g * lm + c2 * s) * t, k * lm + d1 * s
            t = y + 0.5 * h * k2y
            s = power(t, e)
            k3y, k3z = c0 + (g * lm + c2 * s) * t, k * lm + d1 * s
            t = y + h * k3y
            s = power(t, e)
            k4y, k4z = c0 + (g * l1 + c2 * s) * t, k * l1 + d1 * s
            yn = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            z = z + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            crossed = rho_form and (yn > 0.0) != (y > 0.0)
            if rho_form and yn == 0.0:
                return True
            y = yn
            s = power(y, e)
            if rho_form:
                slope, logphi = 1.0 / y, z + math.log(abs(y))
                switch = abs(slope) < 0.5 * big
            else:
                slope, logphi = s, z
                switch = abs(s) > 2.0 * big
            if not (abs(slope) < math.inf and abs(logphi) < math.inf):
                return False
            out_logphi[i] = logphi
            out_slope[i] = slope
            if crossed:
                return True
        return False

    try:
        crossed = run()
    except OverflowError:  # a float power overflowed: a non-finite stop
        crossed = False
    return crossed, np.array(out_logphi), np.array(out_slope), rho_forms


def _disk(alpha, p):
    return ProblemSpec.from_dict(dict(FAMILIES["disk"], alpha=alpha, p=p)).build()


@pytest.mark.parametrize("problem,lam,forms,signs,crossed", [
    (_flat(1.0, 2.0), 0.5, "w", "+", False),
    (_flat(1.0, 3.0), 3.0, "w rho", "+", False),
    (_flat(1.0, 2.0), 40.0, "w rho", "+ -", True),
    (double_robin_problem(0.5, 100.0, 1.5), 3.0, "rho w", "+ -", False),
    (double_robin_problem(0.5, 100.0, 1.5), 8.0, "rho w rho", "+ - +", True),
    (_flat(-1.0, 1.03), -1e5, "w rho w", "- + -", None),  # None: a non-finite stop
    (_disk(1.0, 2.0), 40.0, "w rho", "- +", True),
    (_flat(-1.0, 2.0), -3.0, "w", "-", False),
    (double_robin_problem(0.5, -100.0, 1.5), -5e5, "rho", "-", False),
    (double_robin_problem(0.5, 1.0, 2.5), 3.0, "w rho", "+ -", False),
], ids=["w-only", "w-to-rho", "crossing", "rho-launch", "rho-w-rho-crossing", "non-finite",
        "negative-w-to-rho-crossing", "negative-w-only", "negative-rho-launch", "w-changes-sign"])
def test_kernel_matches_the_generic_field_bit_for_bit(problem, lam, forms, signs, crossed):
    # the kernel folds the constants of each form into its own step body,
    # and integrates every run with its state negated where that state is
    # negative; both must round exactly as the generic field does
    args = _kernel_args(problem, lam)
    ref_crossed, ref_logphi, ref_slope, rho_forms = _reference_path(
        *args[:5], *_reference_args(args[5]))
    runs = [rho_forms[0]] + [b for a, b in zip(rho_forms, rho_forms[1:]) if a != b]
    assert " ".join("rho" if r else "w" for r in runs) == forms
    # the sign of phi'/phi at launch and after every step, one per run
    # of equal signs: a change within a rho-run is a crossing
    sign = ["-" if x < 0.0 else "+" for x in [args[0], *ref_slope[~np.isnan(ref_slope)]]]
    assert " ".join([sign[0]] + [b for a, b in zip(sign, sign[1:]) if a != b]) == signs
    assert ref_crossed == bool(crossed)
    assert np.isnan(ref_logphi[-1]) == (crossed is not False)
    with np.errstate(over="ignore", invalid="ignore"):
        path_crossed, out_logphi, out_slope = _run_kernel(args, True)
    assert path_crossed == ref_crossed
    assert np.array_equal(out_logphi.view(np.int64), ref_logphi.view(np.int64))
    assert np.array_equal(out_slope.view(np.int64), ref_slope.view(np.int64))


# lam is ("at", lam) or ("from_lam1", x): lam1 + x*max(1, |lam1|), with
# lam1 the Rayleigh estimate of the first eigenvalue
_BELOW, _NEAR, _ABOVE = st.floats(-1.0, -0.05), st.floats(-1e-6, 1e-6), st.floats(0.05, 4.0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    p=st.floats(1.3, 4.0),
    magnitude=st.floats(0.1, 5.0),
    sign=st.sampled_from([-1.0, 1.0]),
    lam=st.tuples(st.just("from_lam1"), st.one_of(_BELOW, _NEAR, _ABOVE)),
)
@example("flat", 2.0, 1.0, 1.0, ("at", 0.5))  # w only
@example("flat", 3.0, 1.0, 1.0, ("at", 3.0))  # w -> rho
@example("double_robin", 1.5, 100.0, 1.0, ("at", 3.0))  # rho launch, rho -> w
@example("double_robin", 1.5, 100.0, 1.0, ("at", 8.0))  # rho -> w -> rho, crossing zero
@example("flat", 1.03, 1.0, -1.0, ("at", -1e5))  # non-finite stop
def test_trial_is_the_last_step_of_its_path(family, p, magnitude, sign, lam):
    # a trial carries no log phi, and must still stop where its path
    # does, cross where it does and end on the slope it ends on, bit for
    # bit
    spec = ProblemSpec.from_dict(dict(FAMILIES[family], p=p, alpha=sign * magnitude))
    kind, value = lam
    if kind == "from_lam1":
        lam1 = rayleigh_spec(spec).lambda_val
        value = lam1 + value * max(1.0, abs(lam1))
    args = _kernel_args(spec.build(), value)
    runs = []
    for path in (True, False):
        with np.errstate(over="ignore", invalid="ignore"):
            runs.append(_run_kernel(args, path))
    (path_crossed, _, path_slope), (trial_crossed, trial_logphi, trial_slope) = runs
    assert trial_crossed == path_crossed
    assert float(trial_slope[0]).hex() == float(path_slope[-1]).hex()
    assert trial_logphi is None


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    p=st.floats(1.3, 4.0),
    magnitude=st.floats(0.1, 5.0),
    sign=st.sampled_from([-1.0, 1.0]),
    lam=st.one_of(_BELOW, _NEAR, _ABOVE),
)
@example("double_robin", 1.5, 5.0, -1.0, 0.0)  # a negative rho launch
@example("double_robin", 1.5, 5.0, 1.0, 0.0)  # rho -> w -> rho, phi' = 0 in the w-run
def test_trials_and_paths_match_the_generic_field_bit_for_bit(family, p, magnitude, sign, lam):
    # both signs of alpha put the Riccati state on both sides of 0 from
    # the launch, so runs are integrated in both orientations
    spec = ProblemSpec.from_dict(dict(FAMILIES[family], p=p, alpha=sign * magnitude))
    lam1 = rayleigh_spec(spec).lambda_val
    args = _kernel_args(spec.build(), lam1 + lam * max(1.0, abs(lam1)))
    ref_crossed, ref_logphi, ref_slope, _ = _reference_path(*args[:5], *_reference_args(args[5]))
    # a trial gets the path's last phi'/phi and no log phi
    for path in (True, False):
        with np.errstate(over="ignore", invalid="ignore"):
            crossed, out_logphi, out_slope = _run_kernel(args, path)
        assert crossed == ref_crossed
        expected = ref_slope if path else ref_slope[-1:]
        assert np.array_equal(out_slope.view(np.int64), expected.view(np.int64))
        if path:
            assert np.array_equal(out_logphi.view(np.int64), ref_logphi.view(np.int64))
        else:
            assert out_logphi is None


@pytest.mark.parametrize("w0,lam,drift,n,forms", [
    (0.9, -1.0, -3.0, 2, "w rho"),  # the w-run's last step switches to rho
    (5.0, 1.0, 0.0, 4, "rho w"),  # a rho launch whose last step switches to w
    (5.0, 1.0, 0.0, 6, "rho w"),  # phi' crosses 0 at the last step: the w-run turns
    (0.0, 1.0, 0.0, 7, "w rho"),  # phi crosses 0 at the last step
], ids=["w-to-rho", "rho-to-w", "w-turns", "crossing"])
def test_a_trial_that_ends_on_its_last_step_writes_the_path_s_last_entry(w0, lam, drift, n, forms):
    # p = 2 and n steps of 1/4 with a constant drift: phi'/phi = w obeys
    # w' = -lam - (drift + w)*w.  A trial writes its one entry where its
    # run ends, and a run ends at the last step in each of these ways
    p = 2.0
    kernel = kernel_array(np.full(n, 0.25), np.full(2 * n + 1, drift))
    assert kernel.shape[0] == len(kernel.rows)
    args = (w0, 0.0, lam, p - 1.0, 1.0 / (p - 1.0), kernel)
    ref_crossed, _, ref_slope, rho_forms = _reference_path(
        *args[:5], [0.25] * (n + 1), [drift] * (2 * n + 3))
    # one step more shows what the last step ended: the step after a
    # switch is in the other form, and phi'/phi changes sign after a turn
    runs = [rho_forms[0]] + [b for a, b in zip(rho_forms, rho_forms[1:]) if a != b]
    assert " ".join("rho" if r else "w" for r in runs) == forms
    switched = rho_forms[n:] == [not rho_forms[n - 1]]
    sign_changed = (ref_slope[n - 1] < 0.0) != (ref_slope[n - 2] < 0.0)
    turned = sign_changed and not rho_forms[n - 1]
    crossed = sign_changed and rho_forms[n - 1]
    assert [switched, turned, crossed].count(True) == 1
    assert ref_crossed == crossed
    runs = [_run_kernel(args, path) for path in (True, False)]
    (path_crossed, _, path_slope), (trial_crossed, trial_logphi, trial_slope) = runs
    assert path_crossed == trial_crossed == crossed
    assert np.array_equal(path_slope.view(np.int64), ref_slope[:n].view(np.int64))
    assert float(trial_slope[0]).hex() == float(path_slope[-1]).hex()
    assert trial_logphi is None


@pytest.mark.parametrize("problem,lam,w0,inf_drift_at", [
    (_flat(1.0, 2.0), 0.5, math.inf, None),
    (_flat(1.0, 2.0), 0.5, -math.inf, None),
    (_flat(1.0, 2.0), 0.5, math.nan, None),
    (_flat(1.0, 2.0), 0.5, None, 100),  # in the w-form
    (double_robin_problem(0.5, 100.0, 1.5), 3.0, None, 1),  # in the rho-form
], ids=["inf-launch", "-inf-launch", "nan-launch", "inf-drift-w", "inf-drift-rho"])
def test_a_non_finite_state_stops_the_trial_where_it_stops_the_path(problem, lam, w0, inf_drift_at):
    # log phi is where a path sees most non-finite states first (log|inf|
    # at a rho launch from w = inf, log|rho| after rho overflows); a
    # trial, which does not form it, tests the state itself
    args = list(_kernel_args(problem, lam))
    if w0 is not None:
        args[0] = w0
    if inf_drift_at is not None:
        kernel = args[5]
        ld = kernel[:, 3:5].ravel().tolist() + [kernel[-1, 5]]
        ld[2 * inf_drift_at + 1] = math.inf  # the midpoint of that step
        args[5] = kernel_array(kernel[:, 0], ld)
    runs = []
    for path in (True, False):
        with np.errstate(over="ignore", invalid="ignore"):
            runs.append(_run_kernel(args, path))
    (path_crossed, path_logphi, _), (trial_crossed, _, trial_slope) = runs
    assert path_crossed is trial_crossed is False
    # the path stops at the bad state, before writing it
    first_bad = 0 if w0 is not None else inf_drift_at
    assert np.isnan(path_logphi[first_bad:]).all() and np.isfinite(path_logphi[:first_bad]).all()
    assert np.isnan(trial_slope[0])
