"""Verification harness: identities, sandwiches, comparison suites."""

import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import probin.verify
from probin.coeffs import ModelParams, const_weight
from probin.errors import DomainError
from probin.problems import (
    BoundaryCondition,
    ProblemSpec,
    SturmProblem,
    ThreePoint,
    inradius_model_problem,
    inverse_momentum,
    momentum,
    polynomial_warping,
    sn_warping,
)
from probin.rayleigh import rayleigh_spec
from probin.shoot import ShootConfig, solve_spec
from probin.verify import (
    alpha_monotonicity_suite,
    barta_sandwich,
    cheng_comparison_suite,
    default_suite,
    dirichlet_limit_suite,
    eigenfunction_shape_suite,
    inradius_equality_check,
    inradius_slack_check,
    inradius_warped_check,
    picone_check,
    radius_monotonicity_suite,
    reflection_identity,
    reports_to_csv,
    reports_to_jsonl,
)

from oracles import disk_robin_lambda, flat_robin_lambda, space_form_n3_lambda


def _flat_spec(alpha=1.0, p=2.0, R=1.0):
    return ProblemSpec("inradius_model", R=R, alpha=alpha, p=p,
                       kappa=0.0, lambda_mc=0.0, n=2)


# ----------------------------------------------------------------- picone

def test_picone_proportional_pair():
    grid = np.linspace(0.0, 1.0, 5001)
    v = np.exp(0.3 * np.sin(2.0 * grid)) + 0.2
    rep = picone_check(2.5 * v, v, grid, 3.0, tol_identity=1e-10)
    assert rep.passed
    assert rep.extras["max_deviation"] < 1e-10
    assert rep.extras["min_L"] > -1e-10


def test_picone_rejects_negative_u():
    grid = np.linspace(0.0, 1.0, 101)
    with pytest.raises(DomainError):
        picone_check(grid - 0.5, np.ones(101), grid, 2.0)


def test_picone_random_pairs():
    rng = np.random.default_rng(42)
    grid = np.linspace(0.0, 1.0, 50001)
    for p in (1.5, 2.0, 3.0):
        u = np.exp(0.5 * np.sin(2.0 * grid + rng.uniform(0, 6)) + 0.1 * grid)
        v = np.exp(0.4 * np.cos(1.5 * grid + rng.uniform(0, 6)))
        rep = picone_check(u, v, grid, p)
        assert rep.passed, (p, rep.extras)
        assert rep.extras["min_L"] > -1e-10


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("a,b", [(0.8, -0.5), (-1.0, 0.3), (0.6, 0.5)])
def test_picone_exponential_pair_meets_the_closed_form(p, a, b):
    """For u = e^(at) and v = e^(bt), L = u^p C with
    C = |a|^p + (p-1)|b|^p - p a b |b|^(p-2), which Young's inequality
    makes > 0 unless a = b.  numpy's three-point difference of e^(ct) is
    off by a relative (ch)^2/6 + O(h^4), and each of L's three terms is of
    degree p in the derivatives, so to first order L is off by at most
    p (ch)^2/6 S u^p, S the sum of the terms' magnitudes over u^p.  The
    extrema are asserted within twice that."""
    grid = np.linspace(0.0, 1.0, 50001)
    h = grid[1] - grid[0]
    u, v = np.exp(a * grid), np.exp(b * grid)
    c = abs(a) ** p + (p - 1.0) * abs(b) ** p - p * a * b * abs(b) ** (p - 2.0)
    s = abs(a) ** p + (p - 1.0) * abs(b) ** p + p * abs(a) * abs(b) ** (p - 1.0)
    rel = 2.0 * p * max(a * a, b * b) * h * h / 6.0 * s / c
    exact = c * u[1:-1] ** p  # on the interior nodes, where the check runs
    rep = picone_check(u, v, grid, p)
    assert rep.passed and c > 0.0
    assert rep.extras["min_L"] == pytest.approx(float(exact.min()), rel=rel)
    assert rep.extras["max_abs_L"] == pytest.approx(float(exact.max()), rel=rel)


def test_picone_allows_zeros_of_u():
    grid = np.linspace(0.0, 1.0, 20001)
    u = (grid - 0.5) ** 2  # touches zero
    v = 1.0 + 0.3 * np.sin(3.0 * grid)
    rep = picone_check(u, v, grid, 2.0, tol_identity=1e-7)
    assert rep.passed
    assert rep.extras["min_L"] > -1e-10


def test_picone_rejects_nonpositive_v():
    grid = np.linspace(0.0, 1.0, 101)
    with pytest.raises(DomainError):
        picone_check(np.ones(101), grid - 0.5, grid, 2.0)


_GRID = np.linspace(0.0, 1.0, 11)
_POSITIVE = 1.0 + _GRID
_MALFORMED = {
    "lengths_differ": (_GRID, _POSITIVE[:-1]),
    "two_nodes": (_GRID[:2], _POSITIVE[:2]),
    "repeated_node": (np.sort(np.append(_GRID, 0.5)), np.append(_POSITIVE, 1.5)),
    "decreasing_grid": (_GRID[::-1], _POSITIVE),
    "nan_sample": (_GRID, np.where(_GRID == 0.5, np.nan, _POSITIVE)),
    "infinite_node": (np.append(_GRID[:-1], np.inf), _POSITIVE),
    "two_dimensional": (_GRID[None, :], _POSITIVE[None, :]),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_picone_rejects_malformed_samples(case, recwarn):
    grid, samples = _MALFORMED[case]
    with pytest.raises(DomainError):
        picone_check(samples, samples, grid, 2.0)
    with pytest.raises(DomainError):
        picone_check(_POSITIVE, samples, grid, 2.0)
    assert not recwarn.list


@pytest.mark.parametrize("p", [1.0, 0.5, math.nan, math.inf])
def test_picone_rejects_an_exponent_outside_one_to_inf(p, recwarn):
    # the rule SturmProblem applies; outside it the check would report
    # p = 1 as a pass (margin -0.0), p = 0.5 and NaN as failures, and
    # overflow at inf
    with pytest.raises(DomainError):
        picone_check(_POSITIVE, _POSITIVE, _GRID, p)
    assert not recwarn.list


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_barta_rejects_malformed_trial(case, recwarn):
    with pytest.raises(DomainError):
        barta_sandwich(_flat_spec().build(), _MALFORMED[case], lam=1.0)
    assert not recwarn.list


# The four kinds of grid np.gradient treats differently: exactly uniform
# (its scalar branch), a linspace that is not bit-uniform, scattered
# nodes, and the fewest nodes a three-point stencil needs.
_STENCIL_GRIDS = {
    "exactly_uniform": 0.75 * np.arange(401),
    "linspace_50001": np.linspace(0.0, 1.0, 50001),
    "sorted_random": np.sort(np.random.default_rng(7).uniform(-2.0, 3.0, 997)),
    "three_nodes": np.array([0.0, 0.3, 1.0]),
}


@pytest.mark.parametrize("name", sorted(_STENCIL_GRIDS))
def test_interior_differences_match_numpy_gradient_bit_for_bit(name):
    grid = _STENCIL_GRIDS[name]
    fields = [np.exp(np.sin(3.0 * grid)), grid ** 3 - grid, np.cos(grid) / (2.0 + grid ** 2)]
    # Barta and Riccati take numpy's uniformity test on the whole grid,
    # Picone its block-wise one
    stencils = [ThreePoint.of_grid(grid), ThreePoint(grid, probin.verify._uniform_step(grid))]
    assert stencils[0].h == stencils[1].h
    for f in fields:
        want = np.gradient(f, grid, edge_order=2)[1:-1]
        for stencil in stencils:
            d = stencil.interior(f)
            assert d.shape == want.shape
            assert (d == want).all()


# ------------------------------------------------------------------ barta

def test_barta_eigenfunction_is_tight():
    spec = _flat_spec()
    sol = solve_spec(spec)
    rep = barta_sandwich(spec.build(), sol, lam=sol.lambda_val, tolerance=1e-4)
    assert rep.passed
    assert rep.lhs == pytest.approx(sol.lambda_val, abs=1e-4)
    assert rep.rhs == pytest.approx(sol.lambda_val, abs=1e-4)


def test_barta_perturbed_trial_gives_strict_sandwich():
    spec = _flat_spec()
    prob = spec.build()
    sol = solve_spec(spec)
    bump = 0.05 * np.sin(math.pi * sol.grid) ** 2
    rep = barta_sandwich(prob, (sol.grid, sol.phi + bump), lam=sol.lambda_val,
                         tolerance=1e-12)
    assert rep.passed
    assert rep.lhs < sol.lambda_val < rep.rhs


def test_barta_constant_on_pure_neumann():
    prob = SturmProblem(0.0, 1.0, 2.0, const_weight(),
                        BoundaryCondition.neumann(), BoundaryCondition.neumann())
    grid = np.linspace(0.0, 1.0, 501)
    rep = barta_sandwich(prob, (grid, np.ones(501)), lam=0.0, tolerance=1e-9)
    assert rep.passed
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)
    assert rep.rhs == pytest.approx(0.0, abs=1e-9)


def test_barta_rejects_nonpositive_trial():
    spec = _flat_spec()
    grid = np.linspace(0.0, 1.0, 101)
    with pytest.raises(DomainError):
        barta_sandwich(spec.build(), (grid, grid - 0.5), lam=1.0)


# ------------------------------ reports against np.gradient references
#
# The formulas below are the checks written directly on np.gradient,
# edges and all; the checks in probin.verify must reproduce their
# margins and extras bit for bit.

def _reference_picone(u, v, grid, p, tol_identity):
    du = np.gradient(u, grid, edge_order=2)
    dv = np.gradient(v, grid, edge_order=2)
    dw = np.gradient(u ** p / v ** (p - 1.0), grid, edge_order=2)
    sl = slice(1, -1)
    dui, dvi, dwi = du[sl], dv[sl], dw[sl]
    ratio = u[sl] / v[sl]
    mv = momentum(dvi, p)
    lhs_field = np.abs(dui) ** p + (p - 1.0) * ratio ** p * np.abs(dvi) ** p \
        - p * ratio ** (p - 1.0) * mv * dui
    rhs_field = np.abs(dui) ** p - mv * dwi
    dev = float(np.max(np.abs(lhs_field - rhs_field)))
    min_l = float(np.min(lhs_field))
    folded = max(dev, (tol_identity / 1e-10) * max(0.0, -min_l))
    extras = {"max_deviation": dev, "min_L": min_l,
              "max_abs_L": float(np.max(np.abs(lhs_field)))}
    return -folded, extras


def _reference_barta(problem, grid, v, psi_v, lam):
    dpsi = np.gradient(psi_v, grid, edge_order=2)
    sl = slice(1, -1)
    ld = np.asarray(problem.weight.log_deriv(grid[sl]), dtype=float)
    ratio = -(dpsi[sl] + ld * psi_v[sl]) / momentum(v[sl], problem.p)
    lo, hi = float(np.min(ratio)), float(np.max(ratio))
    extras = {"target": float(lam)}
    for end, sign, alpha in problem.robin_ends():
        idx = 0 if end == "left" else -1
        extras["boundary_defect_%s" % end] = float(
            sign * psi_v[idx] + alpha * momentum(v[idx], problem.p))
    return min(lam - lo, hi - lam), extras


def _reference_riccati(problem, sol):
    p, grid = problem.p, sol.grid
    mv = sol.psi / momentum(sol.phi, p)
    dmv = np.gradient(mv, grid, edge_order=2)
    sl = slice(1, -1)
    ld = np.asarray(problem.weight.log_deriv(grid[sl]), dtype=float)
    resid = dmv[sl] + ld * mv[sl] + (p - 1.0) * np.abs(inverse_momentum(mv, p)[sl]) ** p \
        + sol.lambda_val
    return -float(np.max(np.abs(resid)))


def _default_picone_cases():
    """(u, v, p, tol_identity) of default_suite's 12 Picone checks, drawn
    in its order from its seed."""
    rng = np.random.default_rng(20240817)
    grid = np.linspace(0.0, 1.0, 50001)
    cases = []
    for p in (1.5, 2.0, 3.0):
        for _ in range(3):
            u = np.exp(0.4 * np.sin(2.0 * grid + rng.uniform(0, 6.28))
                       + 0.3 * rng.uniform(-1, 1) * grid)
            v = np.exp(0.5 * np.cos(1.7 * grid + rng.uniform(0, 6.28))
                       + 0.2 * rng.uniform(-1, 1) * grid * grid)
            cases.append((u, v, p, 1e-8))
        v = np.exp(0.3 * np.sin(2.2 * grid))
        cases.append((1.7 * v, v, p, 1e-9))
    return grid, cases


def _assert_matches(rep, margin, extras):
    assert rep.margin == margin
    assert {k: rep.extras[k] for k in extras} == extras


def test_default_picone_reports_match_gradient_reference():
    grid, cases = _default_picone_cases()
    assert len(cases) == 12
    for u, v, p, tol in cases:
        rep = picone_check(u, v, grid, p, tol_identity=tol)
        _assert_matches(rep, *_reference_picone(u, v, grid, p, tol))


# picone_check forms and reduces its fields over blocks of _BLOCK interior
# nodes; its reports must not depend on where the block boundaries fall.

_B = probin.verify._BLOCK


def _same_float(a, b):
    """Bit-identical floats, or both NaN."""
    return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()


def _assert_bit_identical(rep, margin, extras):
    assert _same_float(rep.margin, margin)
    for key, want in extras.items():
        assert _same_float(rep.extras[key], want), key


def _block_grid(kind, n):
    steps = 3.0 * np.arange(n)  # exact integers: an exactly uniform grid
    if kind == "exactly_uniform":
        return steps
    if kind == "linspace":
        return np.linspace(0.0, 1.0, n)
    # exactly uniform over every block but the last: the whole grid is not
    steps[-1] += 0.5
    return steps


@pytest.mark.parametrize("n", [3, _B + 1, _B + 2, _B + 3, 6 * _B + 5])
def test_blocks_tile_the_interior(n):
    blocks = list(probin.verify._blocks(n))
    assert [i for lo, hi in blocks for i in range(lo + 1, hi - 1)] == list(range(1, n - 1))
    assert max(hi - lo - 2 for lo, hi in blocks) == min(_B, n - 2)


@pytest.mark.parametrize("kind", ["exactly_uniform", "linspace", "uniform_first_block"])
@pytest.mark.parametrize("n", [3, _B - 1, _B, _B + 1, _B + 2, _B + 3, 6 * _B + 5])
def test_picone_blocks_match_gradient_reference(kind, n):
    grid = _block_grid(kind, n)
    t = (grid - grid[0]) / (grid[-1] - grid[0])
    u = np.exp(0.4 * np.sin(2.0 * t + 1.0) + 0.3 * t)
    v = np.exp(0.5 * np.cos(1.7 * t + 2.0))
    for p in (1.5, 3.0):
        rep = picone_check(u, v, grid, p)
        _assert_bit_identical(rep, *_reference_picone(u, v, grid, p, 1e-8))


def test_uniform_first_block_grid_needs_the_global_rule():
    # numpy's coefficients and its scalar branch round differently on this
    # grid's first block, so a block-local uniformity test would show
    grid = _block_grid("uniform_first_block", 2 * _B)
    f = np.exp(np.sin(grid / grid[-1]))
    head = slice(1, _B)
    assert (np.diff(grid[:_B + 2]) == 3.0).all()
    assert (np.gradient(f, grid, edge_order=2)[head]
            != np.gradient(f, 3.0, edge_order=2)[head]).any()


def test_picone_overflow_in_one_block_is_nan_like_the_reference():
    grid = np.linspace(0.0, 1.0, 6 * _B + 5)
    u = np.exp(np.sin(3.0 * grid))
    v = np.exp(0.5 * np.cos(2.0 * grid))
    u[3 * _B + 7] = 1e120  # u^3 and |u'|^3 overflow here only
    with np.errstate(over="ignore", invalid="ignore"):
        rep = picone_check(u, v, grid, 3.0)
        margin, extras = _reference_picone(u, v, grid, 3.0, 1e-8)
    assert math.isnan(margin)
    _assert_bit_identical(rep, margin, extras)
    assert not rep.passed


def test_picone_allocates_no_full_length_temporaries():
    # a 50 001-node float array takes 400 kB; the blocked check peaks near
    # 1.2 MB, while forming the fields on full arrays peaks above 4 MB
    grid = np.linspace(0.0, 1.0, 50001)
    u = np.exp(0.4 * np.sin(2.0 * grid))
    v = np.exp(0.5 * np.cos(1.7 * grid))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        picone_check(u, v, grid, 3.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


def test_barta_reports_match_gradient_reference():
    spec = _flat_spec()
    prob = spec.build()
    sol = solve_spec(spec)
    lam = sol.lambda_val
    rep = barta_sandwich(prob, sol, lam=lam)
    _assert_matches(rep, *_reference_barta(prob, sol.grid, sol.phi, sol.psi, lam))
    trial = sol.phi + 0.05 * np.sin(math.pi * sol.grid / prob.length) ** 2
    rep = barta_sandwich(prob, (sol.grid, trial), lam=lam, tolerance=1e-12)
    psi_trial = momentum(np.gradient(trial, sol.grid, edge_order=2), prob.p)
    _assert_matches(rep, *_reference_barta(prob, sol.grid, trial, psi_trial, lam))


@pytest.mark.parametrize("solver", ["shooting", "rayleigh"])
def test_riccati_identity_matches_gradient_reference(solver):
    spec = ProblemSpec("inradius_model", R=1.0, alpha=-1.0, p=3.0,
                       kappa=1.0, lambda_mc=0.0, n=2)
    prob = spec.build()
    sol = solve_spec(spec) if solver == "shooting" else rayleigh_spec(spec, 2000)
    by_name = {r.name: r for r in eigenfunction_shape_suite(prob, sol)}
    assert by_name["riccati_identity"].margin == _reference_riccati(prob, sol)


# ------------------------------------------------------- shape suite

def test_shape_suite_log_concave_all_pass():
    spec = ProblemSpec("inradius_model", R=1.0, alpha=1.0, p=2.0,
                       kappa=1.0, lambda_mc=0.0, n=3)
    sol = solve_spec(spec)
    reps = eigenfunction_shape_suite(spec.build(), sol)
    names = {r.name: r for r in reps}
    assert names["eigenfunction_gradient_sign"].passed
    assert names["riccati_identity"].passed
    assert names["riccati_identity"].lhs < 1e-4
    assert names["log_derivative_monotone"].status == "pass"
    assert names["log_derivative_bound"].passed
    assert names["log_derivative_bound"].lhs <= 1.0 + 1e-6


def test_shape_suite_log_linear_weight_skips_monotonicity():
    spec = ProblemSpec("inradius_model", R=1.0, alpha=1.0, p=2.0,
                       kappa=-1.0, lambda_mc=1.0, n=3)
    sol = solve_spec(spec)
    reps = eigenfunction_shape_suite(spec.build(), sol)
    by_name = {r.name: r for r in reps}
    assert by_name["log_derivative_monotone"].status == "skip"
    assert by_name["log_derivative_bound"].status == "skip"
    assert by_name["eigenfunction_gradient_sign"].status == "pass"
    assert by_name["riccati_identity"].status == "pass"


def test_shape_suite_negative_alpha():
    spec = ProblemSpec("inradius_model", R=1.0, alpha=-1.0, p=3.0,
                       kappa=1.0, lambda_mc=0.0, n=2)
    sol = solve_spec(spec)
    reps = eigenfunction_shape_suite(spec.build(), sol)
    assert all(r.status == "pass" for r in reps)


def test_shape_suite_requires_left_robin():
    from probin.problems import geodesic_ball_problem
    from probin.shoot import solve_first_eigenvalue
    prob = geodesic_ball_problem(0.0, 2, 1.0, 1.0, 2.0)
    sol = solve_first_eigenvalue(prob)
    with pytest.raises(DomainError):
        eigenfunction_shape_suite(prob, sol)


# ------------------------------------------------- reflection identity

def test_reflection_identity_oracle_anchors():
    rep = reflection_identity(1.0, 1.0, 2.0)
    assert rep.passed
    assert rep.lhs == pytest.approx(flat_robin_lambda(1.0, 1.0), rel=1e-8)
    rep = reflection_identity(1.0, -1.0, 2.0)
    assert rep.passed
    assert rep.lhs == pytest.approx(flat_robin_lambda(1.0, -1.0), rel=1e-8)


def test_reflection_identity_p3():
    rep = reflection_identity(0.5, 1.0, 3.0)
    assert rep.passed
    assert abs(rep.lhs - rep.rhs) <= 1e-8
    assert rep.extras["symmetry_defect"] <= 1e-6


# ------------------------------------------------------- monotonicity

def test_radius_monotonicity_matches_oracles():
    # descending radii give the same ascending rows
    for radii in ((0.5, 1.0, 2.0), (2.0, 1.0, 0.5)):
        reps = radius_monotonicity_suite(radii, _flat_spec())
        assert all(r.passed for r in reps)
        assert [(r.params["R_small"], r.params["R_large"]) for r in reps] == [(0.5, 1.0), (1.0, 2.0)]
    for r_len in (0.5, 1.0, 2.0):
        lam = solve_spec(_flat_spec(R=r_len)).lambda_val
        assert lam == pytest.approx(flat_robin_lambda(r_len, 1.0), rel=1e-8)


def test_radius_monotonicity_refuses_nonpositive_alpha():
    with pytest.raises(DomainError):
        radius_monotonicity_suite((0.5, 1.0), _flat_spec(alpha=-1.0))


def test_alpha_monotonicity_and_signs():
    # descending alphas give the same ascending rows
    for alphas in ((-1.0, -0.1, 0.1, 1.0), (1.0, 0.1, -0.1, -1.0)):
        reps = alpha_monotonicity_suite(alphas, _flat_spec())
        assert all(r.passed for r in reps)
        kinds = {r.name for r in reps}
        assert kinds == {"alpha_monotonicity", "eigenvalue_sign"}
        assert [(r.params["alpha_small"], r.params["alpha_large"]) for r in reps
                if r.name == "alpha_monotonicity"] == [(-1.0, -0.1), (-0.1, 0.1), (0.1, 1.0)]


def test_dirichlet_limit_proxy():
    reps = dirichlet_limit_suite((1.5, 2.0, 3.0), _flat_spec())
    assert all(r.passed for r in reps)
    p2 = [r for r in reps if r.params["p"] == 2.0][0]
    assert p2.rhs == pytest.approx(2.4674011002723395, rel=1e-12)


# ------------------------------------------------- curvature comparison

def test_curvature_comparison_both_signs():
    for alpha in (1.0, -1.0):
        reps = cheng_comparison_suite((-1.0, -0.5, 0.0, 0.5, 1.0), 2, 1.0, alpha, 2.0)
        assert all(r.passed for r in reps)
    flat = solve_spec(ProblemSpec("geodesic_ball", R=1.0, alpha=1.0, p=2.0,
                                  kappa=0.0, n=2)).lambda_val
    assert flat == pytest.approx(disk_robin_lambda(1.0), rel=1e-8)


def test_curvature_equality_compares_two_different_solves():
    specs = []

    def fake_solve(spec):
        specs.append(spec)
        return SimpleNamespace(lambda_val=1.0)

    reps = cheng_comparison_suite((0.0, -1.0), 2, 1.0, 1.0, 2.0, solve=fake_solve)
    assert reps[-1].name == "curvature_comparison_equal"
    lowest, twin = specs[0], specs[-1]
    assert lowest.type == "geodesic_ball" and lowest.kappa == -1.0
    assert twin != lowest
    assert twin.type == "warped_product" and twin.warping == sn_warping(-1.0)


# ------------------------------------------------- inradius model bound

def test_inradius_equality_disk_and_hyperbolic():
    for kappa, n in ((0.0, 2), (-1.0, 3)):
        rep = inradius_equality_check(kappa, n, 1.0, 1.0, 2.0)
        assert rep.passed
        assert abs(rep.lhs - rep.rhs) <= 1e-5
        assert rep.extras["at_floor"]


@pytest.mark.parametrize("kappa,R0", [(-1.0, 1.0), (-1.0, 2.0), (0.0, 1.0), (0.0, 2.0),
                                      (1.0, 1.0), (1.0, 2.5)])
@pytest.mark.parametrize("alpha", [-3.0, -1.0, 0.5, 1.0, 10.0])
def test_inradius_equality_sides_match_the_exact_n3_value(kappa, R0, alpha):
    # both sides of an equality row, and Rayleigh on the ball, against the
    # p = 2, n = 3 closed form; measured worst errors, relative to
    # max(1, |lambda|): 7.6e-11 for either shooting solve, 4.3e-6 for Rayleigh
    exact = space_form_n3_lambda(kappa, R0, alpha)
    ball = ProblemSpec("geodesic_ball", R=R0, alpha=alpha, p=2.0, kappa=kappa, n=3)
    model = probin.verify.ball_model_spec(kappa, 3, R0, alpha, 2.0)
    scale = max(1.0, abs(exact))
    assert abs(solve_spec(ball).lambda_val - exact) <= 1e-9 * scale
    assert abs(solve_spec(model).lambda_val - exact) <= 1e-9 * scale
    assert abs(rayleigh_spec(ball).lambda_val - exact) <= 1e-5 * scale


def test_inradius_slack_sides():
    rep = inradius_slack_check(0.0, 2, 1.0, 1.0, 2.0, d_lambda=0.3)
    assert rep.passed and rep.margin > 10 * rep.tolerance
    rep = inradius_slack_check(0.0, 2, 1.0, -1.0, 2.0, d_kappa=0.5)
    assert rep.passed and rep.margin > 10 * rep.tolerance
    with pytest.raises(DomainError):
        inradius_slack_check(0.0, 2, 1.0, 1.0, 2.0)


@pytest.mark.parametrize("call", [
    lambda n: inradius_equality_check(0.0, n, 1.0, 1.0, 2.0),
    lambda n: inradius_slack_check(0.0, n, 1.0, 1.0, 2.0, d_lambda=0.3),
    lambda n: inradius_warped_check(polynomial_warping((0.0, 1.0, 0.0, 0.1)), n, 1.0, 1.0, 2.0),
    lambda n: probin.verify.ball_model_spec(0.0, n, 1.0, 1.0, 2.0).build(),
], ids=["equality", "slack", "warped", "ball_model_spec"])
def test_inradius_checks_refuse_a_fractional_dimension(call):
    # the builders' rule on n, passed through: no check solves at int(n)
    with pytest.raises(DomainError):
        call(2.5)


def _gapped_solve(specs, lambda_tol):
    """A fake solve: lambda 1 on the ball and 1 + 1e-7 on the model, at
    lambda_tol; specs records what it solves."""
    def solve(spec):
        specs.append(spec)
        return SimpleNamespace(lambda_val=1.0 + (1e-7 if spec.type == "inradius_model" else 0.0),
                               diagnostics={"lambda_tol": lambda_tol})
    return solve


def test_inradius_equality_solves_each_side_once_within_the_floor():
    # the ball and the model 1e-7 apart: past the floor 50 * lambda_tol
    # at the default lambda_tol, though within the row's tolerance 1e-5
    specs = []
    rep = inradius_equality_check(0.0, 2, 1.0, 1.0, 2.0,
                                  solve=_gapped_solve(specs, ShootConfig.lambda_tol))
    assert [spec.type for spec in specs] == ["geodesic_ball", "inradius_model"]
    assert not rep.passed
    assert rep.extras["floor"] == 50 * ShootConfig.lambda_tol
    assert rep.extras["at_floor"] is False
    # a looser lambda_tol of the solves raises the floor past the gap
    rep = inradius_equality_check(0.0, 2, 1.0, 1.0, 2.0, solve=_gapped_solve([], 1e-8))
    assert rep.passed and rep.extras["floor"] == 50 * 1e-8


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("alpha", [1.0, -1.0])
@pytest.mark.parametrize("kappa,n", [(0.0, 2), (-1.0, 3)])
def test_inradius_equality_passes_with_the_rayleigh_solve(kappa, n, alpha, p):
    """The default suite's eight equality rows, solved by rayleigh_spec:
    its diagnostics carry lambda_tol, the relative tolerance of either
    route's root-find (1e-13), so the floor is 50 * 1e-13 * max(1,
    |lambda_ball|), and the ball and the matched model, marched or
    iterated on the same mesh, agree far inside it."""
    rep = inradius_equality_check(kappa, n, 1.0, alpha, p, solve=rayleigh_spec)
    scale = max(1.0, abs(rep.lhs))
    assert rep.passed and rep.extras["at_floor"] is True
    assert rep.extras["floor"] == 50 * 1e-13 * scale
    assert abs(rep.lhs - rep.rhs) <= 2.5e-15 * scale


def test_inradius_warped_bound():
    warped = polynomial_warping((0.0, 1.0, 0.0, 0.1))
    rep = inradius_warped_check(warped, 2, 1.0, 1.0, 2.0)
    assert rep.passed
    assert rep.params["kappa_eff"] == pytest.approx(-0.6, rel=1e-3)
    assert rep.params["lambda_eff"] == pytest.approx(1.3 / 1.1, rel=1e-12)


# (kappa, n, R0) whose sn_kappa ball puts the cutoff of its extracted
# bounds a rounding below R0 (kappa = -1, n = 2, R0 = 1.2: z = 1.1999999999999997)
_CUTOFF_AT_R0 = [(-1.0, 2, 1.2), (-1.0, 2, 1.5), (-0.5, 2, 1.5), (0.5, 2, 0.5)]


@pytest.mark.parametrize("alpha", [1.0, -1.0])
@pytest.mark.parametrize("kappa,n,r0", _CUTOFF_AT_R0)
def test_inradius_warped_bound_is_attained_on_space_form_balls(kappa, n, r0, alpha):
    """On a space-form ball the extracted bounds are the ball's own, so the
    model sits at its cutoff and the bound holds with equality."""
    rep = inradius_warped_check(sn_warping(kappa), n, r0, alpha, 2.0)
    assert rep.passed
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-6)


# ------------------------------------------------------ report plumbing

def test_default_suite_green_and_deterministic():
    reports = default_suite()
    assert not any(r.status == "fail" for r in reports)
    assert any(r.status == "skip" for r in reports)  # hypothesis gating visible
    again = default_suite()
    key = lambda rs: [(r.name, json.dumps(r.params, sort_keys=True), r.status) for r in rs]
    assert key(reports) == key(again)


def test_default_suite_solves_through_the_function_it_is_given():
    class Sentinel(Exception):
        pass

    def refuse(spec):
        raise Sentinel(spec)

    with pytest.raises(Sentinel):
        default_suite(refuse)


def test_default_suite_solves_78_problems_through_solve():
    # 101 calls: some checks solve a problem another one solves too
    specs = []

    def recording(spec):
        specs.append(spec)
        return solve_spec(spec)

    reports = default_suite(recording)
    assert len(set(specs)) == 78
    assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in default_suite()]


def test_proportional_picone_rows_need_l_to_collapse(monkeypatch):
    monkeypatch.setattr(probin.verify, "_TOL_PICONE_COLLAPSE", -1.0)
    failed = [r for r in default_suite() if r.status == "fail"]
    assert {r.name for r in failed} == {"picone_identity_proportional"}
    assert sorted(r.params["p"] for r in failed) == [1.5, 2.0, 3.0]


def _refuse_constant(name):
    raise ValueError("%s is not JSON" % name)


def test_jsonl_is_strict_json_with_null_for_skips(tmp_path):
    path = tmp_path / "reports.jsonl"
    reports_to_jsonl(default_suite(), path)
    parsed = [json.loads(line, parse_constant=_refuse_constant)
              for line in path.read_text().splitlines()]
    skips = [d for d in parsed if d["status"] == "skip"]
    assert len(skips) == 2
    assert all(d[key] is None for d in skips for key in ("lhs", "rhs", "margin"))
    assert all(d["extras"] for d in parsed)


def test_report_serialization(tmp_path):
    reports = default_suite()
    jsonl = tmp_path / "reports.jsonl"
    csvp = tmp_path / "reports.csv"
    reports_to_jsonl(reports, jsonl)
    reports_to_csv(reports, csvp)
    lines = jsonl.read_text().strip().split("\n")
    assert len(lines) == len(reports)
    parsed = [json.loads(line) for line in lines]
    assert {d["status"] for d in parsed} <= {"pass", "fail", "skip"}
    header = csvp.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["name", "params", "status"]
