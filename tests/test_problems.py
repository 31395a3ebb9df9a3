"""Problem builders: conventions, invariants, serialization."""

import dataclasses
import math

import numpy as np
import pytest

from probin.coeffs import ModelParams
from probin.errors import DomainError
from probin.problems import (
    BoundaryCondition,
    ProblemSpec,
    SturmProblem,
    Warping,
    boundary_mean_curvature,
    double_robin_problem,
    geodesic_ball_problem,
    inradius_model_problem,
    polynomial_warping,
    ricci_lower_bound,
    sn_warping,
    warped_product_problem,
)
from probin.rayleigh import MinimizeConfig, rayleigh_spec
from probin.shoot import solve_spec


def test_flat_inradius_model():
    prob = inradius_model_problem(ModelParams(0.0, 0.0, 2), 1.0, 1.0, 2.0)
    assert (prob.a, prob.b) == (0.0, 1.0)
    assert prob.bc_left == BoundaryCondition.robin(1.0)
    assert prob.bc_right == BoundaryCondition.neumann()
    t = np.linspace(0.0, 1.0, 5)
    assert np.all(prob.weight(t) == 1.0)
    assert not (prob.singular_left or prob.singular_right)


def test_inradius_model_rejects_radius_past_cutoff():
    with pytest.raises(DomainError):
        inradius_model_problem(ModelParams(1.0, 0.0, 2), math.pi / 2 + 0.1, 1.0, 2.0)


def test_inradius_model_log_linear_weight():
    prob = inradius_model_problem(ModelParams(-1.0, 1.0, 3), 2.0, -0.5, 3.0)
    t = np.linspace(0.0, 2.0, 9)
    assert prob.weight(t) == pytest.approx(np.exp(-2.0 * t), rel=1e-13)
    assert prob.weight.log_deriv(t) == pytest.approx(np.full_like(t, -2.0), rel=1e-13)


def test_inradius_model_at_cutoff_is_singular():
    prob = inradius_model_problem(ModelParams(0.0, 1.0, 2), 1.0, 1.0, 2.0)
    assert prob.singular_right and prob.singular_order == 1
    assert prob.bc_right.kind == "neumann"


def test_geodesic_ball_problems():
    disk = geodesic_ball_problem(0.0, 2, 1.0, 1.0, 2.0)
    t = np.linspace(0.0, 1.0, 5)
    assert disk.weight(t) == pytest.approx(t, rel=1e-15)
    assert disk.singular_left and disk.bc_left.kind == "neumann"
    assert disk.bc_right == BoundaryCondition.robin(1.0)

    hyp = geodesic_ball_problem(-1.0, 2, 1.0, -2.0, 2.0)
    assert hyp.weight(t) == pytest.approx(np.sinh(t), rel=1e-14)
    assert hyp.bc_right == BoundaryCondition.robin(-2.0)

    with pytest.raises(DomainError):
        geodesic_ball_problem(1.0, 3, math.pi, 1.0, 2.0)


def test_double_robin_problem():
    prob = double_robin_problem(1.0, 1.0, 2.0)
    assert (prob.a, prob.b) == (0.0, 2.0)
    assert prob.bc_left == prob.bc_right == BoundaryCondition.robin(1.0)
    prob2 = double_robin_problem(0.5, -1.0, 3.0)
    assert (prob2.a, prob2.b) == (0.0, 1.0)
    t = np.linspace(0.0, 1.0, 4)
    assert np.all(prob2.weight.log_deriv(t) == 0.0)


def test_degenerate_alpha_rejected():
    with pytest.raises(DomainError):
        double_robin_problem(1.0, 1e-15, 2.0)
    with pytest.raises(DomainError):
        BoundaryCondition.robin(0.0)
    with pytest.raises(DomainError):  # Dirichlet is the alpha -> +inf limit, not a kind
        BoundaryCondition("dirichlet")


def test_warped_matches_geodesic_ball_bitwise():
    for kappa in (0.7, 0.0, -1.3):
        ball = geodesic_ball_problem(kappa, 3, 1.1, 1.5, 2.5)
        warped = warped_product_problem(sn_warping(kappa), 3, 1.1, 1.5, 2.5)
        assert (ball.a, ball.b, ball.p) == (warped.a, warped.b, warped.p)
        assert ball.bc_left == warped.bc_left and ball.bc_right == warped.bc_right
        assert (ball.singular_left, ball.singular_order) == (warped.singular_left, warped.singular_order)
        t = np.linspace(0.05, 1.1, 23)
        assert np.all(np.asarray(ball.weight(t)) == np.asarray(warped.weight(t)))
        assert np.all(np.asarray(ball.weight.log_deriv(t))
                      == np.asarray(warped.weight.log_deriv(t)))


def test_warped_pole_validation():
    ok = warped_product_problem(polynomial_warping((0.0, 1.0, 0.0, 1.0)), 2, 1.0, 1.0, 2.0)
    assert ok.singular_left
    # f <= 0 inside the interval
    with pytest.raises(DomainError):
        warped_product_problem(polynomial_warping((0.0, 1.0, -2.0)), 2, 1.0, 1.0, 2.0)
    # cylinder type: f positive everywhere including 0 is fine
    cyl = warped_product_problem(polynomial_warping((1.0, 0.5)), 3, 1.0, 1.0, 2.0)
    assert not cyl.singular_left


def test_inradius_at_cutoff_reflects_geodesic_ball():
    """With R = Z the model problem is the reflected ball problem: weights
    proportional, drift negated under t -> Z - t, conditions swapped."""
    kappa, n = 1.0, 3
    r0 = 1.0
    lam_mc = math.cos(r0) / math.sin(r0)
    params = ModelParams(kappa, lam_mc, n)
    model = inradius_model_problem(params, r0, 1.0, 2.0)
    ball = geodesic_ball_problem(kappa, n, r0, 1.0, 2.0)
    assert model.singular_right and ball.singular_left
    assert model.bc_left.alpha == ball.bc_right.alpha
    t = np.linspace(0.05, 0.95, 19)
    w_model = np.asarray(model.weight(t))
    w_ball = np.asarray(ball.weight(r0 - t))
    ratio = w_model / w_ball
    assert ratio == pytest.approx(np.full_like(t, ratio[0]), rel=1e-12)
    assert np.asarray(model.weight.log_deriv(t)) == pytest.approx(
        -np.asarray(ball.weight.log_deriv(r0 - t)), rel=1e-11, abs=1e-11)


def test_problem_type_invariants_enforced():
    from probin.coeffs import const_weight
    with pytest.raises(DomainError):
        SturmProblem(0.0, 1.0, 0.9, const_weight(),
                     BoundaryCondition.neumann(), BoundaryCondition.robin(1.0))
    with pytest.raises(DomainError):
        SturmProblem(1.0, 0.0, 2.0, const_weight(),
                     BoundaryCondition.neumann(), BoundaryCondition.robin(1.0))
    with pytest.raises(DomainError):
        SturmProblem(0.0, 1.0, 2.0, const_weight(),
                     BoundaryCondition.robin(1.0), BoundaryCondition.neumann(),
                     singular_left=True, singular_order=1)


@pytest.mark.parametrize("doc", [
    {"type": "inradius_model", "kappa": -1.0, "lambda_mc": 1.0, "n": 3,
     "R": 1.0, "alpha": -0.5, "p": 3.0},
    {"type": "geodesic_ball", "kappa": 0.5, "n": 2, "R": 1.25, "alpha": 2.0, "p": 1.5},
    {"type": "double_robin", "R": 0.75, "alpha": -1.0, "p": 2.0},
    {"type": "warped_product", "n": 2, "R": 1.0, "alpha": 1.0, "p": 2.0,
     "warping": {"kind": "polynomial", "coefficients": [0.0, 1.0, 0.0, 0.1]}},
    {"type": "warped_product", "n": 3, "R": 1.0, "alpha": -1.0, "p": 2.0,
     "warping": {"kind": "sn", "coefficients": [-1.0]}},
])
def test_spec_json_round_trip(doc):
    spec = ProblemSpec.from_dict(doc)
    assert spec.to_dict() == doc
    again = ProblemSpec.from_dict(spec.to_dict())
    assert again == spec and hash(again) == hash(spec)
    prob = spec.build()
    assert isinstance(prob, SturmProblem)


def test_warped_spec_from_json_shares_the_solver_caches():
    doc = {"type": "warped_product", "n": 2, "R": 1.0, "alpha": 1.0, "p": 2.0,
           "warping": {"kind": "polynomial", "coefficients": [0.0, 1.0, 0.0, 0.1]}}
    first, second = ProblemSpec.from_dict(doc), ProblemSpec.from_dict(doc)
    assert solve_spec(first) is solve_spec(second)
    assert rayleigh_spec(first, 320) is rayleigh_spec(second, 320)


def test_hand_built_warpings_compare_by_their_callables():
    f, df, d2f = np.sin, np.cos, lambda r: -np.sin(r)
    same = Warping(f, df, d2f)
    assert same == Warping(f, df, d2f) and hash(same) == hash(Warping(f, df, d2f))
    assert same != Warping(lambda r: np.sin(r), df, d2f)
    assert same != sn_warping(1.0)


def test_cached_solutions_are_read_only():
    spec = ProblemSpec("inradius_model", R=1.0, alpha=1.0, p=2.0,
                       kappa=0.0, lambda_mc=0.0, n=2)
    for solve in (solve_spec, lambda s: rayleigh_spec(s, 320)):
        sol = solve(spec)
        phi0 = float(sol.phi[0])
        with pytest.raises(ValueError):
            sol.phi[0] = 0.0
        for arr in (sol.grid, sol.psi):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert solve(spec).phi[0] == phi0 != 0.0


def test_cached_solution_fields_and_diagnostics_are_read_only():
    spec = ProblemSpec("inradius_model", R=1.0, alpha=1.0, p=2.0,
                       kappa=0.0, lambda_mc=0.0, n=2)
    sol = solve_spec(spec)
    lam, integrations = sol.lambda_val, sol.diagnostics["integrations"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.lambda_val = 99.0
    with pytest.raises(TypeError):
        sol.diagnostics["integrations"] = -1
    again = solve_spec(spec)
    assert again.lambda_val == lam and again.diagnostics["integrations"] == integrations

    config = MinimizeConfig(track_history=True)
    sol = rayleigh_spec(spec, 200, config)
    seed_s = sol.diagnostics["phase_s"]["seed"]
    with pytest.raises(TypeError):
        sol.diagnostics["phase_s"]["seed"] = -5.0
    with pytest.raises(ValueError):
        sol.diagnostics["quotient_history"][0] = 0.0
    assert rayleigh_spec(spec, 200, config).diagnostics["phase_s"]["seed"] == seed_s >= 0.0


def test_spec_rejects_unknown_type():
    with pytest.raises(DomainError):
        ProblemSpec.from_dict({"type": "torus", "R": 1.0, "alpha": 1.0, "p": 2.0})


def test_curvature_extraction_flat():
    f = polynomial_warping((0.0, 1.0))
    assert ricci_lower_bound(f, 3, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert boundary_mean_curvature(f, 2.0) == pytest.approx(0.5, rel=1e-14)


def test_curvature_extraction_sphere():
    f = sn_warping(1.0)
    assert ricci_lower_bound(f, 2, 1.0) == pytest.approx(1.0, rel=1e-10)
    assert boundary_mean_curvature(f, 1.0) == pytest.approx(1.0 / math.tan(1.0), rel=1e-13)


def test_curvature_extraction_hyperbolic():
    f = sn_warping(-1.0)
    assert ricci_lower_bound(f, 3, 1.0) == pytest.approx(-1.0, rel=1e-10)
    assert boundary_mean_curvature(f, 1.0) == pytest.approx(1.0 / math.tanh(1.0), rel=1e-13)
