"""Problem builders: conventions, invariants, serialization."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import probin.problems
from probin.coeffs import ModelParams, const_weight
from probin.errors import DomainError
from probin.problems import (
    BoundaryCondition,
    EigenSolution,
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
from probin.rayleigh import rayleigh_spec
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
    for kappa in (math.nan, -math.inf):  # NaN built the flat ball, -inf a NaN weight
        with pytest.raises(DomainError):
            geodesic_ball_problem(kappa, 3, 1.0, 1.0, 2.0)


def test_infinite_radius_rejected_before_any_grid():
    # R0 = inf once reached np.linspace(R0 / 512, R0, 512), and numpy
    # warned ahead of the config error
    specs = (ProblemSpec("geodesic_ball", R=math.inf, alpha=1.0, p=2.0, kappa=0.0, n=3),
             ProblemSpec("warped_product", R=math.inf, alpha=1.0, p=2.0, n=3,
                         warping=sn_warping(0.0)))
    for spec in specs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="finite R0"):
                spec.build()
        assert caught == [], [str(w.message) for w in caught]


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
    """The geodesic_ball and warped_product spec types with f = sn_kappa
    dispatch to the same problem."""
    for kappa in (0.7, 0.0, -1.3):
        ball = ProblemSpec("geodesic_ball", R=1.1, alpha=1.5, p=2.5, kappa=kappa, n=3).build()
        warped = ProblemSpec("warped_product", R=1.1, alpha=1.5, p=2.5, n=3,
                             warping=sn_warping(kappa)).build()
        assert (ball.a, ball.b, ball.p) == (warped.a, warped.b, warped.p)
        assert ball.bc_left == warped.bc_left and ball.bc_right == warped.bc_right
        assert (ball.singular_left, ball.singular_order) == (warped.singular_left, warped.singular_order)
        t = np.linspace(0.05, 1.1, 23)
        assert np.all(np.asarray(ball.weight(t)) == np.asarray(warped.weight(t)))
        for attr in ("log_deriv", "log_second"):
            assert np.all(np.asarray(getattr(ball.weight, attr)(t))
                          == np.asarray(getattr(warped.weight, attr)(t)))


def test_warped_pole_validation():
    ok = warped_product_problem(polynomial_warping((0.0, 1.0, 0.0, 1.0)), 2, 1.0, 1.0, 2.0)
    assert ok.singular_left
    # f <= 0 inside the interval
    with pytest.raises(DomainError):
        warped_product_problem(polynomial_warping((0.0, 1.0, -2.0)), 2, 1.0, 1.0, 2.0)
    # cylinder type: f positive everywhere including 0 is fine
    cyl = warped_product_problem(polynomial_warping((1.0, 0.5)), 3, 1.0, 1.0, 2.0)
    assert not cyl.singular_left


def test_a_radial_geometry_is_checked_once_per_warping_and_radius():
    """The warping is scanned on 512 nodes of (0, R0] once per (warping,
    R0), whatever n, p and alpha: equal warpings share the check, a new
    R0 scans again, and an invalid geometry raises on every build."""
    scans = []

    def f(r):
        if np.size(r) == 512:
            scans.append(r)
        return np.sin(r)

    warping = Warping(f, np.cos, lambda r: -np.sin(r))
    for n in (2, 3):
        for p in (1.5, 2.0, 3.0):
            for alpha in (-1.0, 1.0):
                assert warped_product_problem(warping, n, 1.0, alpha, p).singular_left
    assert len(scans) == 1
    warped_product_problem(warping, 2, 0.5, 1.0, 2.0)
    assert len(scans) == 2 and scans[1][-1] == 0.5

    check = probin.problems._radial_geometry
    first, second = sn_warping(-1.0), sn_warping(-1.0)
    assert first is not second and first == second
    before = check.cache_info()
    geodesic_ball_problem(-1.0, 3, 0.8125, 1.0, 2.0)
    warped_product_problem(first, 2, 0.8125, -1.0, 1.5)
    warped_product_problem(second, 4, 0.8125, 2.0, 3.0)
    after = check.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)

    for _ in range(2):
        with pytest.raises(DomainError, match="positive"):
            warped_product_problem(polynomial_warping((0.0, 1.0, -1.0)), 2, 1.5, 1.0, 2.0)


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


_NEUMANN, _ROBIN = BoundaryCondition.neumann(), BoundaryCondition.robin(1.0)
# f = r - 2 r^2: a pole, and zero at r = 1/2
_SHRINKING = polynomial_warping((0.0, 1.0, -2.0))
_CUBIC = polynomial_warping((0.0, 1.0, 0.0, 0.1))  # f = r + r^3/10

# calls that must raise DomainError, each a case of its own
_REFUSALS = {
    "robin_without_alpha": lambda: BoundaryCondition("robin"),
    "robin_infinite_alpha": lambda: BoundaryCondition.robin(math.inf),
    "neumann_with_alpha": lambda: BoundaryCondition("neumann", 1.0),
    "two_singular_ends": lambda: SturmProblem(
        0.0, 1.0, 2.0, const_weight(), _NEUMANN, _NEUMANN,
        singular_left=True, singular_right=True, singular_order=1),
    "singular_right_robin": lambda: SturmProblem(
        0.0, 1.0, 2.0, const_weight(), _NEUMANN, _ROBIN, singular_right=True, singular_order=1),
    "singular_order_zero": lambda: SturmProblem(
        0.0, 1.0, 2.0, const_weight(), _NEUMANN, _ROBIN, singular_left=True),
    "raw_warping_to_dict": lambda: Warping(np.sin, np.cos, np.sin).to_dict(),
    "unknown_warping_kind": lambda: Warping.from_dict({"kind": "cosh", "coefficients": [1.0]}),
    "inradius_model_zero_R": lambda: inradius_model_problem(ModelParams(0.0, 0.0, 2), 0.0, 1.0, 2.0),
    "double_robin_negative_R": lambda: double_robin_problem(-1.0, 1.0, 2.0),
    "ball_dimension_one": lambda: geodesic_ball_problem(0.0, 1, 1.0, 1.0, 2.0),
    "warped_dimension_one": lambda: warped_product_problem(sn_warping(0.0), 1, 1.0, 1.0, 2.0),
    "pole_slope_not_one": lambda: warped_product_problem(
        polynomial_warping((0.0, 2.0)), 2, 1.0, 1.0, 2.0),
    # f(0) = -1e-6 is no pole, and f > 0 on (0, R0] from the grid's first node on
    "cylinder_negative_at_0": lambda: warped_product_problem(
        polynomial_warping((-1e-6, 1.0)), 2, 1.0, 1.0, 2.0),
    "ricci_dimension_one": lambda: ricci_lower_bound(sn_warping(0.0), 1, 1.0),
    "ricci_nonpositive_f": lambda: ricci_lower_bound(_SHRINKING, 2, 1.0),
    # f = r + r^2: -f''/f -> -inf at the pole
    "ricci_pole_unbounded_below": lambda: ricci_lower_bound(polynomial_warping((0.0, 1.0, 1.0)), 2, 1.0),
    "mean_curvature_f_zero": lambda: boundary_mean_curvature(_SHRINKING, 0.5),
    # the extractors refuse what the radial builders refuse
    "ricci_nan_R0": lambda: ricci_lower_bound(_CUBIC, 2, math.nan),
    "ricci_infinite_R0": lambda: ricci_lower_bound(_CUBIC, 2, math.inf),
    "ricci_fractional_dimension": lambda: ricci_lower_bound(_CUBIC, 2.5, 1.0),
    # one dimension rule (coeffs.check_dimension): NaN and +-inf are
    # DomainErrors, not the ValueError and OverflowError of int()
    "warped_nan_dimension": lambda: warped_product_problem(sn_warping(0.0), math.nan, 1.0, 1.0, 2.0),
    "warped_infinite_dimension": lambda: warped_product_problem(sn_warping(0.0), math.inf, 1.0, 1.0, 2.0),
    "warped_minus_infinite_dimension": lambda: warped_product_problem(
        sn_warping(0.0), -math.inf, 1.0, 1.0, 2.0),
    "ricci_nan_dimension": lambda: ricci_lower_bound(_CUBIC, math.nan, 1.0),
    "ricci_infinite_dimension": lambda: ricci_lower_bound(_CUBIC, math.inf, 1.0),
    "ricci_minus_infinite_dimension": lambda: ricci_lower_bound(_CUBIC, -math.inf, 1.0),
    "model_nan_dimension": lambda: ModelParams(0.0, 0.0, math.nan),
    "model_infinite_dimension": lambda: ModelParams(0.0, 0.0, math.inf),
    "model_minus_infinite_dimension": lambda: ModelParams(0.0, 0.0, -math.inf),
    # f = 2r: a cone pole, whose Ricci infimum is -inf
    "ricci_cone_pole": lambda: ricci_lower_bound(polynomial_warping((0.0, 2.0)), 3, 1.0),
    "mean_curvature_nan_R0": lambda: boundary_mean_curvature(_CUBIC, math.nan),
    # sn_1 < 0 on (pi, 2 pi), though sn_1(7) > 0
    "mean_curvature_past_a_zero": lambda: boundary_mean_curvature(sn_warping(1.0), 7.0),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_refusals_are_domain_errors(case):
    with pytest.raises(DomainError):
        _REFUSALS[case]()


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

    sol = rayleigh_spec(spec, 200)
    seed_s = sol.diagnostics["phase_s"]["seed"]
    with pytest.raises(TypeError):
        sol.diagnostics["phase_s"]["seed"] = -5.0
    assert rayleigh_spec(spec, 200).diagnostics["phase_s"]["seed"] == seed_s >= 0.0

    # no solver puts an array into diagnostics; one that did would
    # hand it out read-only, at any depth
    grid = np.linspace(0.0, 1.0, 5)
    sol = EigenSolution(1.0, grid, "test", {"trace": np.ones(3), "phase_s": {"steps": np.zeros(2)}},
                        lambda: (np.ones(5), np.zeros(5), 0.0))
    with pytest.raises(ValueError):
        sol.diagnostics["trace"][0] = 0.0
    with pytest.raises(ValueError):
        sol.diagnostics["phase_s"]["steps"][0] = 1.0


def test_spec_rejects_unknown_type():
    with pytest.raises(DomainError):
        ProblemSpec.from_dict({"type": "torus", "R": 1.0, "alpha": 1.0, "p": 2.0})


@pytest.mark.parametrize("fields, message", [
    ({"type": "double_robin", "kappa": 0.0}, "double_robin takes no kappa"),
    ({"type": "double_robin", "n": 3}, "double_robin takes no n"),
    ({"type": "geodesic_ball", "kappa": 0.0, "n": 3, "warping": sn_warping(0.0)},
     "geodesic_ball takes no warping"),
    ({"type": "geodesic_ball", "kappa": 0.0}, "geodesic_ball needs n"),
    ({"type": "inradius_model", "kappa": 0.0, "n": 2}, "inradius_model needs lambda_mc"),
    ({"type": "warped_product", "n": 3}, "warped_product needs warping"),
])
def test_spec_takes_exactly_its_types_fields(fields, message):
    with pytest.raises(DomainError, match="^a problem of type %s$" % message):
        ProblemSpec(R=1.0, alpha=1.0, p=2.0, **fields)


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


@pytest.mark.parametrize("n", [2, 3])
def test_ricci_lower_bound_reaches_its_limit_at_the_pole(n):
    # f = r + r^3/10: both Ricci families tend to -0.6 as r -> 0 and lie
    # above it on (0, 1]; the uniform grid alone stops 1.4e-8 short
    f = polynomial_warping((0.0, 1.0, 0.0, 0.1))
    assert ricci_lower_bound(f, n, 1.0) == pytest.approx(-0.6, abs=1e-12)


@pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("n", [2, 3])
def test_ricci_lower_bound_of_a_space_form(kappa, n):
    assert ricci_lower_bound(sn_warping(kappa), n, 1.0) == pytest.approx(kappa, abs=1e-10)


@pytest.mark.parametrize("R0", [1.0, 0.1, 0.01, 0.001])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("warping,kappa", [
    (polynomial_warping((0.0, 1.0, 0.0, 0.1)), -0.6),
    (sn_warping(-1.0), -1.0), (sn_warping(0.0), 0.0), (sn_warping(1.0), 1.0),
], ids=["r+r^3/10", "sn_-1", "sn_0", "sn_1"])
def test_ricci_lower_bound_is_not_set_by_rounding_near_a_pole(warping, kappa, n, R0):
    # near a pole the spherical family's 1 - f'^2 cancels, with a
    # rounding error that grows like 1/r^2 and must not set the minimum;
    # the infimum is the closed form, the pole limit of both families
    assert ricci_lower_bound(warping, n, R0) == pytest.approx(kappa, abs=1e-10)


def test_ricci_lower_bound_refuses_a_pole_unbounded_below():
    with pytest.raises(DomainError, match="unbounded below"):
        ricci_lower_bound(polynomial_warping((0.0, 1.0, 1.0)), 3, 1.0)


@pytest.mark.parametrize("coefficients", [(2.5,), (-2.5,), (-1.0, 3.0), (1.0, -0.3, 0.7, 1e-3, -2.5)],
                         ids=["constant", "negative-constant", "linear", "quartic"])
def test_polynomial_warping_is_numpy_polyval_bit_for_bit(coefficients):
    from numpy.polynomial import polynomial as P
    c = np.asarray(coefficients, dtype=float)
    warping = polynomial_warping(coefficients)
    grid = np.concatenate([np.linspace(-3.0, 3.0, 601), [0.0, -0.0]])
    for fn, dc in zip((warping.f, warping.df, warping.d2f), (c, P.polyder(c), P.polyder(c, 2))):
        assert np.array_equal(fn(grid).view(np.int64), P.polyval(grid, dc).view(np.int64))
        for r in (0.0, -0.0, 0.37, -1.2, 2.0**-30):
            value, expected = fn(r), P.polyval(r, dc)
            assert type(value) is type(expected)
            assert float(value).hex() == float(expected).hex()

