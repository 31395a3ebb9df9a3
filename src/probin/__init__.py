"""First Robin eigenvalue of the p-Laplacian on 1-D weighted intervals
and radially symmetric geometries, via two independent solvers, plus
numerical verification suites for the comparison theorems the problems
come from."""

from .coeffs import (
    ModelParams,
    Weight,
    c_model,
    c_model_prime,
    const_weight,
    log_concavity_margin,
    power_weight,
    sn,
    sn_prime,
    weight_model,
    z_cutoff,
)
from .errors import BracketFailure, DomainError, ToleranceFailure
from .problems import (
    BoundaryCondition,
    EigenSolution,
    ProblemSpec,
    SturmProblem,
    Warping,
    boundary_mean_curvature,
    double_robin_problem,
    geodesic_ball_problem,
    inradius_model_problem,
    inverse_momentum,
    momentum,
    polynomial_warping,
    ricci_lower_bound,
    sn_warping,
    warped_product_problem,
)
from .rayleigh import (
    DiscreteFunctional,
    MinimizeConfig,
    discretize,
    minimize,
    quotient,
    rayleigh_spec,
    solve_rayleigh,
)
from .shoot import (
    ShootConfig,
    ShootTrajectory,
    integrate,
    robin_mismatch,
    solve_first_eigenvalue,
    solve_spec,
)
from .verify import (
    VerificationReport,
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

__version__ = "0.1.0"
