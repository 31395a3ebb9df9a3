"""Both solvers against the exact first Robin eigenvalue of the flat
interval at every p (oracles.flat_robin_lambda_p).

The flat interval [0, R] has Robin(alpha) at 0 and Neumann at R.  The
double-Robin interval of half-length R has the same eigenvalue, by
reflection.  Errors are relative to max(1, |lambda|), and the bounds are
stated from the errors measured on these grids.  alpha > 0:
- shooting at 4 096 RK4 steps: at most 3.4e-9, except on double-Robin
  p = 8, alpha = 1e4 (1.5e-8), where the fixed step's error is largest;
- Rayleigh at m = 2000: at most 7.6e-7, except on that same row (1.4e-6).
alpha < 0, p in {1.5, 2, 3, 5}, alpha in {-0.3, -1, -3}:
- shooting: at most 1.2e-10 (double-Robin p = 5, alpha = -1);
- Rayleigh: at most 8.1e-7, except at p = 1.5, alpha = -3, the
  thinnest layer on the grid (flat 2.5e-6, double-Robin 2.4e-6).
Nearer p = 1 and deeper layers stay out: there the Rayleigh error is
not yet bounded, and shooting refuses a layer past RK4's stability edge.
"""

import pytest

from probin.problems import ProblemSpec
from probin.rayleigh import rayleigh_spec
from probin.shoot import solve_spec

from oracles import flat_robin_lambda, flat_robin_lambda_p

PS = [1.05, 1.5, 2.0, 3.0, 5.0, 8.0]
ALPHAS = [0.1, 1.0, 10.0, 1e4]

# solver -> (bound on every row but the one below, bound on that row)
BOUNDS = {"shooting": (5e-9, 2e-8), "rayleigh": (1e-6, 2e-6)}
# the row whose error sets the second bound of each solver
WORST_ROW = ("double_robin", 8.0, 1e4)

NEGATIVE_PS = [1.5, 2.0, 3.0, 5.0]
NEGATIVE_ALPHAS = [-0.3, -1.0, -3.0]
NEGATIVE_BOUNDS = {"shooting": (2e-10, 2e-10), "rayleigh": (1e-6, 3e-6)}
# (p, alpha) of the rows, on either family, whose error sets the second bound
NEGATIVE_WORST = (1.5, -3.0)

FAMILIES = {
    "flat": (1.0, lambda alpha, p: ProblemSpec("inradius_model", R=1.0, alpha=alpha, p=p,
                                               kappa=0.0, lambda_mc=0.0, n=2)),
    "double_robin": (0.5, lambda alpha, p: ProblemSpec("double_robin", R=0.5, alpha=alpha, p=p)),
}


@pytest.mark.parametrize("r_len", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha", [-1e4, -10.0, -1.0, -0.1, -1e-3, 1e-3, 0.1, 1.0, 10.0, 1e4, 1e6])
def test_oracle_is_the_p2_closed_form(alpha, r_len):
    # measured at most 3.6e-16 relative for alpha > 0, 3.9e-16 for alpha < 0
    assert flat_robin_lambda_p(r_len, alpha, 2.0) == pytest.approx(
        flat_robin_lambda(r_len, alpha), rel=1e-15)


def test_oracle_keeps_y_where_c_is_far_below_lambda():
    # c = 0.05 * 0.1^21: 1 - lambda/(lambda + c) would be 0.  The
    # eigenfunction is nearly constant, so lambda is alpha/R to rounding
    # (measured 1.2e-15 off)
    assert flat_robin_lambda_p(1.0, 0.1, 1.05) == pytest.approx(0.1, rel=1e-12)


def _error(family, p, alpha, solver):
    r_len, spec = FAMILIES[family]
    solve = solve_spec if solver == "shooting" else rayleigh_spec
    exact = flat_robin_lambda_p(r_len, alpha, p)
    return abs(solve(spec(alpha, p)).lambda_val - exact) / max(1.0, abs(exact))


@pytest.mark.parametrize("solver", ["shooting", "rayleigh"])
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("family", FAMILIES)
def test_solvers_match_the_exact_flat_value(family, p, alpha, solver):
    bound, worst_bound = BOUNDS[solver]
    assert _error(family, p, alpha, solver) <= (
        worst_bound if (family, p, alpha) == WORST_ROW else bound)


@pytest.mark.parametrize("solver", ["shooting", "rayleigh"])
@pytest.mark.parametrize("alpha", NEGATIVE_ALPHAS)
@pytest.mark.parametrize("p", NEGATIVE_PS)
@pytest.mark.parametrize("family", FAMILIES)
def test_solvers_match_the_exact_flat_value_below_zero(family, p, alpha, solver):
    bound, worst_bound = NEGATIVE_BOUNDS[solver]
    assert _error(family, p, alpha, solver) <= (
        worst_bound if (p, alpha) == NEGATIVE_WORST else bound)
