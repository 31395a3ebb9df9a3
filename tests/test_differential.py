"""Differential test: shooting against the Rayleigh minimizer on drawn
problems.

The two solvers share nothing but the problem definition, so their
agreement on problems no fixed matrix names is the check that catches a
regression in either.  The draws are pinned (derandomize=True), so the
suite stays deterministic.  A second draw covers p near 1 with alpha > 0,
where the slopes vary over many orders of magnitude.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from probin.problems import ProblemSpec
from probin.rayleigh import rayleigh_spec
from probin.shoot import solve_spec

FAMILIES = {
    "flat": {"type": "inradius_model", "R": 1.0, "kappa": 0.0, "lambda_mc": 0.0, "n": 2},
    "hyperbolic_ball": {"type": "geodesic_ball", "R": 1.0, "kappa": -1.0, "n": 3},
    "spherical_cap": {"type": "geodesic_ball", "R": 1.0, "kappa": 1.0, "n": 3},
    "double_robin": {"type": "double_robin", "R": 0.5},
    "curvature_model": {"type": "inradius_model", "R": 1.0, "kappa": 1.0, "lambda_mc": 0.5, "n": 3},
}


def _check_evals(sol_s, sol_r):
    # both solvers count their passes over the problem: shooting its
    # integrations, Rayleigh its marches or evaluations of the inverse
    # step, at least one per step
    d_s, d_r = sol_s.diagnostics, sol_r.diagnostics
    assert d_s["evals"] == d_s["integrations"]
    assert d_r["evals"] >= d_r["steps"] > 0


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    p=st.floats(1.6, 3.0),
    magnitude=st.floats(0.1, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_shooting_and_rayleigh_agree(family, p, magnitude, sign):
    spec = ProblemSpec.from_dict(dict(FAMILIES[family], p=p, alpha=sign * magnitude))
    sol_s, sol_r = solve_spec(spec), rayleigh_spec(spec, 2000)
    _check_evals(sol_s, sol_r)
    lam_s, lam_r = sol_s.lambda_val, sol_r.lambda_val
    assert abs(lam_r - lam_s) <= 1e-4 * abs(lam_s), (family, p, sign * magnitude, lam_s, lam_r)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    p=st.floats(1.05, 1.6),
    log_alpha=st.floats(-1.0, 4.0),
)
def test_shooting_and_rayleigh_agree_near_p1(family, p, log_alpha):
    spec = ProblemSpec.from_dict(dict(FAMILIES[family], p=p, alpha=10.0 ** log_alpha))
    sol_s, sol_r = solve_spec(spec), rayleigh_spec(spec, 2000)
    _check_evals(sol_s, sol_r)
    lam_s, lam_r = sol_s.lambda_val, sol_r.lambda_val
    assert abs(lam_r - lam_s) <= 1e-4 * abs(lam_s), (family, p, 10.0 ** log_alpha, lam_s, lam_r)
