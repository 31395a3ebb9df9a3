"""Acceptance suite: every exit criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run pytest -s to see them all).
Oracle values come from tests/oracles.py, computed from transcendental
equations and special functions independently of the solver code.
"""

import math

import numpy as np
import pytest

from probin.problems import ProblemSpec, polynomial_warping
from probin.rayleigh import rayleigh_spec
from probin.shoot import ShootConfig, solve_spec
from probin.verify import (
    barta_sandwich,
    eigenfunction_shape_suite,
    inradius_equality_check,
    inradius_slack_check,
    picone_check,
    reflection_identity,
)

from oracles import disk_robin_lambda, flat_robin_lambda, mixed_dn_lambda

# frozen from the oracles (see tests/oracles.py)
FLAT_ANCHOR = 0.740173884394967        # flat_robin_lambda(1, 1)
FLAT_ANCHOR_NEG = -1.4392288398906454  # flat_robin_lambda(1, -1)
DN_LIMIT_P2 = 2.4674011002723395       # mixed_dn_lambda(2, 1)
DN_LIMIT_P3 = 3.536095247000319        # mixed_dn_lambda(3, 1)
DISK_ANCHOR = 1.576992730808607        # disk_robin_lambda(1); sqrt = 1.2558

GEOMETRIES = {
    "flat_interval": {"type": "inradius_model", "kappa": 0.0, "lambda_mc": 0.0, "n": 2, "R": 1.0},
    "disk": {"type": "geodesic_ball", "kappa": 0.0, "n": 2, "R": 1.0},
    "hyperbolic_ball": {"type": "geodesic_ball", "kappa": -1.0, "n": 3, "R": 1.0},
    "log_linear_model": {"type": "inradius_model", "kappa": -1.0, "lambda_mc": 1.0, "n": 3, "R": 1.0},
}


def _flat_spec(R, alpha, p=2.0):
    return ProblemSpec("inradius_model", R=R, alpha=alpha, p=p,
                       kappa=0.0, lambda_mc=0.0, n=2)


def _criterion(num, label, ok, detail=""):
    print("ACCEPTANCE %02d %-28s %s %s" % (num, label, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (label, detail)


def test_criterion_01_flat_transcendental_oracle():
    worst = 0.0
    for r_len in (0.5, 1.0, 2.0):
        for alpha in (0.5, 1.0, 5.0, -0.5, -1.0):
            lam = solve_spec(_flat_spec(r_len, alpha)).lambda_val
            ref = flat_robin_lambda(r_len, alpha)
            worst = max(worst, abs(lam - ref) / abs(ref))
    anchor = solve_spec(_flat_spec(1.0, 1.0)).lambda_val
    worst = max(worst, abs(anchor - FLAT_ANCHOR) / FLAT_ANCHOR)
    _criterion(1, "flat-interval oracle", worst <= 1e-6, "worst rel err %.2e" % worst)


def test_criterion_02_dirichlet_limit():
    worst = 0.0
    anchors = {2.0: DN_LIMIT_P2, 3.0: DN_LIMIT_P3}
    for p in (1.5, 2.0, 3.0):
        lam = solve_spec(_flat_spec(1.0, 1e6, p)).lambda_val
        ref = mixed_dn_lambda(p, 1.0)
        if p in anchors:
            assert ref == pytest.approx(anchors[p], rel=1e-12)
        worst = max(worst, abs(lam - ref) / ref)
    _criterion(2, "dirichlet limit alpha=1e6", worst <= 0.01, "worst rel dev %.2e" % worst)


def test_criterion_03_cross_solver_agreement():
    worst = 0.0
    worst_case = ""
    for name, doc in GEOMETRIES.items():
        for p in (1.5, 2.0, 3.0):
            for alpha in (-1.0, 1.0):
                spec = ProblemSpec.from_dict(dict(doc, alpha=alpha, p=p))
                lam_s = solve_spec(spec, ShootConfig(rk_steps=4096)).lambda_val
                lam_r = rayleigh_spec(spec, 2000).lambda_val
                dis = abs(lam_s - lam_r) / max(1.0, abs(lam_s))
                if dis > worst:
                    worst, worst_case = dis, "%s p=%g alpha=%g" % (name, p, alpha)
    _criterion(3, "cross-solver agreement", worst <= 1e-3,
               "worst %.2e (%s)" % (worst, worst_case))


def test_criterion_04_reflection_identity():
    worst_eig = 0.0
    worst_sym = 0.0
    for r_len in (0.5, 1.0):
        for alpha in (-1.0, 1.0):
            for p in (1.5, 2.0, 3.0):
                rep = reflection_identity(r_len, alpha, p)
                assert rep.passed, rep
                worst_eig = max(worst_eig, abs(rep.lhs - rep.rhs))
                worst_sym = max(worst_sym, rep.extras["symmetry_defect"])
    ok = worst_eig <= 1e-8 and worst_sym <= 1e-6
    _criterion(4, "double-robin reflection", ok,
               "worst eig gap %.2e, symmetry defect %.2e" % (worst_eig, worst_sym))


def test_criterion_05_model_ball_equality():
    worst = 0.0
    for kappa, n in ((0.0, 2), (-1.0, 3)):
        for alpha in (-1.0, 1.0):
            for p in (2.0, 3.0):
                rep = inradius_equality_check(kappa, n, 1.0, alpha, p)
                assert rep.passed, rep
                worst = max(worst, abs(rep.lhs - rep.rhs))
    ok = worst <= 1e-5
    _criterion(5, "model-ball equality", ok, "worst margin %.2e" % worst)


def test_criterion_06_slackened_bounds_strict():
    weakest = math.inf
    for kappa, n in ((0.0, 2), (-1.0, 3)):
        for alpha in (-1.0, 1.0):
            for p in (2.0, 3.0):
                for slack in ({"d_lambda": 0.3}, {"d_kappa": 0.5}):
                    rep = inradius_slack_check(kappa, n, 1.0, alpha, p, **slack)
                    assert rep.passed, rep
                    assert rep.margin > 10.0 * rep.tolerance, rep
                    weakest = min(weakest, rep.margin)
    _criterion(6, "slackened bounds strict", weakest > 1e-5,
               "weakest margin %.2e" % weakest)


def test_criterion_07_curvature_monotonicity():
    kappas = (-1.0, -0.5, 0.0, 0.5, 1.0)
    lams_pos = [solve_spec(ProblemSpec("geodesic_ball", R=1.0, alpha=1.0, p=2.0,
                                       kappa=k, n=2)).lambda_val for k in kappas]
    lams_neg = [solve_spec(ProblemSpec("geodesic_ball", R=1.0, alpha=-1.0, p=2.0,
                                       kappa=k, n=2)).lambda_val for k in kappas]
    decreasing = all(a > b for a, b in zip(lams_pos, lams_pos[1:]))
    increasing = all(a < b for a, b in zip(lams_neg, lams_neg[1:]))
    anchor_err = abs(lams_pos[2] - disk_robin_lambda(1.0)) / DISK_ANCHOR
    assert disk_robin_lambda(1.0) == pytest.approx(DISK_ANCHOR, rel=1e-12)
    ok = decreasing and increasing and anchor_err <= 1e-6
    _criterion(7, "curvature monotonicity", ok,
               "disk anchor rel err %.2e" % anchor_err)


def test_criterion_08_eigenfunction_shape_suite():
    worst_riccati = 0.0
    skips = 0
    # strictly log-concave: the reflected sphere ball (R = cutoff) and a
    # regular spherical model; log-linear: exponential weight (skips)
    cot1 = math.cos(1.0) / math.sin(1.0)
    cases = [
        (1.0, cot1, 3), (1.0, 0.0, 3), (1.0, 0.0, 2), (0.0, 0.5, 2),
        (-1.0, 1.0, 3),
    ]
    for kappa, lam_mc, n in cases:
        log_linear = (kappa == -1.0 and lam_mc == 1.0)
        for alpha in (-1.0, 1.0):
            for p in (1.5, 2.0, 3.0):
                spec = ProblemSpec("inradius_model", R=1.0, alpha=alpha, p=p,
                                   kappa=kappa, lambda_mc=lam_mc, n=n)
                sol = solve_spec(spec)
                reps = {r.name: r for r in eigenfunction_shape_suite(spec.build(), sol)}
                assert reps["eigenfunction_gradient_sign"].passed
                assert reps["riccati_identity"].passed
                worst_riccati = max(worst_riccati, reps["riccati_identity"].lhs)
                if log_linear:
                    assert reps["log_derivative_monotone"].status == "skip"
                    assert reps["log_derivative_bound"].status == "skip"
                    skips += 1
                else:
                    assert reps["log_derivative_monotone"].passed
                    assert reps["log_derivative_bound"].passed
                    assert reps["log_derivative_bound"].lhs <= abs(alpha) + 1e-6
    ok = worst_riccati < 1e-4 and skips == 6
    _criterion(8, "eigenfunction shape suite", ok,
               "worst riccati residual %.2e, %d skips" % (worst_riccati, skips))


def test_criterion_09_picone_identity():
    rng = np.random.default_rng(90210)
    grid = np.linspace(0.0, 1.0, 100001)
    worst_dev = 0.0
    worst_neg = 0.0
    for trial in range(100):
        p = rng.choice([1.5, 2.0, 3.0])
        u = np.exp(0.5 * np.sin(rng.uniform(1.0, 3.0) * grid + rng.uniform(0, 6.28))
                   + 0.3 * rng.uniform(-1, 1) * grid)
        v = np.exp(0.4 * np.cos(rng.uniform(1.0, 3.0) * grid + rng.uniform(0, 6.28))
                   + 0.2 * rng.uniform(-1, 1) * grid * grid)
        rep = picone_check(u, v, grid, float(p))
        worst_dev = max(worst_dev, rep.extras["max_deviation"])
        worst_neg = min(worst_neg, rep.extras["min_L"])
        assert rep.passed, (trial, rep.extras)
    v = np.exp(0.3 * np.sin(2.0 * grid))
    rep = picone_check(3.0 * v, v, grid, 2.0, tol_identity=1e-8)
    prop_l = rep.extras["max_abs_L"]
    ok = worst_dev < 1e-8 and worst_neg > -1e-10 and prop_l < 1e-10
    _criterion(9, "picone identity", ok,
               "max|L-R| %.2e, min L %.1e, proportional max|L| %.1e" % (
                   worst_dev, worst_neg, prop_l))


def test_criterion_10_barta_sandwich():
    worst_gap = 0.0
    for doc, p in ((GEOMETRIES["flat_interval"], 2.0),
                   (GEOMETRIES["disk"], 2.0),
                   (GEOMETRIES["flat_interval"], 3.0)):
        spec = ProblemSpec.from_dict(dict(doc, alpha=1.0, p=p))
        prob = spec.build()
        sol = solve_spec(spec)
        rep = barta_sandwich(prob, sol, lam=sol.lambda_val, tolerance=1e-4)
        assert rep.passed, rep
        worst_gap = max(worst_gap, sol.lambda_val - rep.lhs, rep.rhs - sol.lambda_val)
        bump = 0.05 * np.sin(math.pi * (sol.grid - prob.a) / prob.length) ** 2
        strict = barta_sandwich(prob, (sol.grid, sol.phi + bump),
                                lam=sol.lambda_val, tolerance=1e-12)
        assert strict.passed, strict
        assert strict.lhs < sol.lambda_val < strict.rhs
    _criterion(10, "barta sandwich", worst_gap <= 1e-4,
               "worst eigenfunction gap %.2e" % worst_gap)
