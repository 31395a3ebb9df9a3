"""Closed-form coefficients: examples, ODE consistency, cutoffs."""

import math

import numpy as np
import pytest

from probin.coeffs import (
    ModelParams,
    Weight,
    const_weight,
    c_model,
    c_model_prime,
    log_concavity_margin,
    sn,
    sn_prime,
    weight_model,
    z_cutoff,
)
from probin.errors import DomainError
from probin.problems import geodesic_ball_problem, polynomial_warping, warped_product_problem

from oracles import bisect


def test_sn_closed_forms():
    assert sn(0.0, 2.5) == pytest.approx(2.5, abs=0)
    assert sn(1.0, math.pi / 2) == pytest.approx(1.0, rel=1e-15)
    assert sn(-1.0, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-15)


def test_c_model_closed_forms():
    assert c_model(ModelParams(0.0, 0.5, 2), 1.0) == pytest.approx(0.5, rel=1e-15)
    assert c_model(ModelParams(1.0, 0.0, 2), math.pi) == pytest.approx(-1.0, rel=1e-15)
    assert c_model(ModelParams(-1.0, 1.0, 2), 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_cutoff_examples():
    assert z_cutoff(ModelParams(1.0, 0.0, 2)) == pytest.approx(math.pi / 2, rel=1e-15)
    assert z_cutoff(ModelParams(0.0, 0.5, 2)) == pytest.approx(2.0, rel=1e-15)
    assert z_cutoff(ModelParams(0.0, -1.0, 2)) == math.inf
    assert z_cutoff(ModelParams(-1.0, 1.0, 2)) == math.inf  # lambda_mc not above sqrt(-kappa)


@pytest.mark.parametrize("kappa,lam", [
    (1.0, -1.0), (1.0, 0.0), (1.0, 0.7), (1.0, 2.0), (0.3, -0.5),
    (0.0, 0.5), (0.0, 2.0), (-1.0, 1.5), (-1.0, 2.0), (-0.25, 0.9),
])
def test_cutoffs_match_root_search(kappa, lam):
    """Closed-form Z agrees with bisection on C to 1e-12."""
    params = ModelParams(kappa, lam, 3)
    z = z_cutoff(params)
    if math.isfinite(z):
        root = bisect(lambda t: float(c_model(params, t)), 1e-15, z * 1.5 + 0.1)
        assert root == pytest.approx(z, abs=1e-12)


def _fd1(f, t, h=1e-5):
    # fourth-order central stencil
    return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)


@pytest.mark.parametrize("kappa", [2.0, 1.0, 0.0, -0.5, -2.0])
def test_sn_satisfies_oscillator_ode(kappa):
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.2, 1.8, 5):
        s, c = float(sn(kappa, t)), float(sn_prime(kappa, t))
        # first integral of the ODE, exact for the closed forms
        assert c * c + kappa * s * s == pytest.approx(1.0, abs=1e-10)
        assert _fd1(lambda x: float(sn(kappa, x)), t) == pytest.approx(c, abs=1e-9)
        assert _fd1(lambda x: float(sn_prime(kappa, x)), t) == pytest.approx(
            -kappa * s, abs=1e-9)


@pytest.mark.parametrize("kappa,lam", [(1.2, 0.4), (0.0, -0.3), (-0.7, 1.1)])
def test_c_model_initial_data_exact(kappa, lam):
    params = ModelParams(kappa, lam, 4)
    assert float(c_model(params, 0.0)) == 1.0
    assert float(c_model_prime(params, 0.0)) == -lam


def test_flat_specialization():
    params = ModelParams(0.0, 0.0, 5)
    t = np.linspace(0.0, 3.0, 7)
    assert np.all(weight_model(params)(t) == 1.0)


def test_continuity_in_kappa_at_zero():
    for eps in (1e-8, -1e-8):
        for t in (0.5, 1.0, 2.0):
            assert abs(float(sn(eps, t)) - t) < 1e-6


def _ball_weight(kappa, n):
    """sn_kappa^(n-1), the weight of the geodesic ball problem."""
    return geodesic_ball_problem(kappa, n, 1.0, 1.0, 2.0).weight


def test_weight_examples():
    assert _ball_weight(0.0, 3)(2.0) == pytest.approx(4.0, rel=1e-15)
    assert _ball_weight(1.0, 2)(math.pi / 2) == pytest.approx(1.0, rel=1e-15)
    assert weight_model(ModelParams(0.0, 0.0, 5))(0.3) == 1.0


def test_weight_log_deriv_matches_fd():
    # the model weight, a general warping (f'' is not -kappa f) and the
    # hyperbolic ball
    poly = polynomial_warping((0.0, 1.0, 0.0, 0.1))
    for w in (weight_model(ModelParams(-1.0, 0.8, 3)),
              warped_product_problem(poly, 3, 2.0, 1.0, 2.0).weight,
              _ball_weight(-1.0, 3)):
        for t in (0.3, 0.9, 1.7):
            fd = _fd1(lambda x: math.log(float(w(x))), t)
            assert float(w.log_deriv(t)) == pytest.approx(fd, abs=1e-8)
            fd2 = _fd1(lambda x: float(w.log_deriv(x)), t)
            assert float(w.log_second(t)) == pytest.approx(fd2, abs=1e-7)


def test_weight_domain_errors():
    wb = _ball_weight(1.0, 2)
    with pytest.raises(DomainError):
        wb(math.pi + 0.5)  # past the zero of sn
    with pytest.raises(DomainError):
        wb.log_deriv(0.0)
    for dim in (1, 2.5, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="integer dimension"):
            ModelParams(1.0, 0.0, dim)
    with pytest.raises(DomainError):
        ModelParams(math.inf, 0.0, 3)


def test_log_concavity_margin_examples():
    m = log_concavity_margin(_ball_weight(1.0, 2), (0.1, 1.5))
    assert m == pytest.approx(-1.0 / math.sin(1.5) ** 2, rel=1e-12)
    assert m < 0.0
    assert log_concavity_margin(const_weight(), (0.0, 1.0)) == 0.0
    # w = exp(t^2): (log w)'' = 2 exactly
    gauss = Weight(value=lambda t: np.exp(np.asarray(t) ** 2), log_deriv=lambda t: 2 * np.asarray(t),
                   log_second=lambda t: np.full_like(np.asarray(t, dtype=float), 2.0))
    assert log_concavity_margin(gauss, (0.0, 1.0)) == 2.0


@pytest.mark.parametrize("interval", [(1.0, 1.0), (1.0, 0.5)], ids=["point", "reversed"])
def test_log_concavity_rejects_an_empty_interval(interval):
    with pytest.raises(DomainError):
        log_concavity_margin(const_weight(), interval)


def test_log_concavity_rejects_nonpositive_weight():
    # sn^(n-1) vanishes at t = 0, where (log w)'' has its pole
    with pytest.raises(DomainError):
        log_concavity_margin(_ball_weight(1.0, 2), (0.0, 1.0))
