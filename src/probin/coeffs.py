"""Closed-form coefficient functions of space forms and curvature models.

sn(kappa, .) solves y'' + kappa*y = 0 with y(0) = 0, y'(0) = 1; the model
coefficient c_model solves the same ODE with C(0) = 1, C'(0) = -lambda_mc.
Every non-constant weight is f^(n-1) of a warping f and is built by
power_weight from the analytic f, f' and f'': sn^(n-1) on geodesic balls
(problems.sn_warping), C^(n-1) on the model (weight_model).  Its
logarithmic derivatives are analytic too: the shooting ODE consumes w'/w
directly and must have it to machine precision near endpoints where w
vanishes, so nothing here is differentiated numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

# Below this |kappa| the flat closed forms are used; avoids cancellation
# in sin(sqrt(k)*t)/sqrt(k) for tiny k.
FLAT_KAPPA_EPS = 1e-12

# Weight bases this close to zero (absolute) are clamped to exactly zero
# so grids that touch a vanishing endpoint do not trip DomainError on
# rounding noise.
_ZERO_CLAMP = 1e-10

# Weights each memoized weight factory keeps.  Equal geometries get one
# Weight object, so the Rayleigh solver's per-mesh cache, keyed on the
# weight, is shared by every problem on them.
WEIGHT_CACHE = 256

_LOG_CONCAVITY_NODES = 512  # uniform grid of log_concavity_margin


@dataclass(frozen=True)
class ModelParams:
    """Curvature bound kappa (1/length^2), mean-curvature bound lambda_mc
    (1/length), and dimension dim >= 2."""

    kappa: float
    lambda_mc: float
    dim: int

    def __post_init__(self):
        if self.dim < 2 or int(self.dim) != self.dim:
            raise DomainError("dim must be an integer >= 2, got %r" % (self.dim,))
        if not (math.isfinite(self.kappa) and math.isfinite(self.lambda_mc)):
            raise DomainError("kappa and lambda_mc must be finite")


def sn(kappa: float, t):
    """Jacobi-field coefficient of the space form of curvature kappa."""
    if kappa > FLAT_KAPPA_EPS:
        r = math.sqrt(kappa)
        return np.sin(r * t) / r
    if kappa < -FLAT_KAPPA_EPS:
        s = math.sqrt(-kappa)
        return np.sinh(s * t) / s
    return np.multiply(t, 1.0)


def sn_prime(kappa: float, t):
    """Derivative of sn; equals cos, 1, or cosh by the sign of kappa."""
    if kappa > FLAT_KAPPA_EPS:
        return np.cos(math.sqrt(kappa) * t)
    if kappa < -FLAT_KAPPA_EPS:
        return np.cosh(math.sqrt(-kappa) * t)
    return np.ones_like(np.asarray(t, dtype=float))[()] if np.ndim(t) else 1.0


def c_model(params: ModelParams, t):
    """Model coefficient: C'' + kappa*C = 0, C(0) = 1, C'(0) = -lambda_mc."""
    k, lam = params.kappa, params.lambda_mc
    if k > FLAT_KAPPA_EPS:
        r = math.sqrt(k)
        return np.cos(r * t) - (lam / r) * np.sin(r * t)
    if k < -FLAT_KAPPA_EPS:
        s = math.sqrt(-k)
        return np.cosh(s * t) - (lam / s) * np.sinh(s * t)
    return 1.0 - lam * np.multiply(t, 1.0)


def c_model_prime(params: ModelParams, t):
    """Analytic derivative of c_model: -kappa*sn - lambda_mc*sn'."""
    k, lam = params.kappa, params.lambda_mc
    return -k * sn(k, t) - lam * sn_prime(k, t)


def z_cutoff(params: ModelParams) -> float:
    """First positive zero of the model coefficient C, or +inf.

    Closed form by the sign of kappa (no root search):
    kappa > 0: arccot(lambda_mc/sqrt(kappa)) / sqrt(kappa), always finite;
    kappa = 0: 1/lambda_mc if lambda_mc > 0;
    kappa < 0: artanh(sqrt(-kappa)/lambda_mc)/sqrt(-kappa) if
    lambda_mc > sqrt(-kappa).
    """
    k, lam = params.kappa, params.lambda_mc
    if k > FLAT_KAPPA_EPS:
        r = math.sqrt(k)
        return math.atan2(1.0, lam / r) / r
    if k < -FLAT_KAPPA_EPS:
        s = math.sqrt(-k)
        if lam > s:
            return math.atanh(s / lam) / s
        return math.inf
    if lam > 0.0:
        return 1.0 / lam
    return math.inf


@dataclass(frozen=True)
class Weight:
    """A positive weight with analytic log-derivative w'/w and analytic
    (log w)''.  Instances are callables returning w(t)."""

    value: Callable
    log_deriv: Callable
    log_second: Callable

    def __call__(self, t):
        return self.value(t)


def power_weight(f: Callable, df: Callable, d2f: Callable, expo: float, what: str) -> Weight:
    """The weight f^expo of a base function f with analytic f' and f''.

    Its value clamps rounding-level negative bases to 0 (and raises past
    that); (log w)' = expo f'/f and (log w)'' = expo (f''/f - (f'/f)^2)
    raise DomainError where f <= 0.  what names the weight in errors."""

    def value(t):
        b = np.asarray(f(t), dtype=float)
        if np.any(b < -_ZERO_CLAMP):
            raise DomainError("%s evaluated past the zero of its base function" % what)
        out = np.clip(b, 0.0, None) ** expo
        return out[()] if out.ndim == 0 else out

    def base(t):
        ft = f(t)
        if np.any(np.asarray(ft) <= 0.0):
            raise DomainError("%s log-derivative at or past a zero of its base function" % what)
        return ft

    def log_deriv(t):
        return expo * df(t) / base(t)

    def log_second(t):
        ft = base(t)
        r = df(t) / ft
        return -expo * (r * r - d2f(t) / ft)

    return Weight(value, log_deriv, log_second)


@functools.lru_cache(maxsize=WEIGHT_CACHE)
def weight_model(params: ModelParams) -> Weight:
    """Model weight C_(kappa,lambda_mc)^(n-1); vanishes at t=Z if finite."""
    k = params.kappa
    return power_weight(lambda t: c_model(params, t), lambda t: c_model_prime(params, t),
                        lambda t: -k * c_model(params, t), float(params.dim - 1), "model weight")


@functools.cache
def const_weight() -> Weight:
    """The trivial weight w = 1, one object for every caller."""

    def value(t):
        return np.ones_like(np.asarray(t, dtype=float))[()] if np.ndim(t) else 1.0

    def zero(t):
        return np.zeros_like(np.asarray(t, dtype=float))[()] if np.ndim(t) else 0.0

    return Weight(value, zero, zero)


def log_concavity_margin(weight: Weight, interval) -> float:
    """Max of the analytic (log w)'' over a uniform grid on the interval.

    A negative return certifies strict log-concavity on the grid.  The
    weight's log_second raises DomainError where w vanishes.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (b > a):
        raise DomainError("empty interval")
    grid = np.linspace(a, b, _LOG_CONCAVITY_NODES)
    return float(np.max(np.asarray(weight.log_second(grid), dtype=float)))
