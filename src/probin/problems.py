"""Builders that turn geometric parameters into 1-D eigenproblems.

All problems share one boundary-condition convention.  With the momentum
psi = |phi'|^(p-2) phi' and the outward direction at an endpoint (-1 at
the left end, +1 at the right end), a Robin condition with parameter
alpha reads

    (outward sign) * psi(endpoint) + alpha * |phi|^(p-2) phi(endpoint) = 0,

i.e. psi(a) = +alpha*|phi|^(p-2)phi(a) at a left Robin end and
psi(b) = -alpha*|phi|^(p-2)phi(b) at a right Robin end.  Storing the
condition this way keeps reflected problems sign-safe.  The momentum map
and its inverse are defined here, once, for both solvers and the checks.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .coeffs import (
    ModelParams,
    Weight,
    _clamped_power,
    const_weight,
    sn,
    sn_prime,
    weight_ball,
    weight_model,
    z_cutoff,
)
from .errors import DomainError

# Robin parameters smaller than this are rejected; encode alpha = 0 as an
# explicit Neumann condition instead.
ALPHA_MIN = 1e-14

_REL_TOL = 1e-12

_RICCI_NODES = 2048  # curvature grid of ricci_lower_bound


def momentum(x, p: float):
    """|x|^(p-2) x, the p-Laplacian momentum map; momentum(0) = 0."""
    return np.sign(x) * np.abs(x) ** (p - 1.0)


def inverse_momentum(y, p: float):
    """Inverse of momentum: |y|^(q-2) y with q = p/(p-1)."""
    return np.sign(y) * np.abs(y) ** (1.0 / (p - 1.0))


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str  # "neumann" | "robin"
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("neumann", "robin"):
            raise DomainError("unknown boundary kind %r" % (self.kind,))
        if self.kind == "robin":
            if self.alpha is None or not math.isfinite(self.alpha):
                raise DomainError("robin condition needs a finite alpha")
            if abs(self.alpha) < ALPHA_MIN:
                raise DomainError(
                    "|alpha| < %g is degenerate; use a neumann condition" % ALPHA_MIN
                )
        elif self.alpha is not None:
            raise DomainError("alpha is only meaningful for robin conditions")

    @staticmethod
    def neumann():
        return BoundaryCondition("neumann")

    @staticmethod
    def robin(alpha: float):
        return BoundaryCondition("robin", float(alpha))


@dataclass(frozen=True)
class SturmProblem:
    """A weighted 1-D p-Laplacian eigenproblem on [a, b].

    The weight is positive on the open interval and may vanish at one
    endpoint (then that endpoint is singular, carries the Neumann
    condition, and singular_order is the vanishing order of w there).
    """

    a: float
    b: float
    p: float
    weight: Weight
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition
    singular_left: bool = False
    singular_right: bool = False
    singular_order: int = 0

    def __post_init__(self):
        if not self.b > self.a:
            raise DomainError("need a < b")
        if not self.p > 1.0:
            raise DomainError("need p > 1")
        if self.singular_left and self.singular_right:
            raise DomainError("at most one singular endpoint")
        if self.singular_left and self.bc_left.kind != "neumann":
            raise DomainError("a singular endpoint must carry the neumann condition")
        if self.singular_right and self.bc_right.kind != "neumann":
            raise DomainError("a singular endpoint must carry the neumann condition")
        if (self.singular_left or self.singular_right) and self.singular_order < 1:
            raise DomainError("singular endpoint needs a positive vanishing order")

    @property
    def length(self) -> float:
        return self.b - self.a

    def robin_ends(self):
        """List of (end, outward_sign, alpha) with end in {'left','right'}."""
        out = []
        if self.bc_left.kind == "robin":
            out.append(("left", -1.0, self.bc_left.alpha))
        if self.bc_right.kind == "robin":
            out.append(("right", 1.0, self.bc_right.alpha))
        return out


def _read_only(value):
    """value with its dicts (nested too) as read-only mappings and its
    arrays marked read-only."""
    if isinstance(value, dict):
        return types.MappingProxyType({k: _read_only(v) for k, v in value.items()})
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    return value


@dataclass(frozen=True)
class EigenSolution:
    """Eigenvalue estimate with sampled eigenfunction and momentum.

    Read-only throughout (fields, sample arrays, diagnostics and the
    dicts and arrays inside them): the spec-keyed solver caches hand the
    same solution to every caller."""

    lambda_val: float
    grid: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    residual: float
    method: str
    diagnostics: Mapping = field(default_factory=dict)

    def __post_init__(self):
        for arr in (self.grid, self.phi, self.psi):
            arr.setflags(write=False)
        object.__setattr__(self, "diagnostics", _read_only(dict(self.diagnostics)))


@dataclass(frozen=True)
class Warping:
    """Warping function f with analytic first and second derivatives.

    kind/coefficients are set by the factory helpers and make the warping
    JSON-serializable; hand-built warpings leave them None.  Equality and
    hash follow (kind, coefficients), which is what the JSON form keeps;
    a hand-built warping equals only one with the same three callables.
    Either way equal warpings define the same problem, so specs that
    carry them are sound cache keys.
    """

    f: Callable
    df: Callable
    d2f: Callable
    kind: Optional[str] = None
    coefficients: Optional[tuple] = None

    def _key(self) -> tuple:
        if self.kind is None:
            return (self.f, self.df, self.d2f)
        return (self.kind, self.coefficients)

    def __eq__(self, other):
        if not isinstance(other, Warping):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def polynomial_warping(coefficients) -> Warping:
    """Warping f(r) = sum c_k r^k with coefficients in ascending order."""
    coeffs = tuple(float(c) for c in coefficients)
    c = np.asarray(coeffs)
    dc = np.polynomial.polynomial.polyder(c)
    d2c = np.polynomial.polynomial.polyder(c, 2)

    def f(r):
        return np.polynomial.polynomial.polyval(r, c)

    def df(r):
        return np.polynomial.polynomial.polyval(r, dc)

    def d2f(r):
        return np.polynomial.polynomial.polyval(r, d2c)

    return Warping(f, df, d2f, "polynomial", coeffs)


def sn_warping(kappa: float) -> Warping:
    """Warping equal to the space-form coefficient sn_kappa."""
    k = float(kappa)

    def d2f(r):
        return -k * sn(k, r)

    return Warping(lambda r: sn(k, r), lambda r: sn_prime(k, r), d2f, "sn", (k,))


def _warping_weight(w: Warping, n: int) -> Weight:
    expo = float(n - 1)

    def value(t):
        return _clamped_power(w.f(t), expo, "warping weight")

    def log_deriv(t):
        f = w.f(t)
        if np.any(np.asarray(f) <= 0.0):
            raise DomainError("warping log-derivative at a zero of f")
        return expo * w.df(t) / f

    def log_second(t):
        f = w.f(t)
        if np.any(np.asarray(f) <= 0.0):
            raise DomainError("warping log-curvature at a zero of f")
        dfv = w.df(t)
        return expo * (w.d2f(t) * f - dfv * dfv) / (f * f)

    return Weight(value, log_deriv, log_second)


@dataclass(frozen=True)
class ProblemSpec:
    """Serializable description of a builder call.

    JSON document: {type, kappa, lambda_mc, n, R, alpha, p,
    warping?: {kind, coefficients}}; round-trips losslessly for all
    finite fields.
    """

    type: str
    R: float
    alpha: float
    p: float
    kappa: Optional[float] = None
    lambda_mc: Optional[float] = None
    n: Optional[int] = None
    warping: Optional[Warping] = None

    def __post_init__(self):
        if self.type not in _BUILDERS:
            raise DomainError("unknown problem type %r" % (self.type,))

    def to_dict(self) -> dict:
        out = {
            "type": self.type,
            "R": self.R,
            "alpha": self.alpha,
            "p": self.p,
        }
        if self.kappa is not None:
            out["kappa"] = self.kappa
        if self.lambda_mc is not None:
            out["lambda_mc"] = self.lambda_mc
        if self.n is not None:
            out["n"] = self.n
        if self.warping is not None:
            if self.warping.kind is None:
                raise DomainError("warping built from raw callables cannot serialize")
            out["warping"] = {
                "kind": self.warping.kind,
                "coefficients": list(self.warping.coefficients),
            }
        return out

    @staticmethod
    def from_dict(doc: dict) -> "ProblemSpec":
        warping = None
        if "warping" in doc and doc["warping"] is not None:
            wdoc = doc["warping"]
            if wdoc["kind"] == "polynomial":
                warping = polynomial_warping(wdoc["coefficients"])
            elif wdoc["kind"] == "sn":
                warping = sn_warping(wdoc["coefficients"][0])
            else:
                raise DomainError("unknown warping kind %r" % (wdoc["kind"],))
        return ProblemSpec(
            type=doc.get("type"),
            R=float(doc["R"]),
            alpha=float(doc["alpha"]),
            p=float(doc["p"]),
            kappa=float(doc["kappa"]) if "kappa" in doc and doc["kappa"] is not None else None,
            lambda_mc=float(doc["lambda_mc"]) if "lambda_mc" in doc and doc["lambda_mc"] is not None else None,
            n=int(doc["n"]) if "n" in doc and doc["n"] is not None else None,
            warping=warping,
        )

    def build(self) -> SturmProblem:
        return _BUILDERS[self.type](self)


def inradius_model_problem(params: ModelParams, R: float, alpha: float, p: float) -> SturmProblem:
    """Model problem on [0, R]: weight C^(n-1), Robin(alpha) at 0, Neumann
    at R.  Requires R <= Z (the drift C'/C must stay finite inside); at
    R = Z the right endpoint is singular (the ball equality case)."""
    if R <= 0:
        raise DomainError("need R > 0")
    z = z_cutoff(params)
    at_z = math.isfinite(z) and abs(R - z) <= _REL_TOL * max(1.0, z)
    if R > z and not at_z:
        raise DomainError(
            "R=%g exceeds the model cutoff Z=%g (drift pole inside the interval)" % (R, z)
        )
    return SturmProblem(
        a=0.0,
        b=float(R),
        p=float(p),
        weight=weight_model(params),
        bc_left=BoundaryCondition.robin(alpha),
        bc_right=BoundaryCondition.neumann(),
        singular_right=at_z,
        singular_order=params.dim - 1 if at_z else 0,
    )


def geodesic_ball_problem(kappa: float, n: int, R0: float, alpha: float, p: float) -> SturmProblem:
    """Radial problem of the geodesic ball of radius R0 in the space form
    of curvature kappa: weight sn^(n-1) (singular at the center), Neumann
    at 0, Robin(alpha) at R0."""
    if R0 <= 0:
        raise DomainError("need R0 > 0")
    if n < 2 or int(n) != n:
        raise DomainError("need integer dimension n >= 2")
    if kappa > 0 and R0 >= math.pi / math.sqrt(kappa) * (1.0 - _REL_TOL):
        raise DomainError(
            "ball radius %g reaches pi/sqrt(kappa)=%g" % (R0, math.pi / math.sqrt(kappa))
        )
    return SturmProblem(
        a=0.0,
        b=float(R0),
        p=float(p),
        weight=weight_ball(kappa, n),
        bc_left=BoundaryCondition.neumann(),
        bc_right=BoundaryCondition.robin(alpha),
        singular_left=True,
        singular_order=n - 1,
    )


def double_robin_problem(R: float, alpha: float, p: float) -> SturmProblem:
    """Constant-weight problem on [0, 2R] with Robin(alpha) at both ends."""
    if R <= 0:
        raise DomainError("need R > 0")
    return SturmProblem(
        a=0.0,
        b=2.0 * float(R),
        p=float(p),
        weight=const_weight(),
        bc_left=BoundaryCondition.robin(alpha),
        bc_right=BoundaryCondition.robin(alpha),
    )


def warped_product_problem(warping: Warping, n: int, R0: float, alpha: float, p: float) -> SturmProblem:
    """Radial problem with weight f^(n-1), Neumann at 0, Robin at R0.

    Ball type exactly when f(0) = 0 (to 1e-12): it requires f'(0) = 1 for
    a smooth pole, and the inner endpoint is singular.  Cylinder/annulus
    type otherwise: it requires f > 0 on all of [0, R0].
    """
    if R0 <= 0:
        raise DomainError("need R0 > 0")
    if n < 2 or int(n) != n:
        raise DomainError("need integer dimension n >= 2")
    f0 = float(warping.f(0.0))
    pole = abs(f0) <= 1e-12
    grid = np.linspace(R0 / 512.0, R0, 512)
    if np.any(np.asarray(warping.f(grid), dtype=float) <= 0.0):
        raise DomainError("warping function must be positive on (0, R0]")
    if pole:
        d0 = float(warping.df(0.0))
        if abs(d0 - 1.0) > 1e-9:
            raise DomainError("smooth pole needs f'(0) = 1, got %g" % d0)
    elif f0 <= 0.0:
        raise DomainError("cylinder-type warping needs f(0) > 0")
    return SturmProblem(
        a=0.0,
        b=float(R0),
        p=float(p),
        weight=_warping_weight(warping, n),
        bc_left=BoundaryCondition.neumann(),
        bc_right=BoundaryCondition.robin(alpha),
        singular_left=pole,
        singular_order=n - 1 if pole else 0,
    )


# the problem types of ProblemSpec and the builder call each one makes
_BUILDERS = {
    "inradius_model": lambda s: inradius_model_problem(
        ModelParams(s.kappa, s.lambda_mc, s.n), s.R, s.alpha, s.p),
    "geodesic_ball": lambda s: geodesic_ball_problem(s.kappa, s.n, s.R, s.alpha, s.p),
    "double_robin": lambda s: double_robin_problem(s.R, s.alpha, s.p),
    "warped_product": lambda s: warped_product_problem(s.warping, s.n, s.R, s.alpha, s.p),
}


def ricci_lower_bound(warping: Warping, n: int, R0: float) -> float:
    """Largest kappa with Ric >= (n-1)*kappa on the warped ball, as an
    infimum over _RICCI_NODES uniform nodes of (0, R0] of the two Ricci
    eigenvalue families (radial and spherical) divided by (n-1)."""
    if n < 2:
        raise DomainError("need n >= 2")
    r = np.linspace(R0 / _RICCI_NODES, R0, _RICCI_NODES)
    f = np.asarray(warping.f(r), dtype=float)
    if np.any(f <= 0.0):
        raise DomainError("warping function not positive on the curvature grid")
    df = np.asarray(warping.df(r), dtype=float)
    d2f = np.asarray(warping.d2f(r), dtype=float)
    radial = -d2f / f
    spherical = (-d2f * f + (n - 2) * (1.0 - df * df)) / ((n - 1) * f * f)
    return float(np.min(np.minimum(radial, spherical)))


def boundary_mean_curvature(warping: Warping, R0: float) -> float:
    """Mean curvature of the boundary sphere over (n-1): f'(R0)/f(R0).

    A Euclidean ball of radius R0 (f = r) gives 1/R0 > 0."""
    f = float(warping.f(R0))
    if f <= 0.0:
        raise DomainError("warping function not positive at R0")
    return float(warping.df(R0)) / f
