"""Builders that turn geometric parameters into 1-D eigenproblems.

All problems share one boundary-condition convention.  With the momentum
psi = |phi'|^(p-2) phi' and the outward direction at an endpoint (-1 at
the left end, +1 at the right end), a Robin condition with parameter
alpha reads

    (outward sign) * psi(endpoint) + alpha * |phi|^(p-2) phi(endpoint) = 0,

i.e. psi(a) = +alpha*|phi|^(p-2)phi(a) at a left Robin end and
psi(b) = -alpha*|phi|^(p-2)phi(b) at a right Robin end.  Storing the
condition this way keeps reflected problems sign-safe.  The momentum map
and its inverse are defined here, once, for both solvers and the checks,
and so is numpy's three-point derivative (ThreePoint), which the Rayleigh
solver and the checks both read off sampled fields.

The radial problems with a pole at 0 are warped products: weight f^(n-1)
of a warping f, built by coeffs.power_weight.  A geodesic ball is the
warped product of sn_kappa, so the geodesic_ball and warped_product spec
types reach one builder body.  Its weight is built once per (warping, n)
and shared, as coeffs shares the constant and model weights, so every
problem on one geometry carries the same Weight object; and its warping
is checked (positive on (0, R0], a smooth pole or f(0) > 0) once per
(warping, R0), so a sweep over p or alpha scans it once.
"""

from __future__ import annotations

import functools
import math
import numbers
import types
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np
from numpy.polynomial import polynomial as P

from .coeffs import (
    WEIGHT_CACHE,
    ModelParams,
    Weight,
    check_dimension,
    const_weight,
    power_weight,
    sn,
    sn_prime,
    weight_model,
    z_cutoff,
)
from .errors import DomainError

# Robin parameters smaller than this are rejected; encode alpha = 0 as an
# explicit Neumann condition instead.
ALPHA_MIN = 1e-14

_REL_TOL = 1e-12

_RICCI_NODES = 2048  # curvature grid of ricci_lower_bound
_RICCI_LADDER = 52  # halvings of its first node toward a pole
# the largest rounding bound of a spherical Ricci sample that
# ricci_lower_bound takes at a pole
_RICCI_ROUNDING = 1e-12

_POLE_TOL = 1e-12  # a warping with |f(0)| at most this has a pole at r = 0
_EPS = float(np.finfo(float).eps)


def momentum(x, p: float):
    """|x|^(p-2) x, the p-Laplacian momentum map; momentum(0) = 0."""
    return np.sign(x) * np.abs(x) ** (p - 1.0)


def inverse_momentum(y, p: float):
    """Inverse of momentum: |y|^(q-2) y with q = p/(p-1)."""
    return np.sign(y) * np.abs(y) ** (1.0 / (p - 1.0))


class ThreePoint:
    """numpy's three-point derivative np.gradient(f, x, edge_order=2), bit
    for bit, with its weights formed once for every f.

    grid is x, or a run of x's nodes with one neighbour on each side; h is
    x's step if x is exactly uniform (every spacing equals the first),
    else None.  On an exactly uniform x numpy takes its scalar branch,
    (f_(j+1) - f_(j-1))/(2h); otherwise the weights (a, b, c) of
    f_(j-1), f_j, f_(j+1) come from the two spacings around node j, and a
    run that happens to be uniform inside a non-uniform x keeps them,
    since they round differently."""

    def __init__(self, grid, h):
        self.grid, self.h = grid, h
        if h is None:
            dx = np.diff(grid)
            dx1, dx2 = dx[:-1], dx[1:]
            span = dx1 + dx2
            self.weights = (-dx2 / (dx1 * span), (dx2 - dx1) / (dx1 * dx2), dx1 / (dx2 * span))

    @classmethod
    def of_grid(cls, grid) -> "ThreePoint":
        """The stencil of the whole grid x, with numpy's test for its
        scalar branch."""
        dx = np.diff(grid)
        return cls(grid, dx[0] if (dx == dx[0]).all() else None)

    def interior(self, f):
        """The derivative at grid's interior nodes."""
        if self.h is not None:
            return (f[2:] - f[:-2]) / (2. * self.h)
        a, b, c = self.weights
        df = a * f[:-2]  # then += keeps numpy's order: (a f0 + b f1) + c f2
        df += b * f[1:-1]
        df += c * f[2:]
        return df

    @functools.cached_property
    def _edges(self):
        """numpy's one-sided second-order weights of (f_0, f_1, f_2) and of
        (f_(-3), f_(-2), f_(-1))."""
        h = self.h
        if h is not None:
            return (-1.5 / h, 2. / h, -0.5 / h), (0.5 / h, -2. / h, 1.5 / h)
        x = self.grid
        dx1, dx2 = x[1] - x[0], x[2] - x[1]
        left = (-(2. * dx1 + dx2) / (dx1 * (dx1 + dx2)), (dx1 + dx2) / (dx1 * dx2),
                -dx1 / (dx2 * (dx1 + dx2)))
        dx1, dx2 = x[-2] - x[-3], x[-1] - x[-2]
        right = (dx2 / (dx1 * (dx1 + dx2)), -(dx2 + dx1) / (dx1 * dx2),
                 (2. * dx2 + dx1) / (dx2 * (dx1 + dx2)))
        return left, right

    def __call__(self, f):
        """The derivative at every node, grid being the whole of x."""
        out = np.empty_like(f)
        out[1:-1] = self.interior(f)
        (a, b, c), (d, e, g) = self._edges
        out[0] = a * f[0] + b * f[1] + c * f[2]
        out[-1] = d * f[-3] + e * f[-2] + g * f[-1]
        return out


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
        if not all(math.isfinite(x) for x in (self.a, self.b, self.p)):
            raise DomainError("a, b and p must be finite")
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

    lambda_val, grid, method and diagnostics are set when the solve
    returns.  phi, psi and residual are formed together on the first
    read of any of them, by the one call of finish, a function of no
    arguments that the solver hands over and that returns
    (phi, psi, residual).  The solution then drops it, and what it held,
    for a finish that returns the formed values, which a copy made by
    dataclasses.replace reads.  A caller that reads only lambda_val and
    diagnostics never pays for the eigenfunction.  finish raises
    nothing: a solver keeps every check that can fail in the solve.

    Read-only throughout (fields, sample arrays, diagnostics and the
    dicts and arrays inside them): the spec-keyed solver caches hand the
    same solution to every caller."""

    lambda_val: float
    grid: np.ndarray
    method: str
    diagnostics: Mapping
    finish: Callable = field(repr=False)

    def __post_init__(self):
        self.grid.setflags(write=False)
        object.__setattr__(self, "diagnostics", _read_only(dict(self.diagnostics)))

    @functools.cached_property
    def _fields(self) -> tuple:
        phi, psi, residual = self.finish()
        fields = _read_only(phi), _read_only(psi), residual
        object.__setattr__(self, "finish", lambda: fields)
        return fields

    @property
    def phi(self) -> np.ndarray:
        return self._fields[0]

    @property
    def psi(self) -> np.ndarray:
        return self._fields[1]

    @property
    def residual(self) -> float:
        return self._fields[2]


def _number(value, name: str) -> float:
    """value as a float, where it is a number: float() would also read a
    string ("1.0") or a bool, which a JSON document must not give for one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError("%s must be a number, got %r" % (name, value))
    return float(value)


def _refuse_unknown(doc: dict, known, what: str):
    """Raise DomainError naming the keys of a JSON object outside known,
    which would otherwise be dropped silently."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise DomainError("%s takes no %s" % (what, ", ".join(map(repr, unknown))))


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

    def to_dict(self) -> dict:
        if self.kind is None:
            raise DomainError("warping built from raw callables cannot serialize")
        return {"kind": self.kind, "coefficients": list(self.coefficients)}

    @staticmethod
    def from_dict(doc: dict) -> "Warping":
        if not isinstance(doc, dict):
            raise DomainError("a warping must be an object, got %r" % (doc,))
        kind, coefficients = doc["kind"], doc["coefficients"]
        _refuse_unknown(doc, ("kind", "coefficients"), "a warping")
        if not isinstance(coefficients, list):  # a string would be read one character at a time
            raise DomainError("warping coefficients must be a list, got %r" % (coefficients,))
        if kind == "polynomial":
            return polynomial_warping(coefficients)
        if kind != "sn":
            raise DomainError("unknown warping kind %r" % (kind,))
        if len(coefficients) != 1:
            raise DomainError("sn warping takes one coefficient, kappa, got %r" % (coefficients,))
        return sn_warping(coefficients[0])


def polynomial_warping(coefficients) -> Warping:
    """Warping f(r) = sum c_k r^k with coefficients in ascending order."""
    coeffs = tuple(_number(c, "a warping coefficient") for c in coefficients)
    if not coeffs or not all(math.isfinite(c) for c in coeffs):
        raise DomainError("polynomial warping needs finite coefficients, got %r" % (coefficients,))
    c = np.asarray(coeffs)
    dc = P.polyder(c, 1)
    d2c = P.polyder(c, 2)

    def f(r):
        return P.polyval(r, c)

    def df(r):
        return P.polyval(r, dc)

    def d2f(r):
        return P.polyval(r, d2c)

    return Warping(f, df, d2f, "polynomial", coeffs)


def sn_warping(kappa: float) -> Warping:
    """Warping equal to the space-form coefficient sn_kappa."""
    k = _number(kappa, "kappa")
    if not math.isfinite(k):  # sn would read a NaN kappa as 0
        raise DomainError("kappa must be finite, got %r" % (kappa,))

    def d2f(r):
        return -k * sn(k, r)

    return Warping(lambda r: sn(k, r), lambda r: sn_prime(k, r), d2f, "sn", (k,))


@dataclass(frozen=True)
class ProblemSpec:
    """Serializable description of a builder call.

    _TYPES names the fields each type takes beside R, alpha and p.  A
    spec sets exactly those, and so does its JSON document {type, R,
    alpha, p, <fields>}, with a warping written {kind, coefficients}.
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
        if self.type not in _TYPES:
            raise DomainError("unknown problem type %r" % (self.type,))
        takes = _TYPES[self.type][0]
        for name in _FIELDS:
            if (getattr(self, name) is None) == (name in takes):
                rule = "needs" if name in takes else "takes no"
                raise DomainError("a problem of type %s %s %s" % (self.type, rule, name))

    def to_dict(self) -> dict:
        out = {"type": self.type, "R": self.R, "alpha": self.alpha, "p": self.p}
        for name in _TYPES[self.type][0]:
            value = getattr(self, name)
            out[name] = value.to_dict() if isinstance(value, Warping) else value
        return out

    @staticmethod
    def from_dict(doc: dict) -> "ProblemSpec":
        _refuse_unknown(doc, ("type", "R", "alpha", "p", *_FIELDS), "a problem")
        return ProblemSpec(doc.get("type"), *(_number(doc[key], key) for key in ("R", "alpha", "p")),
                           **{name: parse(doc[name], name) for name, parse in _FIELDS.items()
                              if doc.get(name) is not None})

    def build(self) -> SturmProblem:
        return _TYPES[self.type][1](self)


def _integer(value, name: str) -> int:
    if _number(value, name) % 1.0 != 0.0:  # also catches inf and nan
        raise DomainError("%s must be an integer, got %r" % (name, value))
    return int(value)


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
    of curvature kappa: the warped product of sn_kappa, so weight
    sn^(n-1) (singular at the center), Neumann at 0, Robin(alpha) at R0."""
    if kappa > 0 and R0 >= math.pi / math.sqrt(kappa) * (1.0 - _REL_TOL):
        raise DomainError(
            "ball radius %g reaches pi/sqrt(kappa)=%g" % (R0, math.pi / math.sqrt(kappa))
        )
    return _warped_product(sn_warping(kappa), n, R0, alpha, p)


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
    return _warped_product(warping, n, R0, alpha, p)


# the body of both radial builders; a private name, so that a wrapper on
# either public builder sees one call per build.  The geometry is checked
# once per (warping, R0), as its weight is built once per (warping, n).
def _warped_product(warping: Warping, n: int, R0: float, alpha: float, p: float) -> SturmProblem:
    check_dimension(n)
    pole = _radial_geometry(warping, float(R0))
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


@functools.lru_cache(maxsize=WEIGHT_CACHE)
def _radial_geometry(warping: Warping, R0: float) -> bool:
    """Whether the warping has a pole at 0, once it is checked for every
    radial builder and extractor: 0 < R0 < inf, f > 0 on 512 nodes of
    (0, R0], and f'(0) = 1 at a pole or f(0) > 0 elsewhere.  An invalid
    geometry raises DomainError on every call (lru_cache keeps no exception)."""
    # before the grid is built: an infinite R0 would make it NaN
    if not 0.0 < R0 < math.inf:
        raise DomainError("need finite R0 > 0")
    f0 = float(warping.f(0.0))
    pole = abs(f0) <= _POLE_TOL
    grid = np.linspace(R0 / 512.0, R0, 512)
    if np.any(np.asarray(warping.f(grid), dtype=float) <= 0.0):
        raise DomainError("warping function must be positive on (0, R0]")
    if pole:
        d0 = float(warping.df(0.0))
        if abs(d0 - 1.0) > 1e-9:
            raise DomainError("smooth pole needs f'(0) = 1, got %g" % d0)
    elif f0 <= 0.0:
        raise DomainError("cylinder-type warping needs f(0) > 0")
    return pole


@functools.lru_cache(maxsize=WEIGHT_CACHE)
def _warping_weight(warping: Warping, n: int) -> Weight:
    """The weight f^(n-1) of a warping, one object per (warping, n)."""
    return power_weight(warping.f, warping.df, warping.d2f, float(n - 1), "warping weight")


# the problem types of ProblemSpec: the fields each takes beside R, alpha
# and p, and the builder call it makes
_TYPES = {
    "inradius_model": (("kappa", "lambda_mc", "n"), lambda s: inradius_model_problem(
        ModelParams(s.kappa, s.lambda_mc, s.n), s.R, s.alpha, s.p)),
    "geodesic_ball": (("kappa", "n"), lambda s: geodesic_ball_problem(
        s.kappa, s.n, s.R, s.alpha, s.p)),
    "double_robin": ((), lambda s: double_robin_problem(s.R, s.alpha, s.p)),
    "warped_product": (("n", "warping"), lambda s: warped_product_problem(
        s.warping, s.n, s.R, s.alpha, s.p)),
}

# the parser of each field a type may take, for ProblemSpec.from_dict: it
# takes the value and the field's name
_FIELDS = {"kappa": _number, "lambda_mc": _number, "n": _integer,
           "warping": lambda doc, name: Warping.from_dict(doc)}


def ricci_lower_bound(warping: Warping, n: int, R0: float) -> float:
    """Largest kappa with Ric >= (n-1)*kappa on the warped ball, as an
    infimum over _RICCI_NODES uniform nodes of (0, R0] of the two Ricci
    eigenvalue families (radial and spherical) divided by (n-1).

    At a pole the spherical family's 1 - f'^2 cancels as r -> 0: its
    rounding, about 4 eps (n-2) f'^2/((n-1) f^2), grows like 1/r^2 and
    would set the minimum, and an infimum approached there lies below
    every node.  So there only the spherical samples whose rounding
    bound is at most _RICCI_ROUNDING count.  The radial family -f''/f
    has no cancellation and, at a smooth pole, the same limit; it is
    also sampled on _RICCI_LADDER halvings of the first node.  DomainError:
    an n or geometry no radial builder takes, or f''(0) > 0 at a pole."""
    check_dimension(n)
    pole = _radial_geometry(warping, R0)
    r = np.linspace(R0 / _RICCI_NODES, R0, _RICCI_NODES)
    f = np.asarray(warping.f(r), dtype=float)
    if np.any(f <= 0.0):
        raise DomainError("warping function not positive on the curvature grid")
    df = np.asarray(warping.df(r), dtype=float)
    d2f = np.asarray(warping.d2f(r), dtype=float)
    radial = -d2f / f
    spherical = (-d2f * f + (n - 2) * (1.0 - df * df)) / ((n - 1) * f * f)
    if not pole:
        return float(np.min(np.minimum(radial, spherical)))
    if float(warping.d2f(0.0)) > 0.0:
        raise DomainError("f''(0) > 0 at a pole: the Ricci curvature is unbounded below")
    rounding = 4.0 * _EPS * (n - 2) * df * df / ((n - 1) * f * f)
    kept = spherical[rounding <= _RICCI_ROUNDING]
    kappa = min(float(np.min(radial)), float(np.min(kept, initial=math.inf)))
    r = r[0] * 0.5 ** np.arange(1, _RICCI_LADDER + 1)
    f = np.asarray(warping.f(r), dtype=float)
    if np.any(f <= 0.0):
        raise DomainError("warping function not positive on the curvature grid")
    return min(kappa, float(np.min(-np.asarray(warping.d2f(r), dtype=float) / f)))


def boundary_mean_curvature(warping: Warping, R0: float) -> float:
    """Mean curvature of the boundary sphere over (n-1): f'(R0)/f(R0).

    f = r gives 1/R0; a geometry no radial builder takes raises DomainError."""
    _radial_geometry(warping, R0)
    return float(warping.df(R0)) / float(warping.f(R0))
