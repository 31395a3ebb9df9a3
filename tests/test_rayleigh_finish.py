"""Rayleigh solutions form the eigenvector, its momentum and the residual
on the first read of any of them, once, and bit for bit as the solve
formed them when it formed them itself."""

import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest

import probin.rayleigh
from probin.problems import ProblemSpec
from probin.rayleigh import _finish, _march, _residual, rayleigh_spec, solve_rayleigh
from probin.shoot import solve_first_eigenvalue

from test_plan import FAMILIES, _digest, _problem

# (family, alpha, p, route): the march, the inverse power method, and
# the mirror image (double_robin) with each sign of alpha; the three
# flat deep layers of test_deep_layer_march, whose phi is formed here
# with warnings as errors: at p = 1.001, alpha = -2 all ratios but one
# pass the float range, and are capped at _HUGE
ROUTES = [
    ("flat", -1.0, 1.75, "march"),
    ("flat", -2.0, 1.001, "march"),
    ("flat", -100.0, 1.5, "march"),
    ("flat", -10.0, 1.1, "march"),
    ("warped_ball", -0.5, 3.0, "march"),
    ("hyperbolic_ball", 2.0, 1.7, "inverse"),
    ("double_robin", 1.0, 2.5, "inverse"),
    ("double_robin", -0.9, 2.4, "march"),
]


@pytest.fixture
def calls(monkeypatch):
    """The names of _march and _residual, in the order of their calls."""
    seen = []
    for name, fn in (("_march", _march), ("_residual", _residual)):
        monkeypatch.setattr(probin.rayleigh, name,
                            lambda *args, name=name, fn=fn: seen.append(name) or fn(*args))
    return seen


@pytest.mark.parametrize("family,alpha,p,route", ROUTES, ids=[" ".join(map(str, r)) for r in ROUTES])
def test_lambda_and_diagnostics_form_no_eigenvector(calls, family, alpha, p, route):
    sol = solve_rayleigh(_problem(family, alpha, p), 2000)
    d = sol.diagnostics
    assert isinstance(sol.lambda_val, float) and d["converged"] and d["m"] == 2000
    assert (d["iterations"] > 0) == (route == "inverse")
    assert set(d["phase_s"]) == {"seed", "solve"} and callable(sol.finish)
    assert calls == ["_march"] * (d["evals"] if route == "march" else 0)
    del calls[:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = sol.phi
    # one march, at the returned lambda, forms the march route's eigenvector
    assert calls == (["_march"] if route == "march" else []) + ["_residual"]
    assert sol.psi.shape == phi.shape == sol.grid.shape and sol.residual >= 0.0


def test_finish_runs_once_for_every_caller_of_a_cached_solution(monkeypatch):
    finished = []
    monkeypatch.setattr(probin.rayleigh, "_finish",
                        lambda *args: finished.append(args) or _finish(*args))
    # a spec and cell count no other test solves, so the cache is cold
    spec = ProblemSpec.from_dict(dict(FAMILIES["spherical_cap"], alpha=-0.37, p=1.9))
    first = rayleigh_spec(spec, 336)
    assert finished == []
    phi = first.phi
    second = rayleigh_spec(spec, 336)
    assert second is first
    residual, psi = second.residual, second.psi
    assert len(finished) == 1 and second.phi is phi and first.psi is psi
    fresh = solve_rayleigh(spec.build(), 336)
    assert np.array_equal(fresh.phi, phi) and np.array_equal(fresh.psi, psi)
    assert fresh.residual == residual


@pytest.mark.parametrize("solve", [
    lambda problem: solve_rayleigh(problem, 400),
    solve_first_eigenvalue,
], ids=["rayleigh", "shooting"])
def test_fields_are_read_only_and_finish_is_dropped(solve):
    """After the first read the solver's finish is gone; the one left
    returns the formed values, so a copy made then reads them too."""
    sol = solve(_problem("disk", -1.0, 1.5))
    finish = sol.finish
    phi, psi = sol.phi, sol.psi
    assert sol.finish is not finish and sol.finish() == (phi, psi, sol.residual)
    assert isinstance(sol.residual, float)
    for arr in (sol.grid, phi, psi):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5
    assert sol.phi is phi and sol.psi is psi
    copy = dataclasses.replace(sol, diagnostics={})
    assert copy.phi is phi and copy.psi is psi and copy.residual == sol.residual


def _arrays(value):
    """The arrays and lists in value, looking into tuples."""
    if isinstance(value, tuple):
        return [a for item in value for a in _arrays(item)]
    return [value] if isinstance(value, (np.ndarray, list)) else []


@pytest.mark.parametrize("family,alpha,p,route", ROUTES, ids=[" ".join(map(str, r)) for r in ROUTES])
def test_an_unread_solution_holds_one_vector(family, alpha, p, route):
    """Until the first read a solution holds no more than phi would: the
    inverse power iterate, on the solved mesh (the half of a mirror
    image), and on the march route nothing, since its eigenvector is
    marched on read.  The functionals it also holds share their arrays
    with the cached mesh.  The read lets the iterate go."""
    sol = solve_rayleigh(_problem(family, alpha, p), 2000)
    if route == "march":
        assert _arrays(sol.finish.args) == []
        return
    held, = _arrays(sol.finish.args)
    assert isinstance(held, np.ndarray) and held.dtype == float
    assert held.size == (1001 if family == "double_robin" else 2001)
    held = weakref.ref(held)
    sol.phi
    gc.collect()
    assert held() is None


# (family, alpha, p, lambda_val, _digest of grid, phi and psi, residual),
# float.hex throughout, recorded when minimize still formed the
# eigenvector, its momentum and the residual before it returned; the
# march rows' digest and residual were recorded again once the march
# route's eigenvector became one march at the returned lambda (disk
# alpha = -3, p = 1.1 kept both).  The comment names the route
RAYLEIGH_PINS = [
    ("flat", -1.0, 1.75, "-0x1.486990862c35bp+0", "4b1eb88e619ae2ff", "0x1.1e3045ce85f54p-35"),  # march
    ("disk", -3.0, 1.1, "-0x1.af52798fa084dp+11", "bc20f5dea678aa0d", "0x1.b208e5d3e1b8fp-42"),  # march
    ("hyperbolic_ball", 2.0, 1.7, "0x1.3db7d44752171p+2", "3980c595f59264ed", "0x1.3021a4748c3a0p-25"),  # inverse
    ("spherical_cap", -0.5, 2.5, "-0x1.98ae888ac4ebfp+0", "39fe332e4130be43", "0x1.0a7e367135f0cp-35"),  # march
    ("curvature_model", 0.8, 1.3, "0x1.c70cb2ee78e9bp+0", "8497df9325b24fa1", "0x1.c9c35a23aaef6p-24"),  # inverse
    ("double_robin", 1.0, 2.5, "0x1.8742be3f1dc5fp+0", "0c2a2932d1446a3a", "0x1.bb1980045b914p-25"),  # inverse
    ("double_robin", -0.9, 2.4, "-0x1.270fb61e5eaf3p+1", "bd47f9633680c33e", "0x1.8904f823aba88p-35"),  # march
    ("warped_ball", -0.5, 3.0, "-0x1.142e462c3a459p+1", "52be8902bf2ddb32", "0x1.1f292561b40e9p-34"),  # march
]


@pytest.mark.parametrize("family,alpha,p,lam,arrays,residual", RAYLEIGH_PINS,
                         ids=[" ".join(map(str, pin[:3])) for pin in RAYLEIGH_PINS])
def test_rayleigh_solve_is_pinned(family, alpha, p, lam, arrays, residual):
    sol = solve_rayleigh(_problem(family, alpha, p), 2000)
    assert sol.lambda_val.hex() == lam
    assert sol.residual.hex() == residual
    assert _digest(sol.grid, sol.phi, sol.psi) == arrays
