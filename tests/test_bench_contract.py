"""What the benchmark's tracer (bench/layers.py) reads of probin: the
module attributes it wraps, the diagnostics keys of a Rayleigh solve, and
the step count of the kernel that a shooting run hands rk4_path.  A rename
inside probin then fails here, not only in the benchmark.  bench/layers.py
is read as source, not imported."""

import ast
import importlib
from pathlib import Path

import pytest

import probin.shoot
from probin.problems import double_robin_problem
from probin.rayleigh import discretize, minimize
from probin.shoot import ShootConfig, _build_plan, robin_mismatch, rk4_path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _wrapped():
    """(module, attribute) of every tracer.wrap(module, attribute, ...)
    call in bench/layers.py.  An attribute named by the variable of a
    loop over a module-level tuple of strings stands for each string."""
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"), filename=str(LAYERS))
    tuples = {target.id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Tuple)
              and all(isinstance(e, ast.Constant) for e in node.value.elts)
              for target in node.targets if isinstance(target, ast.Name)}
    loops = {node.target.id: tuples[node.iter.id] for node in ast.walk(tree)
             if isinstance(node, ast.For) and isinstance(node.iter, ast.Name)
             and node.iter.id in tuples}
    wrapped = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap"):
            module, attr = node.args[:2]
            names = [attr.value] if isinstance(attr, ast.Constant) else loops[attr.id]
            wrapped += [(module.id, name) for name in names]
    return wrapped


WRAPPED = _wrapped()


def test_the_tracer_wraps_every_layer():
    assert {module for module, _ in WRAPPED} == {"shoot", "problems", "rayleigh", "verify"}


@pytest.mark.parametrize("module,attr", WRAPPED, ids=[".".join(w) for w in WRAPPED])
def test_every_wrapped_attribute_exists(module, attr):
    assert callable(getattr(importlib.import_module("probin." + module), attr, None))


@pytest.mark.parametrize("alpha", [1.0, -1.0], ids=["inverse", "march"])
def test_minimize_diagnostics_hold_what_the_tracer_reads(alpha):
    # the double-Robin interval is solved on its half mesh, and still
    # reports the full cell count as m
    d = minimize(discretize(double_robin_problem(0.5, alpha, 2.0), 250)).diagnostics
    assert d["m"] == 250 and d["converged"] is True
    assert isinstance(d["iterations"], int) and (d["iterations"] > 0) == (alpha > 0.0)


def test_rk4_path_steps_are_the_kernel_rows(monkeypatch):
    """The tracer counts a run's steps as its sixth argument's shape[0]:
    the plan's kernel, one row per step."""
    kernels = []

    def spy(*args):
        kernels.append(args[5])
        return rk4_path(*args)

    monkeypatch.setattr(probin.shoot, "rk4_path", spy)
    problem = double_robin_problem(0.5, 1.0, 2.0)
    robin_mismatch(problem, 1.0)
    kernel = _build_plan(problem, ShootConfig.rk_steps).kernel
    assert len(kernels) == 1 and kernels[0] is kernel
    assert kernel.shape == (len(kernel.rows), 6)
