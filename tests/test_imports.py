"""Static checks of the probin sources: every name a module imports is
used in it, every module constant is read, every private function and
class is referenced, every defaulted parameter is passed by some call,
no property only forwards a field's attribute, and the two solvers
import nothing from each other; and importing probin
and solving with it leaves an installed numba, scipy and hypothesis
alone."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "probin"
# __init__.py imports to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_modules_found():
    assert {"shoot.py", "rayleigh.py", "verify.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = ["%s (line %d)" % (name, line) for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, "%s imports but never uses: %s" % (path.name, ", ".join(unused))


def test_import_ignores_an_installed_numba(tmp_path):
    # the RK4 kernel is pure Python: a numba package on the path, here a
    # stub whose njit raises, is neither imported nor called.  numpy is
    # the one runtime dependency: both solvers of the polynomial warped
    # ball, eigenfunctions included, leave scipy and hypothesis unimported
    stub = tmp_path / "numba"
    stub.mkdir()
    (stub / "__init__.py").write_text(
        "def njit(*args, **kwargs):\n    raise RuntimeError('numba.njit called')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(SRC.parent)]))
    code = (
        "import sys, probin\n"
        "spec = probin.ProblemSpec.from_dict(\n"
        "    {'type': 'warped_product', 'n': 3, 'R': 1.0, 'alpha': 1.0, 'p': 2.0,\n"
        "     'warping': {'kind': 'polynomial', 'coefficients': [0.0, 1.0, 0.0, 0.1]}})\n"
        "probin.solve_spec(spec).phi, probin.rayleigh_spec(spec).phi\n"
        "sys.exit(' '.join(m for m in ('numba', 'scipy', 'hypothesis') if m in sys.modules) or 0)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def _imported_modules(path):
    """The probin modules path imports from, by bare name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            base = (node.module or "").split(".")
            if node.level:  # relative: from . import x, from .x import y
                out.update(base[:1] if node.module else [a.name for a in node.names])
            elif base[0] == "probin":
                out.update(base[1:2] or [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "probin" and len(parts) > 1:
                    out.add(parts[1])
    return out


@pytest.mark.parametrize("solver,other", [
    ("rayleigh", "shoot"), ("rayleigh", "_kernels"),
    ("shoot", "rayleigh"), ("_kernels", "rayleigh"),
])
def test_solvers_stay_independent(solver, other):
    # their agreement is the main correctness signal only while neither
    # reuses the other's code
    assert other not in _imported_modules(SRC / (solver + ".py"))


def _module_constants(tree):
    """(name, line) of every UPPER_CASE or _UPPER_CASE name a module
    assigns at its top level."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            for name in ast.walk(target) if target is not None else ():
                if isinstance(name, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name.id):
                    yield name.id, node.lineno


def _references(node):
    """How often each name is read under node, as a bare name or as an
    attribute (rayleigh.DEFAULT_CELLS counts for DEFAULT_CELLS)."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            counts[sub.attr] += 1
    return counts


def _names_read():
    """Every name read in src/, tests/ and bench/."""
    read = set()
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            read.update(_references(ast.parse(path.read_text(), filename=str(path))))
    return read


def test_every_constant_is_read():
    """A module constant nothing reads is left over from deleted code.
    Names are matched only, so a local of the same name can hide one."""
    read = _names_read()
    dead = ["%s: %s (line %d)" % (path.name, name, line)
            for path in MODULES
            for name, line in _module_constants(ast.parse(path.read_text()))
            if name not in read]
    assert not dead, "module constants nothing reads: " + ", ".join(dead)


def test_every_private_definition_is_referenced():
    """A private function or class that nothing in src/probin reads,
    other than its own body, is left over from deleted code.  Names are
    matched only, so a public name or a local of the same name can hide
    one."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    read = sum((_references(tree) for tree in trees.values()), Counter())
    dead = ["%s: %s (line %d)" % (name, node.name, node.lineno)
            for name, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and read[node.name] == _references(node)[node.name]]
    assert not dead, "private definitions nothing references: " + ", ".join(dead)


def _defaulted_parameters(tree):
    """(function, parameter, position) of every parameter with a default;
    position counts the arguments a call passes, so a method's self is
    not counted, and it is None for keyword-only parameters."""
    methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, ast.FunctionDef)
               and not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        offset = 1 if id(node) in methods else 0
        for i in range(first, len(positional)):
            yield node.name, positional[i].arg, i - offset
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _calls_by_name():
    """Every call in src/, tests/ and bench/, keyed by the called name
    (f(...) and obj.f(...) both count for f)."""
    calls = {}
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call, name, position):
    # arguments inside *args or **kwargs are not seen: pass such a
    # parameter by name somewhere for this check to count it
    if any(k.arg == name for k in call.keywords):
        return True
    n_positional = sum(not isinstance(a, ast.Starred) for a in call.args)
    return position is not None and n_positional > position


def test_every_default_is_overridden_somewhere():
    """A defaulted parameter that no call passes has one value in use: it
    should be a constant.  Calls are matched by name only, so a call of
    another function of the same name can hide an unused parameter."""
    calls = _calls_by_name()
    unused = ["%s: %s(%s)" % (path.name, func, param)
              for path in MODULES
              for func, param, position in _defaulted_parameters(ast.parse(path.read_text()))
              if not any(_passes(c, param, position) for c in calls.get(func, []))]
    assert not unused, "defaulted parameters no call passes: " + ", ".join(unused)


def _forwarding_properties(tree):
    """(class, property, line) of every @property whose whole body, past
    a docstring, is return self.<field>.<attr>."""
    for cls in ast.walk(tree):
        for f in cls.body if isinstance(cls, ast.ClassDef) else ():
            if not (isinstance(f, ast.FunctionDef)
                    and any(getattr(d, "id", None) == "property" for d in f.decorator_list)):
                continue
            body = f.body[1:] if ast.get_docstring(f) is not None else f.body
            value = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
            inner = getattr(value, "value", None) if isinstance(value, ast.Attribute) else None
            if isinstance(inner, ast.Attribute) and getattr(inner.value, "id", None) == "self":
                yield cls.name, f.name, f.lineno


def test_no_property_forwards_a_field_attribute():
    """A property that only returns self.<field>.<attr> is a second name
    for a fact the field holds: read it as obj.<field>.<attr>."""
    forwards = ["%s: %s.%s (line %d)" % (path.name, *found)
                for path in sorted(SRC.glob("*.py"))
                for found in _forwarding_properties(ast.parse(path.read_text()))]
    assert not forwards, "properties that forward a field's attribute: " + ", ".join(forwards)
