"""Command-line front end.

The command and problem live in a JSON config.  Each setting is read
once, by its reader in _SETTINGS: from its flag if given, else from its
config key, else from its default.  A flag or key the command does not
read is a config error.  Commands:

  solve   print the eigenvalue(s) and write the eigenfunction CSV
  sweep   one-axis parameter sweep -> CSV table and SVG plot
  verify  run the default verification suite -> JSONL + CSV reports
  table   cross-solver agreement matrix -> CSV

Exit codes: 0 ok, 1 verification failure, 2 config error, 3 solver
failure.  Identical configs produce bit-identical CSV output.  A reader
that closes stdout early (probin ... | head -n 1) stops neither the
command nor its files, nor changes its exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .errors import BracketFailure, DomainError, ToleranceFailure
from .problems import ProblemSpec, _integer, _number, _refuse_unknown
from .rayleigh import DEFAULT_CELLS, MIN_CELLS, rayleigh_spec
from .shoot import ShootConfig, solve_spec
from .svgfig import line_chart
from .verify import default_suite, reports_to_csv, reports_to_jsonl

_FMT = "%.12g"
_COMMANDS = ("solve", "sweep", "verify", "table")
_SWEEP_KEYS = ("axis", "scale", "grid", "start", "stop", "count")
# the problem columns of sweep.csv, the swept axis among them, and the
# result columns of sweep.csv and acceptance_table.csv
_SWEEP_COLUMNS = ("type", "kappa", "lambda_mc", "n", "R", "alpha", "p")
_RESULT_COLUMNS = ("lambda_shoot", "lambda_rayleigh", "disagreement")
# each solver's name in messages and plot legends, by its tag
_LABELS = {"shoot": "shooting", "rayleigh": "rayleigh"}


class ConfigError(Exception):
    pass


def _choice(value, choices, name: str):
    if value not in choices:
        raise DomainError("%s must be one of %s, got %r" % (name, ", ".join(choices), value))
    return value


def _problem(doc, name: str) -> dict:
    if not isinstance(doc, dict):
        raise DomainError("config needs a %s object" % name)
    return doc


def _sweep_values(sweep, name: str) -> tuple:
    """The sweep object's axis, its values and its scale."""
    if not isinstance(sweep, dict) or "axis" not in sweep:
        raise DomainError("sweep command needs a %s object with an 'axis'" % name)
    _refuse_unknown(sweep, _SWEEP_KEYS, "a sweep")
    if "grid" in sweep and {"start", "stop", "count"} & set(sweep):
        raise DomainError("a sweep takes either 'grid' or start/stop/count, not both")
    axis = _choice(sweep["axis"], ("alpha", "R", "p", "kappa"), "the sweep's 'axis'")
    scale = _choice(sweep.get("scale", "linear"), ("linear", "log"), "the sweep's 'scale'")
    if "grid" in sweep:
        if not (isinstance(sweep["grid"], list) and sweep["grid"]):
            raise DomainError("the sweep's 'grid' must be a non-empty list, got %r" % (sweep["grid"],))
        values = [_number(v, "a sweep 'grid' value") for v in sweep["grid"]]
    else:  # a missing one reads as None, which is no number
        start, stop = (_number(sweep.get(key), "the sweep's %r" % key) for key in ("start", "stop"))
        count = _integer(sweep.get("count"), "the sweep's 'count'")
        if count < 2:
            raise DomainError("the sweep's 'count' must be >= 2, got %d" % count)
        values = [start, stop]
    if scale == "log" and not all(v > 0 for v in values):
        raise DomainError("log scale needs positive sweep values")
    if "grid" not in sweep:  # evenly spaced in the value, or in its log
        to, back = (math.log, math.exp) if scale == "log" else (float, float)
        ls, le = to(start), to(stop)
        values = [back(ls + (le - ls) * i / (count - 1)) for i in range(count)]
    return axis, values, scale


# every top-level key of a config: its default (None where the command
# needs it, or has no use for one), the commands that read it, and its
# reader, which takes the value and the name of its key or flag and
# raises DomainError for a value it refuses.  The range rules of
# rk_steps and tol are ShootConfig's.
_SETTINGS = {
    "command": (None, _COMMANDS, lambda value, name: _choice(value, _COMMANDS, name)),
    "problem": (None, ("solve", "sweep"), _problem),
    "solver": ("both", ("solve", "sweep"),
               lambda value, name: _choice(value, ("shoot", "rayleigh", "both"), name)),
    "m": (DEFAULT_CELLS, ("solve", "sweep", "table"), _integer),
    "rk_steps": (ShootConfig.rk_steps, _COMMANDS, _integer),
    "tol": (ShootConfig.lambda_tol, _COMMANDS, _number),
    "sweep": (None, ("sweep",), _sweep_values),
}


def _load_config(args) -> dict:
    """The settings of the command in args.config, by key, each read
    once: its flag if given (0 included), else its config key, else its
    default.  "solves" holds the solve function of each solver the
    command runs, by tag, shooting first; verify solves through "shoot"."""
    if args.config is None:
        raise ConfigError("--config is required")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read config: %s" % exc)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key in cfg:  # a misspelt key would be dropped silently
        if key not in _SETTINGS:
            raise ConfigError("unknown setting %r" % (key,))
    command = cfg.get("command")
    settings = {}
    try:
        for key, (default, commands, read) in _SETTINGS.items():
            flag = getattr(args, key, None)
            name = repr(key) if flag is None else "--" + key.replace("_", "-")
            # the command comes first: its reader refuses an unknown one
            if key == "command" or command in commands:
                settings[key] = read(cfg.get(key, default) if flag is None else flag, name)
            elif flag is not None or key in cfg:  # it would be ignored
                raise ConfigError("the %s command takes no %s" % (command, name))
        if settings.get("m", MIN_CELLS) < MIN_CELLS:
            raise DomainError("'m' must be >= %d, got %d" % (MIN_CELLS, settings["m"]))
        shoot = ShootConfig(rk_steps=settings["rk_steps"], lambda_tol=settings["tol"])
    except DomainError as exc:
        raise ConfigError(str(exc))
    solves = {"shoot": lambda spec: solve_spec(spec, shoot),
              "rayleigh": lambda spec: _warn_unconverged(rayleigh_spec(spec, settings["m"]))}
    solver = settings.get("solver", "both")  # table runs both
    return dict(settings, solves={
        tag: solve for tag, solve in solves.items() if solver in (tag, "both")})


def _warn_unconverged(sol):
    """sol, after a warning on stderr if its solve stopped unconverged:
    solve, sweep and table each warn once per such Rayleigh solve, from
    its diagnostics alone."""
    if not sol.diagnostics["converged"]:
        print("warning: the Rayleigh solve stopped unconverged after %d steps"
              % sol.diagnostics["steps"], file=sys.stderr)
    return sol


def _problem_spec(doc: dict, **override) -> ProblemSpec:
    """The problem doc with override applied, built once so that an
    invalid problem is a config error before any solve starts."""
    try:
        spec = ProblemSpec.from_dict(dict(doc, **override))
        spec.build()
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("bad problem spec: %s" % exc)
    return spec


def _results(lams: dict) -> tuple:
    """The result columns of the eigenvalues lams, by solver tag: None
    for a solver that did not run, and for the disagreement unless both
    did."""
    lam_s, lam_r = lams.get("shoot"), lams.get("rayleigh")
    if lam_s is None or lam_r is None:
        return lam_s, lam_r, None
    return lam_s, lam_r, abs(lam_s - lam_r) / max(1.0, abs(lam_s))


def _write_csv(path: Path, header, rows) -> list:
    """Write header and rows to path, None as an empty cell, text and
    integers as they are and other numbers with _FMT; return the lines."""
    def cell(value):
        if value is None:
            return ""
        return str(value) if isinstance(value, (str, int)) else _FMT % value
    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return lines


def _say(line):
    """Print line to stdout.  Once the reader has closed it, the rest of
    stdout goes to os.devnull and the command carries on."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_solve(settings, out_dir: Path) -> int:
    spec = _problem_spec(settings["problem"])
    sols = {tag: solve(spec) for tag, solve in settings["solves"].items()}
    for tag, sol in sols.items():
        _say("lambda_%-8s = " % tag + _FMT % sol.lambda_val)
    dis = _results({tag: sol.lambda_val for tag, sol in sols.items()})[2]
    if dis is not None:
        _say("disagreement    = " + _FMT % dis)
    for tag, sol in sols.items():
        zeros = int((sol.phi == 0.0).sum())
        if zeros:  # the written phi has exact zeros
            print("warning: %d of %d %s eigenfunction values underflow to 0"
                  % (zeros, sol.phi.size, _LABELS[tag]), file=sys.stderr)
        path = out_dir / ("eigenfunction_%s.csv" % tag)
        _write_csv(path, ("t", "phi", "psi"), zip(sol.grid, sol.phi, sol.psi))
        _say("wrote %s" % path)
    return 0


def _cmd_sweep(settings, out_dir: Path) -> int:
    axis, values, scale = settings["sweep"]
    solves = settings["solves"]
    points = [_problem_spec(settings["problem"], **{axis: v}) for v in values]
    rows = [_results({tag: solve(point).lambda_val for tag, solve in solves.items()})
            for point in points]

    csv_path = out_dir / "sweep.csv"
    _write_csv(csv_path, _SWEEP_COLUMNS + _RESULT_COLUMNS, (
        [getattr(point, key) for key in _SWEEP_COLUMNS] + list(row)
        for row, point in zip(rows, points)))
    _say("wrote %s" % csv_path)

    series = [(values, [row[i] for row in rows], label)
              for i, (tag, label) in enumerate(_LABELS.items()) if tag in solves]
    svg_path = out_dir / "sweep.svg"
    line_chart(series, svg_path, title="first eigenvalue vs %s" % axis,
               xlabel=axis, ylabel="lambda", logx=scale == "log")
    _say("wrote %s" % svg_path)
    return 0


def _cmd_verify(settings, out_dir: Path) -> int:
    reports = default_suite(settings["solves"]["shoot"])
    jsonl = out_dir / "verification.jsonl"
    csvp = out_dir / "verification.csv"
    reports_to_jsonl(reports, jsonl)
    reports_to_csv(reports, csvp)
    n_pass = sum(1 for r in reports if r.status == "pass")
    n_fail = sum(1 for r in reports if r.status == "fail")
    n_skip = sum(1 for r in reports if r.status == "skip")
    for rep in reports:
        if rep.status == "fail":
            _say("FAIL %s %s margin=%.3g tol=%.3g" % (
                rep.name, json.dumps(rep.params, sort_keys=True), rep.margin, rep.tolerance))
    _say("verification: %d pass, %d fail, %d skip" % (n_pass, n_fail, n_skip))
    _say("wrote %s" % jsonl)
    _say("wrote %s" % csvp)
    return 1 if n_fail else 0


_TABLE_GEOMETRIES = (
    ("flat_interval", {"type": "inradius_model", "kappa": 0.0, "lambda_mc": 0.0, "n": 2, "R": 1.0}),
    ("disk", {"type": "geodesic_ball", "kappa": 0.0, "n": 2, "R": 1.0}),
    ("hyperbolic_ball", {"type": "geodesic_ball", "kappa": -1.0, "n": 3, "R": 1.0}),
    ("model_log_linear", {"type": "inradius_model", "kappa": -1.0, "lambda_mc": 1.0, "n": 3, "R": 1.0}),
)


def _cmd_table(settings, out_dir: Path) -> int:
    path = out_dir / "acceptance_table.csv"
    rows = []
    for name, doc in _TABLE_GEOMETRIES:
        for p in (1.5, 2.0, 3.0):
            for alpha in (-1.0, 1.0):
                spec = ProblemSpec.from_dict(dict(doc, alpha=alpha, p=p))
                rows.append((name, p, alpha) + _results(
                    {tag: solve(spec).lambda_val for tag, solve in settings["solves"].items()}))
    _say("\n".join(_write_csv(path, ("geometry", "p", "alpha") + _RESULT_COLUMNS, rows)))
    _say("worst disagreement: " + _FMT % max(row[-1] for row in rows))
    _say("wrote %s" % path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="probin",
        description="First Robin eigenvalue of the p-Laplacian: solvers and verification suites",
    )
    parser.add_argument("--config", help="JSON config with command and problem")
    parser.add_argument("--out", default=".", help="output directory")
    # each flag is read as its config key is; argparse only reads the number
    parser.add_argument("--solver", help="shoot, rayleigh or both")
    parser.add_argument("--m", type=float, help="rayleigh grid cells")
    parser.add_argument("--rk-steps", type=float, dest="rk_steps")
    parser.add_argument("--tol", type=float, help="eigenvalue tolerance")
    args = parser.parse_args(argv)

    try:
        settings = _load_config(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        run = {"solve": _cmd_solve, "sweep": _cmd_sweep, "verify": _cmd_verify, "table": _cmd_table}
        return run[settings["command"]](settings, out_dir)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (DomainError, BracketFailure, ToleranceFailure) as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
