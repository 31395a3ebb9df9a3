"""Command-line front end.

The command and problem live in a JSON config; flags override solver
knobs.  Commands:

  solve   print the eigenvalue(s) and write the eigenfunction CSV
  sweep   one-axis parameter sweep -> CSV table and SVG plot
  verify  run the default verification suite -> JSONL + CSV reports
  table   cross-solver agreement matrix -> CSV

Exit codes: 0 ok, 1 verification failure, 2 config error, 3 solver
failure.  Identical configs produce bit-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import BracketFailure, DomainError, ToleranceFailure
from .problems import ProblemSpec
from .rayleigh import DEFAULT_CELLS, rayleigh_spec
from .shoot import ShootConfig, solve_spec
from .svgfig import line_chart
from .verify import default_suite, reports_to_csv, reports_to_jsonl

_FMT = "%.12g"
_COMMANDS = ("solve", "sweep", "verify", "table")
_SOLVERS = ("shoot", "rayleigh", "both")
# every top-level key of a config: its default (None where the command
# needs it, or has no use for one) and the commands that read it
_SETTINGS = {
    "command": (None, _COMMANDS),
    "problem": (None, ("solve", "sweep")),
    "solver": ("both", ("solve", "sweep")),
    "m": (DEFAULT_CELLS, ("solve", "sweep", "table")),
    "rk_steps": (ShootConfig.rk_steps, _COMMANDS),
    "tol": (ShootConfig.lambda_tol, _COMMANDS),
    "sweep": (None, ("sweep",)),
}
_SWEEP_KEYS = ("axis", "scale", "grid", "start", "stop", "count")
# the problem columns of sweep.csv, the swept axis among them, and the
# result columns of sweep.csv and acceptance_table.csv
_SWEEP_COLUMNS = ("type", "kappa", "lambda_mc", "n", "R", "alpha", "p")
_RESULT_COLUMNS = ("lambda_shoot", "lambda_rayleigh", "disagreement")


class ConfigError(Exception):
    pass


def _load_config(args) -> dict:
    if args.config is None:
        raise ConfigError("--config is required")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read config: %s" % exc)
    if not isinstance(cfg, dict) or "command" not in cfg:
        raise ConfigError("config must be a JSON object with a 'command' key")
    command = cfg["command"]
    if command not in _COMMANDS:
        raise ConfigError("unknown command %r" % (command,))
    for key in cfg:  # a misspelt or misplaced key would be dropped silently
        if key not in _SETTINGS:
            raise ConfigError("unknown setting %r" % (key,))
        if command not in _SETTINGS[key][1]:
            raise ConfigError("the %s command takes no %r" % (command, key))
    return cfg


def _setting(cfg: dict, args, key: str):
    """The flag if given (0 included), else the config value, else the
    default of _SETTINGS."""
    flag = getattr(args, key)
    return flag if flag is not None else cfg.get(key, _SETTINGS[key][0])


def _integer(value, key: str) -> int:
    """value as an int: 2000, 2000.0 and "2000" are 2000; a value with a
    fractional part, or none at all, is a config error, not truncated."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("bad %r: %s" % (key, exc))
    if isinstance(value, float) and number != value:
        raise ConfigError("%r must be an integer, got %r" % (key, value))
    return number


def _shoot_config(cfg: dict, args) -> ShootConfig:
    rk = _integer(_setting(cfg, args, "rk_steps"), "rk_steps")
    tol = _setting(cfg, args, "tol")
    try:
        return ShootConfig(rk_steps=rk, lambda_tol=float(tol))
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad shooting settings: %s" % exc)


def _cells(cfg: dict, args) -> int:
    m = _integer(_setting(cfg, args, "m"), "m")
    if m < 16:
        raise ConfigError("'m' must be >= 16, got %d" % m)
    return m


def _solver(cfg: dict, args) -> str:
    solver = _setting(cfg, args, "solver")
    if solver not in _SOLVERS:
        raise ConfigError("unknown solver %r, expected one of %s" % (solver, ", ".join(_SOLVERS)))
    return solver


def _problem_spec(cfg: dict, **override) -> ProblemSpec:
    """The config's problem with override applied, built once so that an
    invalid problem is a config error before any solve starts."""
    if not isinstance(cfg.get("problem"), dict):
        raise ConfigError("config needs a 'problem' object")
    try:
        spec = ProblemSpec.from_dict(dict(cfg["problem"], **override))
        spec.build()
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("bad problem spec: %s" % exc)
    return spec


def _solve_pair(spec: ProblemSpec, solver: str, sconf: ShootConfig, m: int):
    lam_s = lam_r = None
    sol_s = sol_r = None
    if solver in ("shoot", "both"):
        sol_s = solve_spec(spec, sconf)
        lam_s = sol_s.lambda_val
    if solver in ("rayleigh", "both"):
        sol_r = rayleigh_spec(spec, m)
        lam_r = sol_r.lambda_val
    return lam_s, lam_r, sol_s, sol_r


def _disagreement(lam_s, lam_r):
    if lam_s is None or lam_r is None:
        return None
    return abs(lam_s - lam_r) / max(1.0, abs(lam_s))


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


def _cmd_solve(cfg, args, out_dir: Path) -> int:
    spec = _problem_spec(cfg)
    sconf = _shoot_config(cfg, args)
    solver = _solver(cfg, args)
    m = _cells(cfg, args)
    lam_s, lam_r, sol_s, sol_r = _solve_pair(spec, solver, sconf, m)
    if lam_s is not None:
        print("lambda_shoot    = " + _FMT % lam_s)
    if lam_r is not None:
        print("lambda_rayleigh = " + _FMT % lam_r)
    dis = _disagreement(lam_s, lam_r)
    if dis is not None:
        print("disagreement    = " + _FMT % dis)
    if sol_s is not None and sol_s.diagnostics["phi_underflow_nodes"]:
        print("warning: %d of %d shooting eigenfunction values underflow to 0"
              % (sol_s.diagnostics["phi_underflow_nodes"], sol_s.phi.size), file=sys.stderr)
    if sol_r is not None and not sol_r.diagnostics["converged"]:
        print("warning: the Rayleigh solve stopped unconverged after %d steps"
              % sol_r.diagnostics["steps"], file=sys.stderr)
    for tag, sol in (("shoot", sol_s), ("rayleigh", sol_r)):
        if sol is None:
            continue
        path = out_dir / ("eigenfunction_%s.csv" % tag)
        _write_csv(path, ("t", "phi", "psi"), zip(sol.grid, sol.phi, sol.psi))
        print("wrote %s" % path)
    return 0


def _sweep_values(cfg) -> tuple:
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict) or "axis" not in sweep:
        raise ConfigError("sweep command needs a 'sweep' object with an 'axis'")
    unknown = sorted(set(sweep) - set(_SWEEP_KEYS))
    if unknown:
        raise ConfigError("a sweep takes no %s" % ", ".join(map(repr, unknown)))
    if "grid" in sweep and {"start", "stop", "count"} & set(sweep):
        raise ConfigError("a sweep takes either 'grid' or start/stop/count, not both")
    axis = sweep["axis"]
    if axis not in ("alpha", "R", "p", "kappa"):
        raise ConfigError("unknown sweep axis %r" % (axis,))
    scale = sweep.get("scale", "linear")
    if scale not in ("linear", "log"):
        raise ConfigError("unknown sweep scale %r, expected 'linear' or 'log'" % (scale,))
    if "grid" in sweep:
        if not isinstance(sweep["grid"], list):
            raise ConfigError("sweep grid must be a list of values, got %r" % (sweep["grid"],))
        try:
            values = [float(v) for v in sweep["grid"]]
        except (TypeError, ValueError) as exc:
            raise ConfigError("bad sweep grid: %s" % exc)
        if not values:
            raise ConfigError("sweep grid is empty")
    else:
        try:
            start, stop = float(sweep["start"]), float(sweep["stop"])
            count = sweep["count"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("sweep needs 'grid' or start/stop/count: %s" % exc)
        count = _integer(count, "count")
        if count < 2:
            raise ConfigError("sweep count must be >= 2")
        values = [start, stop]
    if scale == "log" and not all(v > 0 for v in values):
        raise ConfigError("log scale needs positive sweep values")
    if "grid" not in sweep:  # evenly spaced in the value, or in its log
        to, back = (math.log, math.exp) if scale == "log" else (float, float)
        ls, le = to(start), to(stop)
        values = [back(ls + (le - ls) * i / (count - 1)) for i in range(count)]
    return axis, values, scale


def _cmd_sweep(cfg, args, out_dir: Path) -> int:
    sconf = _shoot_config(cfg, args)
    solver = _solver(cfg, args)
    m = _cells(cfg, args)
    axis, values, scale = _sweep_values(cfg)

    points = [_problem_spec(cfg, **{axis: v}) for v in values]
    rows = [_solve_pair(point, solver, sconf, m)[:2] for point in points]

    csv_path = out_dir / "sweep.csv"
    _write_csv(csv_path, _SWEEP_COLUMNS + _RESULT_COLUMNS, (
        [getattr(point, key) for key in _SWEEP_COLUMNS] + [*row, _disagreement(*row)]
        for row, point in zip(rows, points)))
    print("wrote %s" % csv_path)

    series = []
    if any(r[0] is not None for r in rows):
        series.append((values, [r[0] for r in rows], "shooting"))
    if any(r[1] is not None for r in rows):
        series.append((values, [r[1] for r in rows], "rayleigh"))
    svg_path = out_dir / "sweep.svg"
    line_chart(series, svg_path, title="first eigenvalue vs %s" % axis,
               xlabel=axis, ylabel="lambda", logx=scale == "log")
    print("wrote %s" % svg_path)
    return 0


def _cmd_verify(cfg, args, out_dir: Path) -> int:
    reports = default_suite(_shoot_config(cfg, args))
    jsonl = out_dir / "verification.jsonl"
    csvp = out_dir / "verification.csv"
    reports_to_jsonl(reports, jsonl)
    reports_to_csv(reports, csvp)
    n_pass = sum(1 for r in reports if r.status == "pass")
    n_fail = sum(1 for r in reports if r.status == "fail")
    n_skip = sum(1 for r in reports if r.status == "skip")
    for rep in reports:
        if rep.status == "fail":
            print("FAIL %s %s margin=%.3g tol=%.3g" % (
                rep.name, json.dumps(rep.params, sort_keys=True), rep.margin, rep.tolerance))
    print("verification: %d pass, %d fail, %d skip" % (n_pass, n_fail, n_skip))
    print("wrote %s" % jsonl)
    print("wrote %s" % csvp)
    return 1 if n_fail else 0


_TABLE_GEOMETRIES = (
    ("flat_interval", {"type": "inradius_model", "kappa": 0.0, "lambda_mc": 0.0, "n": 2, "R": 1.0}),
    ("disk", {"type": "geodesic_ball", "kappa": 0.0, "n": 2, "R": 1.0}),
    ("hyperbolic_ball", {"type": "geodesic_ball", "kappa": -1.0, "n": 3, "R": 1.0}),
    ("model_log_linear", {"type": "inradius_model", "kappa": -1.0, "lambda_mc": 1.0, "n": 3, "R": 1.0}),
)


def _cmd_table(cfg, args, out_dir: Path) -> int:
    sconf = _shoot_config(cfg, args)
    m = _cells(cfg, args)
    path = out_dir / "acceptance_table.csv"
    rows = []
    for name, doc in _TABLE_GEOMETRIES:
        for p in (1.5, 2.0, 3.0):
            for alpha in (-1.0, 1.0):
                spec = ProblemSpec.from_dict(dict(doc, alpha=alpha, p=p))
                lam_s, lam_r, _, _ = _solve_pair(spec, "both", sconf, m)
                rows.append((name, p, alpha, lam_s, lam_r, _disagreement(lam_s, lam_r)))
    print("\n".join(_write_csv(path, ("geometry", "p", "alpha") + _RESULT_COLUMNS, rows)))
    print("worst disagreement: " + _FMT % max(row[-1] for row in rows))
    print("wrote %s" % path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="probin",
        description="First Robin eigenvalue of the p-Laplacian: solvers and verification suites",
    )
    parser.add_argument("--config", help="JSON config with command and problem")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--solver", choices=_SOLVERS)
    parser.add_argument("--m", type=int, help="rayleigh grid cells")
    parser.add_argument("--rk-steps", type=int, dest="rk_steps")
    parser.add_argument("--tol", type=float, help="eigenvalue tolerance")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if cfg["command"] == "solve":
            return _cmd_solve(cfg, args, out_dir)
        if cfg["command"] == "sweep":
            return _cmd_sweep(cfg, args, out_dir)
        if cfg["command"] == "verify":
            return _cmd_verify(cfg, args, out_dir)
        return _cmd_table(cfg, args, out_dir)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (DomainError, BracketFailure, ToleranceFailure) as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
