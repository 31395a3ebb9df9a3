"""Command-line front end: commands, artifacts, determinism, exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import pytest

import probin.cli
from probin.cli import main
from probin.errors import DomainError
from probin.shoot import ShootConfig


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


FLAT_PROBLEM = {"type": "inradius_model", "kappa": 0.0, "lambda_mc": 0.0,
                "n": 2, "R": 1.0, "alpha": 1.0, "p": 2.0}


def test_solve_prints_eigenvalue_and_writes_csv(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"command": "solve", "problem": FLAT_PROBLEM,
                                   "solver": "both", "m": 400})
    code = main(["--config", cfg, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.740173884" in out
    assert "disagreement" in out
    csv_text = (tmp_path / "eigenfunction_shoot.csv").read_text()
    assert csv_text.splitlines()[0] == "t,phi,psi"
    assert len(csv_text.splitlines()) == 4098  # header + rk_steps+1 nodes


def test_solve_shoot_only(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"command": "solve", "problem": FLAT_PROBLEM,
                                   "solver": "shoot"})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "lambda_shoot" in out and "lambda_rayleigh" not in out


def test_sweep_monotone_csv_and_svg(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "command": "sweep",
        "problem": FLAT_PROBLEM,
        "solver": "shoot",
        "sweep": {"axis": "alpha", "start": 0.1, "stop": 10.0, "count": 7, "scale": "log"},
    })
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    i_alpha = header.index("alpha")
    i_lam = header.index("lambda_shoot")
    lams = [float(r.split(",")[i_lam]) for r in rows[1:]]
    assert len(lams) == 7
    assert all(a < b for a, b in zip(lams, lams[1:]))  # increasing in alpha
    for row in rows[1:]:
        assert row.split(",")[i_alpha] != ""  # params echoed on every row
    svg = (tmp_path / "sweep.svg").read_text()
    ET.fromstring(svg)  # well-formed XML
    assert "polyline" in svg


def test_sweep_deterministic_output(tmp_path):
    cfg = _write_config(tmp_path, {
        "command": "sweep",
        "problem": FLAT_PROBLEM,
        "solver": "shoot",
        "sweep": {"axis": "R", "grid": [0.5, 1.0, 2.0]},
    })
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    assert main(["--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "sweep.svg").read_bytes() == (out2 / "sweep.svg").read_bytes()


@pytest.mark.parametrize("axis,grid", [
    ("alpha", [0.5, 1.0]), ("R", [0.5, 1.0]), ("p", [1.5, 2.0]), ("kappa", [-1.0, 0.0]),
])
def test_sweep_csv_names_each_column_once(tmp_path, axis, grid):
    # every sweep axis is a problem column, which holds the swept value
    cfg = _write_config(tmp_path, {"command": "sweep", "problem": FLAT_PROBLEM, "solver": "shoot",
                                   "sweep": {"axis": axis, "grid": grid}})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    header, *rows = (tmp_path / "sweep.csv").read_text().splitlines()
    names = header.split(",")
    assert len(set(names)) == len(names)
    assert [float(row.split(",")[names.index(axis)]) for row in rows] == grid


def test_verify_command(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"command": "verify"})
    code = main(["--config", cfg, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 fail" in out
    lines = (tmp_path / "verification.jsonl").read_text().strip().splitlines()
    assert all(json.loads(line)["status"] in ("pass", "skip") for line in lines)
    assert (tmp_path / "verification.csv").exists()


def test_table_command(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"command": "table", "m": 320})
    code = main(["--config", cfg, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    table = (tmp_path / "acceptance_table.csv").read_text().splitlines()
    assert table[0] == "geometry,p,alpha,lambda_shoot,lambda_rayleigh,disagreement"
    assert len(table) == 1 + 4 * 3 * 2
    assert "worst disagreement" in out


def test_missing_config_is_config_error(capsys):
    assert main([]) == 2
    assert "config" in capsys.readouterr().err


def test_bad_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--config", str(path)]) == 2


def test_config_that_is_no_object_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, [{"command": "verify"}])
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_unknown_command_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, {"command": "dance"})
    assert main(["--config", cfg]) == 2


def test_invalid_problem_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(probin.cli, "solve_spec",
                        lambda spec, config: pytest.fail("solved %r" % (spec,)))
    ball = {"type": "geodesic_ball", "kappa": 0.0, "n": 3, "R": 1.0, "alpha": 1.0, "p": 2.0}
    warped = {"type": "warped_product", "n": 3, "R": 1.0, "alpha": 1.0, "p": 2.0}

    def warping(kind, *coefficients):
        return dict(warped, warping={"kind": kind, "coefficients": list(coefficients)})

    # each problem with the cause its config error names
    problems = [
        # a fractional n was truncated to 2, and an infinite p or R reached the solver
        (dict(FLAT_PROBLEM, alpha=0.0), "is degenerate"),
        (dict(FLAT_PROBLEM, n=2.5), "n must be an integer"),
        (dict(FLAT_PROBLEM, p=math.inf), "must be finite"),
        (dict(FLAT_PROBLEM, R=math.inf), "must be finite"),
        # a field the type needs was missing (a crash, or a NoneType
        # comparison), or one it does not take was set and silently ignored
        (warped, "warped_product needs warping"),
        ({"type": "double_robin", "kappa": 0.0, "R": 1.0, "alpha": 1.0, "p": 2.0},
         "double_robin takes no kappa"),
        ({key: value for key, value in ball.items() if key != "n"}, "geodesic_ball needs n"),
        (dict(ball, warping={"kind": "sn", "coefficients": [0.0]}),
         "geodesic_ball takes no warping"),
        # warping coefficients that are missing (a crash), not finite (a
        # solver failure), or more than the one kappa of sn (ignored)
        (warping("polynomial"), "finite coefficients"),
        (warping("sn"), "one coefficient, kappa"),
        (warping("polynomial", 1.0, math.nan), "finite coefficients"),
        (warping("polynomial", 1.0, math.inf), "finite coefficients"),
        (warping("sn", 0.0, 5.0), "one coefficient, kappa"),
        # a string of coefficients was read one character at a time, and a
        # misspelt or unknown key was dropped
        (dict(warped, warping={"kind": "polynomial", "coefficients": "01"}), "must be a list"),
        (dict(warped, warping={"kind": "sn", "coefficients": [0.0], "scale": 2.0}),
         "a warping takes no 'scale'"),
        (dict(FLAT_PROBLEM, kapa=3.0), "a problem takes no 'kapa'"),
        # a number given as a string or a bool was read through float()
        (dict(FLAT_PROBLEM, R="1.0"), "R must be a number, got '1.0'"),
        (dict(FLAT_PROBLEM, n="3"), "n must be a number, got '3'"),
        (dict(FLAT_PROBLEM, alpha=True), "alpha must be a number, got True"),
        (dict(FLAT_PROBLEM, kappa=False), "kappa must be a number, got False"),
        (warping("sn", "1"), "kappa must be a number, got '1'"),
        (warping("polynomial", 0.0, "1"), "a warping coefficient must be a number, got '1'"),
        # a warping that is no object failed on "string indices must be integers"
        (dict(warped, warping="sn"), "a warping must be an object, got 'sn'"),
    ]
    for problem, cause in problems:
        cfg = _write_config(tmp_path, {"command": "solve", "problem": problem, "solver": "shoot"})
        assert main(["--config", cfg, "--out", str(tmp_path)]) == 2, problem
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and cause in err, (problem, err)


@pytest.mark.parametrize("doc,cause", [
    # a misspelt setting was dropped: this solved with both solvers at 4 096 steps
    ({"command": "solve", "problem": FLAT_PROBLEM, "solvr": "shoot", "rk_step": 64},
     "unknown setting 'solvr'"),
    ({"command": "solve", "problem": FLAT_PROBLEM, "rk_step": 64}, "unknown setting 'rk_step'"),
    # a setting the command does not read was dropped as well
    ({"command": "solve", "problem": FLAT_PROBLEM, "sweep": {"axis": "alpha", "grid": [1.0]}},
     "the solve command takes no 'sweep'"),
    ({"command": "verify", "m": 400}, "the verify command takes no 'm'"),
    ({"command": "verify", "problem": FLAT_PROBLEM}, "the verify command takes no 'problem'"),
    ({"command": "table", "solver": "shoot"}, "the table command takes no 'solver'"),
], ids=["solvr", "rk_step", "solve-sweep", "verify-m", "verify-problem", "table-solver"])
def test_unknown_setting_is_config_error_before_any_solve(tmp_path, monkeypatch, capsys, doc, cause):
    for name in ("solve_spec", "rayleigh_spec", "default_suite"):
        monkeypatch.setattr(probin.cli, name, lambda *args: pytest.fail("solved"))
    assert main(["--config", _write_config(tmp_path, doc), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and cause in err, err


def test_each_command_takes_every_setting_it_reads(tmp_path):
    shared = {"rk_steps": 1024, "tol": 1e-9}
    sweep = {"axis": "alpha", "grid": [1.0, 2.0]}
    docs = [
        dict(shared, command="solve", problem=FLAT_PROBLEM, solver="shoot", m=400),
        dict(shared, command="sweep", problem=FLAT_PROBLEM, solver="shoot", m=400, sweep=sweep),
        dict(shared, command="verify"),
        dict(shared, command="table", m=400),
    ]
    for doc in docs:
        settings = probin.cli._load_config(SimpleNamespace(config=_write_config(tmp_path, doc)))
        expected = dict(doc)
        if "sweep" in doc:  # read into its axis, values and scale
            expected["sweep"] = ("alpha", [1.0, 2.0], "linear")
        assert {key: settings[key] for key in doc} == expected
        assert settings["shoot"] == ShootConfig(rk_steps=1024, lambda_tol=1e-9)


@pytest.mark.parametrize("doc,flags,cause", [
    # float(True) was a tolerance of 1: this printed lambda_shoot = 0 and exited 0
    ({"command": "solve", "problem": FLAT_PROBLEM, "solver": "shoot", "tol": True}, [],
     "'tol' must be a number, got True"),
    # a number given as a string was read through int() or float()
    ({"command": "solve", "problem": FLAT_PROBLEM, "m": "400"}, [],
     "'m' must be a number, got '400'"),
    ({"command": "solve", "problem": FLAT_PROBLEM, "tol": "1e-3"}, [],
     "'tol' must be a number, got '1e-3'"),
    ({"command": "solve", "problem": FLAT_PROBLEM, "rk_steps": "64"}, [],
     "'rk_steps' must be a number, got '64'"),
    ({"command": "sweep", "problem": FLAT_PROBLEM, "sweep": {"axis": "alpha", "grid": ["1"]}}, [],
     "a sweep 'grid' value must be a number, got '1'"),
    ({"command": "sweep", "problem": FLAT_PROBLEM, "sweep": {"axis": "alpha", "grid": [True]}}, [],
     "a sweep 'grid' value must be a number, got True"),
    ({"command": "sweep", "problem": FLAT_PROBLEM,
      "sweep": {"axis": "alpha", "start": "0.5", "stop": 2.0, "count": 3}}, [],
     "the sweep's 'start' must be a number, got '0.5'"),
    ({"command": "sweep", "problem": FLAT_PROBLEM,
      "sweep": {"axis": "alpha", "start": 0.5, "stop": 2.0, "count": "3"}}, [],
     "the sweep's 'count' must be a number, got '3'"),
    # a flag the command does not read was ignored
    ({"command": "verify"}, ["--m", "16"], "the verify command takes no --m"),
    ({"command": "table"}, ["--solver", "shoot"], "the table command takes no --solver"),
    # verify also solves at half the steps, where ShootConfig refused
    # them: this was a solver failure (exit 3) after the first solves
    ({"command": "verify"}, ["--rk-steps", "100"], "verify needs 'rk_steps' >= 128, got 100"),
    ({"command": "verify", "rk_steps": 127}, [], "verify needs 'rk_steps' >= 128, got 127"),
    # each config error names the setting it refuses
    ({"command": "solve", "problem": [FLAT_PROBLEM]}, [], "'problem'"),
    ({"command": "sweep", "problem": FLAT_PROBLEM, "sweep": {"grid": [1.0, 2.0]}}, [], "'sweep'"),
    ({"command": "sweep", "problem": FLAT_PROBLEM,
      "sweep": {"axis": "alpha", "start": 0.5, "stop": 2.0, "count": 1}}, [], "'count'"),
], ids=["tol-true", "m-string", "tol-string", "rk_steps-string", "grid-string", "grid-true",
        "start-string", "count-string", "verify-m-flag", "table-solver-flag",
        "verify-rk_steps-flag", "verify-rk_steps-key", "problem-list", "sweep-no-axis",
        "count-one"])
def test_refused_setting_is_config_error_before_any_solve(tmp_path, monkeypatch, capsys,
                                                          doc, flags, cause):
    for name in ("solve_spec", "rayleigh_spec", "default_suite"):
        monkeypatch.setattr(probin.cli, name, lambda *args, **kwargs: pytest.fail("solved"))
    cfg = _write_config(tmp_path, doc)
    assert main(["--config", cfg, "--out", str(tmp_path)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and cause in err, err
    assert list(tmp_path.iterdir()) == [Path(cfg)]


def test_domain_violation_is_config_error(tmp_path):
    bad = {"type": "geodesic_ball", "kappa": 1.0, "n": 3, "R": 3.5, "alpha": 1.0, "p": 2.0}
    cfg = _write_config(tmp_path, {"command": "solve", "problem": bad})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2


def test_unparsable_number_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, {"command": "solve", "problem": FLAT_PROBLEM, "m": "abc"})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2


def test_bad_sweep_point_is_config_error_before_any_solve(tmp_path, monkeypatch):
    solved = []
    monkeypatch.setattr(probin.cli, "solve_spec", lambda spec, config: solved.append(spec))
    ball = {"type": "geodesic_ball", "kappa": 1.0, "n": 3, "R": 1.0, "alpha": 1.0, "p": 2.0}
    double = {"type": "double_robin", "R": 1.0, "alpha": 1.0, "p": 2.0}
    # a radius past pi/sqrt(kappa), and a kappa that a double-Robin problem
    # does not take (it repeated one solve under a different kappa per row)
    for problem, sweep in ((ball, {"axis": "R", "grid": [1.0, 3.5]}),
                           (double, {"axis": "kappa", "grid": [0.0, 1.0]})):
        cfg = _write_config(tmp_path, {"command": "sweep", "problem": problem, "solver": "shoot",
                                       "sweep": sweep})
        assert main(["--config", cfg, "--out", str(tmp_path)]) == 2, sweep
    assert solved == []


@pytest.mark.parametrize("sweep", [
    {"axis": "alpha", "start": 0.1, "stop": 10.0, "count": 3, "scale": "logarithmic"},
    {"axis": "alpha", "grid": [-1.0, 1.0], "scale": "log"},
    {"axis": "alpha", "grid": []},
    {"axis": "alpha", "grid": "12"},  # was read as the grid [1, 2]
    {"axis": "alpha", "start": 0.1, "stop": 10.0, "count": 3, "sacle": "log"},  # was linear
    {"axis": "alpha", "grid": [1.0, 2.0], "start": 0.1, "stop": 10.0, "count": 3},  # grid won
])
def test_bad_sweep_scale_is_config_error_before_any_solve(tmp_path, monkeypatch, sweep):
    solved = []
    monkeypatch.setattr(probin.cli, "solve_spec", lambda spec, config: solved.append(spec))
    cfg = _write_config(tmp_path, {"command": "sweep", "problem": FLAT_PROBLEM, "solver": "shoot",
                                   "sweep": sweep})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2
    assert solved == []


def _failing_solve(exc):
    def solve(spec, config):
        raise exc
    return solve


def test_internal_value_error_propagates(tmp_path, monkeypatch):
    monkeypatch.setattr(probin.cli, "solve_spec", _failing_solve(ValueError("bug")))
    cfg = _write_config(tmp_path, {"command": "solve", "problem": FLAT_PROBLEM, "solver": "shoot"})
    with pytest.raises(ValueError, match="bug"):
        main(["--config", cfg, "--out", str(tmp_path)])


def test_domain_error_in_solver_is_solver_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(probin.cli, "solve_spec", _failing_solve(DomainError("outside")))
    cfg = _write_config(tmp_path, {"command": "solve", "problem": FLAT_PROBLEM, "solver": "shoot"})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_unknown_solver_in_config_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"command": "solve", "problem": FLAT_PROBLEM,
                                   "solver": "shooting"})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2
    assert "solver" in capsys.readouterr().err
    assert list(tmp_path.glob("eigenfunction_*.csv")) == []


@pytest.mark.parametrize("flag", [["--m", "0"], ["--tol", "0"], ["--rk-steps", "0"]])
def test_zero_flag_is_not_unset(tmp_path, flag):
    cfg = _write_config(tmp_path, {"command": "solve", "problem": FLAT_PROBLEM})
    assert main(["--config", cfg, "--out", str(tmp_path)] + flag) == 2


@pytest.mark.parametrize("key,value", [
    ("m", 2000.9), ("rk_steps", 4096.7), ("m", math.inf), ("rk_steps", math.nan),
])
def test_fractional_integer_setting_is_config_error(tmp_path, capsys, key, value):
    # int() truncated 2000.9 to 2000 cells before
    cfg = _write_config(tmp_path, {"command": "solve", "problem": FLAT_PROBLEM, key: value})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert list(tmp_path.glob("eigenfunction_*.csv")) == []


def test_fractional_sweep_count_is_config_error(tmp_path, monkeypatch):
    solved = []
    monkeypatch.setattr(probin.cli, "solve_spec", lambda spec, config: solved.append(spec))
    sweep = {"axis": "alpha", "start": 0.5, "stop": 2.0, "count": 3.5}
    cfg = _write_config(tmp_path, {"command": "sweep", "problem": FLAT_PROBLEM, "solver": "shoot",
                                   "sweep": sweep})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2
    assert solved == []


def test_integral_float_settings_are_accepted(tmp_path, capsys):
    # a flag is read as its key is, and wins over it: the last run's keys
    # would each change the output
    flags = ["--solver", "both", "--m", "400", "--rk-steps", "1024", "--tol", "1e-9"]
    runs = [({"solver": "both", "m": 400, "rk_steps": 1024, "tol": 1e-9}, []),
            ({"solver": "both", "m": 400.0, "rk_steps": 1024.0, "tol": 1e-9}, []),
            ({}, flags),
            ({"solver": "shoot", "m": 800, "rk_steps": 2048, "tol": 1e-8}, flags)]
    outputs = []
    for settings, args in runs:
        out = tmp_path / str(len(outputs))
        cfg = _write_config(tmp_path, dict(settings, command="solve", problem=FLAT_PROBLEM))
        assert main(["--config", cfg, "--out", str(out)] + args) == 0
        csvs = {path.name: path.read_bytes() for path in out.glob("eigenfunction_*.csv")}
        outputs.append((capsys.readouterr().out.replace(str(out), ""), csvs))
    assert all(output == outputs[0] for output in outputs[1:])
    # header + rk_steps+1 nodes, and header + m+1 nodes
    assert [len(outputs[0][1]["eigenfunction_%s.csv" % solver].splitlines())
            for solver in ("shoot", "rayleigh")] == [1026, 402]


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_is_config_error(tmp_path, capsys, tol):
    # accepted, a NaN or infinite tolerance would end the bisection before
    # its first step and print the bracket's low end as the eigenvalue
    cfg = _write_config(tmp_path, {"command": "solve", "problem": FLAT_PROBLEM})
    args = ["--config", cfg, "--out", str(tmp_path), "--solver", "shoot", "--tol", tol]
    assert main(args) == 2
    assert "lambda_shoot" not in capsys.readouterr().out


def test_solve_strongly_negative_alpha_writes_positive_eigenfunction(tmp_path, capsys):
    problem = dict(FLAT_PROBLEM, alpha=-10.0, p=1.5)
    cfg = _write_config(tmp_path, {"command": "solve", "problem": problem, "solver": "shoot"})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    assert "lambda_shoot" in capsys.readouterr().out
    rows = (tmp_path / "eigenfunction_shoot.csv").read_text().splitlines()[1:]
    phi = [float(row.split(",")[1]) for row in rows]
    assert len(phi) == 4097
    assert all(math.isfinite(v) and v > 0.0 for v in phi)


@pytest.mark.parametrize("alpha,warned", [(-800.0, True), (-400.0, False)])
def test_solve_warns_on_eigenfunction_underflow(tmp_path, capsys, alpha, warned):
    problem = dict(FLAT_PROBLEM, alpha=alpha)
    cfg = _write_config(tmp_path, {"command": "solve", "problem": problem, "solver": "shoot"})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "lambda_shoot" in captured.out
    assert ("underflow" in captured.err) == warned
    assert len(captured.err.splitlines()) == int(warned)


@pytest.mark.parametrize("p,zeros", [(1.001, 1), (2.0, 0)])
def test_solve_warns_on_rayleigh_eigenfunction_underflow(tmp_path, capsys, p, zeros):
    # at p = 1.001, alpha = 3 the Robin node's value is a power
    # 1/(p - 1) = 1000 of a number below 1 and underflows to 0; the
    # warning counts the zeros of the phi that the CSV holds
    problem = dict(FLAT_PROBLEM, alpha=3.0, p=p)
    cfg = _write_config(tmp_path, {"command": "solve", "problem": problem, "solver": "rayleigh"})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "lambda_rayleigh" in captured.out
    rows = (tmp_path / "eigenfunction_rayleigh.csv").read_text().splitlines()[1:]
    assert sum(float(row.split(",")[1]) == 0.0 for row in rows) == zeros
    expected = ["warning: %d of 2001 rayleigh eigenfunction values underflow to 0" % zeros]
    assert captured.err.splitlines() == expected[:zeros]


@pytest.mark.parametrize("alpha,p,warned", [(-3.0, 1.2, True), (-3.0, 1.5, False)])
def test_solve_warns_on_unconverged_rayleigh(tmp_path, capsys, monkeypatch, alpha, p, warned):
    """Both solves converge; the first is handed to the CLI flagged
    unconverged.  Only that one warns, and both print lambda_rayleigh,
    write the eigenfunction and exit 0."""
    if warned:
        solve = probin.cli.rayleigh_spec

        def unconverged(spec, m):
            sol = solve(spec, m)
            assert sol.diagnostics["converged"]
            return dataclasses.replace(sol, diagnostics=dict(sol.diagnostics, converged=False))

        monkeypatch.setattr(probin.cli, "rayleigh_spec", unconverged)
    problem = dict(FLAT_PROBLEM, alpha=alpha, p=p)
    cfg = _write_config(tmp_path, {"command": "solve", "problem": problem, "solver": "rayleigh"})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "lambda_rayleigh" in captured.out
    assert (tmp_path / "eigenfunction_rayleigh.csv").exists()
    assert ("unconverged after" in captured.err) == warned
    assert len(captured.err.splitlines()) == int(warned)


_UNCONVERGED = "warning: the Rayleigh solve stopped unconverged after 1 steps"


@pytest.fixture
def one_inverse_iteration(monkeypatch):
    """Rayleigh solves by the inverse power method (one Robin end, alpha
    > 0) stop after one iteration, unconverged.  The solution cache is
    emptied before and after, so no such solve reaches another test."""
    probin.rayleigh._solve_cached.cache_clear()
    monkeypatch.setattr(probin.rayleigh, "_INVERSE_MAX", 1)
    yield monkeypatch
    probin.rayleigh._solve_cached.cache_clear()


def test_sweep_and_table_warn_once_per_unconverged_rayleigh_solve(tmp_path, capsys,
                                                                  one_inverse_iteration):
    """sweep and table write a lambda whatever its solve's convergence,
    as solve does; like solve, they warn on stderr once per point whose
    Rayleigh solve stopped unconverged, and still write every row and
    exit 0.  With every solve converged they warn of nothing."""
    sweep = _write_config(tmp_path, {
        "command": "sweep", "solver": "rayleigh", "m": 320,
        "problem": {"type": "geodesic_ball", "kappa": -1.0, "n": 3, "R": 1.0, "alpha": 1.0, "p": 1.5},
        "sweep": {"axis": "alpha", "start": -2.0, "stop": 3.0, "count": 5}}, "sweep.json")
    table = _write_config(tmp_path, {"command": "table", "m": 320}, "table.json")
    assert main(["--config", sweep, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err.splitlines() == [_UNCONVERGED] * 3  # alpha = 0.5, 1.75, 3
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 5
    assert main(["--config", table, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err.splitlines() == [_UNCONVERGED] * 12  # the rows with alpha = 1
    assert len((tmp_path / "acceptance_table.csv").read_text().splitlines()) == 1 + 24

    one_inverse_iteration.undo()
    probin.rayleigh._solve_cached.cache_clear()
    for cfg in (sweep, table):
        assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""


def _run_cli(cfg, out_dir, *flags):
    """probin in a child process, as a user runs it, on this checkout's
    src."""
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "probin.cli", "--config", cfg, "--out", str(out_dir), *flags],
        env=env, capture_output=True, text=True)


def test_a_closed_stdout_does_not_stop_the_command(tmp_path):
    # as probin ... | head -n 1: the reader closes stdout after the first
    # line, while the child still writes its eigenfunction files and
    # prints a line for each; unbuffered, every print reaches the pipe
    problem = {"type": "double_robin", "R": 0.5, "alpha": 1.0, "p": 2.5}
    cfg = _write_config(tmp_path, {"command": "solve", "problem": problem, "solver": "both"})
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "probin.cli", "--config", cfg, "--out", str(tmp_path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("lambda_shoot")
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait() == 0
    assert stderr == ""
    for tag in ("shoot", "rayleigh"):
        assert (tmp_path / ("eigenfunction_%s.csv" % tag)).stat().st_size > 0


def test_solve_near_p1_fails_cleanly(tmp_path):
    """Flat p = 1.03, alpha = -2 has a boundary layer exp(-2^(100/3) x),
    far thinner than any affordable RK4 step: the trials blow up in it.
    The CLI must report that as a solver failure (exit 3), not crash.  64
    RK steps (the smallest allowed) reproduce it in a fraction of a
    second."""
    problem = dict(FLAT_PROBLEM, alpha=-2.0, p=1.03)
    cfg = _write_config(tmp_path, {"command": "solve", "problem": problem, "solver": "shoot"})
    proc = _run_cli(cfg, tmp_path, "--rk-steps", "64")
    assert proc.returncode == 3
    assert "solver failure: non-finite trajectory" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("solver,message", [
    ("shoot", "above the constant trial's quotient"),
    ("both", "above the constant trial's quotient"),
])
def test_solve_positive_alpha_near_p1_fails_cleanly(tmp_path, solver, message):
    """Flat p = 1.001, alpha = 0.1: shooting lands far above the constant
    trial's quotient.  That is a solver failure (exit 3) with no warning
    and no traceback, and it ends a both-solver run too."""
    problem = dict(FLAT_PROBLEM, alpha=0.1, p=1.001)
    proc = _run_cli(_write_config(tmp_path, {"command": "solve", "problem": problem,
                                             "solver": solver}), tmp_path)
    assert proc.returncode == 3
    assert proc.stderr.startswith("solver failure: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_rayleigh_solves_positive_alpha_near_p1(tmp_path):
    """Flat p = 1.001, alpha = 0.1, where the inverse step's power
    1/(p - 1) is 1000: Rayleigh answers Q = alpha, the constant trial's
    quotient, and a Rayleigh-only p sweep through that point writes a
    row for each p, with no warning."""
    problem = dict(FLAT_PROBLEM, alpha=0.1, p=1.001)
    proc = _run_cli(_write_config(tmp_path, {"command": "solve", "problem": problem,
                                             "solver": "rayleigh"}), tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "lambda_rayleigh = 0.1\n" in proc.stdout
    proc = _run_cli(_write_config(tmp_path, {"command": "sweep", "problem": problem,
                                             "solver": "rayleigh",
                                             "sweep": {"axis": "p", "grid": [1.001, 1.5, 2.0]}}),
                    tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 4  # the header and 3 rows
