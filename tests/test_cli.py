"""Command-line front end: commands, artifacts, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import probin.cli
from probin.cli import main
from probin.errors import DomainError


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


def test_unknown_command_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, {"command": "dance"})
    assert main(["--config", cfg]) == 2


def test_invalid_problem_is_config_error(tmp_path):
    bad = dict(FLAT_PROBLEM, alpha=0.0)
    cfg = _write_config(tmp_path, {"command": "solve", "problem": bad})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2


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
    cfg = _write_config(tmp_path, {"command": "sweep", "problem": ball, "solver": "shoot",
                                   "sweep": {"axis": "R", "grid": [1.0, 3.5]}})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 2
    assert solved == []


@pytest.mark.parametrize("sweep", [
    {"axis": "alpha", "start": 0.1, "stop": 10.0, "count": 3, "scale": "logarithmic"},
    {"axis": "alpha", "grid": [-1.0, 1.0], "scale": "log"},
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


def test_solve_near_p1_fails_cleanly(tmp_path):
    """Flat p = 1.03, alpha = -2 has a boundary layer exp(-2^(100/3) x),
    far thinner than any affordable RK4 step: the trials blow up in it.
    The CLI must report that as a solver failure (exit 3), not crash.  64
    RK steps (the smallest allowed) reproduce it in a fraction of a
    second."""
    problem = dict(FLAT_PROBLEM, alpha=-2.0, p=1.03)
    cfg = _write_config(tmp_path, {"command": "solve", "problem": problem, "solver": "shoot"})
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "probin.cli", "--config", cfg, "--out", str(tmp_path),
         "--rk-steps", "64"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert "solver failure: non-finite trajectory" in proc.stderr
    assert "Traceback" not in proc.stderr
