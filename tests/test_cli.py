import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import knappflow
from knappflow import acceptance, cli
from knappflow.construction import make_params

EPS, RHO = 0.01, 2e-6


def run_cli(argv, capsys):
    rv = cli.main(argv)
    out, err = capsys.readouterr()
    return rv, out, err


def test_window_prints_interval(capsys):
    rv, out, _ = run_cli(["window", "--eps", "0.01", "--rho", "2e-6", "--k", "1"], capsys)
    assert rv == 0
    lo, hi = out.strip().strip("()").split(",")
    assert 627.3 < float(lo) < 627.4
    assert 629.3 < float(hi) < 629.4


def test_window_prints_empty(capsys):
    rv, out, _ = run_cli(["window", "--eps", "0.01", "--rho", "1e-3", "--k", "2"], capsys)
    assert rv == 0
    assert out.strip() == "EMPTY"


def test_window_invalid_rho_exits_2(capsys):
    rv, _, err = run_cli(["window", "--eps", "0.01", "--rho", "1.5", "--k", "1"], capsys)
    assert rv == 2
    assert "error:" in err


def test_eval_json_payload(capsys):
    p = make_params(EPS, RHO, 1)
    xi = p.samp_box.center()
    xi_arg = ",".join(format(x, ".17g") for x in xi)
    rv, out, _ = run_cli(["eval", "--k", "1", "--xi", xi_arg], capsys)
    assert rv == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["k"] == 1
    assert payload["mode"] == "slab"
    assert payload["lambda"] == pytest.approx(p.lam, rel=1e-15)
    assert len(payload["per_sign"]) == 8
    assert set(payload["total"]) == {"re", "im"}
    total = complex(payload["total"]["re"], payload["total"]["im"])
    assert abs(total) > 0.0
    # conjugate pairing: the amplitude is purely imaginary
    assert abs(total.real) <= 1e-10 * abs(total)
    assert payload["flags"] == []


def test_eval_sign_restriction(capsys):
    p = make_params(EPS, RHO, 1)
    xi_arg = ",".join(format(x, ".17g") for x in p.samp_box.center())
    rv, out, _ = run_cli(["eval", "--k", "1", "--xi", xi_arg, "--signs", "++-"], capsys)
    assert rv == 0
    payload = json.loads(out)
    assert list(payload["per_sign"]) == ["++-"]
    assert payload["total"] == payload["per_sign"]["++-"]


def test_eval_bad_inputs_exit_2(capsys):
    rv, _, err = run_cli(["eval", "--k", "1", "--xi", "1,2"], capsys)
    assert rv == 2 and "error:" in err
    rv, _, err = run_cli(["eval", "--k", "1", "--xi", "1,2,3", "--signs", "+-"], capsys)
    assert rv == 2 and "error:" in err


def test_sweep_writes_deterministic_files(tmp_path, capsys):
    args = [
        "sweep",
        "--kmin", "1",
        "--kmax", "3",
        "--grid", "8,4,4",
        "--out", str(tmp_path / "a.csv"),
        "--json", str(tmp_path / "a.json"),
    ]
    rv, out, _ = run_cli(args, capsys)
    assert rv == 0
    assert f"wrote {tmp_path / 'a.csv'} (3 records)" in out
    assert f"wrote {tmp_path / 'a.json'}" in out

    args2 = [
        "sweep",
        "--kmin", "1",
        "--kmax", "3",
        "--grid", "8,4,4",
        "--out", str(tmp_path / "b.csv"),
        "--json", str(tmp_path / "b.json"),
    ]
    rv, _, _ = run_cli(args2, capsys)
    assert rv == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    header = (tmp_path / "a.csv").read_text().splitlines()[0]
    assert header.startswith("k,lambda,t,sup_amp")
    report = json.loads((tmp_path / "a.json").read_text())
    assert report["schema"] == 1
    assert report["params"]["grid"] == [8, 4, 4]
    assert report["verdict"]["smooth_bound_fails"] is False


def test_sweep_rejects_bad_ranges(tmp_path, capsys):
    rv, _, err = run_cli(
        ["sweep", "--kmin", "5", "--kmax", "2", "--out", str(tmp_path / "x.csv")], capsys
    )
    assert rv == 2 and "kmax" in err
    rv, _, err = run_cli(
        ["sweep", "--kmin", "2", "--kmax", "2", "--out", str(tmp_path / "x.csv")], capsys
    )
    assert rv == 2 and "at least 3" in err


def test_sweep_bad_grid_is_argparse_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["sweep", "--grid", "8,4", "--out", str(tmp_path / "x.csv")])
    assert exc_info.value.code == 2
    capsys.readouterr()


def test_verify_exit_code_wiring(monkeypatch):
    class _Res:
        def __init__(self, passed):
            self.passed = passed

    monkeypatch.setattr(acceptance, "run_all", lambda: [_Res(True), _Res(True)])
    assert cli.main(["verify"]) == 0
    monkeypatch.setattr(acceptance, "run_all", lambda: [_Res(True), _Res(False)])
    assert cli.main(["verify"]) == 1


def test_console_script_installed(tmp_path):
    # Runs the console script that pyproject.toml declares as its own
    # executable on PATH, without needing `pip install -e .` first: the
    # launcher written here has the shape pip generates for the entry.
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "knappflow" in scripts, "pyproject.toml declares no [project.scripts] knappflow"
    declared = scripts["knappflow"]
    for installed in importlib.metadata.entry_points(group="console_scripts", name="knappflow"):
        assert installed.value == declared, f"stale install: {installed.value!r} != {declared!r}"

    ep = importlib.metadata.EntryPoint("knappflow", declared, "console_scripts")
    launcher = tmp_path / "knappflow"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({ep.attr}())\n"
    )
    launcher.chmod(0o755)

    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    env["PYTHONPATH"] = str(Path(knappflow.__file__).resolve().parents[1])
    exe = shutil.which("knappflow", path=env["PATH"])
    assert exe is not None and Path(exe) == launcher

    proc = subprocess.run(
        [exe, "window", "--eps", "0.01", "--rho", "2e-6", "--k", "1"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().startswith("(")

    # main()'s return value must reach the shell as the exit code.
    proc = subprocess.run(
        [exe, "window", "--eps", "0.01", "--rho", "1.5", "--k", "1"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "knappflow.cli", "window", "--eps", "0.01", "--rho", "1e-3", "--k", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "EMPTY"


def test_import_needs_no_optional_dependency():
    # numpy is the only runtime dependency: importing the package and its
    # CLI must not pull in scipy (a test-only oracle) or numba.
    code = (
        "import sys, knappflow, knappflow.cli\n"
        "print(sorted(m for m in ('scipy', 'numba') if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(knappflow.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
