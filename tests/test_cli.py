import hashlib
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
from knappflow.sweep import csv_lines, run_sweep

EPS, RHO = 0.01, 2e-6


def child_env() -> dict[str, str]:
    """This environment, with the checkout's package first on PYTHONPATH,
    for a child interpreter (pytest's own ``pythonpath`` does not reach it)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(knappflow.__file__).resolve().parents[1])
    return env


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


def test_window_rho_below_rho_min_exits_2(capsys):
    # the rule eval and sweep keep: no configuration can be built from this window
    argv = ["--eps", "0.01", "--rho", "1e-9", "--k", "1"]
    rv, out, err = run_cli(["window", *argv], capsys)
    assert (rv, out) == (2, "")
    assert err == (
        "error: rho=1e-09 cannot cover the box spread of |xi|/lam; need rho >= 1.000001e-06\n"
    )
    assert run_cli(["eval", *argv, "--xi", "1,0,0"], capsys) == (2, "", err)


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


# sha256 of the ``knappflow eval --k 1`` JSON at the sampling-box centre,
# recorded while the resonant sums were still split node by node at
# |omega| <= lam^(3/4).  Each output frequency's lattice breakdown is
# pinned elsewhere, but not the resonant sum of a subset of triples.
EVAL_DIGESTS = {
    "all": "d7f8d8701a9ff545b11b9724304815a689931078f4c8ea95b745fb57c3e459ab",
    "++-": "f0a154e0df6ad6eeff5292e7b22a49441d6577ecb502ca3abba40421df550f3e",
}


@pytest.mark.parametrize("signs", sorted(EVAL_DIGESTS))
def test_eval_json_matches_recorded_digest(signs, capsys):
    p = make_params(EPS, RHO, 1)
    xi_arg = ",".join(format(x, ".17g") for x in p.samp_box.center())
    rv, out, _ = run_cli(["eval", "--k", "1", "--xi", xi_arg, "--signs", signs], capsys)
    assert rv == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EVAL_DIGESTS[signs]


def test_eval_bad_inputs_exit_2(capsys):
    rv, _, err = run_cli(["eval", "--k", "1", "--xi", "1,2"], capsys)
    assert rv == 2 and "error:" in err
    rv, _, err = run_cli(["eval", "--k", "1", "--xi", "1,2,3", "--signs", "+-"], capsys)
    assert rv == 2 and "error:" in err


@pytest.mark.parametrize("xi_arg", ["1e160,0,0", "1e300,1e300,1e300"])
def test_eval_rejects_a_frequency_whose_square_overflows(xi_arg, capsys):
    # it printed nan sums as NaN tokens, which are not JSON, and exited 0
    rv, out, err = run_cli(["eval", "--k", "1", "--xi", xi_arg], capsys)
    assert rv == 2 and "error:" in err
    assert out == ""


def test_eval_reads_an_exact_zero_where_the_square_underflows(capsys):
    # (1e-170)^2 is 0: eval read it as xi = 0 and exited 2
    rv, out, _ = run_cli(["eval", "--k", "1", "--xi", "1e-170,0,0"], capsys)
    assert rv == 0
    payload = json.loads(out)
    zero = {"re": 0.0, "im": 0.0}
    assert payload["total"] == zero
    assert all(v == zero for v in payload["per_sign"].values())
    rv, out, err = run_cli(["eval", "--k", "1", "--xi", "0,0,0"], capsys)
    assert rv == 2 and "xi must be nonzero" in err
    assert out == ""


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


HUGE = str(10**400)


@pytest.mark.parametrize(
    "argv",
    [
        ["window", "--eps", "0.01", "--rho", "2e-6", "--k", HUGE],
        ["eval", "--k", HUGE, "--xi", "1,0,0"],
        ["sweep", "--kmin", HUGE, "--kmax", HUGE, "--out", "x.csv", "--json", "x.json"],
        ["sweep", "--kmax", HUGE, "--out", "x.csv", "--json", "x.json"],
        ["sweep", "--grid", f"{HUGE},1,1", "--out", "x.csv", "--json", "x.json"],
    ],
    ids=["window-k", "eval-k", "sweep-kmin-kmax", "sweep-kmax", "sweep-grid"],
)
def test_an_int_a_float_cannot_hold_exits_2(tmp_path, capsys, monkeypatch, argv):
    # a 401-digit index or node count used to end in an OverflowError
    # traceback (exit 1)
    monkeypatch.chdir(tmp_path)
    rv, out, err = run_cli(argv, capsys)
    assert (rv, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    assert list(tmp_path.iterdir()) == []


# two of windows 2..5 are nonempty at this rho: too few points for a fit
FIT_FAILS = ["sweep", "--kmin", "2", "--kmax", "5", "--rho", "4.5e-4", "--grid", "8,4,4"]


def test_sweep_whose_fit_fails_exits_2_and_writes_nothing(tmp_path, capsys):
    csv_path, json_path = tmp_path / "f.csv", tmp_path / "f.json"
    rv, out, err = run_cli(FIT_FAILS + ["--out", str(csv_path), "--json", str(json_path)], capsys)
    assert rv == 2
    assert err.startswith("error:") and "at least 3 points, got 2" in err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_sweep_without_json_needs_no_fit(tmp_path, capsys):
    csv_path = tmp_path / "f.csv"
    rv, out, _ = run_cli(FIT_FAILS + ["--out", str(csv_path)], capsys)
    assert rv == 0
    assert out == f"wrote {csv_path} (4 records)\n"
    assert len(csv_path.read_text().splitlines()) == 5


@pytest.mark.parametrize("json_name", ["f.out", "./d/../f.out", "{tmp}/f.out"])
def test_sweep_with_one_file_for_out_and_json_exits_2_before_integrating(
    tmp_path, capsys, monkeypatch, json_name
):
    # the JSON would overwrite the CSV; the same file under another
    # spelling is caught too, and nothing is integrated or written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()

    def integrating(**kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", integrating)
    json_path = json_name.format(tmp=tmp_path)
    rv, out, err = run_cli(["sweep", "--out", "f.out", "--json", json_path], capsys)
    assert rv == 2
    assert err == "error: --out and --json name one file: f.out\n"
    assert out == "" and [p.name for p in tmp_path.iterdir()] == ["d"]


def test_sweep_rejects_bad_ranges(tmp_path, capsys):
    rv, _, err = run_cli(
        ["sweep", "--kmin", "5", "--kmax", "2", "--out", str(tmp_path / "x.csv")], capsys
    )
    assert rv == 2 and "kmax" in err
    rv, _, err = run_cli(
        ["sweep", "--kmin", "2", "--kmax", "2", "--out", str(tmp_path / "x.csv")], capsys
    )
    assert rv == 2 and "at least 3" in err


@pytest.mark.parametrize("index", [["--s", "nan"], ["--r", "inf"], ["--s=-inf"]])
def test_sweep_non_finite_index_exits_2_and_writes_nothing(tmp_path, capsys, index):
    csv_path, json_path = tmp_path / "x.csv", tmp_path / "x.json"
    args = ["sweep", "--kmin", "1", "--kmax", "3", "--grid", "8,4,4", *index]
    rv, _, err = run_cli(args + ["--out", str(csv_path), "--json", str(json_path)], capsys)
    assert rv == 2
    assert err.startswith("error:") and "must be finite" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("index", [["--s", "30"], ["--r", "30"]])
@pytest.mark.parametrize("with_json", [False, True])
def test_sweep_whose_norm_overflows_exits_2_and_writes_nothing(tmp_path, capsys, index, with_json):
    # it wrote inf in every output_norm (--s 30) or data-norm column (--r 30)
    csv_path, json_path = tmp_path / "x.csv", tmp_path / "x.json"
    args = ["sweep", "--kmin", "1", "--kmax", "3", "--grid", "8,4,4", *index]
    args += ["--out", str(csv_path), *(["--json", str(json_path)] if with_json else [])]
    rv, out, err = run_cli(args, capsys)
    assert rv == 2
    assert err == f"error: the norm at Sobolev index {index[0][2:]} = 30.0 overflows\n"
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--out", "--json"])
def test_sweep_unwritable_output_exits_2(tmp_path, capsys, flag):
    # exit code 1 is the failed acceptance suite's; a traceback is not an answer
    paths = {"--out": str(tmp_path / "x.csv"), "--json": str(tmp_path / "x.json")}
    paths[flag] = str(tmp_path / "missing_dir" / "x")
    args = ["sweep", "--kmin", "1", "--kmax", "3", "--grid", "8,4,4"]
    rv, _, err = run_cli(args + [arg for item in paths.items() for arg in item], capsys)
    assert rv == 2
    assert err.startswith("error:") and "missing_dir" in err


SWEEP3 = ["sweep", "--kmin", "1", "--kmax", "3", "--grid", "8,4,4"]


@pytest.mark.parametrize(
    "case", ["json unwritable", "json unwritable, out exists", "json a directory", "out unwritable"]
)
def test_sweep_that_cannot_write_leaves_every_file_as_it_was(tmp_path, capsys, case):
    # an unwritable --json printed "wrote x.csv" and left x.csv behind
    # while exiting 2; a failed sweep now creates or replaces no file,
    # leaves no temporary file and prints nothing on stdout
    csv_path, json_path = tmp_path / "x.csv", tmp_path / "missing_dir" / "x.json"
    if case == "json unwritable, out exists":
        csv_path.write_bytes(b"earlier bytes\n")
    elif case == "json a directory":
        json_path = tmp_path / "x.json"
        json_path.mkdir()
    elif case == "out unwritable":
        csv_path, json_path = tmp_path / "missing_dir" / "x.csv", tmp_path / "x.json"
    before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.iterdir()}
    rv, out, err = run_cli(SWEEP3 + ["--out", str(csv_path), "--json", str(json_path)], capsys)
    assert rv == 2
    assert err.startswith("error: cannot write output:")
    assert out == ""
    assert {p: p.read_bytes() if p.is_file() else None for p in tmp_path.iterdir()} == before
    if case == "json a directory":
        assert list(json_path.iterdir()) == []


def test_sweep_replaces_an_existing_output_with_the_library_bytes(tmp_path, capsys):
    csv_path, json_path = tmp_path / "x.csv", tmp_path / "x.json"
    csv_path.write_bytes(b"earlier bytes\n")
    rv, out, _ = run_cli(SWEEP3 + ["--out", str(csv_path), "--json", str(json_path)], capsys)
    assert rv == 0
    assert out == f"wrote {csv_path} (3 records)\nwrote {json_path}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.json"]
    records = run_sweep(EPS, RHO, 0.5, -0.25, [1, 2, 3], grid=(8, 4, 4))
    assert csv_path.read_bytes() == ("\n".join(csv_lines(records)) + "\n").encode()


@pytest.mark.parametrize(
    "grid, message",
    [
        ("8,4", "expected three comma-separated integers, got '8,4'"),
        ("8,4,x", "bad grid '8,4,x': invalid literal for int() with base 10: 'x'"),
    ],
)
def test_sweep_bad_grid_names_the_problem(tmp_path, capsys, grid, message):
    # argparse printed "invalid _parse_triple_of_ints value: '8,4'"
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["sweep", "--grid", grid, "--out", str(tmp_path / "x.csv")])
    assert exc_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument --grid: {message}\n")
    assert list(tmp_path.iterdir()) == []


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

    env = child_env()
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
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
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "EMPTY"


def test_import_needs_no_optional_dependency():
    # numpy is the only runtime dependency: importing the package and its
    # CLI must not pull in scipy or mpmath, the test extra's two oracles.
    code = (
        "import sys, knappflow, knappflow.cli\n"
        "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_sweep_and_its_report_never_import_numpy_polynomial():
    # every Gauss-Legendre rule comes from boxes._leggauss, so a process that
    # builds grids, fits and serializes never loads numpy.polynomial
    code = (
        "import sys\n"
        "from knappflow.sweep import build_report, report_json, run_sweep\n"
        "records = run_sweep(0.01, 2e-6, 0.5, -0.25, [1, 2, 3], grid=(8, 4, 4))\n"
        "report_json(build_report(records, 0.5, -0.25, params={}))\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
