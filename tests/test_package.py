"""The package root's public names, the README's library example, and
checks on the package source and the CI workflow."""

import ast
import dataclasses
import importlib.util
import json
import re
from pathlib import Path

import knappflow
from knappflow import amplitudes, cli

REPO = Path(__file__).resolve().parents[1]
README = REPO / "README.md"
PACKAGE = Path(knappflow.__file__).resolve().parent

PUBLIC = {
    "make_params",
    "lambda_hat",
    "run_sweep",
    "smoothness_verdict",
    "KnappParams",
    "AmplitudeBreakdown",
    "SignTriple",
    "SweepRecord",
    "NormReport",
    "Verdict",
    "InvalidParameterError",
    "WindowEmptyError",
    "FitDataError",
    "__version__",
}


def test_root_exports_exactly_the_public_names():
    assert len(knappflow.__all__) == len(PUBLIC)
    assert set(knappflow.__all__) == PUBLIC
    for name in knappflow.__all__:
        assert getattr(knappflow, name) is not None


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    exec(compile(block, str(README), "exec"), {})
    measured, fails = capsys.readouterr().out.split()
    assert abs(float(measured)) < 0.05
    assert fails == "False"


def test_readme_window_example_prints_its_line(capsys):
    # the Quick start's window line, run through the CLI, prints the
    # interval the README shows under it
    command, shown = re.search(
        r"```sh\n\$ knappflow (window .*)\n(.*)\n```", README.read_text()
    ).groups()
    assert cli.main(command.split()) == 0
    assert capsys.readouterr().out == shown + "\n"


def test_amplitudes_source_never_names_gauss_legendre_cells():
    # every norm takes its per-axis cells from amplitudes._stack_cells,
    # whose rule is boxes.axis_rule; a second cell builder, or a rule
    # taken from numpy directly, would bypass it
    text = (PACKAGE / "amplitudes.py").read_text()
    assert "leggauss" not in text
    assert "def _cells(" not in text


def test_amplitudes_never_regroups_a_pass():
    # a pass holds one layout, checked by amplitudes._shared; windows
    # that differ raise rather than being regrouped into stacks
    assert not hasattr(amplitudes, "_stacks")
    assert "def _stacks(" not in (PACKAGE / "amplitudes.py").read_text()


def test_boxes_holds_no_knapp_geometry():
    # W, W' and their widths live in construction alone; boxes keeps the
    # box algebra and the quadrature, and a surface axis has no slack
    from knappflow import boxes, construction

    geometry = ("AXIAL_HALF_WIDTH", "TRANSVERSE_LO", "TRANSVERSE_HI")
    for name in geometry + ("box_w", "box_w_prime", "SURFACE_TOL_FACTOR"):
        assert not hasattr(boxes, name), name
    for name in geometry:
        assert isinstance(getattr(construction, name), float), name
    assert not hasattr(construction, "SURFACE_TOL_FACTOR")
    fields = tuple(f.name for f in dataclasses.fields(boxes.Box3))
    assert fields == ("ax1", "ax2", "ax3", "surface_axis")
    assert boxes.EtaRegions._fields == ("lo", "hi", "found", "surface_axis")


def knapp_params_reads(tree):
    """Attribute names read from a ``KnappParams`` in a module's ``tree``.

    A read is ``self.<name>`` in a ``KnappParams`` method other than
    ``__post_init__`` (whose reads are the field checks), or ``<x>.<name>``
    for a plain name ``x`` in a function whose signature mentions
    ``KnappParams``.
    """
    names = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, (ast.Module, ast.ClassDef)):
            continue
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name == "__post_init__":
                continue
            if isinstance(cls, ast.ClassDef) and cls.name == "KnappParams":
                receivers = {"self"}
            elif "KnappParams" in ast.unparse(fn.args) + ast.unparse(fn.returns or ast.Constant(None)):
                receivers = None
            else:
                continue
            names.update(
                node.attr
                for node in ast.walk(fn)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and (receivers is None or node.value.id in receivers)
            )
    return names


def test_every_knapp_params_field_is_read():
    # KnappParams holds only what the evaluation reads: a field that only
    # __post_init__ checks is set by its callers and read by no one
    from knappflow.construction import KnappParams

    fields = [f.name for f in dataclasses.fields(KnappParams)]
    assert fields == ["lam", "eps", "mode", "grid"]
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        read |= knapp_params_reads(ast.parse(path.read_text()))
    assert [name for name in fields if name not in read] == []


def test_every_exponent_fit_goes_through_fit_series():
    # one exclusion policy: sweep.fit_series is the only caller of
    # fit_exponent, and it reads sweep.usable's records; the acceptance
    # suite never filters records itself
    callers, mentions = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        mentions += text.count("fit_exponent(")
        for fn in ast.walk(ast.parse(text)):
            if isinstance(fn, ast.FunctionDef):
                callers += [
                    (path.name, fn.name)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "fit_exponent"
                ]
    assert callers == [("sweep.py", "fit_series")]
    assert mentions == 2  # its definition and its one call
    assert "is_excluded" not in (PACKAGE / "acceptance.py").read_text()


def test_ci_runs_every_benchmark_workload_untraced():
    # the workflow's benchmark loop runs one "<workload> <trace>" pair per
    # run; a workload added to BENCHMARK.json must be run there with
    # --trace 0 at least once, so that its "correct" check gates CI
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    (loop,) = re.findall(r"^ *for run in (.*); do$", workflow, flags=re.M)
    assert '--workload "$1"' in workflow and '--trace "$2"' in workflow
    runs = [run.split() for run in re.findall(r'"([^"]*)"', loop)]
    untraced = {name for name, trace in runs if trace == "0"}
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in benchmark["workloads"]} <= untraced


def test_tests_need_only_pytest_and_the_two_oracles():
    # every property is checked on seeded or exhaustive inputs, so no test
    # imports hypothesis, the test extra is pytest and the two oracles,
    # and warnings are errors with no exemption.  A regex reads the TOML:
    # Python 3.10 has no tomllib
    imported = set()
    for path in sorted((REPO / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "hypothesis" not in imported
    config = (REPO / "pyproject.toml").read_text()
    (extra,) = re.findall(r"^test = \[(.*?)\]", config, flags=re.M | re.S)
    assert [re.split(r"[<>=]", d)[0] for d in re.findall(r'"([^"]*)"', extra)] == [
        "pytest",
        "scipy",
        "mpmath",
    ]
    assert re.findall(r"^filterwarnings = (.*?)$", config, flags=re.M) == ['["error"]']


def test_readme_ledger_table_is_sweep_ledger():
    # the README's field x mode table restates sweep.LEDGER for readers;
    # each cell, evaluated at two (s, r) pairs, is the row's prediction
    from knappflow.sweep import LEDGER, predicted_exponent

    header = r"^\| series \| slab \| surface \|\n\|.*\n"
    (table,) = re.findall(header + r"((?:\|.*\n)+)", README.read_text(), flags=re.M)
    seen = set()
    for names, *cells in (row.strip("| ").split(" | ") for row in table.splitlines()):
        for name in re.findall(r"`(\w+)`", names):
            seen.add(name)
            for mode, cell in zip(("slab", "surface"), cells):
                for s, r in ((0.5, -0.25), (1.25, 0.75)):
                    expr = re.sub(r"(\d)([sr])", r"\1*\2", cell)
                    got = eval(expr, {"__builtins__": {}, "s": s, "r": r})
                    assert got == predicted_exponent(mode, name, s, r), (name, mode)
    assert seen == set(LEDGER)


def test_code_lines_count_lines_that_hold_code():
    # a docstring is the first statement of a module, class or function,
    # however many lines it spans; any other string is code
    spec = importlib.util.spec_from_file_location("code_lines", REPO / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = '''"""A module docstring
over two lines."""

import math  # a comment

# a comment line
class A:
    """A class docstring."""

    def f(self):
        """A function docstring."""
        text = """a string that is
        not a docstring"""
        return text, math.pi
'''
    assert tool.code_lines(source) == 6
