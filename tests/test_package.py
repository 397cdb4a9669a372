"""The package root's public names, and the README's library example."""

import ast
import re
from pathlib import Path

import knappflow
from knappflow import amplitudes

README = Path(__file__).resolve().parents[1] / "README.md"
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


def test_package_source_never_names_numpy_polynomial():
    # its Gauss-Legendre rule is boxes._leggauss; numpy.polynomial is a
    # test-only reference (tests/test_boxes.py)
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        assert "np.polynomial" not in text and "numpy.polynomial" not in text, path.name


def test_amplitudes_source_never_names_gauss_legendre_cells():
    # every norm takes its per-axis cells from amplitudes._stack_cells,
    # whose rule is boxes.axis_rule; a second cell builder would bypass it
    text = (PACKAGE / "amplitudes.py").read_text()
    assert "gauss_legendre_cells" not in text
    assert "def _cells(" not in text


def test_amplitudes_never_regroups_a_pass():
    # a pass holds one layout, checked by amplitudes._shared; windows
    # that differ raise rather than being regrouped into stacks
    assert not hasattr(amplitudes, "_stacks")
    assert "def _stacks(" not in (PACKAGE / "amplitudes.py").read_text()


def test_boxes_holds_no_knapp_geometry():
    # W, W' and their widths live in construction alone; boxes keeps the
    # box algebra and the quadrature
    from knappflow import boxes, construction

    geometry = ("AXIAL_HALF_WIDTH", "TRANSVERSE_LO", "TRANSVERSE_HI", "SURFACE_TOL_FACTOR")
    for name in geometry + ("box_w", "box_w_prime"):
        assert not hasattr(boxes, name), name
    for name in geometry:
        assert isinstance(getattr(construction, name), float), name


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
