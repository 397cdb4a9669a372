import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from knappflow import _kernels, sweep
from knappflow.amplitudes import lattice_hats, norm_report, output_norm_from_samples, sample_lattice
from knappflow.errors import FitDataError, InvalidParameterError
from knappflow.sweep import (
    CSV_COLUMNS,
    build_report,
    csv_lines,
    fit_exponent,
    record_to_dict,
    records_from_core,
    report_json,
    run_sweep,
    smoothness_verdict,
    standard_fits,
    sweep_core,
    write_csv,
    write_report,
)

EPS, RHO = 0.01, 2e-6
SMALL_GRID = (8, 4, 4)


@pytest.fixture(scope="module")
def cores():
    return sweep_core(EPS, RHO, [1, 2, 3], grid=SMALL_GRID)


@pytest.fixture(scope="module")
def records(cores):
    return records_from_core(cores, 0.5, -0.25)


@pytest.fixture(scope="module")
def partial_records():
    # rho admits k = 1..3 only; k = 4 hits an empty window
    return run_sweep(EPS, 4.5e-4, 0.5, -0.25, [1, 2, 3, 4], grid=SMALL_GRID)


def test_fit_exponent_exact_square_law():
    fit = fit_exponent([(10.0, 100.0), (100.0, 1e4), (1000.0, 1e6)])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 3


def test_fit_exponent_synthetic_power_law():
    lams = [1e5, 2e5, 4e5, 8e5]
    fit = fit_exponent([(lam, 3.7 * lam**1.25) for lam in lams])
    assert fit.slope == pytest.approx(1.25, abs=1e-10)
    assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-9)


def test_fit_exponent_validation():
    with pytest.raises(FitDataError):
        fit_exponent([(10.0, 1.0), (20.0, 2.0)])
    with pytest.raises(FitDataError, match="value=0.0"):
        fit_exponent([(10.0, 1.0), (20.0, 0.0), (30.0, 2.0)])
    with pytest.raises(FitDataError, match="nan"):
        fit_exponent([(10.0, 1.0), (20.0, math.nan), (30.0, 2.0)])
    with pytest.raises(FitDataError, match="lambda=-1.0"):
        fit_exponent([(-1.0, 1.0), (20.0, 1.0), (30.0, 2.0)])


def test_fit_needs_two_distinct_lambdas():
    # points at one lambda have no slope; a line fit would invent one
    with pytest.raises(FitDataError, match="2 distinct lambdas"):
        fit_exponent([(1e6, 2.0), (1e6, 3.0), (1e6, 4.0)])
    records = records_from_core(sweep_core(EPS, RHO, [2], grid=SMALL_GRID) * 3, 0.5, -0.25)
    with pytest.raises(FitDataError, match="2 distinct lambdas"):
        smoothness_verdict(0.5, -0.25, records)
    # repeats are fine once two lambdas differ
    fit = fit_exponent([(10.0, 100.0), (10.0, 100.0), (100.0, 1e4)])
    assert fit.slope == pytest.approx(2.0, rel=1e-12)


def test_fit_exponent_leaves_numpy_ma_unimported():
    # numpy's first np.unique call imports numpy.ma (about 12 ms), which
    # the first sweep of a run would pay inside its fits
    code = (
        "import sys\n"
        "from knappflow.sweep import fit_exponent\n"
        "fit_exponent([(10.0, 100.0), (100.0, 1e4), (1000.0, 1e6)])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(sweep.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_record_invariants(records):
    assert [r.k for r in records] == [1, 2, 3]
    for r in records:
        assert r.mode == "slab"
        assert r.flags == ()
        assert not r.is_excluded()
        assert r.t == pytest.approx(EPS / math.sqrt(r.lam), rel=1e-15)
        assert r.sup_amp > 0.0
        assert r.sup_amp <= (r.res_amp + r.nonres_amp) * (1.0 + 1e-12)
        assert r.sup_amp >= abs(r.res_amp - r.nonres_amp) * (1.0 - 1e-12)
        assert r.output_norm > 0.0
        assert r.norms.norm_total == pytest.approx(
            math.hypot(r.norms.norm_d2a1, r.norms.norm_d2a1), rel=1e-12
        )
    lams = [r.lam for r in records]
    assert lams == sorted(lams)


def test_records_are_reproducible(cores):
    a = records_from_core(cores, 0.5, -0.25)
    b = records_from_core(cores, 0.5, -0.25)
    assert a == b
    # changing s only moves the output norm, not the amplitude scalars
    c = records_from_core(cores, 1.0, -0.25)
    for r_a, r_c in zip(a, c):
        assert r_a.sup_amp == r_c.sup_amp
        assert r_a.output_norm != r_c.output_norm


def test_empty_windows_are_flagged_not_fatal(partial_records):
    assert [r.k for r in partial_records] == [1, 2, 3, 4]
    empty = partial_records[3]
    assert empty.flags == ("window_empty",)
    assert empty.is_excluded()
    assert empty.mode == "none"
    assert math.isnan(empty.lam) and math.isnan(empty.output_norm)
    assert sum(not r.is_excluded() for r in partial_records) == 3


def test_informational_flags_do_not_exclude(records):
    tagged = dataclasses.replace(records[0], flags=("surface_norm_formal",))
    assert not tagged.is_excluded()
    tagged = dataclasses.replace(records[0], flags=("nonconverged_quadrature:axis2.t1",))
    assert tagged.is_excluded()


def test_surface_mode_records_carry_formal_flag():
    cores = sweep_core(EPS, RHO, [1], mode="surface", grid=SMALL_GRID)
    recs = records_from_core(cores, 0.5, -0.25)
    assert recs[0].mode == "surface"
    assert "surface_norm_formal" in recs[0].flags
    assert not recs[0].is_excluded()


def test_sweep_validation():
    with pytest.raises(InvalidParameterError):
        run_sweep(EPS, RHO, 0.5, -0.25, [1, 2], grid=SMALL_GRID)
    with pytest.raises(InvalidParameterError):
        sweep_core(EPS, RHO, [], grid=SMALL_GRID)
    # every requested window empty: aborts with guidance rather than fitting nothing
    with pytest.raises(InvalidParameterError, match="decrease rho"):
        sweep_core(EPS, 1e-3, [5, 6, 7], grid=SMALL_GRID)


def test_sweep_needs_three_distinct_windows_before_integrating(monkeypatch):
    integrated = []
    monkeypatch.setattr(_kernels, "term_sums", lambda *args: integrated.append(len(args[0])))
    for ks in ([2, 2, 2], [1, 2, 2.0, np.int64(1)]):
        with pytest.raises(InvalidParameterError, match="3 distinct window indices"):
            run_sweep(EPS, RHO, 0.5, -0.25, ks, grid=SMALL_GRID)
    assert integrated == []


@pytest.mark.parametrize("s, r", [(math.nan, -0.25), (0.5, math.inf), (-math.inf, math.nan)])
def test_sweep_rejects_a_non_finite_sobolev_index_before_integrating(monkeypatch, cores, s, r):
    with pytest.raises(InvalidParameterError, match="must be finite"):
        records_from_core(cores, s, r)
    integrated = []
    monkeypatch.setattr(_kernels, "term_sums", lambda *args: integrated.append(len(args[0])))
    with pytest.raises(InvalidParameterError, match="must be finite"):
        run_sweep(EPS, RHO, s, r, [1, 2, 3], grid=SMALL_GRID)
    assert integrated == []


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_sweep_core_equals_lattice_hats_per_window(mode):
    # one pass over 4 windows, a repeated one among them, gives each
    # window's one-window breakdowns and flags bit for bit
    cores = sweep_core(EPS, RHO, [3, 1, 7, 3], mode=mode, grid=SMALL_GRID)
    assert [c.k for c in cores] == [3, 1, 7, 3]
    for core in cores:
        axes, pts = sample_lattice(core.params.samp_box)
        assert all(np.array_equal(a, b) for a, b in zip(core.lattice_axes, axes))
        assert repr(core.breakdowns) == repr(lattice_hats(core.params, pts))


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_records_build_no_breakdowns(monkeypatch, mode):
    # a sweep that only writes records reads the lattice columns: no
    # window builds its breakdowns until they are read, and then once
    cores = sweep_core(EPS, RHO, [2, 5, 9], mode=mode, grid=SMALL_GRID)
    records = records_from_core(cores, 0.5, -0.25)
    assert all("breakdowns" not in vars(core) for core in cores)
    for core, rec in zip(cores, records):
        hats = core.breakdowns
        assert "breakdowns" in vars(core) and core.breakdowns is hats
        top = max(hats, key=lambda b: abs(b.total))
        assert rec.sup_amp == abs(top.total)
        assert (rec.res_amp, rec.nonres_amp) == (abs(top.resonant_sum), abs(top.nonresonant_sum))
        assert rec.nonres_envelope == top.nonresonant_envelope
    # run_sweep builds none either
    built = []
    monkeypatch.setattr(sweep, "_breakdowns", lambda lattice: built.append(lattice))
    run_sweep(EPS, RHO, 0.5, -0.25, [2, 5, 9], mode=mode, grid=SMALL_GRID)
    assert built == []


def test_sweep_core_with_an_empty_window_among_live_ones():
    # rho=4.5e-4 admits k = 1..3 only
    cores = sweep_core(EPS, 4.5e-4, [1, 4, 2, 3], grid=SMALL_GRID)
    assert [c.k for c in cores] == [1, 4, 2, 3]
    assert (cores[1].params, cores[1].lattice_axes, cores[1].breakdowns) == (None, (), ())
    for core in cores[:1] + cores[2:]:
        pts = sample_lattice(core.params.samp_box)[1]
        assert repr(core.breakdowns) == repr(lattice_hats(core.params, pts))


def test_windows_compare_by_identity():
    # two sweeps of one window hold equal but distinct arrays; comparing
    # them neither raises nor walks the arrays
    a, b = (sweep_core(EPS, RHO, [1], grid=SMALL_GRID)[0] for _ in range(2))
    assert a == a and a != b and not (a == b)
    assert records_from_core([a], 0.5, -0.25) == records_from_core([b], 0.5, -0.25)


@pytest.mark.parametrize(
    "mode, rho, ks",
    [
        ("slab", RHO, (1, 5, 10)),
        ("surface", RHO, (1, 5, 10)),
        # rho=4.5e-4 admits k = 1..3 only: an empty window among live ones
        ("slab", 4.5e-4, (1, 4, 2, 3)),
        ("slab", RHO, (7,)),
    ],
)
def test_records_from_prepared_norms_equal_standalone_norms(mode, rho, ks):
    # sweep_core prepares each window's norms once; records for a 4 x 4
    # (s, r) grid, in a shuffled order with repeats, equal records built
    # from standalone norm calls field for field, and a pair taken again
    # after others reads the same bits (no held array is written to)
    cores = sweep_core(EPS, rho, ks, mode=mode)
    grid = [(s, r) for s in (0.0, 0.5, 1.0, 1.5) for r in (-1.0, -0.25, 0.0, 0.5)]
    rng = np.random.default_rng(len(ks))
    order = [grid[i] for i in rng.permutation(len(grid))]
    order += [grid[i] for i in rng.integers(len(grid), size=6)]
    seen = {}
    for s, r in order:
        records = records_from_core(cores, s, r)
        for core, rec in zip(cores, records):
            if core.params is None:
                assert rec.flags == ("window_empty",)
                continue
            amps = np.array([abs(b.total) for b in core.breakdowns])
            want = dataclasses.replace(
                rec,
                sup_amp=float(amps.max()),
                output_norm=output_norm_from_samples(s, list(core.lattice_axes), amps),
                norms=norm_report(core.params, r),
            )
            assert repr(rec) == repr(want)
        assert repr(records) == seen.setdefault((s, r), repr(records))
    assert len(seen) == len(grid) < len(order)


def test_fractional_window_index_is_rejected_not_truncated():
    for bad in (1.5, math.nan):
        with pytest.raises(InvalidParameterError, match="k must be a positive integer"):
            sweep_core(EPS, RHO, [1, bad], grid=SMALL_GRID)
        with pytest.raises(InvalidParameterError, match="k must be a positive integer"):
            run_sweep(EPS, RHO, 0.5, -0.25, [1, 2, bad], grid=SMALL_GRID)
    # whole numbers of any type are stored as ints, as the CSV writes them
    assert [c.k for c in sweep_core(EPS, RHO, [np.int64(1), 2.0], grid=SMALL_GRID)] == [1, 2]


def test_standard_fits_slopes(records):
    fits = standard_fits(records)
    assert set(fits) == {"sup_amp", "output_norm", "norm_total"}
    assert fits["sup_amp"].slope == pytest.approx(1.0, abs=0.05)
    assert fits["output_norm"].slope == pytest.approx(2.5, abs=0.05)
    assert fits["norm_total"].slope == pytest.approx(1.25, abs=0.02)
    for f in fits.values():
        assert f.n_points == 3
        assert f.r_squared > 0.999


def test_verdict_ratio_arithmetic(cores):
    fail_cases = [(0.5, -0.5), (1.0, -0.25), (0.75, -0.375)]
    for s, r in fail_cases:
        recs = records_from_core(cores, s, r)
        v = smoothness_verdict(s, r, recs)
        assert v.analytic_ratio_exponent == pytest.approx(s - 1.0 - 2.0 * r, abs=1e-12)
        assert v.measured_ratio_exponent == pytest.approx(v.analytic_ratio_exponent, abs=0.1)
        assert v.smooth_bound_fails
    recs = records_from_core(cores, 0.5, -0.25)
    v = smoothness_verdict(0.5, -0.25, recs)
    assert v.measured_ratio_exponent == pytest.approx(0.0, abs=0.05)
    assert not v.smooth_bound_fails


def test_verdict_notes_list_exclusions(partial_records):
    v = smoothness_verdict(0.5, -0.25, partial_records)
    assert any(n.startswith("k=4 excluded from fits: window_empty") for n in v.notes)
    assert v.smooth_bound_fails is False


def test_verdict_needs_three_usable(records):
    with pytest.raises(FitDataError, match="3 unflagged"):
        smoothness_verdict(0.5, -0.25, records[:2])


@pytest.mark.parametrize("which", ["records", "partial_records"])
def test_report_fits_each_series_once(monkeypatch, request, which):
    # the report's verdict reads the report's own fits of output_norm and
    # norm_total: 3 fits, and the verdict smoothness_verdict gives
    recs = request.getfixturevalue(which)
    want = smoothness_verdict(0.5, -0.25, recs)
    fits = []
    fit_exponent = sweep.fit_exponent
    monkeypatch.setattr(sweep, "fit_exponent", lambda pts: fits.append(pts) or fit_exponent(pts))
    report = build_report(recs, 0.5, -0.25, params={})
    assert len(fits) == 3
    assert report["verdict"] == {
        "s": want.s_exp,
        "r": want.r_exp,
        "measured_ratio_exponent": want.measured_ratio_exponent,
        "analytic_ratio_exponent": want.analytic_ratio_exponent,
        "smooth_bound_fails": want.smooth_bound_fails,
        "notes": list(want.notes),
    }


def test_csv_shape_and_determinism(records, partial_records, tmp_path):
    lines = csv_lines(records)
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(records)
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    assert first[0] == "1"
    assert first[-2] == "slab"
    assert first[-1] == ""
    # empty window serializes as nan scalars plus its flag
    empty_row = csv_lines(partial_records)[4].split(",")
    assert empty_row[1] == "nan"
    assert empty_row[-2] == "none"
    assert empty_row[-1] == "window_empty"

    path1, path2 = tmp_path / "sweep1.csv", tmp_path / "sweep2.csv"
    write_csv(records, path1)
    write_csv(records, str(path2))
    assert path1.read_bytes() == path2.read_bytes()
    assert path1.read_text() == "\n".join(lines) + "\n"


def test_csv_floats_round_trip(records):
    row = csv_lines(records)[1].split(",")
    assert float(row[1]) == records[0].lam
    assert float(row[10]) == records[0].output_norm


def test_report_schema(records, tmp_path):
    params = {"eps": EPS, "rho": RHO, "s": 0.5, "r": -0.25, "k_list": [1, 2, 3]}
    report = build_report(records, 0.5, -0.25, params)
    assert report["schema"] == 1
    assert report["params"] == params
    assert set(report["fits"]) == {"sup_amp", "output_norm", "norm_total"}
    rec = report["records"][0]
    for key in ("k", "lambda", "nonres_envelope", "mode", "flags"):
        assert key in rec
    v = report["verdict"]
    assert set(v) == {
        "s",
        "r",
        "measured_ratio_exponent",
        "analytic_ratio_exponent",
        "smooth_bound_fails",
        "notes",
    }
    text = report_json(report)
    assert text == report_json(build_report(records, 0.5, -0.25, params))
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["verdict"]["smooth_bound_fails"] is False

    path = tmp_path / "report.json"
    write_report(report, path)
    assert path.read_text() == text


def test_nan_serializes_as_null(partial_records):
    d = record_to_dict(partial_records[3])
    assert d["lambda"] is None
    assert d["output_norm"] is None
    assert d["flags"] == ["window_empty"]
    assert json.loads(json.dumps(d))["lambda"] is None
