"""Acceptance gate: one test per criterion, one printed line per result.

Run with ``pytest -v -s tests/test_acceptance.py`` to see each line as
it completes, or ``knappflow verify`` for the standalone report.  The
heavy k = 1..10 lattice sweeps are cached inside the acceptance module,
so the suite pays for them once per mode.
"""

from dataclasses import replace

import numpy as np
import pytest

from knappflow import acceptance, boxes
from knappflow._kernels import mult_values
from knappflow.construction import make_params
from knappflow.sweep import VERDICT_MARGIN, fit_exponent, records_from_core, smoothness_verdict
from knappflow.symbols import duhamel_multiplier


def _check(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_multiplier_oracle():
    result = acceptance.criterion_multiplier_oracle()
    _check(result)
    # Simpson's own error at n_steps = 4096: a changed rule or multiplier
    # moves it
    assert result.detail.startswith("max deviation 2.283e-12 ")


def test_criterion_01_pairs_take_the_sweeps_multiplier_bit_for_bit():
    # criterion 1 checks the scalar duhamel_multiplier; term_sums takes
    # the vectorized mult_values.  On criterion 1's own pairs the two are
    # one function, so the oracle's check covers the sweeps' multiplier.
    # This rests on numpy's sin and cos rounding as libm's do here.
    rng = np.random.default_rng(101)
    n = 10_000
    ts = 1.0 - rng.random(n)
    oms = rng.uniform(-100.0, 100.0, n) / ts
    want = np.array([duhamel_multiplier(t, om).value for t, om in zip(ts.tolist(), oms.tolist())])
    got = mult_values(ts, oms)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_criterion_02_curl_identity():
    _check(acceptance.criterion_curl_identity())


def test_criterion_03_quadrature_closed_forms():
    result = acceptance.criterion_quadrature_closed_forms()
    _check(result)
    assert "(tol 4.6e-13)" in result.detail and "(tol 3.6e-12)" in result.detail


@pytest.mark.parametrize("grid, passed", [((2, 2, 2), False), ((3, 2, 2), True)])
def test_criterion_03_fails_where_the_rule_is_not_exact(monkeypatch, grid, passed):
    # 2 nodes integrate exactly only to degree 3, and the xi1 monomial at
    # r = 1 has degree 4 along axis 1; 3 nodes along axis 1 are exact again,
    # and so is every doubled grid
    monkeypatch.setattr(acceptance, "DEFAULT_GRID", grid)
    result = acceptance.criterion_quadrature_closed_forms()
    assert result.passed == passed
    if not passed:
        assert result.detail.startswith("max relative error 3.683e-03 at default grids")


def test_criterion_04_kernel_nonnegativity():
    _check(acceptance.criterion_kernel_nonnegativity())


def test_criterion_05_amplitude_realness():
    _check(acceptance.criterion_realness())


def test_criterion_06_resonance_separation():
    result = acceptance.criterion_resonance_separation()
    _check(result)
    assert result.detail == (
        "resonant max |omega| = 0.5 ulp(2 lam) (need <= 2), "
        "nonresonant min |omega|/lam = 2.000 (need >= 0.5), k = 1..10"
    )


def test_criterion_06_fails_where_transverse_squares_count(monkeypatch):
    # on boxes 5e3 times wider along axis 1 and 1e6 times wider
    # transversally the transverse squares no longer round away, and the
    # resonant corners sit 1.7e7 to 2.2e9 ulp(2 lam) from zero
    monkeypatch.setattr(boxes, "AXIAL_HALF_WIDTH", 5e-3)
    monkeypatch.setattr(boxes, "TRANSVERSE_HI", 1.0)
    configs = [
        make_params(acceptance.ACCEPT_EPS, acceptance.ACCEPT_RHO, k, mode="slab")
        for k in acceptance.ACCEPT_KS
    ]
    monkeypatch.setattr(acceptance, "_configs", lambda mode: configs)
    result = acceptance.criterion_resonance_separation()
    assert not result.passed
    assert result.detail == (
        "resonant max |omega| = 2.16e+09 ulp(2 lam) (need <= 2), "
        "nonresonant min |omega|/lam = 1.990 (need >= 0.5), k = 1..10"
    )


def test_criterion_07_amplitude_scaling():
    _check(acceptance.criterion_amplitude_scaling())


def test_criterion_08_data_norm_scaling():
    _check(acceptance.criterion_norm_scaling())


def test_criterion_08_checks_the_product_norm_slope(monkeypatch):
    # a product norm half a power of lam off its derived slope must fail
    records = acceptance._records

    def scaled(mode, s_exp, r_exp):
        return tuple(
            replace(rec, norms=replace(rec.norms, norm_product=rec.norms.norm_product * rec.lam**0.5))
            for rec in records(mode, s_exp, r_exp)
        )

    monkeypatch.setattr(acceptance, "_records", scaled)
    result = acceptance.criterion_norm_scaling()
    assert not result.passed
    assert "product r=-0.25: slope 3.2500 vs 2.75" in result.detail


@pytest.mark.parametrize("mode, d1a2_slope", [("slab", 2.0), ("surface", 1.75)])
def test_second_datum_norm_outgrows_the_verdict_norm(mode, d1a2_slope):
    # the verdict divides by norm_total, the first datum's curl block; the
    # second datum's norm_d1a2 grows faster, not slower, on this geometry
    r_exp = -0.25
    recs = acceptance._records(mode, 0.5, r_exp)
    d1a2 = fit_exponent([(r.lam, r.norms.norm_d1a2) for r in recs])
    total = fit_exponent([(r.lam, r.norms.norm_total) for r in recs])
    assert d1a2.slope == pytest.approx(r_exp + d1a2_slope, abs=1e-6)
    assert total.slope == pytest.approx(r_exp + 1.5, abs=1e-6)
    assert all(r.norms.norm_d1a2 > 1e8 * r.norms.norm_total for r in recs)


def test_criterion_09_output_norm_scaling():
    _check(acceptance.criterion_output_scaling())


def test_criterion_10_verdict_consistency():
    _check(acceptance.criterion_verdict_consistency())


def test_verdict_over_the_s_r_plane():
    # criterion 10 checks four (s, r) pairs; the same cached slab lattice,
    # scored over a 7 x 11 grid, measures s - 1 - 2r at every pair, its
    # least-squares plane is (1, -2, -1), and off the margin the verdict
    # is the sign of the prediction
    cores, _ = acceptance._core("slab")
    pairs = [(s, r) for s in np.linspace(0.0, 1.5, 7) for r in np.linspace(-1.0, 0.5, 11)]
    measured, skipped = [], 0
    for s, r in pairs:
        verdict = smoothness_verdict(s, r, records_from_core(list(cores), s, r))
        analytic = s - 1.0 - 2.0 * r
        assert abs(verdict.measured_ratio_exponent - analytic) <= 1e-8, (s, r)
        measured.append(verdict.measured_ratio_exponent)
        if abs(analytic) > VERDICT_MARGIN:
            assert verdict.smooth_bound_fails == (analytic > VERDICT_MARGIN), (s, r)
        else:
            skipped += 1
    assert skipped == 2
    design = np.array([(s, r, 1.0) for s, r in pairs])
    plane = np.linalg.lstsq(design, np.array(measured), rcond=None)[0]
    assert np.abs(plane - (1.0, -2.0, -1.0)).max() <= 1e-8


def test_criterion_11_nonresonant_envelope():
    _check(acceptance.criterion_envelope())
