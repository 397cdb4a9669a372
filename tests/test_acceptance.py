"""Acceptance gate: one test per criterion, one printed line per result.

Run with ``pytest -v -s tests/test_acceptance.py`` to see each line as
it completes, or ``knappflow verify`` for the standalone report.  The
heavy k = 1..10 lattice sweeps are cached inside the acceptance module,
so the suite pays for them once per mode.
"""

from knappflow import acceptance


def _check(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_multiplier_oracle():
    _check(acceptance.criterion_multiplier_oracle())


def test_criterion_02_curl_identity():
    _check(acceptance.criterion_curl_identity())


def test_criterion_03_quadrature_closed_forms():
    _check(acceptance.criterion_quadrature_closed_forms())


def test_criterion_04_kernel_nonnegativity():
    _check(acceptance.criterion_kernel_nonnegativity())


def test_criterion_05_amplitude_realness():
    _check(acceptance.criterion_realness())


def test_criterion_06_resonance_separation():
    result = acceptance.criterion_resonance_separation()
    _check(result)
    assert result.detail == (
        "resonant max |omega|/lam^(3/4) = 0.000e+00 (need <= 1), "
        "nonresonant min |omega|/lam = 2.000 (need >= 0.5), k = 1..10"
    )


def test_criterion_07_amplitude_scaling():
    _check(acceptance.criterion_amplitude_scaling())


def test_criterion_08_data_norm_scaling():
    _check(acceptance.criterion_norm_scaling())


def test_criterion_08_checks_the_product_norm_slope(monkeypatch):
    # a product norm half a power of lam off its derived slope must fail
    product_norm = acceptance.product_norm
    monkeypatch.setattr(acceptance, "product_norm", lambda p, r: product_norm(p, r) * p.lam**0.5)
    result = acceptance.criterion_norm_scaling()
    assert not result.passed
    assert "product r=-0.25: slope 3.2500 vs 2.75" in result.detail


def test_criterion_09_output_norm_scaling():
    _check(acceptance.criterion_output_scaling())


def test_criterion_10_verdict_consistency():
    _check(acceptance.criterion_verdict_consistency())


def test_criterion_11_nonresonant_envelope():
    _check(acceptance.criterion_envelope())
