import dataclasses
import itertools
import math

import numpy as np
import pytest

from knappflow import _kernels
from knappflow.amplitudes import (
    TWO_PI_CUBED,
    ResonanceClass,
    _trilinear,
    lambda_hat,
    norm_report,
    output_norm_from_samples,
    product_norm_boxes,
    resonance_classify,
    sample_lattice,
    sobolev_norm_monomial,
)
from knappflow.boxes import Box3, admissible_eta_region, quadrature_grid
from knappflow.construction import kernels, make_params
from knappflow.errors import InvalidParameterError
from knappflow.symbols import SIGN_TRIPLES, SignTriple

EPS, RHO = 0.01, 2e-6
SMALL_GRID = (8, 4, 4)


def small_params(**kw):
    kw.setdefault("grid", SMALL_GRID)
    return make_params(EPS, RHO, 1, **kw)


def resonant_set(report):
    return {s for s, c in report.empirical.items() if c is ResonanceClass.RESONANT}


def test_resonance_classification_by_slot_order():
    p = small_params()
    xi = p.samp_box.center()
    by_label = {kern.label: kern for kern in kernels(p)}
    # planar datum on the eta slot: |xi - eta| ~ 2 lam, |eta| ~ lam
    region = admissible_eta_region(
        xi, by_label["axis2.t2"].support_a, by_label["axis2.t2"].support_b
    )
    rep = resonance_classify(p, xi, region.center())
    assert resonant_set(rep) == {
        SignTriple.from_string("++-"),
        SignTriple.from_string("--+"),
    }
    # slots swapped: |xi - eta| ~ lam, |eta| ~ 2 lam
    region = admissible_eta_region(
        xi, by_label["axis2.t1"].support_a, by_label["axis2.t1"].support_b
    )
    rep = resonance_classify(p, xi, region.center())
    assert resonant_set(rep) == {
        SignTriple.from_string("+-+"),
        SignTriple.from_string("-+-"),
    }
    # the all-signs-equal pattern never matches the empirical cut here
    pattern_res = {s for s, c in rep.sign_pattern.items() if c is ResonanceClass.RESONANT}
    assert pattern_res == {SignTriple.from_string("+++"), SignTriple.from_string("---")}
    assert pattern_res.isdisjoint(resonant_set(rep))


def test_resonance_gap_sizes():
    p = small_params()
    xi = p.samp_box.center()
    kern = kernels(p)[0]
    region = admissible_eta_region(xi, kern.support_a, kern.support_b)
    rep = resonance_classify(p, xi, region.center())
    for s, om in rep.omegas.items():
        if rep.empirical[s] is ResonanceClass.RESONANT:
            assert abs(om) <= p.resonance_threshold
            assert abs(om) < 1e-2 * p.lam
        else:
            assert abs(om) > 0.5 * p.lam


def test_breakdown_sum_invariants():
    p = small_params()
    xi = p.samp_box.center()
    b = lambda_hat(p, xi)
    assert b.flags == ()
    assert b.total != 0.0
    assert sum(b.per_sign.values()) == pytest.approx(b.total, rel=1e-12)
    assert b.resonant_sum + b.nonresonant_sum == pytest.approx(b.total, rel=1e-12)
    assert abs(b.nonresonant_sum) <= b.nonresonant_envelope * (1.0 + 1e-9)
    assert b.eval_point == tuple(xi)
    assert b.t == p.t


def test_total_purely_imaginary():
    # conjugate sign triples pair up, so 4i * amplitude is real
    p = small_params()
    rng = np.random.default_rng(31)
    axes_lo = np.array([ax[0] for ax in p.samp_box.axes])
    axes_hi = np.array([ax[1] for ax in p.samp_box.axes])
    for _ in range(5):
        xi = axes_lo + rng.random(3) * (axes_hi - axes_lo)
        b = lambda_hat(p, xi)
        z = 4j * b.total
        assert abs(z.imag) <= 1e-10 * abs(z)


def test_outside_support_is_exact_zero():
    p = small_params()
    b = lambda_hat(p, (7.0 * p.lam, 0.0, 0.0))
    assert b.total == 0.0
    assert b.resonant_sum == 0.0
    assert b.nonresonant_envelope == 0.0
    assert b.flags == ()
    b = lambda_hat(p, (-p.lam, 0.0, 0.0))
    assert b.total == 0.0


def test_time_zero_vanishes():
    p = small_params()
    b = lambda_hat(p, p.samp_box.center(), t=0.0)
    assert b.total == 0.0
    assert b.nonresonant_envelope == 0.0


def test_lambda_hat_validation():
    p = small_params()
    with pytest.raises(InvalidParameterError):
        lambda_hat(p, (1.0, 2.0))
    with pytest.raises(InvalidParameterError):
        lambda_hat(p, (0.0, 0.0, 0.0))
    with pytest.raises(InvalidParameterError):
        lambda_hat(p, p.samp_box.center(), t=-1.0)


def test_sign_subsets_partition_total():
    p = small_params()
    xi = p.samp_box.center()
    full = lambda_hat(p, xi)
    first = lambda_hat(p, xi, signs=SIGN_TRIPLES[:4])
    second = lambda_hat(p, xi, signs=SIGN_TRIPLES[4:])
    assert set(first.per_sign) == set(SIGN_TRIPLES[:4])
    assert first.total + second.total == pytest.approx(full.total, rel=1e-13)
    single = lambda_hat(p, xi, signs=(SIGN_TRIPLES[0],))
    assert single.total == pytest.approx(full.per_sign[SIGN_TRIPLES[0]], rel=1e-13)


def test_block_split_partitions_total():
    p = small_params()
    xi = p.samp_box.center()
    full = lambda_hat(p, xi)
    a2 = lambda_hat(p, xi, which="axis2")
    a3 = lambda_hat(p, xi, which="axis3")
    assert a2.total + a3.total == pytest.approx(full.total, rel=1e-12)


def test_grid_doubling_converges():
    p = small_params()
    p2 = dataclasses.replace(p, grid=(16, 8, 8))
    xi = p.samp_box.center()
    b1 = lambda_hat(p, xi)
    b2 = lambda_hat(p2, xi)
    assert abs(b1.total - b2.total) <= 1e-8 * abs(b2.total)


def test_backend_paths_agree():
    p = small_params()
    xi = np.asarray(p.samp_box.center())
    kern = kernels(p)[0]
    region = admissible_eta_region(xi, kern.support_a, kern.support_b)
    grid = quadrature_grid(region, (6, 5, 4))
    from knappflow.symbols import SIGNS_ARRAY

    args = (grid.points, grid.weights, xi, p.t, 1.0, kern.code, SIGNS_ARRAY, p.resonance_threshold)
    tot_np, res_np, env_np = _kernels.term_sums(*args)
    tot_py, res_py, env_py = _kernels._term_sums_loop(*args)
    scale = np.abs(tot_np).max()
    assert np.abs(tot_np - tot_py).max() <= 1e-12 * scale
    assert np.abs(res_np - res_py).max() <= 1e-12 * scale
    assert np.abs(env_np - env_py).max() <= 1e-12 * env_np.max()


def test_sobolev_norm_closed_forms():
    cube = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    c = (2.0 * math.pi) ** -1.5
    assert sobolev_norm_monomial(cube, (0, 0, 0), 1.0, 0.0) == pytest.approx(c, rel=1e-12)
    assert sobolev_norm_monomial(cube, (1, 0, 0), 1.0, 0.0) == pytest.approx(
        c / math.sqrt(3.0), rel=1e-12
    )
    assert sobolev_norm_monomial(cube, (0, 0, 0), 1.0, 1.0) == pytest.approx(
        c * math.sqrt(2.0), rel=1e-12
    )
    assert sobolev_norm_monomial(cube, (1, 0, 0), 1.0, 1.0) == pytest.approx(
        c * math.sqrt(34.0 / 45.0), rel=1e-12
    )
    # amplitude scales the norm linearly
    assert sobolev_norm_monomial(cube, (0, 0, 0), 2.0, 0.0) == pytest.approx(2 * c, rel=1e-12)
    with pytest.raises(InvalidParameterError):
        sobolev_norm_monomial(cube, (-1, 0, 0), 1.0, 0.0)


def test_sobolev_norm_surface_is_formal_area_integral():
    sheet = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 0.0), surface_axis=2, surface_tol=1e-9)
    c = (2.0 * math.pi) ** -1.5
    assert sobolev_norm_monomial(sheet, (0, 0, 0), 1.0, 0.0) == pytest.approx(c, rel=1e-12)


def test_product_norm_tent_closed_form():
    # chi_[0,1]^3 * chi_[0,1]^3: per-axis tent, integral of tent^2 is 2/3
    cube = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    want = (2.0 * math.pi) ** -4.5 * (2.0 / 3.0) ** 1.5
    got = product_norm_boxes(cube, cube, 0.0, nodes_per_axis=(8, 8, 8))
    assert got == pytest.approx(want, rel=1e-10)
    # alpha scales linearly
    got2 = product_norm_boxes(cube, cube, 0.0, nodes_per_axis=(8, 8, 8), alpha=3.0)
    assert got2 == pytest.approx(3.0 * want, rel=1e-10)


def test_product_norm_surface_factor_is_indicator():
    # surface sheet against a unit cube: the degenerate axis contributes
    # a shifted indicator instead of an overlap length
    sheet = Box3(
        ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.5, 0.5), surface_axis=2, surface_tol=1e-9
    )
    cube = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    want = (2.0 * math.pi) ** -4.5 * (2.0 / 3.0)  # two tent axes, one indicator axis
    got = product_norm_boxes(sheet, cube, 0.0, nodes_per_axis=(8, 8, 8))
    assert got == pytest.approx(want, rel=1e-10)


def test_norm_report_structure():
    p = small_params()
    rep = norm_report(p, output_lower=1.25)
    assert rep.norm_output_lower == 1.25
    assert rep.norm_total == pytest.approx(math.sqrt(2.0) * rep.norm_d2a1, rel=1e-12)
    for v in (rep.norm_d2a1, rep.norm_d1a2, rep.norm_product):
        assert v > 0.0 and math.isfinite(v)


def test_output_norm_lower_constant_hook():
    p = small_params(s_exp=0.5)
    axes, _ = sample_lattice(p.samp_box, 3)
    got = output_norm_from_samples(p, p.s_exp, axes, np.ones(27))
    grid = quadrature_grid(p.samp_box, (12, 8, 8))
    integral = float(grid.weights @ (1.0 + (grid.points**2).sum(axis=1)) ** p.s_exp)
    want = math.sqrt(integral / TWO_PI_CUBED)
    assert got == pytest.approx(want, rel=1e-9)
    # the bound scales like lam^s for the unit hook: sanity on magnitude
    assert want == pytest.approx(
        math.sqrt(p.lam ** (2 * p.s_exp) * p.samp_box.measure / TWO_PI_CUBED), rel=1e-3
    )


def _cells_with_gauss_nodes(axes):
    for idx in itertools.product(*(range(len(ax) - 1) for ax in axes)):
        lo = np.array([ax[i] for ax, i in zip(axes, idx)])
        hi = np.array([ax[i + 1] for ax, i in zip(axes, idx)])
        nodes = quadrature_grid(Box3(*zip(lo, hi)), (6, 6, 6)).points
        yield tuple(slice(i, i + 2) for i in idx), lo, hi, nodes


def test_trilinear_matches_scipy_and_is_exact_on_multilinear():
    interpolate = pytest.importorskip("scipy.interpolate")
    p = small_params()
    axes, _ = sample_lattice(p.samp_box, 3)
    vals = np.random.default_rng(7).random((3, 3, 3))
    oracle = interpolate.RegularGridInterpolator(axes, vals, method="linear")
    for cell, lo, hi, nodes in _cells_with_gauss_nodes(axes):
        want = oracle(nodes)
        got = _trilinear(vals[cell], lo, hi, nodes)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    # a + b*x1 + c*x2*x3 is multilinear, so the interpolant reproduces it
    def f(x1, x2, x3):
        return 0.5 + 2.0 * x1 - 3.0 * x2 * x3

    axes = [np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 2.0, 4), np.linspace(1.0, 3.0, 3)]
    vals = f(*np.meshgrid(*axes, indexing="ij"))
    for cell, lo, hi, nodes in _cells_with_gauss_nodes(axes):
        want = f(*nodes.T)
        got = _trilinear(vals[cell], lo, hi, nodes)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_sample_lattice_shape():
    p = small_params()
    axes, pts = sample_lattice(p.samp_box, 3)
    assert pts.shape == (27, 3)
    assert [len(a) for a in axes] == [3, 3, 3]
    lo = [ax[0] for ax in p.samp_box.axes]
    hi = [ax[1] for ax in p.samp_box.axes]
    assert np.allclose(pts.min(axis=0), lo)
    assert np.allclose(pts.max(axis=0), hi)
