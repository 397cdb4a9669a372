import itertools
import math
import tracemalloc

import numpy as np
import pytest

from knappflow import _kernels, amplitudes, boxes
from knappflow.amplitudes import (
    TWO_PI_CUBED,
    _axis_breakpoints,
    _conv_factor,
    _term_integrals,
    _trilinear,
    lambda_hat,
    lattice_hats,
    norm_report,
    output_norm_from_samples,
    product_norm,
    product_norm_boxes,
    sample_lattice,
    sobolev_norm_monomial,
    sobolev_norms_monomials,
)
from knappflow.boxes import (
    Box3,
    admissible_eta_region,
    gauss_legendre_cells,
    quadrature_grid,
    quadrature_nodes,
)
from knappflow.construction import DEFAULT_GRID, kernels, make_params
from knappflow.errors import InvalidParameterError
from knappflow.sweep import fit_exponent, records_from_core, sweep_core
from knappflow.symbols import SIGN_TRIPLES, SIGNS_ARRAY, SignTriple, omega_all
from regions import one_region

EPS, RHO = 0.01, 2e-6
SMALL_GRID = (8, 4, 4)
# One fixed grid per term, finer than any the refinement stops at here.
FINE_GRID = (64, 32, 32)
# A regime where the term integrals need more than one refinement: boxes
# 5e3 times wider along axis 1 and 1e6 times wider transversally.
WIDE_EPS, WIDE_RHO = 0.1, 1.2e-2
# The Sobolev indices s and r of the benchmark's (s, r) scans.
S_GRID = (0.25, 0.5, 0.75, 1.0)
R_GRID = (-0.5, -0.25, 0.0, 0.25)


def small_params(**kw):
    kw.setdefault("grid", SMALL_GRID)
    return make_params(EPS, RHO, 1, **kw)


def wide_boxes(monkeypatch):
    monkeypatch.setattr(boxes, "AXIAL_HALF_WIDTH", 5e-3)
    monkeypatch.setattr(boxes, "TRANSVERSE_HI", 1.0)


def count_term_sums(monkeypatch) -> list[int]:
    """Record the node count of every ``term_sums`` call from now on."""
    nodes: list[int] = []
    term_sums = _kernels.term_sums

    def counting(pts, *args):
        nodes.append(len(pts))
        return term_sums(pts, *args)

    monkeypatch.setattr(_kernels, "term_sums", counting)
    return nodes


def count_points_per_call(monkeypatch) -> list[int]:
    """Record how many output frequencies every ``term_sums`` call serves."""
    points: list[int] = []
    term_sums = _kernels.term_sums

    def counting(pts, wq, xi, *args):
        points.append(len(np.reshape(xi, (-1, 3))))
        return term_sums(pts, wq, xi, *args)

    monkeypatch.setattr(_kernels, "term_sums", counting)
    return points


def log_fast_path(monkeypatch) -> list[bool]:
    """Record, per ``_cell_integral`` call from now on, whether it takes
    the one-power-per-axis-1-node path."""
    taken: list[bool] = []
    rounds_away = amplitudes._transverse_rounds_away

    def logging(*squares):
        taken.append(rounds_away(*squares))
        return taken[-1]

    monkeypatch.setattr(amplitudes, "_transverse_rounds_away", logging)
    return taken


def spread_points(p):
    """36 output frequencies across the transverse extent of the wide-box
    support: admissible regions of very different widths."""
    c = p.samp_box.center()
    return np.array(
        [(c[0], x2, x3) for x2 in np.linspace(0.5, 185.0, 12) for x3 in (c[2], 60.0, 120.0)]
    )


def fixed_grid_sums(p, xi, kern, counts):
    """One term's (tot, res, env) on a single fixed grid, without refinement."""
    region = one_region(xi, kern.support_a, kern.support_b)
    grid = quadrature_grid(region, counts)
    sums = _kernels.term_sums(
        grid.points, grid.weights, xi[None, :], p.t, [kern.code], SIGNS_ARRAY,
        p.resonance_threshold,
    )
    return tuple(part[0] for part in sums)


def fixed_grid_total(p, xi, counts):
    """``lambda_hat(p, xi).total`` assembled from one fixed grid per term."""
    xi = np.asarray(xi, dtype=float)
    tot = sum(fixed_grid_sums(p, xi, kern, counts)[0] for kern in kernels(p))
    phases = np.exp(-1j * p.t * np.linalg.norm(xi) * SIGNS_ARRAY[:, 0])
    return complex((phases * tot).sum() / 4j)


def resonant_set(p, xi, eta):
    """The triples ``term_sums`` counts as resonant at one (xi, eta) pair."""
    oms = np.abs(omega_all(xi, eta))
    return {s for s, om in zip(SIGN_TRIPLES, oms) if om <= p.resonance_threshold}


def test_resonance_classification_by_slot_order():
    p = small_params()
    xi = p.samp_box.center()
    by_label = {kern.label: kern for kern in kernels(p)}
    # planar datum on the eta slot: |xi - eta| ~ 2 lam, |eta| ~ lam
    region = one_region(
        xi, by_label["axis2.t2"].support_a, by_label["axis2.t2"].support_b
    )
    assert resonant_set(p, xi, region.center()) == {
        SignTriple.from_string("++-"),
        SignTriple.from_string("--+"),
    }
    # slots swapped: |xi - eta| ~ lam, |eta| ~ 2 lam
    region = one_region(
        xi, by_label["axis2.t1"].support_a, by_label["axis2.t1"].support_b
    )
    assert resonant_set(p, xi, region.center()) == {
        SignTriple.from_string("+-+"),
        SignTriple.from_string("-+-"),
    }


def test_resonance_gap_sizes():
    p = small_params()
    xi = p.samp_box.center()
    kern = kernels(p)[0]
    region = one_region(xi, kern.support_a, kern.support_b)
    for om in np.abs(omega_all(xi, region.center())):
        if om <= p.resonance_threshold:
            assert om < 1e-2 * p.lam
        else:
            assert om > 0.5 * p.lam


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
    # a fresh, equal key finds its entry in the per-sign dict
    assert b.per_sign[SignTriple(1, -1, 1)] == b.per_sign[SIGN_TRIPLES[2]]
    assert list(b.per_sign) == list(SIGN_TRIPLES)


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


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_support_edge_is_exact_zero(mode):
    # xi1 = a_lo + b_lo of the first term: its region collapses to one
    # point along axis 1, which carries no volume and no surface measure
    p = make_params(EPS, RHO, 1, mode=mode)
    kern = kernels(p)[0]
    xi = p.samp_box.center()
    xi[0] = kern.support_a.axes[0][0] + kern.support_b.axes[0][0]
    assert lambda_hat(p, xi).total == 0


def test_time_zero_vanishes():
    # m(0, omega) = 0, and so is the envelope min(0, 2/|omega|) |weight|
    p = small_params()
    xi = p.samp_box.center()
    for kern in kernels(p):
        grid = quadrature_grid(one_region(xi, kern.support_a, kern.support_b), SMALL_GRID)

        def sums(t):
            return _kernels.term_sums(
                grid.points, grid.weights, xi[None, :], t, [kern.code], SIGNS_ARRAY,
                p.resonance_threshold,
            )

        assert all(np.all(part == 0.0) for part in sums(0.0))
        tot, _, env = sums(p.t)
        assert np.any(tot != 0.0) and np.any(env != 0.0)


def test_lambda_hat_validation():
    p = small_params()
    with pytest.raises(InvalidParameterError):
        lambda_hat(p, (1.0, 2.0))
    with pytest.raises(InvalidParameterError):
        lambda_hat(p, (0.0, 0.0, 0.0))


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


def test_grid_doubling_converges():
    # the refined amplitude against one fixed fine grid per term
    for mode in ("slab", "surface"):
        p = small_params(mode=mode)
        xi = p.samp_box.center()
        want = fixed_grid_total(p, xi, FINE_GRID)
        assert abs(lambda_hat(p, xi).total - want) <= 1e-8 * abs(want)


@pytest.mark.parametrize("mode, nodes", [("slab", 72), ("surface", 40)])
def test_default_geometry_node_budget(monkeypatch, mode, nodes):
    # every term settles at the first comparison, (2,1,1) against (4,2,2):
    # 4 terms x (2 + 16) nodes, or 4 x (2 + 8) when one axis is a surface
    spent = count_term_sums(monkeypatch)
    p = make_params(EPS, RHO, 1, mode=mode)
    assert lambda_hat(p, p.samp_box.center()).flags == ()
    assert sum(spent) == nodes


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_wide_boxes_refine_to_fixed_grid_reference(monkeypatch, mode):
    wide_boxes(monkeypatch)
    p = make_params(WIDE_EPS, WIDE_RHO, 1, mode=mode)
    xi = np.asarray(p.samp_box.center())
    spent = count_term_sums(monkeypatch)
    for kern in kernels(p):
        spent.clear()
        tot, res, env, flags = _term_integrals(p, xi[None, :], (kern,), p.t)
        tot, res, env = tot[0, 0], res[0, 0], env[0, 0]
        assert flags == [[]]
        assert len(spent) > 2  # more than one comparison of successive grids
        want_tot, want_res, want_env = fixed_grid_sums(p, xi, kern, FINE_GRID)
        scale = np.abs(want_tot).max()
        assert np.abs(tot - want_tot).max() <= 1e-9 * scale
        assert np.abs(res - want_res).max() <= 1e-9 * scale
        assert np.abs(env - want_env).max() <= 1e-9 * want_env.max()


# Both settings put the refinement ceiling at (4,2,2): enough for the
# default geometry, one doubling short for the wide boxes.
@pytest.mark.parametrize("cap, grid", [(0, (4, 2, 2)), (1, (2, 1, 1))])
@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_lowered_cap_flags_only_the_wide_boxes(monkeypatch, mode, cap, grid):
    monkeypatch.setattr(amplitudes, "REFINE_CAP", cap)
    p = make_params(EPS, RHO, 1, mode=mode, grid=grid)
    assert lambda_hat(p, p.samp_box.center()).flags == ()
    wide_boxes(monkeypatch)
    p = make_params(WIDE_EPS, WIDE_RHO, 1, mode=mode, grid=grid)
    flags = lambda_hat(p, p.samp_box.center()).flags
    assert sorted(flags) == sorted(
        f"nonconverged_quadrature:{kern.label}" for kern in kernels(p)
    )


@pytest.mark.parametrize("mode, nodes", [("slab", 1944), ("surface", 1080)])
def test_window_is_one_term_sums_call_per_level(monkeypatch, mode, nodes):
    # 2 levels, each call covering all 4 terms x 27 lattice points
    spent = count_term_sums(monkeypatch)
    (core,) = sweep_core(EPS, RHO, [1], mode=mode)
    assert len(core.breakdowns) == 27
    assert len(spent) == 2
    assert sum(spent) == nodes


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_lattice_hats_equal_lambda_hat_per_point(mode):
    p = make_params(EPS, RHO, 1, mode=mode)
    _, pts = sample_lattice(p.samp_box, 3)
    assert lattice_hats(p, pts) == tuple(lambda_hat(p, xi) for xi in pts)
    signs = SIGN_TRIPLES[2:5]
    assert lattice_hats(p, pts[:5], signs=signs) == tuple(
        lambda_hat(p, xi, signs=signs) for xi in pts[:5]
    )


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_lattice_hats_equal_lambda_hat_where_points_settle_apart(monkeypatch, mode):
    wide_boxes(monkeypatch)
    p = make_params(WIDE_EPS, WIDE_RHO, 1, mode=mode)
    xis = spread_points(p)
    points = count_points_per_call(monkeypatch)
    batched = lattice_hats(p, xis)
    # some (term, point) rows leave after the second grid while the rest
    # refine on; the first calls cover all 4 terms at every point
    assert min(points) < max(points) == 4 * len(xis)
    assert batched == tuple(lambda_hat(p, xi) for xi in xis)


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_lowered_cap_flags_only_unsettled_points(monkeypatch, mode):
    wide_boxes(monkeypatch)
    monkeypatch.setattr(amplitudes, "REFINE_CAP", 0)
    p = make_params(WIDE_EPS, WIDE_RHO, 1, mode=mode, grid=(4, 2, 2))
    xis = spread_points(p)
    batched = lattice_hats(p, xis)
    assert {len(b.flags) for b in batched} == {0, 4}
    assert [b.flags for b in batched] == [lambda_hat(p, xi).flags for xi in xis]


def test_lattice_hats_validation():
    p = small_params()
    with pytest.raises(InvalidParameterError):
        lattice_hats(p, p.samp_box.center())
    with pytest.raises(InvalidParameterError):
        lattice_hats(p, [p.samp_box.center(), (0.0, 0.0, 0.0)])
    with pytest.raises(InvalidParameterError):
        lattice_hats(p, [p.samp_box.center(), (np.nan, 0.0, 0.0)])


def test_backend_paths_agree(monkeypatch):
    p = small_params()
    xi = np.asarray(p.samp_box.center())
    kern = kernels(p)[0]
    region = one_region(xi, kern.support_a, kern.support_b)
    grid = quadrature_grid(region, (6, 5, 4))
    tail = (SIGNS_ARRAY, p.resonance_threshold)
    tot_py, res_py, env_py = _kernels._term_sums_loop(
        grid.points, grid.weights, xi, p.t, kern.code, *tail
    )
    # one block, then 18 blocks of 7 nodes with a partial last one
    for block in (_kernels.TERM_SUMS_BLOCK, 7):
        monkeypatch.setattr(_kernels, "TERM_SUMS_BLOCK", block)
        sums = _kernels.term_sums(grid.points, grid.weights, xi[None, :], p.t, [kern.code], *tail)
        tot_np, res_np, env_np = (part[0] for part in sums)
        scale = np.abs(tot_np).max()
        assert np.abs(tot_np - tot_py).max() <= 1e-12 * scale
        assert np.abs(res_np - res_py).max() <= 1e-12 * scale
        assert np.abs(env_np - env_py).max() <= 1e-12 * env_np.max()


@pytest.mark.parametrize("counts", [(6, 5, 4), (3, 1, 1), (2, 1, 1)])
def test_several_points_per_call_agree_with_scalar_reference(monkeypatch, counts):
    # with 7-node blocks each 120-node grid spans 18 blocks (the last one
    # partial); 3-node grids go 2 to a block, and 2-node grids 3 to a
    # block, the last block holding the one point left over
    p = small_params()
    _, pts = sample_lattice(p.samp_box, 3)
    xis = pts[[0, 5, 13, 26]]
    kern = kernels(p)[1]
    regions = admissible_eta_region(xis, kern.support_a, kern.support_b)
    nodes, weights = quadrature_nodes(regions.lo, regions.hi, counts, regions.surface_axis)
    tail = (SIGNS_ARRAY, p.resonance_threshold)
    monkeypatch.setattr(_kernels, "TERM_SUMS_BLOCK", 7)
    tot, res, env = _kernels.term_sums(
        nodes.reshape(-1, 3), weights.reshape(-1), xis, p.t, [kern.code] * len(xis), *tail
    )
    assert tot.shape == res.shape == env.shape == (4, 8)
    for j, xi in enumerate(xis):
        tot_py, res_py, env_py = _kernels._term_sums_loop(
            nodes[j], weights[j], xi, p.t, kern.code, *tail
        )
        scale = np.abs(tot[j]).max()
        assert np.abs(tot[j] - tot_py).max() <= 1e-12 * scale
        assert np.abs(res[j] - res_py).max() <= 1e-12 * scale
        assert np.abs(env[j] - env_py).max() <= 1e-12 * env[j].max()


@pytest.mark.parametrize("counts", [(6, 5, 4), (3, 1, 1)])
@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_mixed_terms_per_call_agree_with_scalar_reference(monkeypatch, mode, counts):
    # rows of all four terms at two points, interleaved so that the code
    # changes from row to row; 7-node blocks hold parts of one 120-node
    # grid, or two 3-node grids whose codes differ
    p = make_params(EPS, RHO, 1, mode=mode, grid=SMALL_GRID)
    _, pts = sample_lattice(p.samp_box, 3)
    xis = pts[[0, 13]]
    kerns = kernels(p)
    regions = [admissible_eta_region(xis, k.support_a, k.support_b) for k in kerns]
    assert all(r.live.all() for r in regions)
    order = [(j, k) for j in range(len(xis)) for k in range(len(kerns))]
    lo = np.array([regions[k].lo[j] for j, k in order])
    hi = np.array([regions[k].hi[j] for j, k in order])
    nodes, weights = quadrature_nodes(lo, hi, counts, regions[0].surface_axis)
    row_xis = xis[[j for j, _ in order]]
    codes = np.array([kerns[k].code for _, k in order])
    monkeypatch.setattr(_kernels, "TERM_SUMS_BLOCK", 7)
    tot, res, env = _kernels.term_sums(
        nodes.reshape(-1, 3), weights.reshape(-1), row_xis, p.t, codes, SIGNS_ARRAY,
        p.resonance_threshold,
    )
    assert tot.shape == res.shape == env.shape == (8, 8)
    for row, xi in enumerate(row_xis):
        tot_py, res_py, env_py = _kernels._term_sums_loop(
            nodes[row], weights[row], xi, p.t, codes[row], SIGNS_ARRAY, p.resonance_threshold,
        )
        scale = np.abs(tot[row]).max()
        assert np.abs(tot[row] - tot_py).max() <= 1e-12 * scale
        assert np.abs(res[row] - res_py).max() <= 1e-12 * scale
        assert np.abs(env[row] - env_py).max() <= 1e-12 * env[row].max()


def test_several_points_per_call_memory_is_bounded():
    # 4 points x 65,536 nodes: one (4, 8, n) complex broadcast would take
    # 34 MB per temporary; 4,096-node blocks keep every temporary at 0.5 MB
    p = small_params()
    _, pts = sample_lattice(p.samp_box, 3)
    xis = pts[[0, 5, 13, 26]]
    kern = kernels(p)[0]
    regions = admissible_eta_region(xis, kern.support_a, kern.support_b)
    nodes, weights = quadrature_nodes(regions.lo, regions.hi, FINE_GRID, regions.surface_axis)
    args = (p.t, [kern.code] * len(xis), SIGNS_ARRAY, p.resonance_threshold)
    tracemalloc.start()
    try:
        tot, _, _ = _kernels.term_sums(nodes.reshape(-1, 3), weights.reshape(-1), xis, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nodes.shape == (4, 65536, 3)
    assert np.all(tot != 0.0)
    assert peak < 16 * 2**20


def test_sobolev_norm_closed_forms():
    cube = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    c = (2.0 * math.pi) ** -1.5
    assert sobolev_norm_monomial(cube, (0, 0, 0), 0.0) == pytest.approx(c, rel=1e-12)
    assert sobolev_norm_monomial(cube, (1, 0, 0), 0.0) == pytest.approx(
        c / math.sqrt(3.0), rel=1e-12
    )
    assert sobolev_norm_monomial(cube, (0, 0, 0), 1.0) == pytest.approx(
        c * math.sqrt(2.0), rel=1e-12
    )
    assert sobolev_norm_monomial(cube, (1, 0, 0), 1.0) == pytest.approx(
        c * math.sqrt(34.0 / 45.0), rel=1e-12
    )
    with pytest.raises(InvalidParameterError):
        sobolev_norm_monomial(cube, (-1, 0, 0), 0.0)
    # a whole float power is that power
    assert sobolev_norm_monomial(cube, (2.0, 0, 0), 0.0) == sobolev_norm_monomial(
        cube, (2, 0, 0), 0.0
    )


@pytest.mark.parametrize("power", [0.5, -0.5, math.nan, math.inf])
def test_monomial_powers_must_be_whole_numbers(power):
    # 0.5 and -0.5 used to truncate to the indicator's norm, nan to raise ValueError
    cube = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        sobolev_norm_monomial(cube, (power, 0, 0), 0.0)
    with pytest.raises(InvalidParameterError):
        sobolev_norms_monomials(cube, ((0, 0, 0), (0, power, 0)), 0.0)


def test_sobolev_norm_surface_is_formal_area_integral():
    sheet = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 0.0), surface_axis=2, surface_tol=1e-9)
    c = (2.0 * math.pi) ** -1.5
    assert sobolev_norm_monomial(sheet, (0, 0, 0), 0.0) == pytest.approx(c, rel=1e-12)


def test_product_norm_tent_closed_form():
    # chi_[0,1]^3 * chi_[0,1]^3: per-axis tent, integral of tent^2 is 2/3
    cube = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    want = (2.0 * math.pi) ** -4.5 * (2.0 / 3.0) ** 1.5
    got = product_norm_boxes(cube, cube, 0.0, nodes_per_axis=(8, 8, 8))
    assert got == pytest.approx(want, rel=1e-10)


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


def product_norm_reference(a, b, r, nodes_per_axis=DEFAULT_GRID):
    """``product_norm_boxes`` one cell at a time: a ``Box3`` and a
    ``quadrature_grid`` per cell, convolution factors on its (n, 3) points."""
    axis_cells = []
    for i in range(3):
        if i == a.surface_axis:
            cuts = np.array([a.axes[i][0] + b.axes[i][0], a.axes[i][0] + b.axes[i][1]])
        elif i == b.surface_axis:
            cuts = np.array([a.axes[i][0] + b.axes[i][0], a.axes[i][1] + b.axes[i][0]])
        else:
            cuts = _axis_breakpoints(a.axes[i], b.axes[i])
        axis_cells.append([(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo])
    integral = 0.0
    for cell in itertools.product(*axis_cells):
        grid = quadrature_grid(Box3(*cell), nodes_per_axis)
        pts = grid.points
        conv = (
            _conv_factor(pts[:, 0], a, b, 0)
            * _conv_factor(pts[:, 1], a, b, 1)
            * _conv_factor(pts[:, 2], a, b, 2)
        )
        bracket = 1.0 + (pts * pts).sum(axis=-1)
        integral += float(grid.weights @ (bracket**r * (conv / TWO_PI_CUBED) ** 2))
    return math.sqrt(integral / TWO_PI_CUBED)


@pytest.mark.parametrize("mode", ["slab", "surface"])
@pytest.mark.parametrize("k", [1, 5, 10])
def test_product_norm_equals_per_cell_reference(mode, k):
    p = make_params(EPS, RHO, k, mode=mode)
    a, b = p.w2_box, p.neg_wprime_box
    for r in R_GRID:
        assert product_norm(p, r) == product_norm_reference(a, b, r, p.grid)
        got = product_norm_boxes(a, b, r, SMALL_GRID)
        assert got == product_norm_reference(a, b, r, SMALL_GRID)


@pytest.mark.parametrize("mode, offset", [("slab", 3.0), ("surface", 2.5)])
def test_product_norm_slope_is_derived_from_the_box_sides(mode, offset):
    # acceptance.criterion_norm_scaling derives lam^(r + 3) from a lam^2
    # overlap volume on a lam^2 support; a surface loses the lam^1/2 side
    ps = [make_params(EPS, RHO, k, mode=mode) for k in range(1, 11)]
    for r in R_GRID:
        fit = fit_exponent([(p.lam, product_norm(p, r)) for p in ps])
        assert fit.slope == pytest.approx(r + offset, abs=1e-6)


def random_box(rng, surface_axis=None):
    ends = np.sort(rng.uniform(-3.0, 3.0, (3, 2)), axis=1)
    if surface_axis is not None:
        ends[surface_axis, 1] = ends[surface_axis, 0]
    return Box3(*map(tuple, ends), surface_axis=surface_axis)


@pytest.mark.parametrize("seed", range(12))
def test_product_norm_at_steep_weight_equals_per_cell_reference(monkeypatch, seed):
    # At a large r the few nodes of largest |xi| decide the sum, so a
    # change in the last bit of their integrand shows in the result
    taken = log_fast_path(monkeypatch)
    rng = np.random.default_rng(seed)
    a = random_box(rng, surface_axis=2 if seed % 3 == 0 else None)
    b = random_box(rng, surface_axis=2 if seed % 3 == 1 else None)
    r = float(rng.uniform(8.0, 30.0))
    got = product_norm_boxes(a, b, r, SMALL_GRID)
    assert got == product_norm_reference(a, b, r, SMALL_GRID)
    # unit-scale boxes: the transverse squares count, so the 3-D bracket ran
    assert taken == [False]


def test_product_norm_of_separated_boxes_equals_per_cell_reference():
    # two volume boxes apart: the convolution still lives on the Minkowski sum
    a = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    b = Box3(ax1=(5.0, 6.0), ax2=(5.5, 6.0), ax3=(5.0, 7.0))
    got = product_norm_boxes(a, b, 0.3, SMALL_GRID)
    assert got > 0.0
    assert got == product_norm_reference(a, b, 0.3, SMALL_GRID)
    # two parallel sheets: the product carries no 2-D measure
    low = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.2, 0.2), surface_axis=2)
    high = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.5, 0.5), surface_axis=2)
    assert product_norm_boxes(low, high, 0.3) == product_norm_reference(low, high, 0.3) == 0.0
    with pytest.raises(InvalidParameterError):
        product_norm_boxes(a, b, 0.3, (8, 0, 4))


def monomial_norm_reference(b, monomial, r, nodes_per_axis=DEFAULT_GRID):
    """``sobolev_norm_monomial`` on a point grid: one ``quadrature_grid``
    over the box, ``<xi>^{2r}`` and the monomial on its (n, 3) points."""
    grid = quadrature_grid(b, nodes_per_axis)
    if grid.weights.size == 0:
        return 0.0
    vals = (1.0 + (grid.points * grid.points).sum(axis=-1)) ** r
    for i, m in enumerate(monomial):
        if m:
            vals = vals * grid.points[:, i] ** (2 * int(m))
    integral = float(grid.weights @ vals)
    return math.sqrt(integral / TWO_PI_CUBED)


# The monomials norm_report integrates, and the constant.
MONOMIALS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("seed", range(12))
def test_monomial_norm_at_steep_weight_equals_point_grid_reference(monkeypatch, seed):
    # At a large r the few nodes of largest |xi| decide the sum, so a
    # change in the last bit of their bracket shows in the result
    taken = log_fast_path(monkeypatch)
    rng = np.random.default_rng(seed)
    b = random_box(rng, surface_axis=(None, 2, 0, None)[seed % 4])
    r = float(rng.uniform(8.0, 30.0))
    want = [monomial_norm_reference(b, m, r, SMALL_GRID) for m in MONOMIALS]
    assert [sobolev_norm_monomial(b, m, r, SMALL_GRID) for m in MONOMIALS] == want
    assert sobolev_norms_monomials(b, MONOMIALS, r, SMALL_GRID) == want
    # a monomial with several powers squares their product instead of
    # multiplying the powers in one by one: equal to rounding
    got = sobolev_norm_monomial(b, (2, 1, 1), r, SMALL_GRID)
    assert got == pytest.approx(monomial_norm_reference(b, (2, 1, 1), r, SMALL_GRID))
    # unit-scale boxes: the transverse squares count, so the 3-D bracket ran
    assert taken == [False] * (2 * len(MONOMIALS) + 1)


def test_monomial_norm_of_zero_length_axis_is_zero():
    flat = Box3(ax1=(0.0, 1.0), ax2=(0.5, 0.5), ax3=(-2.0, 1.0))
    for m in MONOMIALS:
        assert sobolev_norm_monomial(flat, m, 12.0) == 0.0
        assert monomial_norm_reference(flat, m, 12.0) == 0.0
    with pytest.raises(InvalidParameterError):
        sobolev_norm_monomial(flat, (1, 0, 0), 0.0, (8, 0, 4))


def test_product_norm_working_set_is_one_cell():
    # 27 cells of (32,16,16) nodes; one float64 array over all of them is
    # the working set of a whole-window broadcast
    p = make_params(EPS, RHO, 5)
    assert p.grid == (32, 16, 16)
    whole_window = 27 * 8192 * 8
    product_norm(p, -0.25)
    tracemalloc.start()
    try:
        product_norm(p, -0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole_window


def test_norm_report_structure():
    p = small_params()
    rep = norm_report(p, -0.25)
    assert rep.norm_total == pytest.approx(math.sqrt(2.0) * rep.norm_d2a1, rel=1e-12)
    for v in (rep.norm_d2a1, rep.norm_d1a2, rep.norm_product):
        assert v > 0.0 and math.isfinite(v)


@pytest.mark.parametrize("r", R_GRID)
@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_norm_report_equals_one_monomial_at_a_time(mode, r):
    # nd2 and nd3 share one grid and one <xi>^{2r}: each must equal its
    # own sobolev_norm_monomial call bit for bit
    p = make_params(EPS, RHO, 3, mode=mode)
    rep = norm_report(p, r)
    nd2 = sobolev_norm_monomial(p.w2_box, (0, 1, 0), r, p.grid)
    nd3 = sobolev_norm_monomial(p.w2_box, (0, 0, 1), r, p.grid)
    nd1a2 = sobolev_norm_monomial(p.neg_wprime_box, (1, 0, 0), r, p.grid)
    assert rep.norm_d2a1 == nd2
    assert rep.norm_total == math.hypot(nd2, nd3)
    assert rep.norm_d1a2 == nd1a2


def axis_sum(x, w, factor, r=None):
    """One axis's sum of weight times squared factor, times ``(1 + x^2)^r``
    if ``r`` is given (axis 1 only)."""
    vals = w * factor**2
    if r is not None:
        vals = vals * (1.0 + x * x) ** r
    return float(vals.sum())


def separable_monomial_integral(b, monomial, r, counts):
    """``∫ <xi>^{2r} |xi^monomial|^2`` over ``b``, with ``<xi>^2`` taken as
    ``1 + xi1^2``: the product of three 1-D sums.  A surface axis is its
    single point with weight 1."""
    total = 1.0
    for i, ((lo, hi), m) in enumerate(zip(b.axes, monomial)):
        if i == b.surface_axis:
            x, w = np.array([lo]), np.ones(1)
        else:
            x, w = (v[0] for v in gauss_legendre_cells([lo], [hi], counts[i]))
        total *= axis_sum(x, w, x**m, r if i == 0 else None)
    return total


def separable_product_integral(a, b, r, counts):
    """``∫ <xi>^{2r} |chi_a * chi_b|^2``, with ``<xi>^2`` taken as
    ``1 + xi1^2``: the product of three 1-D sums over each axis's cells
    between the kinks of the convolution.  Along a volume axis the factor
    is the overlap length of ``[x - a_hi, x - a_lo]`` and ``[b_lo, b_hi]``;
    along a surface axis it is 1 inside the support."""
    total = 1.0
    for i, ((a_lo, a_hi), (b_lo, b_hi)) in enumerate(zip(a.axes, b.axes)):
        cuts = np.unique([a_lo + b_lo, a_lo + b_hi, a_hi + b_lo, a_hi + b_hi])
        x, w = (v.ravel() for v in gauss_legendre_cells(cuts[:-1], cuts[1:], counts[i]))
        if i in (a.surface_axis, b.surface_axis):
            overlap = np.ones_like(x)
        else:
            overlap = np.minimum(x - a_lo, b_hi) - np.maximum(x - a_hi, b_lo)
        total *= axis_sum(x, w, overlap, r if i == 0 else None)
    return total


@pytest.mark.parametrize("r", R_GRID)
@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_knapp_norms_are_products_of_three_axis_sums(mode, r):
    # On the Knapp boxes the transverse squares round away in 1 + |xi|^2,
    # so every norm integral factorises per axis.  The monomial and
    # product norms of norm_report, each as its integral.
    for k in range(1, 11):
        p = make_params(EPS, RHO, k, mode=mode)
        nd2, nd3 = sobolev_norms_monomials(p.w2_box, ((0, 1, 0), (0, 0, 1)), r, p.grid)
        cases = [
            (nd2, separable_monomial_integral(p.w2_box, (0, 1, 0), r, p.grid)),
            (nd3, separable_monomial_integral(p.w2_box, (0, 0, 1), r, p.grid)),
            (
                sobolev_norm_monomial(p.neg_wprime_box, (1, 0, 0), r, p.grid),
                separable_monomial_integral(p.neg_wprime_box, (1, 0, 0), r, p.grid),
            ),
            (
                product_norm(p, r),
                separable_product_integral(p.w2_box, p.neg_wprime_box, r, p.grid)
                / TWO_PI_CUBED**2,
            ),
        ]
        for norm, want in cases:
            assert want > 0.0
            assert abs(norm**2 * TWO_PI_CUBED - want) <= 1e-14 * want


def test_output_norm_lower_constant_hook():
    p, s = small_params(), 0.5
    axes, _ = sample_lattice(p.samp_box, 3)
    got = output_norm_from_samples(s, axes, np.ones(27))
    grid = quadrature_grid(p.samp_box, (12, 8, 8))
    integral = float(grid.weights @ (1.0 + (grid.points**2).sum(axis=1)) ** s)
    want = math.sqrt(integral / TWO_PI_CUBED)
    assert got == pytest.approx(want, rel=1e-9)
    # the bound scales like lam^s for the unit hook: sanity on magnitude
    assert want == pytest.approx(
        math.sqrt(p.lam ** (2 * s) * p.samp_box.measure / TWO_PI_CUBED), rel=1e-3
    )


def _cells_with_gauss_nodes(axes):
    """Each lattice cell's index, bounds and (6,6,6) Gauss nodes, one cell at a time."""
    for idx in itertools.product(*(range(len(ax) - 1) for ax in axes)):
        lo = np.array([ax[i] for ax, i in zip(axes, idx)])
        hi = np.array([ax[i + 1] for ax, i in zip(axes, idx)])
        nodes = quadrature_grid(Box3(*zip(lo, hi)), (6, 6, 6)).points
        yield idx, lo, hi, nodes


def _normalised_cell_nodes(axes):
    """Per axis, every cell's 6 Gauss nodes as fractions of the cell."""
    ys = []
    for ax in axes:
        x, _ = gauss_legendre_cells(ax[:-1], ax[1:], 6)
        ys.append((x - ax[:-1, None]) / (ax[1:] - ax[:-1])[:, None])
    return ys


def test_trilinear_matches_scipy_and_is_exact_on_multilinear():
    interpolate = pytest.importorskip("scipy.interpolate")
    p = small_params()
    axes, _ = sample_lattice(p.samp_box, 3)
    vals = np.random.default_rng(7).random((3, 3, 3))
    oracle = interpolate.RegularGridInterpolator(axes, vals, method="linear")
    interp = _trilinear(vals, _normalised_cell_nodes(axes))
    assert interp.shape == (2, 2, 2, 6, 6, 6)
    for idx, _, _, nodes in _cells_with_gauss_nodes(axes):
        want = oracle(nodes)
        got = interp[idx].ravel()
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    # a + b*x1 + c*x2*x3 is multilinear, so the interpolant reproduces it
    def f(x1, x2, x3):
        return 0.5 + 2.0 * x1 - 3.0 * x2 * x3

    axes = [np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 2.0, 4), np.linspace(1.0, 3.0, 3)]
    vals = f(*np.meshgrid(*axes, indexing="ij"))
    interp = _trilinear(vals, _normalised_cell_nodes(axes))
    for idx, _, _, nodes in _cells_with_gauss_nodes(axes):
        want = f(*nodes.T)
        got = interp[idx].ravel()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def trilinear_reference(vals, idx, lo, hi, pts):
    """The trilinear interpolant of one lattice cell, point by point."""
    corners = vals[tuple(slice(i, i + 2) for i in idx)]
    y = (pts - lo) / (hi - lo)
    out = np.zeros(len(y))
    for corner in itertools.product((0, 1), repeat=3):
        w = np.ones(len(y))
        for axis, c in enumerate(corner):
            w = w * (y[:, axis] if c else 1 - y[:, axis])
        out = out + corners[corner] * w
    return out


@pytest.mark.parametrize("seed", range(4))
def test_trilinear_equals_pointwise_reference(seed):
    rng = np.random.default_rng(seed)
    axes = [np.sort(rng.uniform(-5.0, 5.0, n)) for n in rng.integers(2, 6, 3)]
    vals = rng.standard_normal(tuple(len(ax) for ax in axes))
    interp = _trilinear(vals, _normalised_cell_nodes(axes))
    for idx, lo, hi, nodes in _cells_with_gauss_nodes(axes):
        assert np.array_equal(interp[idx].ravel(), trilinear_reference(vals, idx, lo, hi, nodes))


def output_norm_reference(s, axes, amps):
    """``output_norm_from_samples`` one cell at a time: a ``quadrature_grid``
    per cell and the interpolant evaluated point by point."""
    vals = amps.reshape(tuple(len(ax) for ax in axes))
    integral = 0.0
    for idx, lo, hi, _ in _cells_with_gauss_nodes(axes):
        grid = quadrature_grid(Box3(*zip(lo, hi)), (6, 6, 6))
        interp = trilinear_reference(vals, idx, lo, hi, grid.points)
        bracket = 1.0 + (grid.points * grid.points).sum(axis=-1)
        integral += float(grid.weights @ (bracket**s * interp**2))
    return math.sqrt(integral / TWO_PI_CUBED)


@pytest.mark.parametrize("seed", range(6))
def test_output_norm_equals_per_cell_reference(seed):
    rng = np.random.default_rng(seed)
    if seed < 2:
        p = make_params(EPS, RHO, 1 + 9 * seed, mode=("slab", "surface")[seed])
        axes, _ = sample_lattice(p.samp_box, 3)
        amps = rng.random(27) * 1e-20
    else:
        axes = [np.sort(rng.uniform(-5.0, 5.0, n)) for n in rng.integers(2, 6, 3)]
        amps = rng.random(math.prod(len(ax) for ax in axes))
    s = float(rng.choice([0.0, 0.5, 0.75, 1.3, 2.0]))
    assert output_norm_from_samples(s, axes, amps) == output_norm_reference(s, axes, amps)


@pytest.mark.parametrize("seed", range(12))
def test_output_norm_at_steep_weight_equals_per_cell_reference(monkeypatch, seed):
    # At a large s the few nodes of largest |xi| decide the sum, so a
    # change in the last bit of their integrand shows in the result
    taken = log_fast_path(monkeypatch)
    rng = np.random.default_rng(seed)
    axes = [np.sort(rng.uniform(-5.0, 5.0, n)) for n in rng.integers(2, 6, 3)]
    amps = rng.random(math.prod(len(ax) for ax in axes))
    s = float(rng.uniform(30.0, 80.0))
    assert output_norm_from_samples(s, axes, amps) == output_norm_reference(s, axes, amps)
    # unit-scale axes: the transverse squares count, so the 3-D bracket ran
    assert taken == [False]


def test_sample_lattice_shape():
    p = small_params()
    axes, pts = sample_lattice(p.samp_box, 3)
    assert pts.shape == (27, 3)
    assert [len(a) for a in axes] == [3, 3, 3]
    lo = [ax[0] for ax in p.samp_box.axes]
    hi = [ax[1] for ax in p.samp_box.axes]
    assert np.allclose(pts.min(axis=0), lo)
    assert np.allclose(pts.max(axis=0), hi)


# ---------------------------------------------------------------------------
# <xi>^{2r} from axis 1 alone where the transverse squares round away
# ---------------------------------------------------------------------------

# Axis 1 starts at 3.8 in every case: the square of its first node (about
# 14.7) is the only one below 16, so that node alone binds the check
# (one ulp finer than the others), its bracket stays in its binade, and
# the steep negative weight makes it carry most of the sum.  A last-bit
# change of its bracket shows in the norm, and a check made only at the
# largest axis-1 square would pass too late.
BOUNDARY_R = -150.0


def transverse_axes(binding, wide, narrow):
    """Axis-2 and axis-3 intervals: ``wide`` on the ``binding`` axis (1 or
    2), ``narrow`` on the other, whose squares stay far smaller."""
    return (wide, narrow) if binding == 1 else (narrow, wide)


def monomial_case(h, binding):
    ax2, ax3 = transverse_axes(binding, (0.0, h), (-0.1 * h, 0.05 * h))
    b = Box3(ax1=(3.8, 5.8), ax2=ax2, ax3=ax3)
    return (
        lambda: sobolev_norms_monomials(b, MONOMIALS, BOUNDARY_R, SMALL_GRID),
        lambda: [monomial_norm_reference(b, m, BOUNDARY_R, SMALL_GRID) for m in MONOMIALS],
    )


def product_case(h, binding):
    # a is a sheet across axis 1 and b across the binding axis, so both
    # carry an indicator, not a tent that vanishes at the binding nodes
    a2, a3 = transverse_axes(binding, (0.5 * h, h), (-0.1 * h, 0.05 * h))
    b2, b3 = transverse_axes(binding, (0.5 * h, 0.5 * h), (0.0, 0.1 * h))
    a = Box3(ax1=(2.0, 2.0), ax2=a2, ax3=a3, surface_axis=0)
    b = Box3(ax1=(1.8, 3.8), ax2=b2, ax3=b3, surface_axis=binding)
    return (
        lambda: [product_norm_boxes(a, b, BOUNDARY_R, SMALL_GRID)],
        lambda: [product_norm_reference(a, b, BOUNDARY_R, SMALL_GRID)],
    )


def output_case(h, binding):
    ax2, ax3 = transverse_axes(binding, (0.0, h), (-0.1 * h, 0.05 * h))
    axes = [np.linspace(3.8, 6.2, 3), np.linspace(*ax2, 3), np.linspace(*ax3, 3)]
    amps = np.ones(27)  # every node counts by its weight and bracket alone
    return (
        lambda: [output_norm_from_samples(BOUNDARY_R, axes, amps)],
        lambda: [output_norm_reference(BOUNDARY_R, axes, amps)],
    )


def fast_path_boundary(taken, case, binding):
    """Adjacent floats ``h < h_next`` with ``case(h)`` on the fast path and
    ``case(h_next)`` off it, by bisection on the bits of positive floats."""

    def as_float(bits):
        return float(np.int64(bits).view(np.float64))

    def fast(bits):
        taken.clear()
        case(as_float(bits), binding)[0]()
        assert len(set(taken)) == 1
        return taken[0]

    lo, hi = (int(np.float64(h).view(np.int64)) for h in (1e-300, 1.0))
    assert fast(lo) and not fast(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fast(mid):
            lo = mid
        else:
            hi = mid
    return as_float(lo), as_float(hi)


@pytest.mark.parametrize("binding", [1, 2])
@pytest.mark.parametrize("case", [monomial_case, product_case, output_case])
def test_fast_path_equals_reference_on_both_sides_of_its_boundary(monkeypatch, case, binding):
    taken = log_fast_path(monkeypatch)
    h, h_next = fast_path_boundary(taken, case, binding)
    assert h_next == np.nextafter(h, np.inf)
    for width, fast in ((h, True), (h_next, False)):
        norm, reference = case(width, binding)
        taken.clear()
        assert norm() == reference()
        assert set(taken) == {fast}
    # the boundary is tight: one float past it, axis 1 alone is wrong
    norm, reference = case(h_next, binding)
    monkeypatch.setattr(amplitudes, "_transverse_rounds_away", lambda *squares: True)
    assert norm() != reference()


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_every_sweep_norm_at_the_acceptance_geometry_takes_the_fast_path(monkeypatch, mode):
    cores = sweep_core(EPS, RHO, range(1, 11), mode=mode)
    taken = log_fast_path(monkeypatch)
    for s, r in zip(S_GRID, R_GRID):
        records_from_core(cores, s, r)
    # per window: the output norm, three monomial norms and the product norm
    assert taken == [True] * (5 * 10 * len(S_GRID))


def sweep_norms(cores):
    """Every norm a sweep takes from ``cores``, over the scans' s and r."""
    out = []
    for core in cores:
        amps = np.array([abs(b.total) for b in core.breakdowns])
        for r in R_GRID:
            out += [product_norm(core.params, r), norm_report(core.params, r)]
        for s in S_GRID + R_GRID:
            out.append(output_norm_from_samples(s, list(core.lattice_axes), amps))
    return out


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_general_path_gives_the_fast_path_bits(monkeypatch, mode):
    cores = sweep_core(EPS, RHO, (1, 5, 10), mode=mode)
    fast = sweep_norms(cores)
    monkeypatch.setattr(amplitudes, "_transverse_rounds_away", lambda *squares: False)
    assert sweep_norms(cores) == fast
