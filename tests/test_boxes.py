import itertools

import numpy as np
import pytest

from knappflow import amplitudes
from knappflow.boxes import (
    Box3,
    admissible_eta_region,
    box_scale,
    axis_rule,
    quadrature_grid,
    quadrature_nodes,
)
from knappflow.construction import KnappParams
from knappflow.errors import InvalidParameterError
from regions import one_region

LAM = 4.0e5
RT = np.sqrt(LAM)


def knapp(lam=LAM, mode="surface"):
    """W and W' at ``lam`` as ``construction`` builds them: Knapp-scale
    operands for the box algebra."""
    return KnappParams(lam=lam, eps=0.01, mode=mode)


def test_box_validation():
    with pytest.raises(InvalidParameterError):
        Box3(ax1=(1.0, 0.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    with pytest.raises(InvalidParameterError, match="box endpoints must be finite"):
        Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, np.inf))
    # every comparison with nan is false, so only the finiteness check stops it
    for nan_axis in ((np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(InvalidParameterError, match="box endpoints must be finite"):
            Box3(ax1=(0.0, 1.0), ax2=nan_axis, ax3=(0.0, 1.0))
    # surface axis must be degenerate and the others must not be
    with pytest.raises(InvalidParameterError):
        Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0), surface_axis=2)
    with pytest.raises(InvalidParameterError):
        Box3(ax1=(0.0, 0.0), ax2=(0.0, 1.0), ax3=(0.0, 0.0), surface_axis=2)


@pytest.mark.parametrize(
    "axis",
    [
        5, None, (0.0, 1.0, 2.0), (0.5,),
        pytest.param(np.array(0.5), id="array(0.5)"),
        pytest.param(np.array([0.0, 1.0, 2.0]), id="array([0., 1., 2.])"),
    ],
)
@pytest.mark.parametrize("slot", [1, 2, 3])
def test_box_axes_must_be_pairs(axis, slot):
    # an axis that does not unpack into two ends raised a bare TypeError
    # or ValueError
    axes = [(0.0, 1.0)] * 3
    axes[slot - 1] = axis
    with pytest.raises(InvalidParameterError, match=f"^box axis ax{slot} must be a"):
        Box3(*axes)


@pytest.mark.parametrize("c", [sign * 2.0**e for e in range(-6, 7) for sign in (1.0, -1.0)])
def test_box_scale_round_trip_powers_of_two(c: float):
    # exact in floating point only for powers of two; the general case
    # is covered approximately below
    b = knapp().w_box
    assert box_scale(box_scale(b, c), 1.0 / c) == b


def test_box_scale_round_trip_general():
    rng = np.random.default_rng(7)
    b = knapp().wprime_box
    for _ in range(50):
        c = float(rng.uniform(0.1, 10.0)) * float(rng.choice([-1.0, 1.0]))
        rt = box_scale(box_scale(b, c), 1.0 / c)
        for got, want in zip(rt.axes, b.axes):
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-300)
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-300)
    assert box_scale(b, -1.0).surface_axis == b.surface_axis
    with pytest.raises(InvalidParameterError):
        box_scale(b, 0.0)


def test_scale_reflection_reorders_endpoints():
    b = Box3(ax1=(1.0, 2.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    r = box_scale(b, -1.0)
    assert r.ax1 == (-2.0, -1.0)


def test_admissible_region_volume_case():
    a = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    region = one_region((1.5, 1.0, 0.5), a, a)
    assert region is not None
    assert region.axes == ((0.5, 1.0), (0.0, 1.0), (0.0, 0.5))
    assert region.measure == 0.25
    # the single point (1,1,1) carries no volume: no region
    assert one_region((2.0, 2.0, 2.0), a, a) is None
    assert one_region((5.0, 0.5, 0.5), a, a) is None
    # one frequency is a (1, 3) array; a bare 3-vector is refused
    with pytest.raises(InvalidParameterError):
        admissible_eta_region((2.0, 2.0, 2.0), a, a)


def test_admissible_region_surface_pinning():
    surf, w2 = knapp().wprime_box, knapp().w2_box
    # xi3 far below the doubled transverse floor of 2W: axis-3 constraint fails
    xi_bad = np.array([3.0 * LAM, 3e-7 * RT, 5e-10 * RT])
    assert one_region(xi_bad, surf, w2) is None
    xi = np.array([3.0 * LAM, 3e-7 * RT, 5e-7 * RT])
    region = one_region(xi, surf, w2)
    assert region is not None
    assert region.surface_axis == 2
    assert region.ax3 == (xi[2], xi[2])
    # surface axis carried by the b operand pins at the surface value;
    # the Minkowski sum 2W + (-W') sits near lam, not 3 lam
    xi_b = np.array([LAM, 3e-7 * RT, 5e-7 * RT])
    region2 = one_region(xi_b, w2, box_scale(surf, -1.0))
    assert region2 is not None
    assert region2.ax3 == (0.0, 0.0)
    # at most one operand may be a surface box, on one axis or two
    other_axis = Box3(ax1=(0.0, 0.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0), surface_axis=0)
    for a, b in ((surf, box_scale(surf, -1.0)), (other_axis, surf)):
        with pytest.raises(InvalidParameterError, match="at most one operand"):
            one_region((0.0, 0.0, 0.0), a, b)


def test_admissible_region_surface_with_collapsed_axis_is_empty():
    sheet = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 0.0), surface_axis=2)
    slab = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(-0.25, 0.25))
    b = Box3(ax1=(2.0, 3.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    # xi1 at the low end of the Minkowski sum: the axis-1 interval is one
    # point, which carries no measure in a surface or a volume intersection
    xi = (2.0, 0.5, 0.5)
    assert one_region(xi, sheet, b) is None
    assert one_region(xi, slab, b) is None
    # one step inside, both carry measure
    xi = (np.nextafter(2.0, np.inf), 0.5, 0.5)
    assert one_region(xi, sheet, b) is not None and one_region(xi, slab, b) is not None


def _region_reference(xi, a, b):
    """``(xi - a) ∩ b`` for one xi, axis by axis with scalar max/min."""
    surface_axis = a.surface_axis if a.surface_axis is not None else b.surface_axis
    axes = []
    for i in range(3):
        (a_lo, a_hi), (b_lo, b_hi) = a.axes[i], b.axes[i]
        if i == surface_axis:
            if i == a.surface_axis:
                point = xi[i] - a_lo
                if not (b_lo <= point <= b_hi):
                    return None
            else:
                point = b_lo
                if not (xi[i] - a_hi <= point <= xi[i] - a_lo):
                    return None
            axes.append((point, point))
            continue
        lo, hi = max(xi[i] - a_hi, b_lo), min(xi[i] - a_lo, b_hi)
        if not lo < hi:
            return None
        axes.append((lo, hi))
    return Box3(*axes, surface_axis=surface_axis)


def _support_pairs():
    """The kernel terms' (a, b) support pairs in surface and slab mode."""
    w2 = knapp().w2_box
    pairs = []
    for mode in ("surface", "slab"):
        neg_wp = knapp(mode=mode).neg_wprime_box
        pairs += [(neg_wp, w2), (w2, neg_wp)]
    return pairs


def _axis_edges(a, b, i):
    """xi_i at the region's edges along axis i: the four endpoint sums
    (on a surface axis, the ends of the pinned interval) and their
    neighbours, deduplicated and sorted."""
    (a_lo, a_hi), (b_lo, b_hi) = a.axes[i], b.axes[i]
    edges = [a_lo + b_lo, a_lo + b_hi, a_hi + b_lo, a_hi + b_hi]
    edges += [np.nextafter(x, s) for x in list(edges) for s in (-np.inf, np.inf)]
    return np.unique(edges)


def _check_rows(xis, a, b):
    """One multi-row region call agrees, row by row, with the one-point
    regions and with the scalar reference; returns the found count."""
    rows = admissible_eta_region(xis, a, b)
    assert rows.lo.shape == rows.hi.shape == xis.shape
    for j, xi in enumerate(xis):
        region = one_region(xi, a, b)
        assert region == _region_reference(xi, a, b), xi
        assert bool(rows.found[j]) == (region is not None), xi
        if region is not None:
            assert tuple(zip(rows.lo[j], rows.hi[j])) == region.axes, xi
            assert rows.surface_axis == region.surface_axis
            assert region.measure > 0.0
    return int(rows.found.sum())


def test_region_rows_match_one_point_regions():
    # every combination of the axes' edge values, one region call per
    # support pair; then 32 seeded lists per pair of 1-6 points mixing
    # edges with uniform values in the span padded by a tenth each side
    rng = np.random.default_rng(17)
    points = found = 0
    for a, b in _support_pairs():
        edges = [_axis_edges(a, b, i) for i in range(3)]
        xis = np.array(list(itertools.product(*edges)))
        points += len(xis)
        found += _check_rows(xis, a, b)
        span = [(e[0] - 0.1 * (e[-1] - e[0]), e[-1] + 0.1 * (e[-1] - e[0])) for e in edges]
        for _ in range(32):
            xis = [
                [rng.choice(e) if rng.random() < 0.5 else rng.uniform(*s) for e, s in zip(edges, span)]
                for _ in range(rng.integers(1, 7))
            ]
            _check_rows(np.array(xis), a, b)
    assert (points, found) == (5184, 1344)


def test_region_rows_cover_collapse_and_surface_edges():
    # the cases the property above must meet: a volume axis collapsed to
    # one point (measure 0, no region, in surface and in slab mode) and,
    # in either operand order, xi3 exactly on 2W's axis-3 floor: the
    # surface axis is tested exactly, so the next float below is out
    surf_pair, surf_swapped, slab_pair, _ = _support_pairs()
    for a, b in (surf_pair, slab_pair):
        xi = np.array([a.ax1[0] + b.ax1[0], 3e-7 * RT, 5e-7 * RT])
        rows = admissible_eta_region(xi[None, :], a, b)
        assert rows.lo[0, 0] == rows.hi[0, 0] and not rows.found[0]
    floor = knapp().w2_box.ax3[0]
    assert floor == 2e-9 * RT
    xis = np.array([[LAM, 3e-7 * RT, x] for x in (floor, np.nextafter(floor, -np.inf))])
    for a, b in (surf_pair, surf_swapped):
        assert admissible_eta_region(xis, a, b).found.tolist() == [True, False]


def product_factors(monkeypatch, a, b, x):
    """The product norm's convolution factors of ``(a, b)`` at the nodes
    ``x[i]`` of each axis i, as ``amplitudes._stacked_product_data``
    builds them, with its Gauss nodes swapped for ``x``."""
    nodes = [np.asarray(v, dtype=float)[None, None, :] for v in x]
    monkeypatch.setattr(amplitudes, "_stack_cells", lambda ends, surface, counts: (nodes, [None]))
    (data,) = amplitudes._stacked_product_data([(a, b)], (1, 1, 1))
    return [f[0] for f in data.factors]


@pytest.mark.parametrize("side", ["a", "b"])
def test_a_point_axis_is_found_where_its_product_factor_is_one(monkeypatch, side):
    # seeded pairs of an interval and a point at a plane q != 0, the point
    # on either side: along that axis an output frequency has an
    # admissible region exactly where the product's convolution factor is
    # 1, at the four end sums, at their float neighbours and inside
    rng = np.random.default_rng(40)
    transverse = ((-1.0, 1.0), (-1.0, 1.0))
    for _ in range(500):
        q = float(rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 3.0))
        lo, hi = (float(v) for v in np.sort(rng.uniform(-3.0, 3.0, 2)))
        point = Box3(*transverse, (q, q), surface_axis=2)
        other = Box3(*transverse, (lo, hi))
        a, b = (point, other) if side == "a" else (other, point)
        edges = [e + f for e in (a.ax3[0], a.ax3[1]) for f in (b.ax3[0], b.ax3[1])]
        x3 = edges + [np.nextafter(e, s) for e in edges for s in (-np.inf, np.inf)]
        x3 += list(q + rng.uniform(lo, hi, 4))
        xis = np.column_stack([np.zeros(len(x3)), np.zeros(len(x3)), x3])
        found = admissible_eta_region(xis, a, b).found
        factor = product_factors(monkeypatch, a, b, xis.T)[2]
        assert set(factor.tolist()) <= {0.0, 1.0}
        assert found.tolist() == (factor == 1.0).tolist(), (a.ax3, b.ax3)


def test_minkowski_coverage():
    # every sampled xi in W with xi3 above the doubled floor admits
    # eta with xi - eta in -W' and eta in 2W
    rng = np.random.default_rng(11)
    p = knapp()
    w, neg_wp, w2 = p.w_box, p.neg_wprime_box, p.w2_box
    lo = np.array([w.ax1[0], w.ax2[0], 2e-9 * RT])
    hi = np.array([w.ax1[1], w.ax2[1], w.ax3[1]])
    for _ in range(1000):
        xi = lo + rng.random(3) * (hi - lo)
        assert one_region(xi, neg_wp, w2) is not None


def test_quadrature_unit_cube():
    cube = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    g = quadrature_grid(cube, (4, 4, 4))
    assert g.weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert g.total_measure == 1.0
    # Gauss-Legendre with n nodes is exact through degree 2n-1
    val = g.weights @ g.points[:, 0] ** 2
    assert val == pytest.approx(1.0 / 3.0, rel=1e-12)
    val7 = g.weights @ (g.points[:, 0] ** 7 * g.points[:, 1] ** 5)
    assert val7 == pytest.approx((1.0 / 8.0) * (1.0 / 6.0), rel=1e-12)


def test_quadrature_membership_consistency():
    b = knapp().w_box
    g = quadrature_grid(b, (5, 3, 2))
    assert g.points.shape == (30, 3)
    bounds = np.array(b.axes)
    assert np.all((bounds[:, 0] <= g.points) & (g.points <= bounds[:, 1]))


def test_quadrature_surface_box():
    sheet = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 0.0), surface_axis=2)
    g = quadrature_grid(sheet, (8, 8, 8))
    assert g.points.shape == (64, 3)
    assert np.all(g.points[:, 2] == 0.0)
    assert g.weights.sum() == pytest.approx(1.0, rel=1e-14)


def test_quadrature_degenerate_volume_axis_is_empty():
    flat = Box3(ax1=(0.0, 1.0), ax2=(0.5, 0.5), ax3=(0.0, 1.0))
    g = quadrature_grid(flat, (4, 4, 4))
    assert g.weights.size == 0
    assert g.total_measure == 0.0
    with pytest.raises(InvalidParameterError):
        quadrature_grid(flat, (4, 0, 4))


def _meshgrid_grid(b, counts):
    """Tensor grid built with meshgrid and column_stack, axis by axis."""
    nodes, weights = [], []
    for i, (lo, hi) in enumerate(b.axes):
        if i == b.surface_axis:
            nodes.append(np.array([lo]))
            weights.append(np.array([1.0]))
            continue
        u, w = np.polynomial.legendre.leggauss(counts[i])
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        nodes.append(mid + half * u)
        weights.append(half * w)
    g = np.meshgrid(*nodes, indexing="ij")
    w1, w2, w3 = np.meshgrid(*weights, indexing="ij")
    return np.column_stack([x.ravel() for x in g]), (w1 * w2 * w3).ravel()


def test_axis_rule_is_a_point_on_a_surface_axis_and_gauss_legendre_otherwise():
    lo, hi = np.array([-2.0, 0.0, 3.5]), np.array([1.0, 0.25, 7.0])
    for n in (1, 4, 16):
        x, w = axis_rule(lo, hi, n, surface=False)
        u, v = np.polynomial.legendre.leggauss(n)
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        assert x.shape == w.shape == (3, n)
        assert np.array_equal(x, mid[:, None] + half[:, None] * u)
        assert np.array_equal(w, half[:, None] * v)
        # whatever n and hi, a surface axis is each lo with weight 1
        x, w = axis_rule(lo, hi, n, surface=True)
        assert x.shape == w.shape == (3, 1)
        assert np.array_equal(x[:, 0], lo) and np.all(w == 1.0)
    x, w = axis_rule([0.5], [0.5], 8, surface=True)
    assert x.tolist() == [[0.5]] and w.tolist() == [[1.0]]


@pytest.mark.parametrize("counts", [(2, 1, 1), (5, 3, 2), (6, 6, 6)])
def test_quadrature_nodes_match_meshgrid_construction(counts):
    w = knapp().w_box
    volume = [w, box_scale(w, -2.0), Box3((0.0, 1.0), (-3.0, 2.0), (1.0, 1.5))]
    surface = [knapp().wprime_box, knapp(4.0 * LAM).wprime_box]
    for group in (volume, surface):
        bounds = np.array([b.axes for b in group])
        points, weights = quadrature_nodes(
            bounds[..., 0], bounds[..., 1], counts, group[0].surface_axis
        )
        assert points.shape[:2] == weights.shape
        for b, pts, wts in zip(group, points, weights):
            want_pts, want_wts = _meshgrid_grid(b, counts)
            assert np.array_equal(pts, want_pts)
            assert np.array_equal(wts, want_wts)
            g = quadrature_grid(b, counts)
            assert np.array_equal(g.points, pts)
            assert np.array_equal(g.weights, wts)
