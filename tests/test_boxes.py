import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from knappflow.boxes import (
    Box3,
    admissible_eta_region,
    box_scale,
    box_w,
    box_w_prime,
    axis_rule,
    gauss_legendre_cells,
    quadrature_grid,
    quadrature_nodes,
)
from knappflow.errors import InvalidParameterError
from regions import one_region

LAM = 4.0e5
RT = np.sqrt(LAM)


def test_box_w_geometry():
    w = box_w(LAM)
    assert w.ax1 == (LAM - 1e-6 * LAM, LAM + 1e-6 * LAM)
    assert w.ax2 == (1e-9 * RT, 1e-6 * RT)
    assert w.ax3 == w.ax2
    assert w.measure == pytest.approx(2e-6 * LAM * (0.999e-6 * RT) ** 2, rel=1e-12)


def test_box_w_prime_surface_and_slab():
    surf = box_w_prime(LAM)
    assert surf.surface_axis == 2
    assert surf.ax3 == (0.0, 0.0)
    assert surf.surface_tol == pytest.approx(1e-9 * RT)
    # 2D measure: axial times transverse
    assert surf.measure == pytest.approx(2e-6 * LAM * 2e-6 * RT, rel=1e-12)

    slab = box_w_prime(LAM, thickness=1e-6 * RT)
    assert slab.surface_axis is None
    assert slab.ax3 == (-0.5e-6 * RT, 0.5e-6 * RT)
    with pytest.raises(InvalidParameterError):
        box_w_prime(LAM, thickness=-1.0)
    with pytest.raises(InvalidParameterError):
        box_w(0.5)


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


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9])
def test_surface_tol_must_be_finite_and_nonnegative(tol):
    # xi - a on the sheet xi3 = 0 never meets the sheet xi3 = 5, but a
    # nan or infinite slack used to admit a region between the two
    def sheet(x3, **kw):
        return Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(x3, x3), surface_axis=2, **kw)

    assert one_region((1.0, 1.0, 0.0), sheet(0.0, surface_tol=1e-9), sheet(5.0)) is None
    with pytest.raises(InvalidParameterError):
        sheet(0.0, surface_tol=tol)


@given(st.integers(min_value=-6, max_value=6), st.booleans())
def test_box_scale_round_trip_powers_of_two(e: int, neg: bool):
    # exact in floating point only for powers of two; the general case
    # is covered approximately below
    c = float(2.0**e) * (-1.0 if neg else 1.0)
    b = box_w(LAM)
    assert box_scale(box_scale(b, c), 1.0 / c) == b


def test_box_scale_round_trip_general():
    rng = np.random.default_rng(7)
    b = box_w_prime(LAM)
    for _ in range(50):
        c = float(rng.uniform(0.1, 10.0)) * float(rng.choice([-1.0, 1.0]))
        rt = box_scale(box_scale(b, c), 1.0 / c)
        for got, want in zip(rt.axes, b.axes):
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-300)
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-300)
    assert box_scale(b, -1.0).surface_tol == b.surface_tol
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
    surf = box_w_prime(LAM)
    w2 = box_scale(box_w(LAM), 2.0)
    # xi3 far below the doubled transverse floor of 2W: axis-3 constraint fails
    xi_bad = np.array([3.0 * LAM, 3e-7 * RT, 5e-10 * RT])
    assert one_region(xi_bad, surf, w2) is None
    # the surface tolerance is an inclusive slack on the pinned value
    xi_edge = np.array([3.0 * LAM, 3e-7 * RT, 1e-9 * RT])
    assert one_region(xi_edge, surf, w2) is not None
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
    with pytest.raises(InvalidParameterError):
        bad = Box3(ax1=(0.0, 0.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0), surface_axis=0)
        one_region((0.0, 0.0, 0.0), bad, surf)


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
    tol = max(a.surface_tol, b.surface_tol)
    axes = []
    for i in range(3):
        (a_lo, a_hi), (b_lo, b_hi) = a.axes[i], b.axes[i]
        if i == surface_axis:
            if i == a.surface_axis:
                point = xi[i] - a_lo
                if not (b_lo - tol <= point <= b_hi + tol):
                    return None
            else:
                point = b_lo
                if not (xi[i] - a_hi - tol <= point <= xi[i] - a_lo + tol):
                    return None
            axes.append((point, point))
            continue
        lo, hi = max(xi[i] - a_hi, b_lo), min(xi[i] - a_lo, b_hi)
        if not lo < hi:
            return None
        axes.append((lo, hi))
    return Box3(*axes, surface_axis=surface_axis, surface_tol=tol)


def _support_pairs():
    """The kernel terms' (a, b) support pairs in surface and slab mode."""
    w2 = box_scale(box_w(LAM), 2.0)
    pairs = []
    for thickness in (None, 1e-6 * RT):
        neg_wp = box_scale(box_w_prime(LAM, thickness), -1.0)
        pairs += [(neg_wp, w2), (w2, neg_wp)]
    return pairs


def _axis_values(a, b, i):
    """xi_i near the region's edges along axis i: the four endpoint sums,
    the surface tolerance boundaries with their neighbours, and anything
    in between."""
    (a_lo, a_hi), (b_lo, b_hi) = a.axes[i], b.axes[i]
    tol = max(a.surface_tol, b.surface_tol)
    edges = [a_lo + b_lo, a_lo + b_hi, a_hi + b_lo, a_hi + b_hi]
    if i == a.surface_axis:
        edges += [b_lo - tol, b_hi + tol]
    if i == b.surface_axis:
        edges += [a_lo - tol, a_hi + tol]
    edges += [np.nextafter(x, s) for x in list(edges) for s in (-np.inf, np.inf)]
    span = max(edges) - min(edges)
    return st.one_of(
        st.sampled_from(edges),
        st.floats(min(edges) - 0.1 * span, max(edges) + 0.1 * span),
    )


@settings(deadline=None)
@given(st.sampled_from(range(4)), st.data())
def test_region_rows_match_one_point_regions(pair, data):
    a, b = _support_pairs()[pair]
    point = st.tuples(*(_axis_values(a, b, i) for i in range(3)))
    xis = np.array(data.draw(st.lists(point, min_size=1, max_size=6)))
    rows = admissible_eta_region(xis, a, b)
    assert rows.lo.shape == rows.hi.shape == xis.shape
    for j, xi in enumerate(xis):
        region = one_region(xi, a, b)
        assert region == _region_reference(xi, a, b)
        assert bool(rows.found[j]) == (region is not None)
        if region is not None:
            assert tuple(zip(rows.lo[j], rows.hi[j])) == region.axes
            assert rows.surface_axis == region.surface_axis
            assert rows.surface_tol == region.surface_tol
            assert region.measure > 0.0


def test_region_rows_cover_collapse_and_tolerance_edges():
    # the cases the property above must meet: a volume axis collapsed to
    # one point (measure 0, no region, in surface and in slab mode) and
    # xi3 exactly on the inclusive surface tolerance boundary
    surf_pair, _, slab_pair, _ = _support_pairs()
    for a, b in (surf_pair, slab_pair):
        xi = np.array([a.ax1[0] + b.ax1[0], 3e-7 * RT, 5e-7 * RT])
        rows = admissible_eta_region(xi[None, :], a, b)
        assert rows.lo[0, 0] == rows.hi[0, 0] and not rows.found[0]
    a, b = surf_pair
    edge = b.ax3[0] - a.surface_tol
    xis = np.array([[LAM, 3e-7 * RT, x] for x in (edge, np.nextafter(edge, -np.inf))])
    assert admissible_eta_region(xis, a, b).found.tolist() == [True, False]


def test_minkowski_coverage():
    # every sampled xi in W with xi3 above the doubled floor admits
    # eta with xi - eta in -W' and eta in 2W
    rng = np.random.default_rng(11)
    w = box_w(LAM)
    neg_wp = box_scale(box_w_prime(LAM), -1.0)
    w2 = box_scale(box_w(LAM), 2.0)
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
    b = box_w(LAM)
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
        want_x, want_w = gauss_legendre_cells(lo, hi, n)
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
        # whatever n and hi, a surface axis is each lo with weight 1
        x, w = axis_rule(lo, hi, n, surface=True)
        assert x.shape == w.shape == (3, 1)
        assert np.array_equal(x[:, 0], lo) and np.all(w == 1.0)
    x, w = axis_rule([0.5], [0.5], 8, surface=True)
    assert x.tolist() == [[0.5]] and w.tolist() == [[1.0]]


@pytest.mark.parametrize("counts", [(2, 1, 1), (5, 3, 2), (6, 6, 6)])
def test_quadrature_nodes_match_meshgrid_construction(counts):
    volume = [box_w(LAM), box_scale(box_w(LAM), -2.0), Box3((0.0, 1.0), (-3.0, 2.0), (1.0, 1.5))]
    surface = [box_w_prime(LAM), box_w_prime(4.0 * LAM)]
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
