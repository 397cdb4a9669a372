import dataclasses
import math

import numpy as np
import pytest

from knappflow import cli, construction
from knappflow._kernels import term_weight
from knappflow.boxes import Box3, admissible_eta_region, box_scale
from knappflow.construction import (
    RHO_MIN,
    KnappParams,
    curl_parts,
    kernels,
    lambda_window,
    make_params,
)
from knappflow.amplitudes import product_norm_boxes, sobolev_norm_monomial
from knappflow.errors import InvalidParameterError, WindowEmptyError, is_real, shown
from knappflow.sweep import records_from_core, run_sweep, smoothness_verdict, sweep_core
from knappflow.symbols import duhamel_multiplier, duhamel_multiplier_oracle
from regions import one_region

EPS, RHO = 0.01, 2e-6
LAM = 4.0e5
RT = np.sqrt(LAM)


def test_window_k1_interval():
    win = lambda_window(EPS, RHO, 1)
    assert win is not None
    lo, hi = win
    assert lo == pytest.approx((2 * math.pi - EPS) / (EPS * (1 - RHO)), rel=1e-15)
    assert hi == pytest.approx((2 * math.pi + EPS) / (EPS * (1 + RHO)), rel=1e-15)
    assert 627.3 < lo < 627.4
    assert 629.3 < hi < 629.4


def test_window_empty_when_rho_large():
    # nonempty requires 2 k pi rho < eps
    assert lambda_window(EPS, 1e-3, 100) is None
    assert lambda_window(EPS, 1e-3, 1) is not None
    assert lambda_window(EPS, 1e-3, 2) is None


def test_window_validation():
    with pytest.raises(InvalidParameterError):
        lambda_window(EPS, 1.0, 1)
    with pytest.raises(InvalidParameterError):
        lambda_window(0.5, RHO, 1)
    with pytest.raises(InvalidParameterError):
        lambda_window(EPS, RHO, 0)
    with pytest.raises(InvalidParameterError, match="cannot cover the box spread"):
        lambda_window(EPS, 1e-9, 1)
    assert lambda_window(EPS, RHO_MIN, 1) is not None


def test_make_params_midpoint():
    p = make_params(EPS, RHO, 1)
    win = lambda_window(EPS, RHO, 1)
    mid = (win[0] + win[1]) / 2
    assert p.lam == pytest.approx(mid * mid, rel=1e-15)
    assert 3.9e5 < p.lam < 4.0e5
    assert p.t * math.sqrt(p.lam) == pytest.approx(EPS, rel=1e-15)
    assert p.mode == "slab"
    assert p.thickness == construction.DEFAULT_SLAB_FACTOR * math.sqrt(p.lam) == 1e-6 * math.sqrt(p.lam)
    surface = make_params(EPS, RHO, 1, mode="surface")
    assert surface.mode == "surface"
    assert surface.thickness is None


EDGE_WINDOWS = [
    (eps, k) for eps in (1e-3, 0.01, 0.1) for k in (1, 7) if eps / (2 * math.pi * k) >= RHO_MIN
]


def test_window_edge_is_lambda_windows_alone(capsys):
    # rounding closes a window a little below the exact edge
    # rho = eps / (2 pi k), so make_params, knappflow window and
    # sweep_core take emptiness from lambda_window alone, and no error
    # names a bound on rho
    empty_cases = set()
    for eps, k in EDGE_WINDOWS:
        edge = eps / (2 * math.pi * k)
        for below, rho in (("ulp", math.nextafter(edge, 0.0)), ("1e-13", edge * (1 - 1e-13))):
            case = (eps, k, rho)
            empty = lambda_window(eps, rho, k) is None
            if empty:
                empty_cases.add((eps, k, below))
            try:
                make_params(eps, rho, k)
            except WindowEmptyError as exc:
                assert empty and "rho <" not in str(exc), case
            else:
                assert not empty, case
            argv = ["window", "--eps", repr(eps), "--rho", repr(rho), "--k", str(k)]
            assert cli.main(argv) == 0, case
            assert (capsys.readouterr().out == "EMPTY\n") == empty, case
            # window 1 keeps the sweep alive for k = 7; for k = 1 an empty
            # window leaves the sweep none, which sweep_core rejects
            ks = sorted({1, k})
            try:
                cores = sweep_core(eps, rho, ks, mode="surface", grid=(1, 1, 1))
            except InvalidParameterError as exc:
                assert ks == [1] and empty and "every window" in str(exc), case
                continue
            flags = records_from_core(cores, 0.5, -0.25)[-1].flags
            assert (flags == ("window_empty",)) == empty, case
    # every window is closed one ulp below its edge, and 1e-13 relative
    # below it only where the band is wider than that: 1.1e-13, 5.0e-13
    # and 4.6e-12 relative at eps 1e-3 k 1, eps 0.01 k 7 and eps 1e-3 k 7,
    # against 8e-14 and 1e-14 elsewhere; so both sides of the band are
    # reached
    closed_at_1e13 = {(1e-3, 1), (1e-3, 7), (0.01, 7)}
    assert empty_cases == {(eps, k, "ulp") for eps, k in EDGE_WINDOWS} | {
        (eps, k, "1e-13") for eps, k in closed_at_1e13
    }
    make_params(EPS, 0.9 * EPS / (14 * math.pi), 7)


def test_make_params_validation():
    with pytest.raises(InvalidParameterError):
        make_params(EPS, 1e-9, 1)  # cannot cover the box spread
    assert RHO_MIN > 1e-6
    bad_mode = "mode must be 'slab' or 'surface', got 'ball'"
    with pytest.raises(InvalidParameterError, match=bad_mode):
        make_params(EPS, RHO, 1, mode="ball")
    with pytest.raises(InvalidParameterError, match=bad_mode):
        KnappParams(lam=4e5, eps=EPS, mode="ball")
    with pytest.raises(InvalidParameterError):
        KnappParams(lam=10.0, eps=EPS, mode="surface")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_parameters_are_rejected(bad):
    # each would otherwise give nan or inf norms
    with pytest.raises(InvalidParameterError):
        KnappParams(lam=4e5, eps=bad, mode="slab")
    with pytest.raises(InvalidParameterError):
        KnappParams(lam=bad, eps=EPS, mode="surface")


@pytest.mark.parametrize("bad", [0, 0.2, math.nan])
def test_both_entry_points_raise_the_one_eps_message(bad):
    # KnappParams and lambda_window (so make_params too) share one eps rule
    entries = [
        lambda: KnappParams(lam=4e5, eps=bad, mode="slab"),
        lambda: lambda_window(bad, RHO, 1),
        lambda: make_params(bad, RHO, 1),
    ]
    for entry in entries:
        with pytest.raises(InvalidParameterError) as exc:
            entry()
        assert str(exc.value) == f"eps must lie in (0, 0.1], got {bad}"


@pytest.mark.parametrize(
    "bad",
    [
        1.5, 0.999, math.nan, math.inf, 0, -2,
        pytest.param(10**400, id="10**400"), pytest.param(10**5000, id="10**5000"),
        pytest.param("3", id="'3'"), pytest.param("abc", id="'abc'"), None,
    ],
)
def test_window_index_must_be_a_positive_whole_number(bad):
    # a fractional k would take lam from the anti-resonant window between
    # two resonant ones; an int a float cannot hold used to raise
    # OverflowError, "3" and None a TypeError and "abc" a bare ValueError
    with pytest.raises(InvalidParameterError, match="k must be a positive integer"):
        lambda_window(EPS, RHO, bad)
    with pytest.raises(InvalidParameterError, match="k must be a positive integer"):
        make_params(EPS, RHO, bad)
    # a whole number of another type is accepted as that int
    p = make_params(EPS, RHO, 2)
    assert make_params(EPS, RHO, 2.0) == make_params(EPS, RHO, np.int64(2)) == p


def test_window_soundness():
    # t |xi| stays within eps of 2 k pi over all of W, so cos(t|xi|) >= cos(eps)
    rng = np.random.default_rng(21)
    for k in (1, 5, 10):
        p = make_params(EPS, RHO, k)
        w = p.w_box
        lo = np.array([ax[0] for ax in w.axes])
        hi = np.array([ax[1] for ax in w.axes])
        target = 2 * math.pi * k
        for _ in range(1000):
            xi = lo + rng.random(3) * (hi - lo)
            phase = p.t * np.linalg.norm(xi)
            assert abs(phase - target) < EPS
            assert math.cos(phase) >= math.cos(EPS)


def _k_max(eps):
    """The largest k whose window can be nonempty at some rho >= RHO_MIN."""
    return math.ceil(eps / (2 * math.pi * RHO_MIN)) - 1


def _window_cases():
    """(eps, rho, k, root) with a nonempty window and sqrt(lam) = root in
    it: 300 seeded draws, then the 16 corners of the domain, eps at either
    end, k = 1 and k_max(eps), rho at RHO_MIN and just below eps/(2 pi k),
    and root at either end of the window.  Empty windows are skipped."""
    rng = np.random.default_rng(23)
    seeded = []
    while len(seeded) < 300:
        eps = rng.uniform(1e-3, 0.1)
        k = int(rng.integers(1, _k_max(eps), endpoint=True))
        rho = rng.uniform(RHO_MIN, eps / (2 * math.pi * k))
        window = lambda_window(eps, rho, k)
        if window is not None:
            lo, hi = window
            seeded.append((eps, rho, k, lo + rng.uniform() * (hi - lo)))
    corners = []
    for eps in (1e-3, 0.1):
        for k in (1, _k_max(eps)):
            for rho in (RHO_MIN, np.nextafter(eps / (2 * math.pi * k), 0.0)):
                window = lambda_window(eps, rho, k)
                if window is not None:
                    corners += [(eps, rho, k, root) for root in window]
    return seeded, corners


def test_window_sound_at_every_lambda():
    # W lies in the open positive octant, so |xi| over W is smallest at
    # its low corner and largest at its high corner; the bound on
    # |t|xi| - 2 k pi| at both covers every xi in W
    seeded, corners = _window_cases()
    # at rho just below eps / (2 pi k) every window rounds to empty, so 8
    # of the 16 corners remain
    assert len(corners) == 8
    for eps, rho, k, root in seeded + corners:
        w = KnappParams(lam=root * root, eps=eps, mode="surface").w_box
        t = eps / root
        for corner in (0, 1):
            xi = np.array([ax[corner] for ax in w.axes])
            assert abs(t * np.linalg.norm(xi) - 2 * k * math.pi) <= eps, (eps, rho, k, root)


def test_curl_parts_displayed_example():
    a1_part, a2_part = curl_parts(np.array([0.0, 1.0, 1.0]), 1.0, 0.0)
    assert np.allclose(a1_part, [2.0, 0.0, 0.0])
    assert np.allclose(a2_part, 0.0)


def test_curl_parts_oracle_identity():
    # sum of the blocks equals -xi (xi . a) + |xi|^2 a whenever xi3*a2 = 0
    rng = np.random.default_rng(22)
    for _ in range(500):
        a1 = float(rng.normal())
        a2 = float(rng.normal())
        xi = rng.normal(size=3)
        xi[2] = 0.0 if a2 != 0.0 else xi[2]
        p1, p2 = curl_parts(xi, a1, a2)
        a = np.array([a1, a2, 0.0], dtype=complex)
        want = -xi * (xi @ a) + float(xi @ xi) * a
        assert np.allclose(p1 + p2, want, rtol=1e-12, atol=1e-12)


def test_kernels_structure():
    p = make_params(EPS, RHO, 1)
    terms = kernels(p)
    assert [t.label for t in terms] == ["axis2.t1", "axis2.t2", "axis3.t1", "axis3.t2"]
    assert [t.code for t in terms] == [0, 1, 2, 3]
    by_label = {t.label: t for t in terms}
    # term 1 carries the planar datum on the xi-eta slot, term 2 swaps
    assert by_label["axis2.t1"].support_a == p.neg_wprime_box
    assert by_label["axis2.t1"].support_b == p.w2_box
    assert by_label["axis2.t2"].support_a == p.w2_box
    assert by_label["axis2.t2"].support_b == p.neg_wprime_box


def test_kernel_weight_magnitude_scale():
    # order of magnitude at box centers: ~ 2e-6 lam^(-1/2) for the
    # slot-swapped term (transverse factor eta2 over one denominator lam)
    p = make_params(EPS, RHO, 1)
    lam = p.lam
    kern = [t for t in kernels(p) if t.label == "axis2.t2"][0]
    xi = p.samp_box.center()
    eta = np.array([-lam, 0.0, 0.0])
    w = float(term_weight(kern.code, xi, eta))
    assert w > 0.0
    scale = w * math.sqrt(lam)
    assert 1e-7 < scale < 1e-5


def test_kernel_weights_positive_at_centers():
    for mode in ("slab", "surface"):
        p = make_params(EPS, RHO, 1, mode=mode)
        xi = p.samp_box.center()
        for kern in kernels(p):
            region = one_region(xi, kern.support_a, kern.support_b)
            assert region is not None
            assert float(term_weight(kern.code, xi, region.center())) > 0.0


def weight_by_branch(code, xi, eta):
    """A term's weight written out per code, independently of ``_weight``."""
    d = xi - eta
    nx, nd, ne = (np.sqrt((v * v).sum(axis=-1)) for v in (xi, d, eta))
    d1, d2, d3 = d[..., 0], d[..., 1], d[..., 2]
    e1, e2, e3 = eta[..., 0], eta[..., 1], eta[..., 2]
    num = {
        0: d1 * d1 * e1 * e1 * e2,
        1: -(d1 * d2 * e1 * e1 * e1),
        2: d1 * d1 * e1 * e1 * e3,
        3: -(d1 * d3 * e1 * e1 * e1),
    }[code]
    return num / (nx * nd * nd * ne * ne)


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_kernel_weights_equal_their_written_out_formulas(mode):
    # 6 seeded output frequencies in the sampling box, 5 etas in each one's
    # admissible region for either support pair
    p = make_params(EPS, RHO, 1, mode=mode)
    rng = np.random.default_rng(7)
    samp = np.array(p.samp_box.axes)
    xis = samp[:, 0] + rng.random((6, 3)) * (samp[:, 1] - samp[:, 0])
    etas = []
    for kern in kernels(p)[:2]:
        rows = admissible_eta_region(xis, kern.support_a, kern.support_b)
        assert rows.found.all()
        etas.append(rows.lo[:, None] + rng.random((6, 5, 3)) * (rows.hi - rows.lo)[:, None])
    etas = np.concatenate(etas, axis=1)
    xi_rows = np.broadcast_to(xis[:, None], etas.shape)
    for code in range(4):
        want = weight_by_branch(code, xi_rows, etas)
        assert term_weight(code, xi_rows, etas).tobytes() == want.tobytes()
    # one call with a mixed (P, C) code array, broadcast over each row's etas
    codes = rng.integers(0, 4, size=(6, 3))
    got = term_weight(codes[:, :, None], xis[:, None, None], etas[:, None])
    assert got.shape == (6, 3, 10)
    for (j, c), code in np.ndenumerate(codes):
        assert got[j, c].tobytes() == weight_by_branch(code, xi_rows[j], etas[j]).tobytes()


def test_kernel_codes_are_axis_and_slot():
    for kern in kernels(make_params(EPS, RHO, 1)):
        assert kern.label == f"axis{2 + (kern.code >> 1)}.t{1 + (kern.code & 1)}"
    xi, eta = np.array([2.0, 0.1, 0.2]), np.array([1.0, 0.3, 0.1])
    for bad in (-1, 4, np.array([0, 4])):
        with pytest.raises(ValueError, match="unknown kernel code"):
            term_weight(bad, xi, eta)


def test_messages_name_an_int_too_long_to_print_by_its_size():
    # Python converts at most 4300 digits of an int to decimal, so a
    # message that formats 10**5000 raised a plain ValueError instead
    big = 10**5000
    with pytest.raises(InvalidParameterError, match=r"got an int of 16610 bits$"):
        make_params(EPS, RHO, big)
    with pytest.raises(InvalidParameterError, match=r"got \(an int of 16610 bits, 4, 4\)$"):
        make_params(EPS, RHO, 1, grid=(big, 4, 4))
    assert shown([(0, 1.5), [big]]) == "[(0, 1.5), [an int of 16610 bits]]"
    assert shown((2, 10**400)) == str((2, 10**400))


@pytest.mark.parametrize(
    "bad",
    [
        8.5, math.nan, math.inf,
        pytest.param(10**400, id="10**400"), pytest.param(10**5000, id="10**5000"),
        pytest.param("3", id="'3'"), pytest.param("abc", id="'abc'"), None,
        pytest.param(np.complex128(8), id="complex128(8)"),
    ],
)
def test_grid_entries_must_be_finite_whole_numbers(bad):
    # a fractional count would be truncated by the norms; nan and inf
    # would fail inside int() with a bare ValueError or OverflowError,
    # an int a float cannot hold inside float(), and "3", "abc" and None
    # with a TypeError or a bare ValueError; float() would take a numpy
    # complex's real part with a warning
    with pytest.raises(InvalidParameterError, match="grid must be"):
        make_params(EPS, RHO, 1, grid=(bad, 4, 4))
    with pytest.raises(InvalidParameterError, match="grid must be"):
        KnappParams(lam=4e5, eps=EPS, mode="surface", grid=(bad, 4, 4))


@pytest.mark.parametrize(
    "bad",
    [
        5, 8.0, None,
        pytest.param(np.int64(8), id="int64(8)"), pytest.param(np.array(8), id="array(8)"),
    ],
)
def test_a_grid_must_be_a_sequence_of_three(bad):
    # len() of a number, None or a 0-d array raised a bare TypeError
    with pytest.raises(InvalidParameterError, match="^grid must be"):
        make_params(EPS, RHO, 1, grid=bad)
    with pytest.raises(InvalidParameterError, match="^grid must be"):
        KnappParams(lam=4e5, eps=EPS, mode="surface", grid=bad)


CUBE = Box3((1.0, 2.0), (1.0, 2.0), (1.0, 2.0))

# each real-valued parameter: its entry point (given the parameter and a
# three-window core) and the start of the message that names it
REAL_PARAMETERS = {
    "make_params eps": (lambda x, c: make_params(x, RHO, 1), "eps must"),
    "make_params rho": (lambda x, c: make_params(EPS, x, 1), "rho must"),
    "KnappParams lam": (lambda x, c: KnappParams(lam=x, eps=EPS, mode="slab"), "lam must"),
    "lambda_window rho": (lambda x, c: lambda_window(EPS, x, 1), "rho must"),
    "run_sweep s": (lambda x, c: run_sweep(EPS, RHO, x, 0.0, [1, 2, 3]), "Sobolev index s"),
    "run_sweep r": (lambda x, c: run_sweep(EPS, RHO, 0.5, x, [1, 2, 3]), "Sobolev index r"),
    "records_from_core s": (lambda x, c: records_from_core(c, x, 0.0), "Sobolev index s"),
    "records_from_core r": (lambda x, c: records_from_core(c, 0.5, x), "Sobolev index r"),
    "smoothness_verdict s": (
        lambda x, c: smoothness_verdict(x, 0.0, records_from_core(c, 0.5, 0.0)),
        "Sobolev index s",
    ),
    "smoothness_verdict r": (
        lambda x, c: smoothness_verdict(0.5, x, records_from_core(c, 0.5, 0.0)),
        "Sobolev index r",
    ),
    "sobolev_norm_monomial r": (
        lambda x, c: sobolev_norm_monomial(CUBE, (0, 0, 0), x), "Sobolev index r"
    ),
    "product_norm_boxes r": (lambda x, c: product_norm_boxes(CUBE, CUBE, x), "Sobolev index r"),
    "duhamel_multiplier t": (lambda x, c: duhamel_multiplier(x, 1.0), "t must"),
    "duhamel_multiplier omega": (lambda x, c: duhamel_multiplier(1.0, x), "omega must"),
    "duhamel_multiplier_oracle t": (lambda x, c: duhamel_multiplier_oracle(x, 1.0), "t must"),
    "duhamel_multiplier_oracle omega": (
        lambda x, c: duhamel_multiplier_oracle(1.0, x), "omega must"
    ),
    "Box3 lo": (lambda x, c: Box3((x, 1.0), (0.0, 1.0), (0.0, 1.0)), "box endpoints"),
    "Box3 hi": (lambda x, c: Box3((0.0, 1.0), (0.0, x), (0.0, 1.0)), "box endpoints"),
}
NOT_REAL = {"str": "0.5", "None": None, "list": [0.5], "complex": 0.5 + 0j}


def test_a_real_number_is_what_float_takes_and_orders_against_a_float():
    # nan and inf are real numbers: each caller bounds its own parameter
    for x in (0, -3, 0.5, math.nan, math.inf, True, np.float64(0.5), np.int64(2), np.array(0.5)):
        assert is_real(x), x
    # float() would truncate a numpy complex to its real part with a warning,
    # and takes a one-element array on numpy before 2.4 with another
    junk = ("0.5", None, [0.5], 0.5 + 0j, np.complex128(0.5), np.array(0.5 + 0j), 10**400)
    for x in junk + (np.array([0.5]), np.array([[8]]), [[1], [1, 2]]):
        assert not is_real(x), shown(x)


@pytest.fixture(scope="module")
def small_cores():
    return sweep_core(EPS, RHO, [1, 2, 3], grid=(8, 4, 4))


@pytest.mark.parametrize("kind", NOT_REAL)
@pytest.mark.parametrize("parameter", REAL_PARAMETERS)
def test_real_parameters_reject_what_is_not_a_real_number(small_cores, parameter, kind):
    # each raised a bare TypeError; a numeric string is no number either,
    # and its message shows it quoted
    entry, message = REAL_PARAMETERS[parameter]
    with pytest.raises(InvalidParameterError, match=f"^{message}") as exc:
        entry(NOT_REAL[kind], small_cores)
    assert shown(NOT_REAL[kind]) in str(exc.value)


def test_whole_float_grid_is_stored_as_ints():
    for grid in ((8.0, np.int64(4), 4), np.array([8, 4, 4]), [8, 4, 4]):
        p = make_params(EPS, RHO, 1, grid=grid)
        assert p.grid == (8, 4, 4)
        assert all(type(n) is int for n in p.grid)
        assert p == make_params(EPS, RHO, 1, grid=(8, 4, 4))


def at_lam(mode="surface", lam=LAM):
    return KnappParams(lam=lam, eps=EPS, mode=mode)


def test_box_w_geometry():
    # W is the same box in both conventions
    for mode in ("surface", "slab"):
        w = at_lam(mode).w_box
        assert w.ax1 == (LAM - 1e-6 * LAM, LAM + 1e-6 * LAM)
        assert w.ax2 == (1e-9 * RT, 1e-6 * RT)
        assert w.ax3 == w.ax2
        assert w.measure == pytest.approx(2e-6 * LAM * (0.999e-6 * RT) ** 2, rel=1e-12)


def test_box_w_prime_surface_and_slab():
    surf = at_lam().wprime_box
    assert surf.surface_axis == 2
    assert surf.ax3 == (0.0, 0.0)
    # 2D measure: axial times transverse
    assert surf.measure == pytest.approx(2e-6 * LAM * 2e-6 * RT, rel=1e-12)

    slab = at_lam("slab").wprime_box
    assert slab.surface_axis is None
    assert slab.ax3 == (-0.5e-6 * RT, 0.5e-6 * RT)
    for b in (surf, slab):
        assert b.ax1 == (LAM - 1e-6 * LAM, LAM + 1e-6 * LAM)
        assert b.ax2 == (-1e-6 * RT, 1e-6 * RT)
    with pytest.raises(InvalidParameterError):
        at_lam(lam=0.5)


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_boxes_are_built_once_per_configuration(mode):
    # each box read twice is one object, equal to a box built afresh;
    # the cached boxes change neither equality, hash nor repr
    p = make_params(EPS, RHO, 3, mode=mode)
    before = (hash(p), repr(p))
    other = make_params(EPS, RHO, 3, mode=mode)
    fresh = {
        "thickness": other.thickness,
        "w_box": other.w_box,
        "w2_box": box_scale(other.w_box, 2.0),
        "wprime_box": other.wprime_box,
        "neg_wprime_box": box_scale(other.wprime_box, -1.0),
    }
    for name, want in fresh.items():
        assert getattr(p, name) is getattr(p, name)
        assert getattr(p, name) == want
    assert p.samp_box is p.samp_box
    assert p.samp_box.ax1 == p.w_box.ax1
    assert (hash(p), repr(p)) == before
    unread = make_params(EPS, RHO, 3, mode=mode)
    assert p == unread and hash(p) == hash(unread)
    assert p == dataclasses.replace(p) and p != dataclasses.replace(p, eps=EPS / 2)


def bits(box):
    return np.array(box.axes).tobytes(), box.surface_axis


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_sampling_box_follows_the_widths_of_w(monkeypatch, mode):
    # the sampling window is W with its axis-3 floor doubled, whatever
    # widths W is built with
    monkeypatch.setattr(construction, "AXIAL_HALF_WIDTH", 5e-3)
    monkeypatch.setattr(construction, "TRANSVERSE_LO", 3e-8)
    monkeypatch.setattr(construction, "TRANSVERSE_HI", 1.0)
    p = make_params(0.1, 1.2e-2, 1, mode=mode)
    w = p.w_box
    assert w.ax2 == (3e-8 * math.sqrt(p.lam), 1.0 * math.sqrt(p.lam))
    assert bits(p.samp_box) == bits(Box3(w.ax1, w.ax2, (2.0 * w.ax3[0], w.ax3[1])))


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_sampling_box_has_the_bits_of_the_written_out_window(mode):
    # at the default widths the derived window is the one once written
    # out as multiples of sqrt(lam), bit for bit, in every resonance
    # window of the acceptance eps and rho (k = 1..795)
    for k in range(1, 796):
        p = make_params(EPS, RHO, k, mode=mode)
        rt = math.sqrt(p.lam)
        want = Box3(p.w_box.ax1, (1e-9 * rt, 1e-6 * rt), (2e-9 * rt, 1e-6 * rt))
        assert bits(p.samp_box) == bits(want), k
    with pytest.raises(WindowEmptyError):
        make_params(EPS, RHO, 796, mode=mode)
