import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import knappflow
from knappflow import _kernels, acceptance, amplitudes, construction
from knappflow.amplitudes import (
    TWO_PI_CUBED,
    _axis_breakpoints,
    _term_integrals,
    _trilinear,
    lambda_hat,
    lattice_hats,
    norm_report,
    output_norm_from_samples,
    product_norm_boxes,
    sample_lattice,
    sobolev_norm_monomial,
)
from knappflow.boxes import (
    Box3,
    admissible_eta_region,
    axis_rule,
    box_scale,
    quadrature_grid,
    quadrature_nodes,
)
from knappflow.construction import DEFAULT_GRID, kernels, make_params
from knappflow.errors import InvalidParameterError
from knappflow.sweep import fit_exponent, predicted_exponent, records_from_core, sweep_core
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
    monkeypatch.setattr(construction, "AXIAL_HALF_WIDTH", 5e-3)
    monkeypatch.setattr(construction, "TRANSVERSE_HI", 1.0)


def count_term_sums(monkeypatch) -> list[tuple[int, ...]]:
    """Record, for every ``term_sums`` call from now on, each run's node
    count over all of the call's grids.  A call is one comparison, of a
    level and the next, so a term that settles at level L spans L - 1
    calls."""
    calls: list[tuple[int, ...]] = []
    term_sums = _kernels.term_sums

    def counting(pts, wq, xis, *args, runs):
        calls.append(tuple(len(xis) * n for n in runs))
        return term_sums(pts, wq, xis, *args, runs=runs)

    monkeypatch.setattr(_kernels, "term_sums", counting)
    return calls


def record_grid_rows(monkeypatch) -> list[np.ndarray]:
    """Record the output frequencies of every ``term_sums`` call's grids,
    one entry per comparison."""
    served: list[np.ndarray] = []
    term_sums = _kernels.term_sums

    def recording(pts, wq, xis, *args, runs):
        served.append(np.array(xis))
        return term_sums(pts, wq, xis, *args, runs=runs)

    monkeypatch.setattr(_kernels, "term_sums", recording)
    return served


def log_fast_path(monkeypatch) -> list[bool]:
    """Record, per box of every norm integral from now on (per window of
    a stacked output-norm pass), whether it takes the
    one-power-per-axis-1-node path."""
    taken: list[bool] = []
    rounds_away = amplitudes._transverse_rounds_away

    def logging(*squares):
        decided = rounds_away(*squares)
        taken.extend(np.ravel(decided).tolist())
        return decided

    monkeypatch.setattr(amplitudes, "_transverse_rounds_away", logging)
    return taken


def axis2_edge_points(p):
    """12 output frequencies near the axis-2 edge of the wide-box support.

    At ``x2`` = 178 and 179 the axis-2 terms (codes 0 and 1) need one
    doubling more than the axis-3 terms on their support pair (codes 2
    and 3): they settle at (8,4,4) where the others settle at (4,2,2).
    At 176 all four need (8,4,4), at 181 all settle at (4,2,2).
    """
    c = p.samp_box.center()
    return np.array(
        [(c[0], x2, x3) for x2 in (176.0, 178.0, 179.0, 181.0) for x3 in (40.0, 80.0, 120.0)]
    )


def spread_points(p):
    """36 output frequencies across the transverse extent of the wide-box
    support: admissible regions of very different widths."""
    c = p.samp_box.center()
    return np.array(
        [(c[0], x2, x3) for x2 in np.linspace(0.5, 185.0, 12) for x3 in (c[2], 60.0, 120.0)]
    )


def fixed_grid_sums(p, xi, kern, counts):
    """One term's (tot, env) on a single fixed grid, without refinement."""
    region = one_region(xi, kern.support_a, kern.support_b)
    grid = quadrature_grid(region, counts)
    [sums] = _kernels.term_sums(
        grid.points, grid.weights, xi[None, :], p.t, [[kern.code]], runs=[len(grid.points)]
    )
    return tuple(part[0, 0] for part in sums)


def fixed_grid_total(p, xi, counts):
    """``lambda_hat(p, xi).total`` assembled from one fixed grid per term."""
    xi = np.asarray(xi, dtype=float)
    tot = sum(fixed_grid_sums(p, xi, kern, counts)[0] for kern in kernels(p))
    phases = np.exp(-1j * p.t * np.linalg.norm(xi) * SIGNS_ARRAY[:, 0])
    return complex((phases * tot).sum() / 4j)


# The 8 sign triples in ``SIGNS_ARRAY`` order: lexicographic, + before -.
ORACLE_SIGNS = tuple(itertools.product((1, -1), repeat=3))
# Each code's weight numerator from (d, eta) = (xi - eta, eta), written
# out as the kernel terms are defined; the denominator is |xi| |d|^2 |eta|^2.
ORACLE_NUMERATORS = {
    0: lambda d, e: d[0] * d[0] * e[0] * e[0] * e[1],
    1: lambda d, e: -(d[0] * d[1] * e[0] * e[0] * e[0]),
    2: lambda d, e: d[0] * d[0] * e[0] * e[0] * e[2],
    3: lambda d, e: -(d[0] * d[2] * e[0] * e[0] * e[0]),
}


def mp_term_sums(pts, wq, xi, t, codes, res_thr):
    """One grid's ``term_sums`` at 30 digits in mpmath, sharing no code with it.

    From the exact float inputs, each node's weight is written out per
    code, omega is taken per sign triple, and the multiplier is
    ``t exp(i x/2) sinc(x/2)`` with ``x = t omega`` (no branch at small
    ``x``).  A node counts as resonant where its float omega, formed as
    ``term_sums`` forms it, is within the cut, so a node on the cut falls
    on the same side.  Returns ``(C, 8)`` arrays of the total, resonant
    and envelope sums, rounded to floats once at the end.
    """
    mpmath = pytest.importorskip("mpmath")
    xi = np.asarray(xi, dtype=float)
    tot = [[0] * 8 for _ in codes]
    res = [[0] * 8 for _ in codes]
    env = [[0] * 8 for _ in codes]
    with mpmath.workdps(30):
        mt = mpmath.mpf(t)
        x = [mpmath.mpf(v) for v in xi]
        nx = mpmath.sqrt(sum(v * v for v in x))
        nx_float = np.sqrt(xi @ xi)
        for node, q in zip(np.asarray(pts, dtype=float), wq):
            e = [mpmath.mpf(v) for v in node]
            d = [a - b for a, b in zip(x, e)]
            nd = mpmath.sqrt(sum(v * v for v in d))
            ne = mpmath.sqrt(sum(v * v for v in e))
            d_float = xi - node
            nd_float, ne_float = np.sqrt((d_float * d_float).sum()), np.sqrt((node * node).sum())
            w = [ORACLE_NUMERATORS[int(c)](d, e) / (nx * nd**2 * ne**2) * q for c in codes]
            for j, (s1, s2, s3) in enumerate(ORACLE_SIGNS):
                om = s1 * nx - s2 * nd - s3 * ne
                m = mt * mpmath.expj(mt * om / 2) * mpmath.sinc(mt * om / 2)
                resonant = abs(s1 * nx_float - s2 * nd_float - s3 * ne_float) <= res_thr
                bound = 0 if resonant else min(mt, 2 / abs(om))
                for c, wc in enumerate(w):
                    tot[c][j] += m * wc
                    res[c][j] += m * wc if resonant else 0
                    env[c][j] += bound * abs(wc)
        return (
            np.array([[complex(v) for v in row] for row in tot]),
            np.array([[complex(v) for v in row] for row in res]),
            np.array([[float(v) for v in row] for row in env]),
        )


# Agreement of term_sums with the oracle, relative to the largest total
# (or envelope) of the term: about 45 roundings of 2**-53, where each
# node's value takes about 20 and the sums run over at most 120 nodes.
# The float path measures at most 5.1e-16 on these grids.
ORACLE_RTOL = 1e-14


def assert_near_oracle(got, want, code):
    """``term_sums``' (tot, env) of one term against ``mp_term_sums``'.

    The oracle splits the nodes at its own cut, ``lam ** 0.75`` as the
    callers pass it.  Its resonant sums must be its totals on the term's
    two ``resonant_triples`` and 0 on the other six: the split by node
    and the split by sign triple agree on the grid.
    """
    tot, res, env = want
    scale = np.abs(tot).max()
    assert np.abs(got[0] - tot).max() <= ORACLE_RTOL * scale
    assert np.abs(got[1] - env).max() <= ORACLE_RTOL * env.max()
    rows = _kernels.resonant_triples(code)
    assert np.array_equal(res[rows], tot[rows])
    assert np.all(res[~rows] == 0.0)


def resonant_set(kern):
    """The triples on which ``kern`` resonates, from ``resonant_triples``."""
    return {s for s, on in zip(SIGN_TRIPLES, _kernels.resonant_triples(kern.code)) if on}


def test_resonance_classification_by_slot_order():
    by_label = {kern.label: kern for kern in kernels(small_params())}
    # planar datum on the eta slot: |xi - eta| ~ 2 lam, |eta| ~ lam
    assert resonant_set(by_label["axis2.t2"]) == {
        SignTriple.from_string("++-"),
        SignTriple.from_string("--+"),
    }
    # slots swapped: |xi - eta| ~ lam, |eta| ~ 2 lam
    assert resonant_set(by_label["axis2.t1"]) == {
        SignTriple.from_string("+-+"),
        SignTriple.from_string("-+-"),
    }


def test_resonance_gap_sizes():
    p = small_params()
    xi = p.samp_box.center()
    kern = kernels(p)[0]
    region = one_region(xi, kern.support_a, kern.support_b)
    oms = np.abs(omega_all(xi, region.center()))
    for om, resonant in zip(oms, _kernels.resonant_triples(kern.code)):
        if resonant:
            assert om < 1e-2 * p.lam
        else:
            assert om > 0.5 * p.lam


def node_omegas(pts, xis):
    """``|omega|`` of every sign triple at every node of one ``term_sums``
    call's grids, shape ``(8, grids, nodes)``."""
    nodes = pts.reshape(len(xis), -1, 3)
    nx = np.linalg.norm(xis, axis=-1)[:, None]
    nd = np.linalg.norm(xis[:, None, :] - nodes, axis=-1)
    ne = np.linalg.norm(nodes, axis=-1)
    s1, s2, s3 = SIGNS_ARRAY.T[..., None, None]
    return np.abs(s1 * nx - s2 * nd - s3 * ne)


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_resonant_triples_separate_at_every_node(monkeypatch, mode):
    # every grid that term_sums receives in the k = 1..10 sweep and on
    # the wide-box lattice, spread and edge points: at each node, each
    # term's two resonant triples have |omega| below lam^(3/4) and its
    # other six above, so the split by triple is the split by node
    calls = []
    term_sums = _kernels.term_sums

    def recording(pts, wq, xis, t, codes, runs):
        calls.append((np.array(pts), np.array(xis), np.broadcast_to(t, len(xis)), codes))
        return term_sums(pts, wq, xis, t, codes, runs=runs)

    monkeypatch.setattr(_kernels, "term_sums", recording)
    args = (acceptance.ACCEPT_EPS, acceptance.ACCEPT_RHO)
    windows = [make_params(*args, k, mode=mode) for k in acceptance.ACCEPT_KS]
    sweep_core(*args, acceptance.ACCEPT_KS, mode=mode)
    wide_boxes(monkeypatch)
    wide = make_params(WIDE_EPS, WIDE_RHO, 1, mode=mode)
    lattice_hats(
        wide,
        np.concatenate(
            [sample_lattice(wide.samp_box)[1], spread_points(wide), axis2_edge_points(wide)]
        ),
    )
    lam_at = {p.t: p.lam for p in [*windows, wide]}
    assert len(lam_at) == 11
    seen = set()
    for pts, xis, t, codes in calls:
        om = node_omegas(pts, xis)
        cut = np.array([lam_at[v] for v in t])[:, None] ** 0.75
        # per term: (8, grids, 1), each grid's triples broadcast over its nodes
        for mask in _kernels.resonant_triples(codes).transpose(1, 2, 0)[..., None]:
            assert np.all(np.where(mask, om < cut, om > cut))
        seen.update(np.ravel(codes).tolist())
    assert seen == {0, 1, 2, 3}


def test_envelope_takes_t_where_a_nonresonant_omega_is_zero():
    # a slot-1 term integrated over a slot-0 term's grid: on +-+, which is
    # not one of its resonant triples, omega cancels, exactly at some
    # nodes, so the envelope takes min(t, 2/0) = t there, with no warning
    p = small_params()
    xi = p.samp_box.center()
    by_code = {kern.code: kern for kern in kernels(p)}
    grid = quadrature_grid(one_region(xi, by_code[0].support_a, by_code[0].support_b), SMALL_GRID)
    row = SIGN_TRIPLES.index(SignTriple.from_string("+-+"))
    assert not _kernels.resonant_triples(1)[row]
    # that triple's omega (|xi| + |xi - eta|) - |eta|, formed as term_sums forms it
    d = xi - grid.points
    om = (np.sqrt(xi @ xi) + _kernels._norm3(d.T)) - _kernels._norm3(grid.points.T)
    assert np.any(om == 0.0) and np.abs(om).max() < 1e-9 * p.lam
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [(_, env)] = _kernels.term_sums(
            grid.points, grid.weights, xi[None, :], p.t, [[1]], runs=[len(grid.points)]
        )
    want = p.t * np.abs(_kernels.term_weight(1, xi, grid.points) * grid.weights).sum()
    assert env[0, 0, row] == pytest.approx(want, rel=1e-14, abs=0.0)


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
            [sums] = _kernels.term_sums(
                grid.points, grid.weights, xi[None, :], t, [[kern.code]], runs=[len(grid.points)]
            )
            return sums

        assert all(np.all(part == 0.0) for part in sums(0.0))
        tot, env = sums(p.t)
        assert np.any(tot != 0.0) and np.any(env != 0.0)


def test_lambda_hat_validation():
    p = small_params()
    with pytest.raises(InvalidParameterError):
        lambda_hat(p, (1.0, 2.0))
    with pytest.raises(InvalidParameterError):
        lambda_hat(p, (0.0, 0.0, 0.0))


@pytest.mark.parametrize("xi", [(1e160, 0.0, 0.0), (1e300, 1e300, 1e300), (0.0, 0.0, -1e155)])
def test_lambda_hat_rejects_a_frequency_whose_square_overflows(xi):
    # |xi|^2 was inf: every sum read nan, with no error
    p = small_params()
    with pytest.raises(InvalidParameterError, match="must not overflow"):
        lambda_hat(p, xi)
    with pytest.raises(InvalidParameterError, match="must not overflow"):
        lattice_hats(p, [p.samp_box.center(), xi])


@pytest.mark.parametrize("xi", [(1e-170, 0.0, 0.0), (0.0, 1e-200, 0.0), (1e-161, 0.0, 0.0)])
def test_lambda_hat_is_an_exact_zero_where_the_square_underflows(xi):
    # |xi|^2 is 0 here, and was read as xi = 0: "xi must be nonzero"
    p = small_params()
    for bd in (lambda_hat(p, xi), lattice_hats(p, [p.samp_box.center(), xi])[1]):
        assert bd.total == 0j and bd.nonresonant_envelope == 0.0
        assert bd.resonant_sum == 0j and bd.nonresonant_sum == 0j
        assert all(v == 0j for v in bd.per_sign.values())
        assert bd.eval_point == xi and bd.flags == ()
    with pytest.raises(InvalidParameterError, match="xi must be nonzero"):
        lattice_hats(p, [xi, (0.0, 0.0, 0.0)])


@pytest.mark.parametrize("x", [1e150, 1.3e154])
def test_lambda_hat_is_an_exact_zero_far_outside_the_support(x):
    bd = lambda_hat(small_params(), (x, 0.0, 0.0))
    assert bd.total == 0j and bd.nonresonant_envelope == 0.0
    assert all(v == 0j for v in bd.per_sign.values())


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


def test_sign_subsets_must_be_distinct_sign_triples():
    # an empty subset read as an all-zero breakdown, a repeated triple was
    # counted twice, and a string raised a bare ValueError from tuple.index
    p = small_params()
    xi = p.samp_box.center()
    s = SIGN_TRIPLES[2]
    for signs in ((), (s, s), ("+++",), (s, (1, -1, 1))):
        with pytest.raises(InvalidParameterError, match="distinct sign triples"):
            lattice_hats(p, xi[None, :], signs=signs)
        with pytest.raises(InvalidParameterError, match="distinct sign triples"):
            lambda_hat(p, xi, signs=signs)


def test_grid_doubling_converges():
    # the refined amplitude against one fixed fine grid per term
    for mode in ("slab", "surface"):
        p = small_params(mode=mode)
        xi = p.samp_box.center()
        want = fixed_grid_total(p, xi, FINE_GRID)
        assert abs(lambda_hat(p, xi).total - want) <= 1e-8 * abs(want)


@pytest.mark.parametrize("mode, nodes", [("slab", 36), ("surface", 20)])
def test_default_geometry_node_budget(monkeypatch, mode, nodes):
    # every term settles at the first comparison, (2,1,1) against (4,2,2),
    # on one grid per support pair: 2 grids x (2 + 16) nodes, or
    # 2 x (2 + 8) when one axis is a surface, in one call
    spent = count_term_sums(monkeypatch)
    p = make_params(EPS, RHO, 1, mode=mode)
    assert lambda_hat(p, p.samp_box.center()).flags == ()
    assert spent == [(4, nodes - 4)]


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_wide_boxes_refine_to_fixed_grid_reference(monkeypatch, mode):
    wide_boxes(monkeypatch)
    p = make_params(WIDE_EPS, WIDE_RHO, 1, mode=mode)
    xi = np.asarray(p.samp_box.center())
    spent = count_term_sums(monkeypatch)
    for kern in kernels(p):
        spent.clear()
        tot, env, flags = _term_integrals([(p, xi[None, :], (kern,))])
        tot, env = tot[0, 0], env[0, 0]
        assert flags == [[]]
        assert len(spent) > 1  # more than one comparison of successive grids
        want_tot, want_env = fixed_grid_sums(p, xi, kern, FINE_GRID)
        scale = np.abs(want_tot).max()
        assert np.abs(tot - want_tot).max() <= 1e-9 * scale
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


@pytest.mark.parametrize("grid", [(2, 1, 1), (1, 1, 1)])
@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_ceiling_at_the_first_level_flags_every_term(monkeypatch, mode, grid):
    # the first level is the ceiling, and a level compared with itself
    # proves nothing: every term at every lattice point is flagged, and
    # keeps that one level's sums
    monkeypatch.setattr(amplitudes, "REFINE_CAP", 0)
    p = make_params(EPS, RHO, 1, mode=mode, grid=grid)
    xis = sample_lattice(p.samp_box)[1]
    kerns = kernels(p)
    tot, env, flags = _term_integrals([(p, xis, kerns)])
    assert flags == [[f"nonconverged_quadrature:{k.label}" for k in kerns]] * len(xis)
    for i, kern in enumerate(kerns):
        for j, xi in enumerate(xis):
            want_tot, want_env = fixed_grid_sums(p, xi, kern, grid)
            assert tot[i, j].tobytes() == want_tot.tobytes()
            assert env[i, j].tobytes() == want_env.tobytes()


@pytest.mark.parametrize("mode, nodes", [("slab", 972), ("surface", 540)])
def test_window_first_comparison_is_one_term_sums_call(monkeypatch, mode, nodes):
    # 2 levels, (2,1,1) and (4,2,2), integrated in one call over 2 support
    # pairs x 27 lattice points of every window: 54 x 2 nodes, then
    # 54 x 16 (54 x 8 in surface mode).  A 3-window sweep is one call,
    # not one per level or per window
    spent = count_term_sums(monkeypatch)
    (core,) = sweep_core(EPS, RHO, [1], mode=mode)
    assert len(core.breakdowns) == 27
    assert spent == [(108, nodes - 108)]
    spent.clear()
    cores = sweep_core(EPS, RHO, [2, 5, 9], mode=mode)
    assert [len(core.breakdowns) for core in cores] == [27] * 3
    assert spent == [(3 * 108, 3 * (nodes - 108))]


# The edges of what sweep and eval accept: eps at its largest with the
# highest window it opens at rho's floor (k = 15,913 is the last), an eps
# so small that only k = 1 opens, the largest rho any window admits
# (k = 1 at eps 0.1 closes at rho = 0.1 / 2 pi), and the default sweep's
# 10 windows.  rho near 1 opens no window at any eps <= 0.1.
@pytest.mark.parametrize(
    "eps, rho, ks",
    [
        (0.1, 1.0001e-6, [15911, 15912, 15913]),
        (1e-5, 1.0001e-6, [1]),
        (0.1, 0.0159, [1]),
        (EPS, RHO, list(range(1, 11))),
    ],
)
@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_reachable_inputs_settle_at_the_first_comparison(monkeypatch, mode, eps, rho, ks):
    # every term of every grid settles at (2,1,1) against (4,2,2), so a
    # sweep, or eval at any point of W, makes exactly one term_sums call
    spent = count_term_sums(monkeypatch)
    cores = sweep_core(eps, rho, ks, mode=mode)
    assert [len(core.breakdowns) for core in cores] == [27] * len(ks)
    assert len(spent) == 1
    p = make_params(eps, rho, ks[-1], mode=mode)
    lo, hi = np.array([p.w_box.ax1, p.w_box.ax2, p.w_box.ax3]).T
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    xis = np.vstack([lo + (hi - lo) * np.random.default_rng(5).random((40, 3)), corners])
    spent.clear()
    breakdowns = lattice_hats(p, xis)
    assert sum(bd.total != 0 for bd in breakdowns) > 40
    assert all(bd.flags == () for bd in breakdowns)
    assert len(spent) == 1


@pytest.mark.parametrize("seed", range(4))
def test_column_norms_equal_numpys_summed_squares(seed):
    # term_sums takes |xi|, |xi - eta| and |eta| as (c0^2 + c1^2) + c2^2
    # over coordinate columns; numpy's length-3 sum(axis=-1) adds in that
    # order, so the bits are the same.  Coordinates of mixed scales,
    # signs and zeros, in the shapes term_sums uses
    rng = np.random.default_rng(seed)
    for shape in ((6, 50, 3), (5, 1, 3), (2000, 3)):
        d = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
        d[rng.random(shape) < 0.05] = 0.0
        want = np.sqrt((d * d).sum(axis=-1))
        got = _kernels._norm3(np.moveaxis(d, -1, 0))
        assert got.tobytes() == want.tobytes()
        cols = np.ascontiguousarray(np.moveaxis(d, -1, 0))
        assert _kernels._norm3(cols).tobytes() == want.tobytes()


@pytest.mark.parametrize("counts", [(6, 5, 4), (3, 1, 1)])
@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_per_grid_time_equals_one_call_per_grid(monkeypatch, mode, counts):
    # both support pairs' grids at 2 points of each of 3 windows, each
    # grid with its window's t, the windows taking turns; with 7-node
    # blocks, two 3-node grids of different windows share a block
    windows = [make_params(EPS, RHO, k, mode=mode) for k in (1, 2, 3)]
    assert len({p.t for p in windows}) == 3
    lo, hi, xis, codes, ts = [], [], [], [], []
    for pair, j in itertools.product(((0, 2), (1, 3)), (4, 22)):
        for p in windows:
            xi = sample_lattice(p.samp_box)[1][j]
            a, b = (kernels(p)[i] for i in pair)
            regions = admissible_eta_region(xi[None, :], a.support_a, a.support_b)
            assert regions.found.all()
            lo.append(regions.lo[0])
            hi.append(regions.hi[0])
            xis.append(xi)
            codes.append([a.code, b.code])
            ts.append(p.t)
    nodes, weights = quadrature_nodes(np.array(lo), np.array(hi), counts, regions.surface_axis)
    xis = np.array(xis)
    monkeypatch.setattr(_kernels, "TERM_SUMS_BLOCK", 7)
    per = nodes.shape[1]
    [together] = _kernels.term_sums(
        nodes.reshape(-1, 3), weights.reshape(-1), xis, np.array(ts), codes, runs=[per]
    )
    assert together[0].shape == (12, 2, 8)
    for j in range(len(xis)):
        [alone] = _kernels.term_sums(
            nodes[j], weights[j], xis[[j]], ts[j], codes[j:j + 1], runs=[per]
        )
        for got, want in zip(together, alone):
            assert got[j].tobytes() == want[0].tobytes()


@pytest.mark.parametrize(
    "runs",
    [(2, 16), (2, 8), (1, 8), (1, 1), (16, 128), (37, 300), (5, 3, 40)],
    ids=lambda runs: "+".join(map(str, runs)),
)
@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_each_run_has_the_bits_of_a_call_over_its_nodes(monkeypatch, mode, runs):
    # seeded nodes in the admissible regions of both support pairs at 9
    # lattice points, a surface mode's axis 3 on its point, each grid
    # with its own t: every run's sums are those of a one-run call over
    # that run's nodes alone, with whole grids in a block and, at 40-node
    # blocks, with grids of more nodes than a block, whose blocks are
    # slices of one run, each counted from the run's start
    rng = np.random.default_rng(sum(runs) + (mode == "surface"))
    p = make_params(EPS, RHO, 1, mode=mode)
    xis = sample_lattice(p.samp_box)[1][::3]
    lo, hi, codes = [], [], []
    for pair in ((0, 2), (1, 3)):
        a, b = (kernels(p)[i] for i in pair)
        rows = admissible_eta_region(xis, a.support_a, a.support_b)
        assert rows.found.all()
        lo.append(rows.lo)
        hi.append(rows.hi)
        codes += [[a.code, b.code]] * len(xis)
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    per = sum(runs)
    nodes = lo[:, None, :] + (hi - lo)[:, None, :] * rng.random((len(lo), per, 3))
    weights = rng.uniform(0.5, 2.0, (len(lo), per)) * 1e-20
    grid_xis = np.concatenate([xis, xis])
    ts = p.t * rng.uniform(0.5, 2.0, len(lo))
    args = nodes.reshape(-1, 3), weights.reshape(-1), grid_xis, ts, codes
    for block in (_kernels.TERM_SUMS_BLOCK, 40):
        monkeypatch.setattr(_kernels, "TERM_SUMS_BLOCK", block)
        together = _kernels.term_sums(*args, runs=runs)
        assert len(together) == len(runs)
        first = 0
        for run, n in zip(together, runs):
            cut = slice(first, first + n)
            first += n
            [alone] = _kernels.term_sums(
                nodes[:, cut].reshape(-1, 3), weights[:, cut].reshape(-1), grid_xis, ts, codes,
                runs=[n],
            )
            for got, want in zip(run, alone):
                assert got.shape == (len(lo), 2, 8)
                assert got.tobytes() == want.tobytes(), block
        for wrong in ((per, 1), (per - 1,)):
            with pytest.raises(ValueError, match="must split"):
                _kernels.term_sums(*args, runs=wrong)


@pytest.mark.parametrize("counts", [(2, 1, 1), (4, 2, 2), (32, 16, 16)])
@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_term_sums_are_exactly_dilation_covariant(mode, k, counts):
    # dilating the nodes and output frequencies by mu = 2^j, the weights
    # by mu^3 (slab) or mu^2 (surface) and dividing t by mu multiplies
    # every total and envelope by mu^2 (slab) or mu (surface), bit for
    # bit: the kernel weight has degree 0, m(t/mu, mu omega) is
    # m(t, omega) / mu, and a power of two scales every float exactly.
    # The lattice's two extreme corners and its centre
    p = make_params(EPS, RHO, k, mode=mode)
    xis = sample_lattice(p.samp_box)[1][::13]
    dim = 3 if mode == "slab" else 2
    for pair in ((0, 2), (1, 3)):
        a, b = (kernels(p)[i] for i in pair)
        rows = admissible_eta_region(xis, a.support_a, a.support_b)
        assert rows.found.all()
        nodes, weights = quadrature_nodes(rows.lo, rows.hi, counts, rows.surface_axis)
        nodes, weights = nodes.reshape(-1, 3), weights.reshape(-1)
        codes = [[a.code, b.code]] * len(xis)
        runs = [len(nodes) // len(xis)]
        [(tot, env)] = _kernels.term_sums(nodes, weights, xis, p.t, codes, runs=runs)
        for j in (-40, -3, 1, 7, 60):
            mu = 2.0**j
            [got] = _kernels.term_sums(
                mu * nodes, mu**dim * weights, mu * xis, p.t / mu, codes, runs=runs
            )
            scale = mu ** (dim - 1)
            assert got[0].tobytes() == (scale * tot).tobytes(), j
            assert got[1].tobytes() == (scale * env).tobytes(), j


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_norms_have_their_dilation_degrees(mode):
    # Under box_scale by mu each norm is mu^degree times the undilated
    # one: |xi^m|^2 has degree 2|m|, a volume measure 3 and a surface
    # measure 2, a box convolution the measure of its second box, and the
    # output amplitudes the degree of term_sums (2 slab, 1 surface).  Only
    # <xi>^(2 sigma) is inhomogeneous: dilated, it is mu^(2 sigma) times
    # the undilated value and a factor within 1 -+ |sigma| / |xi|^2, and a
    # norm, a square root, moves half as much.  Every box here lies at
    # |xi| >= lam (1 - 1e-6), so |sigma| / lam^2 bounds the deviation
    # with a factor of 2 left for rounding; a degree off by 1/2 moves the
    # ratio by mu^(1/2) >= 4.
    r, s = -0.25, 0.5
    p = make_params(EPS, RHO, 3, mode=mode)
    slab = mode == "slab"
    w2, nwp = p.w2_box, p.neg_wprime_box
    axes, pts = sample_lattice(p.samp_box)
    amps = np.array([abs(b.total) for b in lattice_hats(p, pts)])
    norms = [
        # (norm of the data dilated by mu, its degree, its Sobolev index)
        (lambda mu: sobolev_norm_monomial(box_scale(w2, mu), (0, 1, 0), r), r + 2.5, r),
        (lambda mu: sobolev_norm_monomial(box_scale(w2, mu), (0, 0, 1), r), r + 2.5, r),
        (lambda mu: sobolev_norm_monomial(box_scale(nwp, mu), (1, 0, 0), r), r + 2.0 + slab / 2, r),
        (lambda mu: product_norm_boxes(box_scale(w2, mu), box_scale(nwp, mu), r), r + 3.5 + slab, r),
        (
            lambda mu: output_norm_from_samples(s, [mu * a for a in axes], mu ** (1 + slab) * amps),
            s + 2.5 + slab,
            s,
        ),
    ]
    for i, (norm, degree, sigma) in enumerate(norms):
        base = norm(1.0)
        for mu in (2.0**4, 2.0**10):
            deviation = norm(mu) / (mu**degree * base) - 1.0
            assert abs(deviation) <= abs(sigma) / p.lam**2, (i, mu, deviation)


@pytest.mark.parametrize("cap", [0, 1])
def test_pass_equals_one_window_at_a_time_where_windows_settle_apart(monkeypatch, cap):
    # three windows of one pass on the wide boxes and the (4,2,2) grid of
    # test_lowered_cap_flags_only_unsettled_points: that test's spread
    # points, and the lattices of the default-width sampling window at the
    # acceptance eps and rho (k=1) and at eps=0.02, rho=1e-3, k=2 (about
    # the same lam, twice the time).  The lattices are taken before the
    # boxes widen: the wide sampling window reaches regions that need
    # another level, and no window would settle apart.  At a (4,2,2)
    # ceiling the first is flagged on all 4 terms at some points, the
    # second nowhere, the third on 2 terms everywhere; at an (8,4,4)
    # ceiling all settle, the second a level before the others
    configs = ((WIDE_EPS, WIDE_RHO, 1), (EPS, RHO, 1), (0.02, 1e-3, 2))
    lattices = [sample_lattice(make_params(*c).samp_box)[1] for c in configs[1:]]
    wide_boxes(monkeypatch)
    monkeypatch.setattr(amplitudes, "REFINE_CAP", cap)
    params = [make_params(*c, grid=(4, 2, 2)) for c in configs]
    windows = [(params[0], spread_points(params[0]))] + list(zip(params[1:], lattices))
    served = record_grid_rows(monkeypatch)
    together = [amplitudes._breakdowns(c) for c in amplitudes._lattice_pass(windows)]
    # the last level of each window: one more than the comparisons that
    # served some point of it
    levels = [
        1 + sum(any((rows == xi).all(axis=1).any() for xi in xis) for rows in served)
        for _, xis in windows
    ]
    served.clear()
    alone = [lattice_hats(p, xis) for p, xis in windows]
    assert repr(together) == repr(alone)
    flagged = [{len(b.flags) for b in hats} for hats in together]
    if cap == 0:
        assert levels == [2, 2, 2]
        assert flagged == [{0, 4}, {0}, {2}]
    else:
        assert levels == [3, 2, 3]
        assert flagged == [{0}, {0}, {0}]


def test_pass_with_a_window_outside_the_support():
    # a window whose every point has empty admissible regions, between
    # live ones: exact zero breakdowns, and the live windows' bits
    first, last = (make_params(EPS, RHO, k, grid=SMALL_GRID) for k in (1, 2))
    windows = [
        (first, sample_lattice(first.samp_box)[1]),
        (first, np.array([(7.0 * first.lam, 0.0, 0.0), (-first.lam, 0.0, 0.0)])),
        (last, sample_lattice(last.samp_box)[1]),
    ]
    together = [amplitudes._breakdowns(c) for c in amplitudes._lattice_pass(windows)]
    assert [len(hats) for hats in together] == [27, 2, 27]
    assert all(b.total == 0.0 and b.nonresonant_envelope == 0.0 for b in together[1])
    assert repr(together) == repr([lattice_hats(p, xis) for p, xis in windows])


@pytest.mark.parametrize("order", [("slab", "surface"), ("surface", "slab")])
def test_pass_rejects_windows_of_two_conventions(order):
    # the pass integrated every grid with the first window's surface
    # axis: slab-then-surface read exact zeros for the surface windows,
    # surface-then-slab gave the slab windows 1.04e-16 for 2.13e-19
    ps = [make_params(EPS, RHO, 1, mode=mode, grid=SMALL_GRID) for mode in order]
    windows = [(p, sample_lattice(p.samp_box)[1]) for p in ps]
    with pytest.raises(InvalidParameterError, match="differ in surface axis: (None, 2|2, None)$"):
        amplitudes._lattice_pass(windows)


def test_pass_rejects_windows_of_two_grids():
    # the pass refined every grid up to the first window's ceiling
    ps = [make_params(EPS, RHO, k, grid=grid) for k, grid in ((1, DEFAULT_GRID), (2, SMALL_GRID))]
    windows = [(p, sample_lattice(p.samp_box)[1]) for p in ps]
    with pytest.raises(InvalidParameterError, match=r"grid: \(32, 16, 16\), \(8, 4, 4\)$"):
        amplitudes._lattice_pass(windows)


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_lattice_hats_equal_lambda_hat_per_point(mode):
    p = make_params(EPS, RHO, 1, mode=mode)
    _, pts = sample_lattice(p.samp_box)
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
    served = record_grid_rows(monkeypatch)
    batched = lattice_hats(p, xis)
    points = [len(rows) for rows in served]
    # some (support pair, point) grids leave after the second level while
    # the rest refine on; the first call covers both pairs at every point
    assert min(points) < max(points) == 2 * len(xis)
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


# A ceiling of (8,4,4) lets the axis-2 terms of axis2_edge_points settle a
# level after their pair's axis-3 terms; one of (4,2,2) flags them there.
@pytest.mark.parametrize("cap", [1, 0])
@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_shared_grids_equal_one_term_runs_where_pair_terms_settle_apart(
    monkeypatch, mode, cap
):
    wide_boxes(monkeypatch)
    monkeypatch.setattr(amplitudes, "REFINE_CAP", cap)
    p = make_params(WIDE_EPS, WIDE_RHO, 1, mode=mode, grid=(4, 2, 2))
    xis = axis2_edge_points(p)
    kerns = kernels(p)
    served = record_grid_rows(monkeypatch)
    shared = _term_integrals([(p, xis, kerns)])
    assert len(served[0]) == 2 * len(xis)
    levels, alone_flags = [], []
    for i, kern in enumerate(kerns):
        served.clear()
        tot, env, flags = _term_integrals([(p, xis, (kern,))])
        for got, want in zip(shared[:2], (tot, env)):
            assert got[i].tobytes() == want[0].tobytes()
        alone_flags.append([bool(f) for f in flags])
        # the level a point's term settled at: one more than the
        # comparisons that served it
        levels.append([1 + sum(any((rows == xi).all(axis=1)) for rows in served) for xi in xis])
    assert shared[2] == [
        [f"nonconverged_quadrature:{k.label}" for k, bad in zip(kerns, row) if bad]
        for row in zip(*alone_flags)
    ]
    by_label = {k.label: i for i, k in enumerate(kerns)}
    axis2, axis3 = by_label["axis2.t1"], by_label["axis3.t1"]
    assert (kerns[axis2].support_a, kerns[axis2].support_b) == (
        kerns[axis3].support_a, kerns[axis3].support_b
    )
    if cap == 1:
        # level 2: settled at (4,2,2); level 3: at (8,4,4)
        assert not any(any(row) for row in alone_flags)
        assert levels[axis2] == [3] * 9 + [2] * 3
        assert levels[axis3] == [3] * 3 + [2] * 9
    else:
        assert alone_flags[axis2] != alone_flags[axis3]


def test_lattice_hats_validation():
    p = small_params()
    with pytest.raises(InvalidParameterError):
        lattice_hats(p, p.samp_box.center())
    with pytest.raises(InvalidParameterError):
        lattice_hats(p, [p.samp_box.center(), (0.0, 0.0, 0.0)])
    with pytest.raises(InvalidParameterError):
        lattice_hats(p, [p.samp_box.center(), (np.nan, 0.0, 0.0)])


def test_one_grid_in_one_block_or_many_agrees_with_oracle(monkeypatch):
    p = small_params()
    xi = np.asarray(p.samp_box.center())
    kern = kernels(p)[0]
    region = one_region(xi, kern.support_a, kern.support_b)
    grid = quadrature_grid(region, (6, 5, 4))
    want = [
        part[0]
        for part in mp_term_sums(grid.points, grid.weights, xi, p.t, [kern.code], p.lam ** 0.75)
    ]
    assert np.any(want[1] != 0.0) and np.any(want[2] != 0.0)  # both kinds of node
    # one block, then 18 blocks of 7 nodes with a partial last one
    for block in (_kernels.TERM_SUMS_BLOCK, 7):
        monkeypatch.setattr(_kernels, "TERM_SUMS_BLOCK", block)
        [sums] = _kernels.term_sums(
            grid.points, grid.weights, xi[None, :], p.t, [[kern.code]], runs=[len(grid.points)]
        )
        assert_near_oracle([part[0, 0] for part in sums], want, kern.code)


@pytest.mark.parametrize("counts", [(6, 5, 4), (3, 1, 1), (2, 1, 1)])
def test_several_points_per_call_agree_with_scalar_reference(monkeypatch, counts):
    # with 7-node blocks each 120-node grid spans 18 blocks (the last one
    # partial); 3-node grids go 2 to a block, and 2-node grids 3 to a
    # block, the last block holding the one point left over
    p = small_params()
    _, pts = sample_lattice(p.samp_box)
    xis = pts[[0, 5, 13, 26]]
    kern = kernels(p)[1]
    regions = admissible_eta_region(xis, kern.support_a, kern.support_b)
    nodes, weights = quadrature_nodes(regions.lo, regions.hi, counts, regions.surface_axis)
    monkeypatch.setattr(_kernels, "TERM_SUMS_BLOCK", 7)
    [(tot, env)] = _kernels.term_sums(
        nodes.reshape(-1, 3), weights.reshape(-1), xis, p.t, [[kern.code]] * len(xis),
        runs=[nodes.shape[1]],
    )
    assert tot.shape == env.shape == (4, 1, 8)
    for j, xi in enumerate(xis):
        want = mp_term_sums(nodes[j], weights[j], xi, p.t, [kern.code], p.lam ** 0.75)
        assert_near_oracle(
            [part[j, 0] for part in (tot, env)], [part[0] for part in want], kern.code
        )


@pytest.mark.parametrize("counts", [(6, 5, 4), (3, 1, 1)])
@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_mixed_terms_per_call_agree_with_scalar_reference(monkeypatch, mode, counts):
    # the grids of both support pairs at two points, each integrated for
    # its pair's two terms, interleaved so that the codes change from grid
    # to grid; 7-node blocks hold parts of one 120-node grid, or two
    # 3-node grids whose codes differ
    p = make_params(EPS, RHO, 1, mode=mode, grid=SMALL_GRID)
    _, pts = sample_lattice(p.samp_box)
    xis = pts[[0, 13]]
    kerns = kernels(p)
    pair_terms = [(kerns[0], kerns[2]), (kerns[1], kerns[3])]
    regions = [admissible_eta_region(xis, a.support_a, a.support_b) for a, _ in pair_terms]
    assert all(r.found.all() for r in regions)
    order = [(j, g) for j in range(len(xis)) for g in range(len(pair_terms))]
    lo = np.array([regions[g].lo[j] for j, g in order])
    hi = np.array([regions[g].hi[j] for j, g in order])
    nodes, weights = quadrature_nodes(lo, hi, counts, regions[0].surface_axis)
    grid_xis = xis[[j for j, _ in order]]
    codes = np.array([[k.code for k in pair_terms[g]] for _, g in order])
    monkeypatch.setattr(_kernels, "TERM_SUMS_BLOCK", 7)
    [(tot, env)] = _kernels.term_sums(
        nodes.reshape(-1, 3), weights.reshape(-1), grid_xis, p.t, codes, runs=[nodes.shape[1]]
    )
    assert tot.shape == env.shape == (4, 2, 8)
    for grid, row in enumerate(codes):
        want = mp_term_sums(nodes[grid], weights[grid], grid_xis[grid], p.t, row, p.lam ** 0.75)
        for term, code in enumerate(row):
            assert_near_oracle(
                [part[grid, term] for part in (tot, env)], [part[term] for part in want], code
            )


def test_several_points_per_call_memory_is_bounded():
    # 4 points x 65,536 nodes, 2 terms per grid: one (4, 2, 8, n) complex
    # broadcast would take 67 MB per temporary; 4,096-node blocks, one
    # term at a time, keep every temporary at 0.5 MB
    p = small_params()
    _, pts = sample_lattice(p.samp_box)
    xis = pts[[0, 5, 13, 26]]
    kern, twin = kernels(p)[0], kernels(p)[2]
    assert (twin.support_a, twin.support_b) == (kern.support_a, kern.support_b)
    regions = admissible_eta_region(xis, kern.support_a, kern.support_b)
    nodes, weights = quadrature_nodes(regions.lo, regions.hi, FINE_GRID, regions.surface_axis)
    args = (p.t, [[kern.code, twin.code]] * len(xis))
    tracemalloc.start()
    try:
        [(tot, _)] = _kernels.term_sums(
            nodes.reshape(-1, 3), weights.reshape(-1), xis, *args, runs=[nodes.shape[1]]
        )
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


@pytest.mark.parametrize(
    "monomial",
    [
        *(
            pytest.param((power, 0, 0), id=name)
            for name, power in [
                ("0.5", 0.5), ("-0.5", -0.5), ("nan", math.nan), ("inf", math.inf),
                ("10**400", 10**400), ("10**5000", 10**5000),
                ("'1'", "1"), ("'abc'", "abc"), ("None", None),
            ]
        ),
        pytest.param((0, 0, 0, 5), id="4 powers"),
        pytest.param((1, 0), id="2 powers"),
    ],
)
def test_monomial_powers_must_be_whole_numbers(monomial):
    # 0.5 and -0.5 used to truncate to the indicator's norm, nan to raise
    # ValueError, and an int a float cannot hold OverflowError; a 4th
    # power was dropped (zip stops at the 3 axes), and 2 powers raised
    # a bare ValueError from unpacking; "1" and None raised a TypeError
    # and "abc" a bare ValueError
    cube = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        sobolev_norm_monomial(cube, monomial, 0.0)
    with pytest.raises(InvalidParameterError):
        amplitudes._stacked_monomial_data([cube], ((0, 0, 0), monomial[::-1]), DEFAULT_GRID)


def test_sobolev_norm_surface_is_formal_area_integral():
    sheet = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 0.0), surface_axis=2)
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
    sheet = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.5, 0.5), surface_axis=2)
    cube = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    want = (2.0 * math.pi) ** -4.5 * (2.0 / 3.0)  # two tent axes, one indicator axis
    got = product_norm_boxes(sheet, cube, 0.0, nodes_per_axis=(8, 8, 8))
    assert got == pytest.approx(want, rel=1e-10)


def test_axis_breakpoints_of_a_point_interval_are_the_shifted_ends():
    # a surface axis is a point interval; in either operand order its cuts
    # are the other interval's ends shifted by the point, summed in the
    # same order as a cut list written out for the surface operand
    rng = np.random.default_rng(7)
    for _ in range(100):
        pt = float(rng.uniform(-3.0, 3.0))
        lo, hi = (float(v) for v in np.sort(rng.uniform(-3.0, 3.0, 2)))
        assert _axis_breakpoints((pt, pt), (lo, hi)).tolist() == [pt + lo, pt + hi]
        assert _axis_breakpoints((lo, hi), (pt, pt)).tolist() == [lo + pt, hi + pt]
    # two points leave no cell, so two sheets on one axis have no product norm
    assert _axis_breakpoints((0.5, 0.5), (-0.0, -0.0)).tolist() == [0.5]
    sheet = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.5, 0.5), surface_axis=2)
    assert product_norm_boxes(sheet, sheet, 0.0, SMALL_GRID) == 0.0


def box_conv_factor(vals, a, b, axis):
    """The convolution factor of two ``Box3``s along ``axis``, written out
    here, apart from the package's interval code: on a volume axis the
    overlap length of ``[x - a_hi, x - a_lo]`` and ``[b_lo, b_hi]``; on an
    axis where one box is a point, 1 where ``x`` less that point lies in
    the other box's interval."""
    (a_lo, a_hi), (b_lo, b_hi) = a.axes[axis], b.axes[axis]
    if axis in (a.surface_axis, b.surface_axis):
        pinned, (lo, hi) = (a_lo, (b_lo, b_hi)) if axis == a.surface_axis else (b_lo, (a_lo, a_hi))
        return ((lo <= vals - pinned) & (vals - pinned <= hi)).astype(float)
    return np.maximum(np.minimum(vals - a_lo, b_hi) - np.maximum(vals - a_hi, b_lo), 0.0)


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
            box_conv_factor(pts[:, 0], a, b, 0)
            * box_conv_factor(pts[:, 1], a, b, 1)
            * box_conv_factor(pts[:, 2], a, b, 2)
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
        assert product_norm_boxes(a, b, r, p.grid) == product_norm_reference(a, b, r, p.grid)
        got = product_norm_boxes(a, b, r, SMALL_GRID)
        assert got == product_norm_reference(a, b, r, SMALL_GRID)


@pytest.mark.parametrize(
    "mode, offset",
    [(m, predicted_exponent(m, "norm_product", 0.0, 0.0)) for m in ("slab", "surface")],
)
def test_product_norm_slope_is_derived_from_the_box_sides(mode, offset):
    # sweep.LEDGER's norm_product rows, derived in
    # acceptance.criterion_norm_scaling from a lam^2 overlap volume on a
    # lam^2 support; a surface loses the lam^1/2 side
    ps = [make_params(EPS, RHO, k, mode=mode) for k in range(1, 11)]
    for r in R_GRID:
        fit = fit_exponent([(p.lam, norm_report(p, r).norm_product) for p in ps])
        assert fit.slope == pytest.approx(r + offset, abs=1e-6)


def random_box(rng, surface_axis=None):
    ends = np.sort(rng.uniform(-3.0, 3.0, (3, 2)), axis=1)
    if surface_axis is not None:
        ends[surface_axis, 1] = ends[surface_axis, 0]
    return Box3(*map(tuple, ends), surface_axis=surface_axis)


# Beside SMALL_GRID, grids with a 1-node axis and uneven node counts.
PRODUCT_GRIDS = (SMALL_GRID, (4, 1, 3), (1, 1, 1), (3, 5, 2))


@pytest.mark.parametrize("seed", range(12))
def test_product_norm_at_steep_weight_equals_per_cell_reference(monkeypatch, seed):
    # At a large r the few nodes of largest |xi| decide the sum, so a
    # change in the last bit of their integrand shows in the result
    taken = log_fast_path(monkeypatch)
    rng = np.random.default_rng(seed)
    a = random_box(rng, surface_axis=2 if seed % 3 == 0 else None)
    b = random_box(rng, surface_axis=2 if seed % 3 == 1 else None)
    r = float(rng.uniform(8.0, 30.0))
    for grid in PRODUCT_GRIDS:
        assert product_norm_boxes(a, b, r, grid) == product_norm_reference(a, b, r, grid)
    # unit-scale boxes: the transverse squares count, so the 3-D bracket ran
    assert taken == [False] * len(PRODUCT_GRIDS)


def test_product_norm_of_separated_boxes_equals_per_cell_reference():
    # two volume boxes apart: the convolution still lives on the Minkowski sum
    a = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    b = Box3(ax1=(5.0, 6.0), ax2=(5.5, 6.0), ax3=(5.0, 7.0))
    for grid in PRODUCT_GRIDS:
        got = product_norm_boxes(a, b, 0.3, grid)
        assert got > 0.0
        assert got == product_norm_reference(a, b, 0.3, grid)
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


def shared_monomial_norms(b, monomials, r, nodes_per_axis):
    """The monomial norms of one box from one shared-cell preparation."""
    (data,) = amplitudes._stacked_monomial_data([b], monomials, nodes_per_axis)
    return [amplitudes._separable_norm(d, r) for d in data]


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
    assert shared_monomial_norms(b, MONOMIALS, r, SMALL_GRID) == want
    # a monomial with several powers squares their product instead of
    # multiplying the powers in one by one: equal to rounding
    got = sobolev_norm_monomial(b, (2, 1, 1), r, SMALL_GRID)
    assert got == pytest.approx(monomial_norm_reference(b, (2, 1, 1), r, SMALL_GRID))
    # unit-scale boxes: the transverse squares count, so the 3-D bracket
    # ran: once per single-monomial call and once for the shared cells
    assert taken == [False] * (len(MONOMIALS) + 2)


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_shared_cell_preparation_equals_one_monomial_calls(monkeypatch, mode):
    # one preparation per box builds the nodes and the transverse check
    # once for every monomial, and serves every r: each norm is its own
    # call's, bit for bit
    taken = log_fast_path(monkeypatch)
    for k in (1, 10):
        p = make_params(EPS, RHO, k, mode=mode)
        for box in (p.w2_box, p.neg_wprime_box):
            (data,) = amplitudes._stacked_monomial_data([box], MONOMIALS, p.grid)
            for r in R_GRID:
                want = [sobolev_norm_monomial(box, m, r, p.grid) for m in MONOMIALS]
                assert [amplitudes._separable_norm(d, r) for d in data] == want
    # one decision per preparation: the shared one and each single call
    assert taken == [True] * (2 * 2 * (1 + len(R_GRID) * len(MONOMIALS)))


def shared_pass_monomial_norms(b, monomials, r, nodes_per_axis):
    """The monomial norms of one box as one broadcast pass over all of
    them: one Gauss cell per axis, the weight tensor ``(w1*w2)*w3`` and
    each monomial's ``((p1*p2)*p3)**2`` as outer products, ``<xi>^{2r}``
    once for every monomial (from axis 1 alone where the transverse
    squares round away), and each monomial's dot one row of a stacked
    matmul."""
    if b.has_null_axis:
        return [0.0] * len(monomials)
    (x1, w1), (x2, w2), (x3, w3) = (
        axis_rule(lo, hi, n, i == b.surface_axis)
        for i, ((lo, hi), n) in enumerate(zip(b.axes, nodes_per_axis))
    )
    weights = outer_tensor(np.multiply, w1, w2, w3)
    f_sq = np.array([outer_tensor(np.multiply, x1**m1, x2**m2, x3**m3) for m1, m2, m3 in monomials])
    f_sq = f_sq**2
    sq1, sq2, sq3 = x1 * x1, x2 * x2, x3 * x3
    if (sq1 + sq2.max() == sq1).all() and (sq1 + sq3.max() == sq1).all():
        bracket = ((1.0 + sq1) ** r)[:, None, None]
    else:
        bracket = (1.0 + outer_tensor(np.add, sq1, sq2, sq3)) ** r
    f_sq = f_sq * bracket
    dots = weights.reshape(-1, 1, 1, weights.size) @ f_sq.reshape(-1, 1, weights.size, 1)
    return [math.sqrt((0.0 + dot) / TWO_PI_CUBED) for dot in dots.ravel().tolist()]


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_separable_monomial_norms_equal_a_shared_broadcast_pass(monkeypatch, mode):
    # every k, both data boxes, the scans' r and one steep r
    taken = log_fast_path(monkeypatch)
    for k in range(1, 11):
        p = make_params(EPS, RHO, k, mode=mode)
        for box in (p.w2_box, p.neg_wprime_box):
            (data,) = amplitudes._stacked_monomial_data([box], MONOMIALS, p.grid)
            for r in (*R_GRID, 7.5):
                want = shared_pass_monomial_norms(box, MONOMIALS, r, p.grid)
                assert [amplitudes._separable_norm(d, r) for d in data] == want
    assert taken == [True] * (10 * 2)


@pytest.mark.parametrize("seed", range(12))
def test_separable_monomial_norms_at_steep_weight_equal_a_shared_broadcast_pass(
    monkeypatch, seed
):
    taken = log_fast_path(monkeypatch)
    rng = np.random.default_rng(300 + seed)
    b = random_box(rng, surface_axis=(None, 2, 0, None)[seed % 4])
    r = float(rng.uniform(8.0, 30.0))
    monomials = (*MONOMIALS, (2, 1, 1))
    for grid in PRODUCT_GRIDS:
        want = shared_pass_monomial_norms(b, monomials, r, grid)
        assert shared_monomial_norms(b, monomials, r, grid) == want
    # unit-scale boxes: the transverse squares count, so the 3-D bracket ran
    assert taken == [False] * len(PRODUCT_GRIDS)


def test_monomial_norm_of_zero_length_axis_is_zero():
    flat = Box3(ax1=(0.0, 1.0), ax2=(0.5, 0.5), ax3=(-2.0, 1.0))
    for m in MONOMIALS:
        assert sobolev_norm_monomial(flat, m, 12.0) == 0.0
        assert monomial_norm_reference(flat, m, 12.0) == 0.0
    with pytest.raises(InvalidParameterError):
        sobolev_norm_monomial(flat, (1, 0, 0), 0.0, (8, 0, 4))


def outer_tensor(op, a, b, c):
    """``(a op b) op c`` of three vectors on their tensor grid, as an outer product."""
    return op.outer(op.outer(a, b), c)


def outer_cell_integral(axis_cells, r, integrand):
    """``∫ <xi>^{2r} |F|^2`` with the 3-D bracket, cell by cell from outer
    products: ``integrand(c1, c2, c3)`` gives the cell's ``(n1, n2, n3)``
    values of ``|F|^2``."""
    (x1, w1), (x2, w2), (x3, w3) = axis_cells
    sq1, sq2, sq3 = x1 * x1, x2 * x2, x3 * x3
    integral = 0.0
    for c1, c2, c3 in itertools.product(range(len(x1)), range(len(x2)), range(len(x3))):
        bracket_pow = (1.0 + outer_tensor(np.add, sq1[c1], sq2[c2], sq3[c3])) ** r
        weights = outer_tensor(np.multiply, w1[c1], w2[c2], w3[c3]).ravel()
        vals = (bracket_pow * integrand(c1, c2, c3)).ravel()
        # a cell of more than 8,192 nodes is one dot per 8,192-node slice
        for i in range(0, len(vals), 8192):
            integral += float(weights[i : i + 8192] @ vals[i : i + 8192])
    return integral


def outer_monomial_norm(b, monomial, r, nodes_per_axis):
    """``sobolev_norm_monomial`` on a volume box through ``outer_cell_integral``."""
    axis_cells = [
        axis_rule([lo], [hi], n, False) for (lo, hi), n in zip(b.axes, nodes_per_axis)
    ]
    f_sq = outer_tensor(np.multiply, *(x[0] ** m for (x, _), m in zip(axis_cells, monomial))) ** 2
    return math.sqrt(outer_cell_integral(axis_cells, r, lambda *cell: f_sq) / TWO_PI_CUBED)


def outer_product_norm(a, b, r, nodes_per_axis):
    """``product_norm_boxes`` of two volume boxes through ``outer_cell_integral``."""
    axis_cells, factors = [], []
    for i, n in enumerate(nodes_per_axis):
        cuts = _axis_breakpoints(a.axes[i], b.axes[i])
        x, w = axis_rule(cuts[:-1], cuts[1:], n, False)
        axis_cells.append((x, w))
        factors.append(box_conv_factor(x, a, b, i))

    def conv_sq(*cell):
        conv = outer_tensor(np.multiply, *(f[c] for f, c in zip(factors, cell)))
        return (conv / TWO_PI_CUBED) ** 2

    return math.sqrt(outer_cell_integral(axis_cells, r, conv_sq) / TWO_PI_CUBED)


def test_three_d_bracket_keeps_the_outer_product_bits(monkeypatch):
    # criterion 3's unit-cube r = 1 monomial norm and tent product norm,
    # and a seeded pair of boxes at a steep weight, on the default grid:
    # all take the 3-D bracket, each cell built from tiled axis-3 vectors
    taken = log_fast_path(monkeypatch)
    cube = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    rng = np.random.default_rng(2024)
    a, b = random_box(rng), random_box(rng)
    monomials = [(cube, (1, 0, 0), 1.0), (a, (0, 1, 0), 17.5)]
    products = [(cube, cube, 0.0), (cube, cube, 1.0), (a, b, 17.5)]
    for args in monomials:
        assert sobolev_norm_monomial(*args) == outer_monomial_norm(*args, DEFAULT_GRID)
    for args in products:
        assert product_norm_boxes(*args) == outer_product_norm(*args, DEFAULT_GRID)
    assert taken == [False] * (len(monomials) + len(products))


def test_long_cells_keep_the_sliced_outer_product_bits(monkeypatch):
    # criterion 3's doubled grid: a monomial norm's one cell and the tent's
    # 8 cells hold 65,536 nodes each, so each is dotted in 8 slices
    taken = log_fast_path(monkeypatch)
    cube = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    grid = tuple(2 * n for n in DEFAULT_GRID)
    assert math.prod(grid) == 8 * 8192
    assert sobolev_norm_monomial(cube, (1, 0, 0), 1.0, grid) == outer_monomial_norm(
        cube, (1, 0, 0), 1.0, grid
    )
    assert product_norm_boxes(cube, cube, 1.0, grid) == outer_product_norm(cube, cube, 1.0, grid)
    assert taken == [False, False]


# Criterion 3's detail line and the data norms of both modes at a grid
# whose cells all exceed OpenBLAS's 10,000-element threading bound.
THREAD_PROBE = """
import dataclasses
from knappflow.acceptance import criterion_quadrature_closed_forms
from knappflow.amplitudes import norm_report
from knappflow.construction import make_params
print(criterion_quadrature_closed_forms().detail)
for mode in ("slab", "surface"):
    p = make_params(0.01, 2e-6, 1, mode=mode, grid=(64, 32, 32))
    print(mode, [x.hex() for x in dataclasses.astuple(norm_report(p, -0.25))])
"""


def test_norms_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a longer dot across its threads, which moves its last
    # bits; the norms dot each cell in slices below that bound
    src = str(Path(knappflow.__file__).resolve().parents[1])
    outs = [
        subprocess.run(
            [sys.executable, "-c", THREAD_PROBE],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outs[0] == outs[1]
    assert "5.029e-16 at doubled grids" in outs[0]


def test_product_norm_working_set_is_one_cell():
    # 27 cells of (32,16,16) nodes; one float64 array over all of them is
    # the working set of a whole-window broadcast
    p = make_params(EPS, RHO, 5)
    assert p.grid == (32, 16, 16)
    whole_window = 27 * 8192 * 8
    product_norm_boxes(p.w2_box, p.neg_wprime_box, -0.25, p.grid)
    tracemalloc.start()
    try:
        product_norm_boxes(p.w2_box, p.neg_wprime_box, -0.25, p.grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole_window


@pytest.mark.parametrize("seed", range(6))
def test_prepared_norms_at_several_r_equal_one_call_norms(monkeypatch, seed):
    # a product norm and a box's monomial norms prepared once and
    # evaluated at several r, in a shuffled order with a repeat, equal
    # one-call norms bit for bit; unit-scale boxes, so every evaluation
    # raises the 3-D bracket
    taken = log_fast_path(monkeypatch)
    rng = np.random.default_rng(100 + seed)
    a = random_box(rng, surface_axis=2 if seed % 3 == 0 else None)
    b = random_box(rng, surface_axis=2 if seed % 3 == 1 else None)
    (product,) = amplitudes._stacked_product_data([(a, b)], SMALL_GRID)
    (monomials,) = amplitudes._stacked_monomial_data([a], MONOMIALS, SMALL_GRID)
    assert taken == [False, False]
    rs = [float(r) for r in rng.uniform(-2.0, 30.0, 4)]
    rs = [rs[i] for i in rng.permutation(4)] + rs[:2]
    for r in rs:
        assert amplitudes._separable_norm(product, r) == product_norm_boxes(a, b, r, SMALL_GRID)
        want = [sobolev_norm_monomial(a, m, r, SMALL_GRID) for m in MONOMIALS]
        assert [amplitudes._separable_norm(d, r) for d in monomials] == want
    assert set(taken) == {False}


def assert_same_prepared_data(got, want):
    """Two prepared data norms (``_SeparableData`` or None) are equal bit for bit."""
    assert (got is None) == (want is None)
    if want is None:
        return
    (g_sq, g_w, g_fast), (w_sq, w_w, w_fast) = got.cells, want.cells
    assert (g_fast, got.scale) == (w_fast, want.scale)
    for g, w in zip((*g_sq, *g_w, *got.factors), (*w_sq, *w_w, *want.factors)):
        assert (g.shape, g.tobytes()) == (w.shape, w.tobytes())


# The norm grids of the sweeps, and grids with a 1-node axis.
STACK_GRIDS = (DEFAULT_GRID, SMALL_GRID, (4, 1, 3), (1, 1, 1))


@pytest.mark.parametrize("grid", STACK_GRIDS)
@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_stacked_norm_data_equals_one_window_preparation(mode, grid):
    # the data norms of k = 1..10 prepared in one stacked pass: every
    # array of every window equals its own one-window preparation's bits
    ps = [make_params(EPS, RHO, k, mode=mode, grid=grid) for k in range(1, 11)]
    stacked = amplitudes._stacked_norm_data(ps)
    assert len(stacked) == len(ps)
    for p, together in zip(ps, stacked):
        (alone,) = amplitudes._stacked_norm_data([p])
        for got, want in zip(together, alone):
            assert got is not None
            assert_same_prepared_data(got, want)
        assert amplitudes._norms_at(together, -0.25) == norm_report(p, -0.25)


def test_stacked_norm_data_rejects_two_grids():
    # the pass prepared every window on the first window's grid
    ps = [make_params(EPS, RHO, k, grid=grid) for k, grid in ((1, DEFAULT_GRID), (2, SMALL_GRID))]
    with pytest.raises(InvalidParameterError, match="differ in grid"):
        amplitudes._stacked_norm_data(ps)


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_stacked_norm_data_of_every_nonempty_window_is_one_stack(mode):
    # every window k = 1..795 that is nonempty at (EPS, RHO) shares one
    # layout, so one pass prepares them all
    assert 2 * 795 * math.pi * RHO < EPS < 2 * 796 * math.pi * RHO
    ps = [make_params(EPS, RHO, k, mode=mode) for k in range(1, 796)]
    prepared = amplitudes._stacked_norm_data(ps)
    assert len(prepared) == len(ps)
    assert all(d is not None for data in prepared for d in data)


def test_stacked_monomial_data_rejects_two_surface_conventions():
    volume = Box3(ax1=(0.0, 1.0), ax2=(0.5, 1.5), ax3=(-1.0, 0.0))
    sheet = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.5, 0.5), surface_axis=2)
    for boxes_ in ([volume, sheet], [sheet, volume]):
        with pytest.raises(InvalidParameterError, match="differ in surface axis"):
            amplitudes._stacked_monomial_data(boxes_, MONOMIALS, SMALL_GRID)


def test_stacked_product_data_rejects_two_layouts():
    cube = Box3(ax1=(0.0, 1.0), ax2=(0.5, 1.5), ax3=(-1.0, 0.0))
    other = Box3(ax1=(0.0, 2.0), ax2=(0.5, 1.0), ax3=(-1.0, 0.5))
    sheet = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.5, 0.5), surface_axis=2)
    # (cube, cube) has 3 cuts per axis, (cube, other) 4
    for pairs in ([(cube, cube), (cube, other)], [(cube, other), (cube, cube)]):
        with pytest.raises(InvalidParameterError, match="differ in cut counts"):
            amplitudes._stacked_product_data(pairs, SMALL_GRID)
    # (cube, sheet) and (sheet, cube) have equal cut counts
    with pytest.raises(InvalidParameterError, match="differ in cut counts and surface axes"):
        amplitudes._stacked_product_data([(cube, sheet), (sheet, cube)], SMALL_GRID)


def one_layout_stacks(indices, layout) -> list[list[int]]:
    """``indices`` grouped by ``layout``, in order: one layout per stacked call."""
    stacks: dict = {}
    for j in indices:
        stacks.setdefault(layout(j), []).append(j)
    return list(stacks.values())


@pytest.mark.parametrize("seed", range(6))
def test_stacked_preparation_of_unit_scale_boxes_equals_one_box_preparation(monkeypatch, seed):
    # seeded unit-scale boxes of every surface convention, which fail
    # the transverse check, in a shuffled order with two boxes far out
    # along axis 1, which pass it; among the product pairs, equal-length
    # axes (one cut fewer), a pair of sheets (no product) and a null
    # axis (no monomial norm).  A pass holds one layout, so the boxes
    # are stacked per surface axis and the pairs per cut counts and
    # surface axes
    taken = log_fast_path(monkeypatch)
    rng = np.random.default_rng(500 + seed)
    boxes_ = [random_box(rng, surface_axis=(None, 2, 0, None)[j % 4]) for j in range(8)]
    cube = Box3(ax1=(0.0, 1.0), ax2=(0.5, 1.5), ax3=(-1.0, 0.0))
    sheet = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.5, 0.5), surface_axis=2)
    flat = Box3(ax1=(0.0, 1.0), ax2=(0.5, 0.5), ax3=(-2.0, 1.0))
    far = [
        Box3(ax1=(1e10, 1e10 + 2.0), ax2=(0.0, 1.0), ax3=(-1.0, 0.5)),
        Box3(ax1=(1e10, 1e10 + 3.0), ax2=(0.0, 1.0), ax3=(0.5, 0.5), surface_axis=2),
    ]
    boxes_ += [cube, sheet, flat, *far]
    boxes_ = [boxes_[j] for j in rng.permutation(len(boxes_))]
    pairs = list(zip(boxes_, boxes_[1:] + boxes_[:1]))
    pairs += [(cube, far[1]), (far[1], cube), (cube, cube), (boxes_[0], boxes_[0])]
    pairs += [(sheet, sheet), (cube, sheet)]

    def pair_layout(j):
        a, b = pairs[j]
        cuts = tuple(len(_axis_breakpoints(a.axes[i], b.axes[i])) for i in range(3))
        return cuts, a.surface_axis, b.surface_axis

    box_stacks = one_layout_stacks(range(len(boxes_)), lambda j: boxes_[j].surface_axis)
    pair_stacks = one_layout_stacks(range(len(pairs)), pair_layout)
    monomials = (*MONOMIALS, (2, 1, 1))
    for grid in PRODUCT_GRIDS:
        mixed = []  # per stacked call, whether it mixes both transverse paths
        for stack in box_stacks:
            taken.clear()
            stack = [boxes_[j] for j in stack]
            stacked = amplitudes._stacked_monomial_data(stack, monomials, grid)
            mixed.append(set(taken) == {False, True})
            for b, together in zip(stack, stacked):
                (alone,) = amplitudes._stacked_monomial_data([b], monomials, grid)
                assert (together[0] is None) == b.has_null_axis
                for got, want in zip(together, alone):
                    assert_same_prepared_data(got, want)
        prepared = [None] * len(pairs)
        for stack in pair_stacks:
            taken.clear()
            stacked = amplitudes._stacked_product_data([pairs[j] for j in stack], grid)
            mixed.append(set(taken) == {False, True})
            for j, together in zip(stack, stacked):
                prepared[j] = together
        for (a, b), together in zip(pairs, prepared):
            (alone,) = amplitudes._stacked_product_data([(a, b)], grid)
            assert_same_prepared_data(together, alone)
            r = float(rng.uniform(0.5, 3.0))
            assert amplitudes._separable_norm(together, r) == product_norm_boxes(a, b, r, grid)
        assert prepared[-2] is None and prepared[-1] is not None
        # a stack mixes boxes that pass the transverse check and boxes that fail it
        assert any(mixed)


def test_norm_data_a_window_holds_is_small():
    # everything a default-grid window keeps for its records: the output
    # norm's interpolant and weights, the data norms' per-axis cells
    (core,) = sweep_core(EPS, RHO, [5])
    assert core.params.grid == DEFAULT_GRID
    window = sweep_windows([core])
    tracemalloc.start()
    try:
        held = (amplitudes._stacked_norm_data([core.params]), amplitudes._output_data(window))
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(held[1]) == 1
    assert size < 128 * 1024


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
            x, w = (v[0] for v in axis_rule([lo], [hi], counts[i], False))
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
        x, w = (v.ravel() for v in axis_rule(cuts[:-1], cuts[1:], counts[i], False))
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
        nd2, nd3 = shared_monomial_norms(p.w2_box, ((0, 1, 0), (0, 0, 1)), r, p.grid)
        cases = [
            (nd2, separable_monomial_integral(p.w2_box, (0, 1, 0), r, p.grid)),
            (nd3, separable_monomial_integral(p.w2_box, (0, 0, 1), r, p.grid)),
            (
                sobolev_norm_monomial(p.neg_wprime_box, (1, 0, 0), r, p.grid),
                separable_monomial_integral(p.neg_wprime_box, (1, 0, 0), r, p.grid),
            ),
            (
                product_norm_boxes(p.w2_box, p.neg_wprime_box, r, p.grid),
                separable_product_integral(p.w2_box, p.neg_wprime_box, r, p.grid)
                / TWO_PI_CUBED**2,
            ),
        ]
        for norm, want in cases:
            assert want > 0.0
            assert abs(norm**2 * TWO_PI_CUBED - want) <= 1e-14 * want


def separable_output_integral(s, axes, amps):
    """``∫ <xi>^{2s} F^2`` of the trilinear interpolant ``F`` of ``amps``,
    with ``<xi>^2`` taken as ``1 + xi1^2``.  In a cell, ``F`` is a sum of 8
    corner values times products of per-axis hats ``1 - y`` and ``y``, so
    ``F^2`` is 64 such terms, each integrating to a product of entries of
    per-axis 2x2 moment matrices: on axis 1 the hats' products summed
    against the cell's 6 Gauss-Legendre weights times ``(1 + x1^2)^s``,
    on axes 2 and 3 their exact integrals ``h [[1/3, 1/6], [1/6, 1/3]]``."""
    x, w = axis_rule(axes[0][:-1], axes[0][1:], 6, False)
    y = (x - axes[0][:-1, None]) / np.diff(axes[0])[:, None]
    hats = np.stack([1.0 - y, y], axis=1)
    moments = [np.einsum("can,cbn,cn->cab", hats, hats, w * (1.0 + x * x) ** s)]
    for ax in axes[1:]:
        moments.append(np.diff(ax)[:, None, None] * np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]]))
    vals = amps.reshape(tuple(len(ax) for ax in axes))
    n1, n2, n3 = (len(ax) - 1 for ax in axes)
    corners = np.empty((n1, n2, n3, 2, 2, 2))
    for a in itertools.product((0, 1), repeat=3):
        corners[(...,) + a] = vals[a[0] : a[0] + n1, a[1] : a[1] + n2, a[2] : a[2] + n3]
    return float(np.einsum("pqrijk,pqrlmn,pil,qjm,rkn->", corners, corners, *moments))


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_knapp_output_norms_are_sums_of_separable_terms(mode):
    # The output norm of every window of a k = 1..10 sweep, at the scans'
    # s, against its 64 separable terms per lattice cell.
    for core in sweep_core(EPS, RHO, range(1, 11), mode=mode):
        amps = np.array([abs(b.total) for b in core.breakdowns])
        axes = sample_lattice(core.params.samp_box)[0]
        for s in S_GRID:
            norm = output_norm_from_samples(s, axes, amps)
            want = separable_output_integral(s, axes, amps)
            assert want > 0.0
            assert abs(norm**2 * TWO_PI_CUBED - want) <= 1e-14 * want


def test_output_norm_lower_constant_hook():
    p, s = small_params(), 0.5
    axes, _ = sample_lattice(p.samp_box)
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
        x, _ = axis_rule(ax[:-1], ax[1:], 6, False)
        ys.append((x - ax[:-1, None]) / (ax[1:] - ax[:-1])[:, None])
    return ys


def test_trilinear_matches_scipy_and_is_exact_on_multilinear():
    interpolate = pytest.importorskip("scipy.interpolate")
    p = small_params()
    axes, _ = sample_lattice(p.samp_box)
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
        axes, _ = sample_lattice(p.samp_box)
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


def sweep_windows(cores):
    """Each window's ``(lattice_axes, amps)``, as ``sweep_core`` prepares them."""
    return [
        (sample_lattice(core.params.samp_box)[0], np.array([abs(b.total) for b in core.breakdowns]))
        for core in cores
    ]


def unit_scale_windows(rng, counts, size):
    """``size`` seeded unit-scale lattices with ``counts`` points per axis."""
    return [
        ([np.sort(rng.uniform(-5.0, 5.0, n)) for n in counts], rng.random(math.prod(counts)))
        for _ in range(size)
    ]


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_output_norm_pass_equals_one_window_calls(monkeypatch, mode):
    windows = sweep_windows(sweep_core(EPS, RHO, (1, 10), mode=mode))
    taken = log_fast_path(monkeypatch)
    prepared = amplitudes._output_data(windows)
    for s in S_GRID + R_GRID:
        want = [output_norm_from_samples(s, list(axes), amps) for axes, amps in windows]
        assert [amplitudes._output_norm_at(s, data) for data in prepared] == want
    # both windows take the fast path, in the stacked preparation and in
    # their own calls
    assert taken == [True] * (2 + 2 * len(S_GRID + R_GRID))


@pytest.mark.parametrize("seed", range(6))
def test_output_norm_pass_at_steep_weight_equals_one_window_calls(monkeypatch, seed):
    # unit-scale lattices of one shape: the 3-D bracket runs in every
    # window, and at a large s the last bit of each node's bracket shows
    rng = np.random.default_rng(seed)
    windows = unit_scale_windows(rng, rng.integers(2, 6, 3), 3)
    s = float(rng.uniform(30.0, 80.0))
    taken = log_fast_path(monkeypatch)
    want = [output_norm_from_samples(s, axes, amps) for axes, amps in windows]
    got = [amplitudes._output_norm_at(s, data) for data in amplitudes._output_data(windows)]
    assert got == want
    assert want == [output_norm_reference(s, axes, amps) for axes, amps in windows]
    assert taken == [False] * 6


def test_output_norm_pass_decides_the_bracket_per_window(monkeypatch):
    # Knapp windows far apart in lam, with a unit-scale lattice between
    # them: each window's axis-1 squares are checked against its own
    # transverse squares only
    cores = sweep_core(EPS, RHO, (1, 5, 10))
    knapp = sweep_windows(cores)
    unit_axes = [np.linspace(3.8, 6.2, 3), np.linspace(0.0, 1.0, 3), np.linspace(-0.1, 0.05, 3)]
    unit = (unit_axes, np.random.default_rng(3).random(27))
    windows = [knapp[0], knapp[1], unit, knapp[2]]
    taken = log_fast_path(monkeypatch)
    prepared = amplitudes._output_data(windows)
    assert taken == [data.fast for data in prepared] == [True, True, False, True]
    for s in S_GRID:
        got = [amplitudes._output_norm_at(s, data) for data in prepared]
        assert got == [output_norm_from_samples(s, list(axes), amps) for axes, amps in windows]
    # the windows' squares taken as one box, against one global maximum,
    # would send all three Knapp windows to the 3-D bracket: the largest
    # transverse square at k=10 (3.8e-5) is above half an ulp of the
    # smallest axis-1 square at k=1 (1.5e-5)
    squares = []
    for i in range(3):
        ax = np.array([sample_lattice(core.params.samp_box)[0][i] for core in cores])
        x, _ = axis_rule(ax[:, :-1], ax[:, 1:], 6, False)
        squares.append(x * x)
    assert amplitudes._transverse_rounds_away(*squares).tolist() == [True] * 3
    assert not amplitudes._transverse_rounds_away(*(sq.reshape(1, -1, 6) for sq in squares))


def stacked_output_norms(s, prepared):
    """Output norms of prepared windows in one stacked pass.

    This is how a sweep took its records' output norms before each
    window was evaluated on its own: every window's arrays stacked on a
    leading axis, one broadcast bracket for all windows with the 3-D
    bracket written over the windows that need it, one stacked matmul,
    and each window's cells added in ``c1, c2, c3`` order.
    """
    sq1, sq2, sq3 = (np.stack(sq) for sq in zip(*(data.squares for data in prepared)))
    slow = np.logical_not([data.fast for data in prepared])
    weights = np.stack([data.weights for data in prepared])
    bracket = ((1.0 + sq1) ** s)[:, :, None, None, :, None, None]
    if slow.any():
        bracket = np.broadcast_to(bracket, weights.shape).copy()
        sq_sums = amplitudes._outer_cells(np.add, sq1[slow], sq2[slow], sq3[slow])
        bracket[slow] = (1.0 + sq_sums) ** s
    f_sq = np.stack([data.f_sq for data in prepared]) * bracket
    cells, n = math.prod(weights.shape[1:4]), math.prod(weights.shape[4:])
    dots = weights.reshape(-1, cells, 1, n) @ f_sq.reshape(-1, cells, n, 1)
    norms = []
    for row in dots.reshape(-1, cells).tolist():
        integral = 0.0
        for dot in row:
            integral += dot
        norms.append(math.sqrt(integral / TWO_PI_CUBED))
    return norms


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_knapp_output_norms_equal_the_stacked_pass(monkeypatch, mode):
    # every window of a k = 1..10 sweep takes the fast path; at the
    # scans' s and at a steep s, where the largest |xi| decide the sum
    windows = sweep_windows(sweep_core(EPS, RHO, range(1, 11), mode=mode))
    taken = log_fast_path(monkeypatch)
    prepared = amplitudes._output_data(windows)
    assert taken == [True] * 10
    for s in S_GRID + (17.5,):
        got = [amplitudes._output_norm_at(s, data) for data in prepared]
        assert all(math.isfinite(norm) and norm > 0.0 for norm in got)
        assert got == stacked_output_norms(s, prepared)


@pytest.mark.parametrize("seed", range(6))
def test_unit_scale_output_norms_equal_the_stacked_pass(monkeypatch, seed):
    # the 3-D bracket in every window, at s up to 80
    rng = np.random.default_rng(200 + seed)
    windows = unit_scale_windows(rng, rng.integers(2, 6, 3), 4)
    taken = log_fast_path(monkeypatch)
    prepared = amplitudes._output_data(windows)
    assert taken == [False] * 4
    for s in [float(s) for s in rng.uniform(0.0, 80.0, 3)]:
        got = [amplitudes._output_norm_at(s, data) for data in prepared]
        assert got == stacked_output_norms(s, prepared)


@pytest.fixture(scope="module")
def knapp_windows():
    return [
        window
        for mode in ("slab", "surface")
        for window in sweep_windows(sweep_core(EPS, RHO, range(1, 11), mode=mode))
    ]


@pytest.mark.parametrize("seed", range(8))
def test_mixed_output_norms_equal_the_stacked_pass(knapp_windows, seed):
    # shuffled stacks of Knapp windows of both modes and unit-scale
    # lattices of the same 3 x 3 x 3 shape: fast and 3-D brackets side
    # by side, in every order
    rng = np.random.default_rng(300 + seed)
    picked = [knapp_windows[i] for i in rng.choice(len(knapp_windows), 5, replace=False)]
    windows = picked + unit_scale_windows(rng, (3, 3, 3), int(rng.integers(1, 4)))
    windows = [windows[i] for i in rng.permutation(len(windows))]
    prepared = amplitudes._output_data(windows)
    assert {data.fast for data in prepared} == {True, False}
    for s in S_GRID + (float(rng.uniform(2.0, 15.0)),):
        got = [amplitudes._output_norm_at(s, data) for data in prepared]
        assert got == stacked_output_norms(s, prepared)


def test_output_norm_needs_one_amplitude_per_lattice_point():
    axes, _ = sample_lattice(small_params().samp_box)
    with pytest.raises(InvalidParameterError, match="needs 27 amplitudes, got 26"):
        output_norm_from_samples(0.5, axes, np.ones(26))
    good = (axes, np.ones(27))
    for bad in [(axes, np.ones(28)), ([*axes[:2], axes[2][:2]], np.ones(18))]:
        with pytest.raises(InvalidParameterError):
            amplitudes._output_data([good, bad, good])


@pytest.mark.parametrize(
    "axis",
    [
        np.array([1.0, 0.5, 0.0]),  # decreasing: a negative weight
        np.array([0.0, 0.0, 1.0]),  # a repeated point: a cell of width 0
        np.array([0.0, 0.5, math.inf]),
        np.array([0.0, math.nan, 1.0]),
    ],
)
def test_output_norm_rejects_an_axis_that_does_not_increase(axis):
    good = [np.array([0.0, 0.5, 1.0])] * 3
    for axes in ([axis] * 3, [good[0], good[1], axis]):
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            output_norm_from_samples(0.5, axes, np.ones(27))
    with pytest.raises(InvalidParameterError, match="strictly increasing"):
        amplitudes._output_data([(good, np.ones(27)), ([axis] * 3, np.ones(27))])


def test_output_norm_rejects_a_lattice_that_is_not_three_1d_axes():
    axis = np.array([0.0, 0.5, 1.0])
    with pytest.raises(InvalidParameterError, match="at least 2 points"):
        output_norm_from_samples(0.5, [axis, axis, np.array([0.5])], np.ones(9))
    with pytest.raises(InvalidParameterError, match="1-D"):
        output_norm_from_samples(0.5, [axis, axis, axis[:, None]], np.ones(27))
    for count in (2, 4):
        with pytest.raises(InvalidParameterError, match=f"needs 3 axes, got {count}"):
            output_norm_from_samples(0.5, [axis] * count, np.ones(3**count))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_output_norm_rejects_non_finite_amplitudes(bad):
    axes = [np.array([0.0, 0.5, 1.0])] * 3
    amps = np.ones(27)
    amps[13] = bad
    with pytest.raises(InvalidParameterError, match="amplitudes must be finite"):
        output_norm_from_samples(0.5, axes, amps)
    with pytest.raises(InvalidParameterError, match="amplitudes must be finite"):
        amplitudes._output_data([(axes, np.ones(27)), (axes, amps)])


def test_output_norm_rejects_amplitudes_whose_square_overflows():
    # squaring the interpolant overflowed with a RuntimeWarning, and
    # without warnings the norm read inf
    axes = [np.array([0.0, 0.5, 1.0])] * 3
    with pytest.raises(InvalidParameterError, match="must not overflow"):
        output_norm_from_samples(0.5, axes, np.full(27, 1e200))
    with pytest.raises(InvalidParameterError, match="must not overflow"):
        amplitudes._output_data([(axes, np.ones(27)), (axes, np.full(27, -1e200))])
    assert output_norm_from_samples(0.5, axes, np.full(27, 1e150)) == 7.519036692747647e148


def test_norms_that_overflow_are_rejected():
    # a finite squared interpolant times the bracket overflowed with a
    # RuntimeWarning, and without warnings the norm read inf; where the
    # interpolant is 0 the product read nan
    axes = [np.array([0.0, 0.5, 1.0])] * 3
    with pytest.raises(InvalidParameterError, match="index s = 0.5 overflows"):
        output_norm_from_samples(0.5, axes, np.full(27, 1e154))
    far = [np.array([1e10, 2e10, 3e10])] * 3
    corner = np.zeros(27)
    corner[0] = 1.0
    assert output_norm_from_samples(0.5, far, corner) == pytest.approx(1.8048385083e18)
    with pytest.raises(InvalidParameterError, match="index s = 30.0 overflows"):
        output_norm_from_samples(30.0, far, corner)
    box = Box3(ax1=(1e10, 2e10), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    assert product_norm_boxes(box, box, 0.5) == pytest.approx(2.4133167721e16)
    for r in (40.0, 400.0):
        with pytest.raises(InvalidParameterError, match=f"index r = {r} overflows"):
            product_norm_boxes(box, box, r)
        with pytest.raises(InvalidParameterError, match=f"index r = {r} overflows"):
            sobolev_norm_monomial(box, (1, 0, 0), r)


def test_output_norm_rejects_complex_amplitudes():
    # they were cast to float, keeping the real part, with a ComplexWarning
    axes = [np.array([0.0, 0.5, 1.0])] * 3
    for amps in (np.full(27, 1.0 + 1.0j), np.ones(27, dtype=complex), [1j] * 27):
        with pytest.raises(InvalidParameterError, match="amplitudes must be real"):
            output_norm_from_samples(0.5, axes, amps)
        with pytest.raises(InvalidParameterError, match="amplitudes must be real"):
            amplitudes._output_data([(axes, np.ones(27)), (axes, amps)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_public_norms_reject_a_non_finite_sobolev_index(bad):
    p = small_params()
    axes, _ = sample_lattice(p.samp_box)
    calls = {
        "r": [
            lambda: norm_report(p, bad),
            lambda: sobolev_norm_monomial(p.w2_box, (0, 1, 0), bad, SMALL_GRID),
            lambda: product_norm_boxes(p.w2_box, p.neg_wprime_box, bad, SMALL_GRID),
            # a box with an axis of length 0 has norm 0, but not at a bad r
            lambda: sobolev_norm_monomial(Box3((0.0, 1.0), (0.0, 1.0), (1.0, 1.0)), (0, 0, 0), bad),
        ],
        "s": [lambda: output_norm_from_samples(bad, axes, np.ones(27))],
    }
    for name, fns in calls.items():
        for fn in fns:
            with pytest.raises(InvalidParameterError, match=f"Sobolev index {name} must be finite"):
                fn()


def test_sample_lattice_shape():
    p = small_params()
    axes, pts = sample_lattice(p.samp_box)
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
        lambda: shared_monomial_norms(b, MONOMIALS, BOUNDARY_R, SMALL_GRID),
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
    taken = log_fast_path(monkeypatch)
    cores = sweep_core(EPS, RHO, range(1, 11), mode=mode)
    # per window: the output norm (one stacked pass decides each window on
    # its own), the shared nd2/nd3 cells, nd1a2 and the product norm, each
    # decided once, when sweep_core prepares the norms
    assert taken == [True] * (4 * 10)
    for s, r in zip(S_GRID, R_GRID):
        records_from_core(cores, s, r)
    # the records reuse the held decisions
    assert taken == [True] * (4 * 10)


def sweep_norms(cores):
    """Every norm a sweep takes from ``cores``, over the scans' s and r."""
    out = []
    for core in cores:
        amps = np.array([abs(b.total) for b in core.breakdowns])
        for r in R_GRID:
            out.append(norm_report(core.params, r))
        for s in S_GRID + R_GRID:
            out.append(output_norm_from_samples(s, sample_lattice(core.params.samp_box)[0], amps))
    return out


@pytest.mark.parametrize("mode", ["slab", "surface"])
def test_general_path_gives_the_fast_path_bits(monkeypatch, mode):
    cores = sweep_core(EPS, RHO, (1, 5, 10), mode=mode)
    fast = sweep_norms(cores)
    monkeypatch.setattr(amplitudes, "_transverse_rounds_away", lambda *squares: False)
    assert sweep_norms(cores) == fast
