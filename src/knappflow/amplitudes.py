"""Amplitude quadrature, resonance bookkeeping, and Sobolev norms.

The frequency-side output amplitude at time ``t`` and frequency ``xi``
is a sum over the 8 half-wave sign triples of phase-weighted integrals

    (1 / 4i) * exp(-i s1 t |xi|) * ∫ m(t, omega) * weight(xi, eta) d eta

taken over each kernel term's admissible eta-box.  Every integral is
evaluated on tensor Gauss-Legendre grids that start at 2 x 1 x 1 nodes
and double until the per-term totals of successive grids agree; the
configured ``grid`` doubled ``REFINE_CAP`` times is the ceiling, where an
unsettled term is flagged.  The points of one configuration (a window's
3 x 3 x 3 lattice) are integrated together, one row per (kernel term,
point) pair: per refinement level, one node build and one kernel call
cover every row still refining, for all four terms and all 8 sign
triples, over fixed-size blocks of nodes, so memory does not grow with
the grid.  The breakdowns of all points are then assembled as (points,
sign triples) arrays.  Nodes are classified resonant or nonresonant by
the empirical cut |omega| <= lam^(3/4); the resonant and nonresonant
parts of the sum are accumulated separately, together with a rigorous
pointwise envelope min(t, 2/|omega|) * |weight| for the nonresonant
part.

All Sobolev norms use the convention

    ||u||_{H^r} = ( (2 pi)^-3 * ∫ <xi>^{2r} |u_hat(xi)|^2 d xi )^(1/2),

and a product of physical-side data transforms to ``(2 pi)^-3`` times
the convolution of the transforms.  Every norm is one ``_cell_integral``
over per-axis Gauss-Legendre cells.  On the Knapp boxes, which lie at
distance about ``lam`` along axis 1 with transverse sides of order
``lam^1/2``, the transverse squares round away in ``1 + |xi|^2`` at
every node; where a per-axis check shows this, ``<xi>^{2r}`` is taken
once per axis-1 node instead of once per tensor node, with the same
bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .boxes import (
    Box3,
    _node_counts,
    admissible_eta_region,
    gauss_legendre_cells,
    quadrature_nodes,
)
from .boxes import quadrature_grid  # noqa: F401  (perfbench/ hooks this name)
from .construction import DEFAULT_GRID, BilinearKernel, KnappParams, kernels
from .errors import InvalidParameterError
from .symbols import SIGN_TRIPLES, SIGNS_ARRAY, SignTriple, omega_all

# Per-term quadrature refinement: start from BASE_GRID and double nodes
# until the 8-triple totals move by less than this relative amount.  The
# ceiling is the configured grid doubled REFINE_CAP times per axis; a term
# that has not settled there is flagged.
BASE_GRID = (2, 1, 1)
REFINE_RELTOL = 1e-6
REFINE_CAP = 3

TWO_PI_CUBED = (2.0 * math.pi) ** 3


@dataclass(frozen=True)
class AmplitudeBreakdown:
    """Amplitude at one (t, xi) split by sign triple and resonance."""

    total: complex
    per_sign: dict[SignTriple, complex]
    resonant_sum: complex
    nonresonant_sum: complex
    nonresonant_envelope: float
    eval_point: tuple[float, float, float]
    t: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class NormReport:
    """Data norms at one configuration (fixed Sobolev index r)."""

    norm_d2a1: float
    norm_d1a2: float
    norm_product: float
    norm_total: float


def _term_integrals(
    p: KnappParams, xis: np.ndarray, kerns: tuple[BilinearKernel, ...], t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[list[str]]]:
    """Refined per-triple integrals (total, resonant, envelope) of every term.

    Returns ``(K, P, 8)`` arrays for the K terms of ``kerns`` and the P
    rows of ``xis``, and each point's flags in kernel order.  Each (term,
    point) pair is one row; all rows still refining share one grid shape,
    so each refinement level is one node build and one ``term_sums``
    call for every term at once.  A row leaves once its totals settle,
    and is flagged if that does not happen by the ceiling.  The terms'
    regions share one surface axis (or none), as those of ``kernels(p)``
    do: every term pairs the same two supports.
    """
    n_pts = len(xis)
    regions = [admissible_eta_region(xis, k.support_a, k.support_b) for k in kerns]
    lo = np.concatenate([r.lo for r in regions])
    hi = np.concatenate([r.hi for r in regions])
    row_xis = np.concatenate([xis] * len(kerns))
    row_codes = np.repeat([k.code for k in kerns], n_pts)
    out = tuple(np.zeros((len(kerns) * n_pts, 8), dtype) for dtype in (complex, complex, float))
    unsettled = np.zeros(len(row_xis), dtype=bool)
    live = np.flatnonzero(np.concatenate([r.live for r in regions]))
    ceiling = tuple(n << REFINE_CAP for n in p.grid)
    counts = tuple(min(b, c) for b, c in zip(BASE_GRID, ceiling))
    prev_tot = None
    while live.size:
        pts, wq = quadrature_nodes(lo[live], hi[live], counts, regions[0].surface_axis)
        sums = _kernels.term_sums(
            pts.reshape(-1, 3), wq.reshape(-1), row_xis[live], t, row_codes[live],
            SIGNS_ARRAY, p.resonance_threshold,
        )
        tot = sums[0]
        if prev_tot is None:
            settled = np.zeros(live.size, dtype=bool)
        else:
            scale = np.abs(tot).max(axis=1)
            delta = np.abs(tot - prev_tot).max(axis=1)
            settled = (scale == 0.0) | (delta <= REFINE_RELTOL * scale)
        if counts == ceiling:
            unsettled[live[~settled]] = True
            settled[:] = True
        for acc, part in zip(out, sums):
            acc[live[settled]] = part[settled]
        live, prev_tot = live[~settled], tot[~settled]
        counts = tuple(min(2 * n, c) for n, c in zip(counts, ceiling))
    unsettled = unsettled.reshape(len(kerns), n_pts)
    flags = [
        [f"nonconverged_quadrature:{k.label}" for k, bad in zip(kerns, unsettled[:, j]) if bad]
        for j in range(n_pts)
    ]
    return (*(acc.reshape(len(kerns), n_pts, 8) for acc in out), flags)


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise complex ``a * b`` from real products, each rounded once.

    numpy's array loop may fuse multiply-adds in its vector body, so its
    complex products depend on an element's position; this is the
    unfused product of numpy's complex scalars, whatever the array shape.
    """
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def lattice_hats(
    p: KnappParams, xis, signs: tuple[SignTriple, ...] | None = None
) -> tuple[AmplitudeBreakdown, ...]:
    """``lambda_hat`` at every row of ``xis``, in one pass for all terms.

    Every kernel term is integrated for all points together, with one
    ``term_sums`` call per refinement level; the breakdowns are then
    assembled for all points and sign triples at once.  Every breakdown
    equals the one-point call's bit for bit.
    """
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2 or xis.shape[1] != 3:
        raise InvalidParameterError("xis must be an array of 3-vectors")
    if not np.isfinite(xis).all():
        raise InvalidParameterError("xi must be finite")
    norms = np.sqrt(xis[:, None, :] @ xis[:, :, None]).reshape(-1)
    if (norms == 0.0).any():
        raise InvalidParameterError("xi must be nonzero")
    t = p.t
    active = SIGN_TRIPLES if signs is None else tuple(signs)
    active_idx = [SIGN_TRIPLES.index(s) for s in active]

    tot_acc = np.zeros((len(xis), 8), dtype=complex)
    res_acc = np.zeros((len(xis), 8), dtype=complex)
    env_acc = np.zeros((len(xis), 8), dtype=float)
    tot, res, env, flags = _term_integrals(p, xis, kernels(p), t)
    for k in range(len(tot)):
        tot_acc += tot[k]
        res_acc += res[k]
        env_acc += env[k]
    # (points, active signs) arrays; the sums over signs run in sign order.
    s1 = np.array([SIGN_TRIPLES[j].s1 for j in active_idx])
    pre_phase = 1.0 / 4.0j * np.exp(-1j * s1 * t * norms[:, None])
    vals = _cmul(pre_phase, tot_acc[:, active_idx])
    resonant_vals = _cmul(pre_phase, res_acc[:, active_idx])
    envelope_vals = 0.25 * env_acc[:, active_idx]
    total = np.zeros(len(xis), dtype=complex)
    resonant = np.zeros(len(xis), dtype=complex)
    envelope = np.zeros(len(xis))
    for j in range(len(active_idx)):
        total += vals[:, j]
        resonant += resonant_vals[:, j]
        envelope += envelope_vals[:, j]
    nonresonant = total - resonant
    return tuple(
        AmplitudeBreakdown(
            total=complex(total[i]),
            per_sign=dict(zip(active, vals[i].tolist())),
            resonant_sum=complex(resonant[i]),
            nonresonant_sum=complex(nonresonant[i]),
            nonresonant_envelope=float(envelope[i]),
            eval_point=tuple(xis[i].tolist()),
            t=t,
            flags=tuple(flags[i]),
        )
        for i in range(len(xis))
    )


def lambda_hat(
    p: KnappParams, xi, signs: tuple[SignTriple, ...] | None = None
) -> AmplitudeBreakdown:
    """Frequency-side output amplitude at (t, xi), fully broken down.

    ``t`` is the configuration's time ``p.t = eps / sqrt(lam)``; ``signs``
    restricts the sign triples (default: all 8).  Points outside the
    interaction support return an exact zero breakdown.  Non-convergence
    of a term's quadrature at the refinement cap is flagged, not raised.
    This is ``lattice_hats`` at one point.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (3,):
        raise InvalidParameterError("xi must be a 3-vector")
    return lattice_hats(p, xi[None, :], signs)[0]


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def _tensor(op: np.ufunc, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``op`` over three per-axis vectors on their tensor grid: ``(a op b) op c``."""
    return op.outer(op.outer(a, b), c)


def _transverse_rounds_away(sq1: np.ndarray, sq2: np.ndarray, sq3: np.ndarray) -> bool:
    """Whether ``1 + ((sq1 + sq2) + sq3)`` equals ``1 + sq1`` at every node.

    Float addition is monotone and squares are ``>= 0``, so if adding the
    largest of ``sq2`` and the largest of ``sq3`` leaves every ``sq1``
    unchanged, every smaller addend does too.
    """
    return bool(np.all(sq1 + sq2.max() == sq1) and np.all(sq1 + sq3.max() == sq1))


def _cell_integral(axis_cells, r: float, integrand) -> float:
    """``∫ <xi>^{2r} |F|^2`` over a tensor product of per-axis cells.

    ``axis_cells[i]`` is axis i's ``(nodes, weights)``, both of shape
    ``(cells, n)``; ``integrand(c1, c2, c3)`` returns ``|F|^2`` at the
    ``(n1, n2, n3)`` nodes of that cell.  Squared coordinates are formed
    once per axis; each cell's weighted integrand is summed by one dot,
    and the cells are added in ``c1, c2, c3`` order.  Every Sobolev norm
    of the package is this integral.

    Where every transverse square rounds away against every axis-1
    square (``_transverse_rounds_away``), the bracket is ``1 + sq1`` bit
    for bit, so ``<xi>^{2r}`` is one array power per axis-1 node,
    broadcast over each cell; every norm on the Knapp boxes is such a
    case.  Otherwise the 3-D bracket is formed and raised per cell.
    """
    (x1, w1), (x2, w2), (x3, w3) = axis_cells
    sq1, sq2, sq3 = x1 * x1, x2 * x2, x3 * x3
    axial_pow = (1.0 + sq1) ** r if _transverse_rounds_away(sq1, sq2, sq3) else None
    integral = 0.0
    for c1, c2, c3 in itertools.product(range(len(x1)), range(len(x2)), range(len(x3))):
        if axial_pow is None:
            bracket_pow = (1.0 + _tensor(np.add, sq1[c1], sq2[c2], sq3[c3])) ** r
        else:
            bracket_pow = axial_pow[c1][:, None, None]
        weights = _tensor(np.multiply, w1[c1], w2[c2], w3[c3])
        vals = bracket_pow * integrand(c1, c2, c3)
        integral += float(weights.ravel() @ vals.ravel())
    return integral


def sobolev_norms_monomials(
    b: Box3,
    monomials: tuple[tuple[int, int, int], ...],
    r: float,
    nodes_per_axis: tuple[int, int, int] = DEFAULT_GRID,
) -> list[float]:
    """``sobolev_norm_monomial`` for several monomials on one box.

    The box is one cell per axis; a surface axis is its single point
    with weight 1.  The nodes are built once for all of the monomials.
    """
    powers = [m for monomial in monomials for m in monomial]
    if not all(float(m).is_integer() and m >= 0 for m in powers):
        raise InvalidParameterError(f"monomial powers must be whole numbers >= 0, got {monomials}")
    counts = _node_counts(nodes_per_axis)
    if b.has_null_axis:
        return [0.0] * len(monomials)
    axis_cells = [
        (np.array([[lo]]), np.ones((1, 1))) if i == b.surface_axis
        else gauss_legendre_cells([lo], [hi], counts[i])
        for i, (lo, hi) in enumerate(b.axes)
    ]
    norms = []
    for monomial in monomials:
        g = [x[0] ** int(m) for (x, _), m in zip(axis_cells, monomial)]
        f_sq = _tensor(np.multiply, *g) ** 2
        integral = _cell_integral(axis_cells, r, lambda *cell: f_sq)
        norms.append(math.sqrt(integral / TWO_PI_CUBED))
    return norms


def sobolev_norm_monomial(
    b: Box3,
    monomial: tuple[int, int, int],
    r: float,
    nodes_per_axis: tuple[int, int, int] = DEFAULT_GRID,
) -> float:
    """H^r norm of data whose transform is ``xi^monomial`` on ``b``.

    On a surface box the integral carries the box's 2-D measure; such
    values are formal (a genuine 3-D norm of surface-supported data does
    not exist) and are flagged by callers.
    """
    return sobolev_norms_monomials(b, (monomial,), r, nodes_per_axis)[0]


def _axis_breakpoints(a: tuple[float, float], b: tuple[float, float]) -> np.ndarray:
    pts = np.unique(np.array([a[0] + b[0], a[0] + b[1], a[1] + b[0], a[1] + b[1]]))
    return pts


def _conv_factor(vals: np.ndarray, a: Box3, b: Box3, axis: int) -> np.ndarray:
    """1-D factor of the box convolution along one axis.

    Volume/volume axes give the interval-overlap length; a surface axis
    pins the coordinate and contributes an indicator (the degenerate
    direction carries no length).
    """
    a_lo, a_hi = a.axes[axis]
    b_lo, b_hi = b.axes[axis]
    if axis == a.surface_axis:
        return ((vals - a_lo >= b_lo) & (vals - a_lo <= b_hi)).astype(float)
    if axis == b.surface_axis:
        return ((vals - b_lo >= a_lo) & (vals - b_lo <= a_hi)).astype(float)
    lo = np.maximum(vals - a_hi, b_lo)
    hi = np.minimum(vals - a_lo, b_hi)
    return np.maximum(hi - lo, 0.0)


def product_norm_boxes(
    a: Box3,
    b: Box3,
    r: float,
    nodes_per_axis: tuple[int, int, int] = DEFAULT_GRID,
) -> float:
    """H^r norm of a product of data with transforms chi_a and chi_b.

    The transform of the product is ``(2 pi)^-3`` times the convolution,
    which factorizes per axis for axis-aligned boxes; the norm integral
    over the Minkowski-sum support is done by Gauss-Legendre composite
    over the cells between the per-axis kink points of the convolution.
    Nodes, weights and convolution factors are computed once per axis for
    all of its cells; each cell's ``|F|^2`` is the tensor product of its
    factors.
    """
    counts = _node_counts(nodes_per_axis)
    axis_cells, factors = [], []
    for i in range(3):
        if i == a.surface_axis:
            lo, hi = a.axes[i][0] + b.axes[i][0], a.axes[i][0] + b.axes[i][1]
            cuts = np.array([lo, hi])
        elif i == b.surface_axis:
            cuts = np.array([a.axes[i][0] + b.axes[i][0], a.axes[i][1] + b.axes[i][0]])
        else:
            cuts = _axis_breakpoints(a.axes[i], b.axes[i])
        keep = cuts[1:] > cuts[:-1]
        if not keep.any():
            return 0.0
        x, w = gauss_legendre_cells(cuts[:-1][keep], cuts[1:][keep], counts[i])
        axis_cells.append((x, w))
        factors.append(_conv_factor(x, a, b, i))

    def conv_sq(*cell):
        conv = _tensor(np.multiply, *(f[c] for f, c in zip(factors, cell)))
        return (conv / TWO_PI_CUBED) ** 2

    return math.sqrt(_cell_integral(axis_cells, r, conv_sq) / TWO_PI_CUBED)


def product_norm(p: KnappParams, r: float) -> float:
    """H^r norm of the product datum a1 * a2 for a configuration."""
    return product_norm_boxes(p.w2_box, p.neg_wprime_box, r, nodes_per_axis=p.grid)


def norm_report(p: KnappParams, r: float) -> NormReport:
    """All data norms of a configuration at Sobolev index ``r``.

    ``norm_total`` is the H^r size of the curl block contributed by the
    first datum, (0, d3 a1, -d2 a1): the quadrature sum of its two
    component norms.  It is the scaling-relevant input norm (the second
    datum's block is lower order on this geometry) and is what the
    smoothness verdict divides by.
    """
    nd2, nd3 = sobolev_norms_monomials(p.w2_box, ((0, 1, 0), (0, 0, 1)), r, p.grid)
    nd1a2 = sobolev_norm_monomial(p.neg_wprime_box, (1, 0, 0), r, p.grid)
    return NormReport(
        norm_d2a1=nd2,
        norm_d1a2=nd1a2,
        norm_product=product_norm(p, r),
        norm_total=math.hypot(nd2, nd3),
    )


# ---------------------------------------------------------------------------
# Output norm lower bound
# ---------------------------------------------------------------------------

def sample_lattice(b: Box3, n_per_axis: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Regular n^3 lattice over a volume box, including its corners."""
    axes = [np.linspace(lo, hi, n_per_axis) for lo, hi in b.axes]
    g1, g2, g3 = np.meshgrid(*axes, indexing="ij")
    return axes, np.column_stack([g1.ravel(), g2.ravel(), g3.ravel()])


def _trilinear(vals: np.ndarray, ys: list[np.ndarray]) -> np.ndarray:
    """Trilinear interpolant of lattice values at tensor nodes in every cell.

    ``vals`` has shape ``(n1, n2, n3)``; ``ys[i]`` has shape
    ``(n_i - 1, m_i)`` and holds each cell's node positions along axis i,
    normalised to [0, 1] within the cell.  Returns shape
    ``(n1-1, n2-1, n3-1, m1, m2, m3)``: cell indices, then nodes.  The
    per-element operation order is that of scipy's linear
    ``RegularGridInterpolator``, so the two agree bit for bit.
    """
    cells = tuple(len(y) for y in ys)
    factors = []
    for axis, y in enumerate(ys):
        shape = [1] * 6
        shape[axis], shape[3 + axis] = y.shape
        factors.append((np.reshape(1 - y, shape), np.reshape(y, shape)))
    out = np.zeros(cells + tuple(y.shape[1] for y in ys))
    for corner in itertools.product((0, 1), repeat=3):
        w = (factors[0][corner[0]] * factors[1][corner[1]]) * factors[2][corner[2]]
        at_corner = vals[tuple(slice(c, c + n) for c, n in zip(corner, cells))]
        out = out + at_corner[..., None, None, None] * w
    return out


def output_norm_from_samples(
    s: float,
    lattice_axes: list[np.ndarray],
    amps: np.ndarray,
) -> float:
    """Weighted-norm lower bound from amplitude magnitudes on a lattice.

    Interpolates |amplitude| trilinearly within each lattice cell and
    integrates ``(2 pi)^-3 <xi>^{2s} |amp|^2`` over the sampling box by
    per-cell Gauss-Legendre (the interpolant is smooth within cells).
    Nodes and weights are built per axis for all cells.
    """
    shape = tuple(len(ax) for ax in lattice_axes)
    axis_cells, ys = [], []
    for ax in lattice_axes:
        lo, hi = ax[:-1], ax[1:]
        x, w = gauss_legendre_cells(lo, hi, 6)
        axis_cells.append((x, w))
        ys.append((x - lo[:, None]) / (hi - lo)[:, None])
    interp = _trilinear(amps.reshape(shape), ys)
    integral = _cell_integral(axis_cells, s, lambda *cell: interp[cell] ** 2)
    return math.sqrt(integral / TWO_PI_CUBED)
