"""Amplitude quadrature, resonance bookkeeping, and Sobolev norms.

The frequency-side output amplitude at time ``t`` and frequency ``xi``
is a sum over the 8 half-wave sign triples of phase-weighted integrals

    (1 / 4i) * exp(-i s1 t |xi|) * ∫ m(t, omega) * weight(xi, eta) d eta

taken over each kernel term's admissible eta-box (``boxes.overlap`` on
each axis, by the interval rule the product norm reads too).  Every
integral is evaluated on tensor Gauss-Legendre grids that start at
2 x 1 x 1 nodes and double until the per-term totals of successive
grids agree; the configured ``grid`` doubled ``REFINE_CAP`` times is the
ceiling, where an unsettled term is flagged.  A sweep integrates the lattices of all its
windows (3 x 3 x 3 output frequencies each) in one pass.  The four
kernel terms come in two support pairs, and terms on one pair share one
node grid per point, so each (window, support pair, point) is one grid
with its window's time.  Each comparison of two successive levels is
one node build and one kernel call over every grid still refining, for
both of its terms and all 8 sign triples, over fixed-size blocks of
nodes, so memory does not grow with the grid: the two levels are two
runs of each grid's nodes, and nothing is carried from one comparison
to the next.  The sums over sign triples are then
taken once for all points, as (points, sign triples) arrays, and each
window keeps its rows as columns (``_Lattice``: per point the total,
per-sign, resonant and nonresonant sums, envelope, point and flags).  A sweep settles each window's record from the
columns once (``sweep.sweep_core``); ``_breakdowns`` turns a window's
columns into ``AmplitudeBreakdown``s when they are asked for.
``lattice_hats`` is the pass over one window and ``lambda_hat`` over
one point.  A term resonates on the two sign triples where its planar
datum's factor has the sign opposite to ``s1``
(``_kernels.resonant_triples``); its resonant sum is its total there,
and a rigorous pointwise envelope min(t, 2/|omega|) * |weight| over its
other six triples bounds the nonresonant rest.

All Sobolev norms use the convention

    ||u||_{H^r} = ( (2 pi)^-3 * ∫ <xi>^{2r} |u_hat(xi)|^2 d xi )^(1/2),

and a product of physical-side data transforms to ``(2 pi)^-3`` times
the convolution of the transforms.  Every norm integrates
``<xi>^{2r} |F|^2`` over per-axis Gauss-Legendre cells.  On the Knapp
boxes, which lie at distance about ``lam`` along axis 1 with transverse
sides of order ``lam^1/2``, the transverse squares round away in
``1 + |xi|^2`` at every node; where a per-axis check shows this for a
box, ``<xi>^{2r}`` is taken once per axis-1 node instead of once per
tensor node, with the same bits.  The norms take two forms:

* every data norm -- the two monomial norms of the curl block, the
  second datum's monomial norm and the product norm -- has an integrand
  ``F = f1 f2 f3 / scale``, one factor per axis, and runs through one
  cell loop (``_separable_norm``).  A monomial's box is one cell per
  axis with factors ``x_i ** m_i``; the product's cells lie between the
  kinks of the convolution, with its per-axis factors, the counts of
  ``boxes.overlap``'s rule: 1 where a surface axis is found, the
  overlap length on a volume axis.  Each cell's
  weights and integrand are one contiguous multiply of two vectors
  built once per norm (an axis-3 vector tiled, an axis-1 x axis-2
  product repeated), not an outer product whose inner loop runs over
  the few axis-3 nodes.  A cell is one BLAS dot, or one per slice of
  at most 8,192 nodes where it holds more;
* the output norms of a sweep's windows, estimates from their
  lattices (``output_norm_from_samples``), are prepared in one stacked
  pass (``_output_data``: one ``_stack_cells`` call and one trilinear
  interpolation for every window) and evaluated per window
  (``_output_norm_at``): the window's tensors are broadcast and every
  cell's dot is one row of a stacked matmul.

In both forms every element is the same operation on the same operands
as in a cell-by-cell outer product, and the 3-D bracket is the same
``_outer_cells`` expression, over one cell or over all of them.  No
dot is longer than 8,192 elements (a default-grid data cell is one dot,
an output cell 216); OpenBLAS splits a dot of more than 10,000 across
its threads, so the slices keep every norm's bits the same under any
``OPENBLAS_NUM_THREADS`` at every grid.

Every norm runs in two steps.  The prepare step builds what depends on
neither s nor r: each axis's cells, their squares and the transverse
check, a data norm's per-axis factors, and a window's squared
interpolant and weight tensor.  The evaluate step rejects an index that
is not finite, raises the bracket at that index, builds the per-call
tiles and buffers and takes the dots; it writes to no prepared array,
so one preparation serves any number of indices.  A norm whose integral
overflows (inf, or nan where a zero integrand meets an infinite
bracket) raises ``InvalidParameterError`` instead of reading inf.  A
sweep prepares every window once (``sweep.sweep_core``), the output
norms in one stacked pass and the data norms in another
(``_stacked_norm_data``: one stack per data box for the monomial norms
and one for the product norms), each stack's cells from one
``_stack_cells`` call, and its records for each (s, r) only evaluate;
the public norm functions are the one-window case of the same
preparation, followed by the evaluation.  The per-node tensors of the
data norms are built per call, so a window's prepared norms hold about
35 KB of arrays.

Every pass over several windows holds one layout, as the windows of a
Knapp sweep share one: the lattice pass one configured grid and one
surface axis, a monomial stack one surface axis, a product stack one
count of cuts per axis and one surface axis per side, the output norms
one lattice shape.  ``_shared`` is the one check: a pass whose windows
differ raises ``InvalidParameterError`` naming what differs, rather
than evaluating every window on the first window's layout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .boxes import (
    Box3,
    _node_counts,
    admissible_eta_region,
    axis_rule,
    overlap,
    quadrature_nodes,
)
from .boxes import quadrature_grid  # noqa: F401  (perfbench/ hooks this name)
from .construction import DEFAULT_GRID, BilinearKernel, KnappParams, kernels
from .errors import InvalidParameterError, is_real, is_whole, shown
from .symbols import SIGN_TRIPLES, SignTriple

# Per-term quadrature refinement: start from BASE_GRID and double nodes
# until the 8-triple totals move by less than this relative amount.  The
# ceiling is the configured grid doubled REFINE_CAP times per axis; a term
# that has not settled there is flagged.
BASE_GRID = (2, 1, 1)
REFINE_RELTOL = 1e-6
REFINE_CAP = 3
SAMPLE_POINTS_PER_AXIS = 3  # a window's lattice is 3 x 3 x 3 output frequencies

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


def _shared(values, what: str):
    """The value every window of a pass shares: the pass's one layout.

    Raises ``InvalidParameterError`` naming ``what`` where a window's
    value differs from the first window's.
    """
    first, *rest = values
    for v in rest:
        if v != first:
            raise InvalidParameterError(f"windows of one pass differ in {what}: {first!r}, {v!r}")
    return first


def _term_integrals(
    windows: list[tuple[KnappParams, np.ndarray, tuple[BilinearKernel, ...]]],
) -> tuple[np.ndarray, np.ndarray, list[list[str]]]:
    """Refined per-triple integrals (total, envelope) of every term.

    ``windows`` holds ``(p, xis, kerns)`` triples, integrated in one pass.
    Returns ``(K, P, 8)`` arrays for the K terms of each window's
    ``kerns`` and the P rows of all windows' ``xis`` in turn, and each
    point's flags in kernel order.  Terms on one support pair have the
    same admissible regions, so each (support pair, point) is one node
    grid, integrated for all of the pair's terms with its window's time.
    All grids still refining share one grid shape, so each refinement
    step is one node build and one ``term_sums`` call for every window:
    each grid's nodes are two runs, the level ``counts`` and the next,
    ``finer``, and each run's sums have a one-level call's bits.  The
    step compares the two runs' totals, keeps the finer run's sums for
    the terms that settle, and moves on to ``finer``; no sums are carried
    from one call to the next.  A grid refines while any of its terms is
    unsettled; each term keeps the sums of the level where its totals
    settled, and is flagged if that does not happen by the ceiling.  A
    first level that is already the ceiling is compared with itself,
    which settles nothing, so its terms are flagged with its sums.  The
    windows share one term
    layout, as ``kernels(p)`` gives every window: the support pairs are
    grouped once, from the first window's terms, and hold equally many
    terms.  They must share one configured grid and one surface axis (or
    none), or ``_shared`` raises.
    """
    terms = windows[0][2]
    by_pair: dict[tuple[Box3, Box3], list[int]] = {}
    for i, k in enumerate(terms):
        by_pair.setdefault((k.support_a, k.support_b), []).append(i)
    members = list(by_pair.values())
    regions = [
        [admissible_eta_region(xis, kerns[m[0]].support_a, kerns[m[0]].support_b) for m in members]
        for _, xis, kerns in windows
    ]
    # Rows are (support pair, point), the points of all windows in turn.
    lens = [len(xis) for _, xis, _ in windows]
    n_pts, n_pairs = sum(lens), len(members)
    by_rows = [r for g in range(n_pairs) for r in (w[g] for w in regions)]
    surface = _shared((r.surface_axis for r in by_rows), "surface axis")
    grid = _shared((p.grid for p, _, _ in windows), "grid")
    lo = np.concatenate([r.lo for r in by_rows])
    hi = np.concatenate([r.hi for r in by_rows])
    grid_xis = np.concatenate([xis for _, xis, _ in windows] * n_pairs)
    t = np.tile(np.repeat([p.t for p, _, _ in windows], lens), n_pairs)
    codes = np.repeat([[terms[i].code for i in m] for m in members], n_pts, axis=0)
    out = tuple(np.zeros((*codes.shape, 8), dtype) for dtype in (complex, float))
    pending = np.repeat(np.concatenate([r.found for r in by_rows])[:, None], codes.shape[1], 1)
    unsettled = np.zeros(pending.shape, dtype=bool)
    live = np.flatnonzero(pending[:, 0])
    ceiling = tuple(n << REFINE_CAP for n in grid)
    counts = tuple(min(b, c) for b, c in zip(BASE_GRID, ceiling))
    while live.size:
        finer = tuple(min(2 * n, c) for n, c in zip(counts, ceiling))
        built = [quadrature_nodes(lo[live], hi[live], c, surface) for c in (counts, finer)]
        pts, wq = (np.concatenate(parts, axis=1) for parts in zip(*built))
        (coarse, _), (tot, env) = _kernels.term_sums(
            pts.reshape(-1, 3), wq.reshape(-1), grid_xis[live], t[live], codes[live],
            runs=[w.shape[1] for _, w in built],
        )
        scale = np.abs(tot).max(axis=-1)
        delta = np.abs(tot - coarse).max(axis=-1)
        # a level compared with itself proves nothing
        settled = ((scale == 0.0) | (delta <= REFINE_RELTOL * scale)) & (finer != counts)
        waiting = pending[live]
        if finer == ceiling:
            unsettled[live] = waiting & ~settled
            settled = waiting
        grid, term = np.nonzero(waiting & settled)
        for acc, part in zip(out, (tot, env)):
            acc[live[grid], term] = part[grid, term]
        pending[live[grid], term] = False
        live = live[pending[live].any(axis=1)]
        counts = finer
    # Back to kernel order: kernel i is term c of pair g's grids.
    slot = {i: (g, c) for g, m in enumerate(members) for c, i in enumerate(m)}
    g, c = np.array([slot[i] for i in range(len(slot))]).T
    tot, env, unsettled = (
        acc.reshape(n_pairs, n_pts, *acc.shape[1:])[g, :, c] for acc in (*out, unsettled)
    )
    flags: list[list[str]] = [[] for _ in range(n_pts)]
    for j, i in np.argwhere(unsettled.T):
        flags[j].append(f"nonconverged_quadrature:{terms[i].label}")
    return tot, env, flags


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


class _Lattice(NamedTuple):
    """One window's lattice pass as columns, one row per point.

    ``per_sign`` has one column per sign triple of ``signs``; ``t`` is
    the window's time.  ``_breakdowns`` turns the columns into
    ``lattice_hats``' breakdowns; a sweep reads them directly.
    """

    total: np.ndarray
    per_sign: np.ndarray
    resonant: np.ndarray
    nonresonant: np.ndarray
    envelope: np.ndarray
    points: np.ndarray
    t: float
    flags: list[tuple[str, ...]]
    signs: tuple[SignTriple, ...]


def _lattice_pass(
    windows: list[tuple[KnappParams, np.ndarray]], signs: tuple[SignTriple, ...] | None = None
) -> list[_Lattice]:
    """The columns of every ``(p, xis)`` window's lattice, in one pass.

    Every kernel term of every window is integrated together, with one
    ``term_sums`` call per comparison of two successive refinement
    levels (``_term_integrals``); the sums over sign triples
    are then taken for all points at once, and each window holds its
    rows of the resulting arrays.  The breakdowns ``_breakdowns`` builds
    from them equal the one-point call's bit for bit.  The windows must
    share one grid and one surface convention (``_term_integrals``).
    """
    active = SIGN_TRIPLES if signs is None else tuple(signs)
    if not active or not all(s in SIGN_TRIPLES for s in active) or len(set(active)) < len(active):
        raise InvalidParameterError(f"signs must be distinct sign triples, got {signs!r}")
    active_idx = [SIGN_TRIPLES.index(s) for s in active]
    lattices = []
    for p, xis in windows:
        xis = np.asarray(xis, dtype=float)
        if xis.ndim != 2 or xis.shape[1] != 3:
            raise InvalidParameterError("xis must be an array of 3-vectors")
        if not np.isfinite(xis).all():
            raise InvalidParameterError("xi must be finite")
        lattices.append((p, xis, kernels(p)))
    xis = np.concatenate([pts for _, pts, _ in lattices])
    with np.errstate(over="ignore"):  # an overflowing square is rejected next
        squares = xis[:, None, :] @ xis[:, :, None]
    if not np.isfinite(squares).all():
        raise InvalidParameterError("|xi|^2 must not overflow (|xi| up to about 1.3e154)")
    # a nonzero xi whose square underflows to 0 is still a valid point
    if (xis == 0.0).all(axis=1).any():
        raise InvalidParameterError("xi must be nonzero")
    norms = np.sqrt(squares).reshape(-1)
    ts = np.repeat([p.t for p, _, _ in lattices], [len(pts) for _, pts, _ in lattices])

    tot_acc = np.zeros((len(xis), 8), dtype=complex)
    res_acc = np.zeros((len(xis), 8), dtype=complex)
    env_acc = np.zeros((len(xis), 8), dtype=float)
    tot, env, flags = _term_integrals(lattices)
    # a term's resonant sums are its totals on its two resonant triples
    res_mask = _kernels.resonant_triples([k.code for k in lattices[0][2]])
    for k in range(len(tot)):
        tot_acc += tot[k]
        res_acc += np.where(res_mask[k], tot[k], 0.0)
        env_acc += env[k]
    # (points, active signs) arrays; the sums over signs run in sign order.
    s1 = np.array([SIGN_TRIPLES[j].s1 for j in active_idx])
    pre_phase = 1.0 / 4.0j * np.exp(-1j * s1 * ts[:, None] * norms[:, None])
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
    out, first = [], 0
    for p, pts, _ in lattices:
        rows = slice(first, first + len(pts))
        first += len(pts)
        arrays = (a[rows] for a in (total, vals, resonant, nonresonant, envelope, xis))
        out.append(_Lattice(*arrays, p.t, [tuple(f) for f in flags[rows]], active))
    return out


def _breakdowns(lattice: _Lattice) -> tuple[AmplitudeBreakdown, ...]:
    """A window's ``AmplitudeBreakdown``s from its columns, one ``tolist`` per column."""
    columns = lattice[:6]  # the arrays, total to points
    return tuple(
        AmplitudeBreakdown(
            total=tot_i,
            per_sign=dict(zip(lattice.signs, per_sign)),
            resonant_sum=res_i,
            nonresonant_sum=nonres_i,
            nonresonant_envelope=env_i,
            eval_point=tuple(xi),
            t=lattice.t,
            flags=flags_i,
        )
        for tot_i, per_sign, res_i, nonres_i, env_i, xi, flags_i in zip(
            *(c.tolist() for c in columns), lattice.flags
        )
    )


def lattice_hats(
    p: KnappParams, xis, signs: tuple[SignTriple, ...] | None = None
) -> tuple[AmplitudeBreakdown, ...]:
    """``lambda_hat`` at every row of ``xis``, in one pass for all terms.

    This is the one-window case of the pass a sweep makes over all of
    its windows (``_lattice_pass``), with its columns turned into
    breakdowns (``_breakdowns``); every breakdown equals the one-point
    call's bit for bit.
    """
    return _breakdowns(_lattice_pass([(p, xis)], signs)[0])


def lambda_hat(
    p: KnappParams, xi, signs: tuple[SignTriple, ...] | None = None
) -> AmplitudeBreakdown:
    """Frequency-side output amplitude at (t, xi), fully broken down.

    ``t`` is the configuration's time ``p.t = eps / sqrt(lam)``; ``signs``
    restricts the sign triples (default: all 8).  Points outside the
    interaction support return an exact zero breakdown, a nonzero xi
    whose ``|xi|^2`` underflows to 0 among them; xi = 0, or a point
    whose ``|xi|^2`` overflows (``|xi|`` above about 1.3e154), raises
    ``InvalidParameterError``.  Non-convergence
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

def _check_index(name: str, x: float) -> None:
    """Reject a Sobolev index that is not a finite real number."""
    if not (is_real(x) and math.isfinite(x)):
        raise InvalidParameterError(f"Sobolev index {name} must be finite, got {shown(x)}")


def _root(integral: float, name: str, x: float) -> float:
    """The norm ``sqrt(integral / (2 pi)^3)`` at Sobolev index ``name = x``.

    An integral that overflowed, which is not finite, raises
    ``InvalidParameterError`` rather than giving an infinite norm.
    """
    if not math.isfinite(integral):
        raise InvalidParameterError(f"the norm at Sobolev index {name} = {x!r} overflows")
    return math.sqrt(integral / TWO_PI_CUBED)


def _outer_cells(op: np.ufunc, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``(a[c1] op b[c2]) op c[c3]`` of every tensor cell at once, by broadcasting.

    ``a``, ``b`` and ``c`` have shape ``(..., cells, n)``, leading axes
    stacking boxes; the result has shape ``(..., cells1, cells2, cells3,
    n1, n2, n3)``.  The output norm takes every cell in one call, and
    ``_separable_norm``'s 3-D bracket one cell per call (``a``, ``b``
    and ``c`` of one cell each).
    """
    return op(
        op(a[..., :, None, None, :, None, None], b[..., None, :, None, None, :, None]),
        c[..., None, None, :, None, None, :],
    )


def _transverse_rounds_away(sq1: np.ndarray, sq2: np.ndarray, sq3: np.ndarray) -> np.ndarray:
    """Per box, whether ``1 + ((sq1 + sq2) + sq3)`` equals ``1 + sq1`` at every node.

    The squares have shape ``(..., cells, n)``, leading axes stacking
    boxes; each box's axis-1 squares are checked against that box's own
    transverse maxima only.  Float addition is monotone and squares are
    ``>= 0``, so if adding the largest of ``sq2`` and the largest of
    ``sq3`` leaves every ``sq1`` unchanged, every smaller addend does too.
    """
    kept = [sq1 + sq.max(axis=(-2, -1), keepdims=True) == sq1 for sq in (sq2, sq3)]
    return (kept[0] & kept[1]).all(axis=(-2, -1))


class _SeparableData(NamedTuple):
    """A prepared data norm, the integrand ``F = f1 f2 f3 / scale`` on one box's cells.

    ``cells`` is the box's ``_stack_cells`` row and ``factors[i]`` holds
    ``f_i`` at axis i's nodes, of shape ``(cells_i, n_i)``.
    The product norm's factors are the per-axis convolution factors, with
    scale ``(2 pi)^3``; a monomial norm's box is one cell per axis, its
    factors ``x_i ** m_i`` and its scale 1.
    """

    cells: tuple[tuple, tuple, np.ndarray]
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    scale: float


@np.errstate(over="ignore", invalid="ignore")  # _root rejects inf and 0 * inf = nan
def _separable_norm(data: _SeparableData | None, r: float) -> float:
    """The prepared data norm at Sobolev index ``r``; None is the norm 0.

    The cells are integrated one at a time, in ``c1, c2, c3`` order, each
    by one dot of two contiguous vectors, or where a cell holds more than
    8,192 nodes by one dot per slice of 8,192, each added to the integral
    in order.  A cell's weights and integrand are each one multiply of an
    axis-1 x axis-2 outer product, repeated once per ``(c1, c2)``, by an
    axis-3 vector tiled once per call: the outer product's ``(u * v) *
    w``, bit for bit, without a broadcast whose inner loop runs over few
    nodes.  Where the transverse squares round away
    (``_transverse_rounds_away``), ``<xi>^{2r}`` is one array power per
    axis-1 node, repeated once per axis-1 cell; otherwise the 3-D bracket
    is raised per cell, as ``_output_norm_at`` raises it
    (``_outer_cells``).  An integral that overflows raises
    ``InvalidParameterError`` (``_root``).
    """
    _check_index("r", r)
    if data is None:
        return 0.0
    (sq1, sq2, sq3), (w1, w2, w3), fast = data.cells
    f1, f2, f3 = data.factors
    n12, n3 = sq1.shape[1] * sq2.shape[1], sq3.shape[1]
    # row c3 of a tile is axis-3 cell c3's vector, repeated n12 times
    w_tiles, f_tiles = (v[:, None, :].repeat(n12, axis=1).reshape(len(v), -1) for v in (w3, f3))
    if fast:
        pows = (1.0 + sq1) ** r
    weights, vals = np.empty(n12 * n3), np.empty(n12 * n3)
    # OpenBLAS splits a dot of more than 10,000 elements across its threads,
    # which moves its last bits; a default-grid cell is one slice
    slices = [(weights[i : i + 8192], vals[i : i + 8192]) for i in range(0, n12 * n3, 8192)]
    integral = 0.0
    for c1 in range(len(sq1)):
        if fast:
            bracket = pows[c1].repeat(sq2.shape[1] * n3)
        for c2 in range(len(sq2)):
            w12 = np.multiply.outer(w1[c1], w2[c2]).repeat(n3)
            f12 = np.multiply.outer(f1[c1], f2[c2]).repeat(n3)
            for c3 in range(len(sq3)):
                np.multiply(w12, w_tiles[c3], out=weights)
                np.multiply(f12, f_tiles[c3], out=vals)
                if data.scale != 1.0:
                    vals /= data.scale
                vals **= 2
                if not fast:
                    cell = (sq1[c1 : c1 + 1], sq2[c2 : c2 + 1], sq3[c3 : c3 + 1])
                    bracket = ((1.0 + _outer_cells(np.add, *cell)) ** r).ravel()
                vals *= bracket
                for w, v in slices:
                    integral += float(w @ v)
    return _root(integral, "r", r)


def _stack_cells(ends, surface: int | None, counts) -> tuple[list[np.ndarray], list[tuple]]:
    """Per-axis nodes of a stack of boxes, and each box's cells.

    ``ends[i]`` holds axis i's cell ends, of shape ``(boxes, cells_i +
    1)``; axis ``surface`` (or none) is each cell's single point ``lo``
    with weight 1 (``axis_rule``).  The nodes have shape ``(boxes,
    cells_i, n_i)``; box j's row is ``(squares, weights, fast)``: per
    axis ``(cells_i, n_i)`` arrays, and its ``_transverse_rounds_away``.
    """
    axis_cells = [
        axis_rule(e[:, :-1], e[:, 1:], n, i == surface)
        for i, (e, n) in enumerate(zip(ends, counts))
    ]
    squares = [x * x for x, _ in axis_cells]
    fast = np.broadcast_to(_transverse_rounds_away(*squares), len(squares[0]))
    rows = [
        (tuple(sq[j] for sq in squares), tuple(w[j] for _, w in axis_cells), bool(fast[j]))
        for j in range(len(fast))
    ]
    return [x for x, _ in axis_cells], rows


def _stacked_monomial_data(
    boxes: list[Box3], monomials: tuple[tuple[int, int, int], ...], nodes_per_axis
) -> list[list[_SeparableData | None]]:
    """The part of ``sobolev_norm_monomial`` that does not depend on r, per box and monomial.

    Each box is one cell per axis, shared by its monomials.  The boxes
    are one stack: one ``_stack_cells`` call (per axis one ``axis_rule``
    call, and one transverse check) and per axis one power per monomial
    for all of them.  None where a volume axis has length 0; the other
    boxes must share one surface axis (or none), or ``_shared`` raises.
    """
    exponents = [m for monomial in monomials for m in monomial]
    if any(len(m) != 3 for m in monomials) or not all(is_whole(m, 0) for m in exponents):
        raise InvalidParameterError(
            f"monomials must be 3 powers, each a whole number >= 0, got {shown(monomials)}"
        )
    counts = _node_counts(nodes_per_axis)
    out: list[list[_SeparableData | None]] = [[None] * len(monomials) for _ in boxes]
    live = [j for j, b in enumerate(boxes) if not b.has_null_axis]
    if not live:
        return out
    surface = _shared((boxes[j].surface_axis for j in live), "surface axis")
    bounds = np.array([boxes[j].axes for j in live])  # (boxes, axis, end)
    nodes, rows = _stack_cells(bounds.transpose(1, 0, 2), surface, counts)
    for m, monomial in enumerate(monomials):
        powers = [x ** int(e) for x, e in zip(nodes, monomial)]
        for row, (j, cells) in enumerate(zip(live, rows)):
            out[j][m] = _SeparableData(cells, tuple(f[row] for f in powers), 1.0)
    return out


def sobolev_norm_monomial(
    b: Box3,
    monomial: tuple[int, int, int],
    r: float,
    nodes_per_axis: tuple[int, int, int] = DEFAULT_GRID,
) -> float:
    """H^r norm of data whose transform is ``xi^monomial`` on ``b``.

    The box is one cell per axis; a surface axis is its single point
    with weight 1.  On a surface box the integral carries the box's 2-D
    measure; such values are formal (a genuine 3-D norm of
    surface-supported data does not exist) and are flagged by callers.
    """
    ((data,),) = _stacked_monomial_data([b], (monomial,), nodes_per_axis)
    return _separable_norm(data, r)


def _axis_breakpoints(a: tuple[float, float], b: tuple[float, float]) -> np.ndarray:
    """The sorted kinks of the convolution of ``[a0, a1]`` and ``[b0, b1]``.

    A point interval (a surface axis) leaves the two ends of the other
    interval, shifted by the point.
    """
    return np.array(sorted({a[0] + b[0], a[0] + b[1], a[1] + b[0], a[1] + b[1]}), dtype=float)


def _stacked_product_data(
    pairs: list[tuple[Box3, Box3]], nodes_per_axis
) -> list[_SeparableData | None]:
    """The part of ``product_norm_boxes`` that does not depend on r, per box pair.

    The pairs are one stack: one ``_stack_cells`` call (per axis one
    Gauss rule, and one transverse check) and per axis one
    ``boxes.overlap`` call for all of them.  Its rule gives the
    convolution factor at each node: on an axis that is either side's
    surface axis (a point axis) 1 where it is found, on a volume axis
    the overlap length, and 0 elsewhere.  None where an axis of the
    support is one point: the norm is 0; the other pairs must share
    their count of cuts on each axis and each side's surface axis, or
    ``_shared`` raises.
    """
    counts = _node_counts(nodes_per_axis)
    cuts = [[_axis_breakpoints(a.axes[i], b.axes[i]) for i in range(3)] for a, b in pairs]
    out: list[_SeparableData | None] = [None] * len(pairs)
    live = [j for j, c in enumerate(cuts) if all(len(x) >= 2 for x in c)]
    if not live:
        return out
    layouts = [(*map(len, cuts[j]), *(box.surface_axis for box in pairs[j])) for j in live]
    *_, sa, sb = _shared(layouts, "cut counts and surface axes")
    ends = [np.array([cuts[j][i] for j in live]) for i in range(3)]
    nodes, rows = _stack_cells(ends, None, counts)
    # per axis, each side's (lo, hi) of shape (boxes, 1, 1)
    a, b = (
        np.array([pairs[j][side].axes for j in live]).transpose(1, 2, 0)[..., None, None]
        for side in (0, 1)
    )
    factors = []
    for i, x in enumerate(nodes):
        point = i in (sa, sb)
        lo, hi, found = overlap(x, a[i], b[i], point)
        factors.append(np.where(found, 1.0 if point else hi - lo, 0.0))
    for row, (j, cells) in enumerate(zip(live, rows)):
        out[j] = _SeparableData(cells, tuple(f[row] for f in factors), TWO_PI_CUBED)
    return out


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
    all of its cells, and the cells are integrated by ``_separable_norm``.
    """
    return _separable_norm(_stacked_product_data([(a, b)], nodes_per_axis)[0], r)


def norm_report(p: KnappParams, r: float) -> NormReport:
    """All data norms of a configuration at Sobolev index ``r``.

    ``norm_total`` is the H^r size of the curl block contributed by the
    first datum, (0, d3 a1, -d2 a1): the quadrature sum of its two
    component norms.  It is what the smoothness verdict divides by.  The
    second datum's block is not smaller: over k = 1..10, ``norm_d1a2``
    grows faster than ``norm_total`` in both modes (their rows of
    ``sweep.LEDGER``), and at r = -1/4 the ratio
    ``norm_d1a2 / norm_total`` runs from 2.3e8 to
    2.3e9 (slab) and from 9.1e9 to 2.9e10 (surface).  Both data are
    indicators of amplitude 1, so the verdict rests on normalizing by
    the first datum alone.
    """
    return _norms_at(_stacked_norm_data([p])[0], r)


class _NormData(NamedTuple):
    """A configuration's data norms, prepared: ``norm_report`` but for r."""

    d2a1: _SeparableData | None  # d2a1 and d3a1 share w2_box's cells
    d3a1: _SeparableData | None
    d1a2: _SeparableData | None
    product: _SeparableData | None


def _stacked_norm_data(ps: list[KnappParams]) -> list[_NormData]:
    """The part of ``norm_report`` that does not depend on r, per configuration.

    The configurations must share one grid, as a sweep's windows do, or
    ``_shared`` raises; their monomial norms are two stacks (one per
    data box) and their product norms one, each of one layout.
    """
    grid = _shared((p.grid for p in ps), "grid")
    w2, nwp = [p.w2_box for p in ps], [p.neg_wprime_box for p in ps]
    return [
        _NormData(*curl, *second, product)
        for curl, second, product in zip(
            _stacked_monomial_data(w2, ((0, 1, 0), (0, 0, 1)), grid),
            _stacked_monomial_data(nwp, ((1, 0, 0),), grid),
            _stacked_product_data(list(zip(w2, nwp)), grid),
        )
    ]


def _norms_at(data: _NormData, r: float) -> NormReport:
    """The prepared data norms at Sobolev index ``r``."""
    nd2, nd3, nd1a2, product = (_separable_norm(d, r) for d in data)
    return NormReport(
        norm_d2a1=nd2,
        norm_d1a2=nd1a2,
        norm_product=product,
        norm_total=math.hypot(nd2, nd3),
    )


# ---------------------------------------------------------------------------
# Output norm estimate
# ---------------------------------------------------------------------------

def sample_lattice(b: Box3) -> tuple[list[np.ndarray], np.ndarray]:
    """Regular 3 x 3 x 3 lattice over a volume box, including its corners."""
    n = SAMPLE_POINTS_PER_AXIS
    axes = [np.linspace(lo, hi, n) for lo, hi in b.axes]
    points = np.empty((n, n, n, 3))
    points[..., 0] = axes[0][:, None, None]
    points[..., 1] = axes[1][:, None]
    points[..., 2] = axes[2]
    return axes, points.reshape(-1, 3)


def _trilinear(vals: np.ndarray, ys: list[np.ndarray]) -> np.ndarray:
    """Trilinear interpolant of lattice values at tensor nodes in every cell.

    ``vals`` has shape ``(..., n1, n2, n3)``; ``ys[i]`` has shape
    ``(..., n_i - 1, m_i)`` and holds each cell's node positions along
    axis i, normalised to [0, 1] within the cell; leading axes stack
    lattices.  Returns shape ``(..., n1-1, n2-1, n3-1, m1, m2, m3)``:
    cell indices, then nodes.  The per-element operation order is that
    of scipy's linear ``RegularGridInterpolator``, so the two agree bit
    for bit.
    """
    cells = tuple(y.shape[-2] for y in ys)
    hats = [(1 - y, y) for y in ys]
    out = np.zeros(vals.shape[:-3] + cells + tuple(y.shape[-1] for y in ys))
    for corner in itertools.product((0, 1), repeat=3):
        w = _outer_cells(np.multiply, *(h[c] for h, c in zip(hats, corner)))
        at_corner = vals[(..., *(slice(c, c + n) for c, n in zip(corner, cells)))]
        out = out + at_corner[..., None, None, None] * w
    return out


class _OutputData(NamedTuple):
    """One window's prepared output norm: one box of 8 cells.

    ``squares`` and ``fast`` are from the window's ``_stack_cells`` row,
    ``weights`` the weight tensor and ``f_sq`` the squared trilinear
    interpolant, both of shape ``(cells1, cells2, cells3, n1, n2, n3)``.
    """

    squares: tuple[np.ndarray, np.ndarray, np.ndarray]
    fast: bool
    weights: np.ndarray
    f_sq: np.ndarray


def _output_data(windows) -> list[_OutputData]:
    """The part of ``output_norm_from_samples`` that does not depend on s, per window.

    The lattices must share one shape of 3 axes (``_shared``); every
    axis must be 1-D, finite and strictly increasing, with at least 2
    points, and every amplitude real and finite, with a finite square.
    One ``_stack_cells`` call and one ``_trilinear`` call cover every
    cell of every window; each window holds its slice of the result.
    """
    shape = _shared((tuple(map(len, axes)) for axes, _ in windows), "lattice shape")
    if len(shape) != 3:
        raise InvalidParameterError(f"a lattice needs 3 axes, got {len(shape)}")
    for _, amps in windows:
        if np.size(amps) != math.prod(shape):
            raise InvalidParameterError(
                f"a {shape} lattice needs {math.prod(shape)} amplitudes, got {np.size(amps)}"
            )
        if np.iscomplexobj(amps):
            raise InvalidParameterError("lattice amplitudes must be real, got complex values")
    ends = []
    for i in range(3):
        ax = np.array([axes[i] for axes, _ in windows], dtype=float)
        if ax.ndim != 2 or ax.shape[1] < 2 or not (
            np.isfinite(ax).all() and (ax[:, 1:] > ax[:, :-1]).all()
        ):
            raise InvalidParameterError(
                f"lattice axes must be 1-D, finite and strictly increasing, with at least "
                f"2 points; axis {i} is not"
            )
        ends.append(ax)
    vals = np.array([np.reshape(amps, shape) for _, amps in windows], dtype=float)
    if not np.isfinite(vals).all():
        raise InvalidParameterError("lattice amplitudes must be finite")
    nodes, rows = _stack_cells(ends, None, (6, 6, 6))
    ys = [(x - e[:, :-1, None]) / (e[:, 1:] - e[:, :-1])[..., None] for x, e in zip(nodes, ends)]
    with np.errstate(over="ignore"):  # an overflowing square is rejected next
        f_sq = _trilinear(vals, ys) ** 2
    if not np.isfinite(f_sq).all():
        raise InvalidParameterError("squared lattice amplitudes must not overflow")
    return [
        _OutputData(squares, fast, _outer_cells(np.multiply, *weights), f_sq[j])
        for j, (squares, weights, fast) in enumerate(rows)
    ]


@np.errstate(over="ignore", invalid="ignore")  # _root rejects inf and 0 * inf = nan
def _output_norm_at(s: float, data: _OutputData) -> float:
    """The prepared output norm at Sobolev index ``s``.

    No prepared array is written to.  Where the transverse squares round
    away, ``<xi>^{2s}`` is one array power per axis-1 node, broadcast;
    otherwise the 3-D bracket is raised node by node.  Each cell is
    summed by one dot of two contiguous vectors (one stacked matmul for
    all of them, the same bits as one dot each) and the cells are added
    in ``c1, c2, c3`` order, as in ``_separable_norm``.  An integral
    that overflows raises ``InvalidParameterError`` (``_root``).
    """
    _check_index("s", s)
    if data.fast:
        bracket = ((1.0 + data.squares[0]) ** s)[:, None, None, :, None, None]
    else:
        bracket = (1.0 + _outer_cells(np.add, *data.squares)) ** s
    cells, n = math.prod(data.weights.shape[:3]), math.prod(data.weights.shape[3:])
    dots = data.weights.reshape(cells, 1, n) @ (data.f_sq * bracket).reshape(cells, n, 1)
    integral = 0.0
    for dot in dots.ravel().tolist():
        integral += dot
    return _root(integral, "s", s)


def output_norm_from_samples(
    s: float,
    lattice_axes: list[np.ndarray],
    amps: np.ndarray,
) -> float:
    """Weighted-norm estimate from amplitude magnitudes on a lattice.

    Interpolates |amplitude| trilinearly within each lattice cell and
    integrates ``(2 pi)^-3 <xi>^{2s} |amp|^2`` over the sampling box by
    per-cell Gauss-Legendre (the interpolant is smooth within cells).
    The value is an estimate, not a lower bound: at s = 1/2 on the
    k = 1..10 Knapp windows the 3 x 3 x 3 value exceeds the 9 x 9 x 9
    one by 1.35% (slab) and 0.89% (surface), by one factor at every k.
    ``amps`` holds one real value per lattice point, in C order; complex
    amplitudes raise ``InvalidParameterError``.  This is the
    one-window case of the preparation a sweep makes for all of its
    windows.
    """
    (data,) = _output_data([(lattice_axes, amps)])
    return _output_norm_at(s, data)
