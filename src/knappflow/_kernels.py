"""Hot numerical kernels, vectorized with numpy.

``term_sums`` is the one evaluation path.  One call integrates every
grid of a refinement comparison, each grid's two levels as two runs of
its nodes: the grids of all output frequencies, support pairs and
windows of a sweep, each with its own time ``t``.  The tests
check it against a 30-digit mpmath evaluation of one grid's sums, which
shares no code with it.  Resonance belongs to a term's sign triples, not
to a node: ``resonant_triples`` writes the rule once.
"""

from __future__ import annotations

import math

import numpy as np

# Switch from the closed-form multiplier quotient to its Taylor series
# below this |t*omega|: the quotient's cancellation costs ~4 digits at
# the threshold while the 6-term series is already at roundoff there.
MULT_SERIES_THRESHOLD = 1e-4

# There is no compiled backend.  The constant stays because the benchmark
# harness (perfbench/run.py) reads it for the backend in its run record.
NUMBA_ENABLED = False

# Nodes per block in ``term_sums``.  Each of its temporaries holds at
# most 4 complex values per node of a block (0.25 MB), whatever the grid
# size or the number of grids, so a ceiling grid of 256 x 128 x 128
# nodes needs no more memory than a small one.  The weights take one
# float per node and term: within that bound for up to 8 terms per grid
# (``kernels(p)`` puts 2 on each).  A grid larger than a block is cut
# per run, each run from its own start, and a run's node sums are cut at
# those bounds, so they fix the last bits of a large run's sums.
TERM_SUMS_BLOCK = 1 << 12

# The 8 half-wave sign triples (s1, s2, s3), lexicographic with + before
# -: +++, ++-, +-+, +--, -++, -+-, --+, ---.  Row 7 - j is -(row j), so
# the omega of triple 7 - j is exactly minus that of triple j.
SIGNS_ARRAY = np.array(
    [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)], dtype=float
)


# ---------------------------------------------------------------------------
# Duhamel multiplier m(t, omega) = (exp(i t omega) - 1) / (i omega)
# ---------------------------------------------------------------------------

def _mult_py(t: float, om: float) -> complex:
    x = t * om
    if abs(x) < MULT_SERIES_THRESHOLD:
        z = 1j * x
        p = 1.0 + z * (1 / 2 + z * (1 / 6 + z * (1 / 24 + z * (1 / 120 + z * (1 / 720)))))
        return t * p
    # Cancellation-free rewriting: 2 sin(x/2) exp(i x/2) / omega.
    s = math.sin(0.5 * x)
    c = math.cos(0.5 * x)
    return (2.0 * s / om) * complex(c, s)


def mult_values(t, om: np.ndarray) -> np.ndarray:
    """Vectorized multiplier; same two-branch rule as the scalar path.

    ``t`` is a time or an array of times that broadcasts against ``om``.
    Each branch is evaluated only on the elements it applies to.  Both
    branches give a real part even in omega and an imaginary part odd in
    omega, so ``mult_values(t, -om)`` is ``conj(mult_values(t, om))`` bit
    for bit.
    """
    om = np.asarray(om, dtype=float)
    x = t * om
    t, om = np.broadcast_to(t, x.shape), np.broadcast_to(om, x.shape)
    small = np.abs(x) < MULT_SERIES_THRESHOLD
    out = np.empty(x.shape, dtype=complex)
    z = 1j * x[small]
    series = t[small] * (
        1.0 + z * (1 / 2 + z * (1 / 6 + z * (1 / 24 + z * (1 / 120 + z * (1 / 720)))))
    )
    # Im m = (1 - cos(t omega)) / omega takes the sign of omega, which the
    # series drops only where it is zero: at omega = -0.
    series.imag = np.copysign(series.imag, x[small])
    out[small] = series
    big = ~small
    half = 0.5 * x[big]
    s = np.sin(half)
    a = 2.0 * s / om[big]
    # real products: the bits of a * (c + 1j * s), whose other products are 0
    out.real[big] = a * np.cos(half)
    out.imag[big] = a * s
    return out


# ---------------------------------------------------------------------------
# Bilinear kernel weights
#
# Code ``2 * (axis - 2) + slot`` is the term labelled ``axis{axis}.t{slot
# + 1}`` (``kernels(p)``).  ``axis`` (2 or 3) is the transverse axis of
# the curvature factor; slot 0 puts the planar datum on the xi - eta
# slot, slot 1 on the eta slot.  With ``(u, v) = (d1, eta_axis)`` for
# slot 0 and ``(d_axis, eta1)`` for slot 1, the weight is
# ``(((d1 * u) * eta1) * eta1) * v / (|xi| |d|^2 |eta|^2)``, negated for
# slot 1 so that each weight is nonnegative on its own admissible set.
# ---------------------------------------------------------------------------

def _norm3(c):
    """``sqrt((c0*c0 + c1*c1) + c2*c2)`` from the coordinate columns ``c``.

    This is numpy's own order for ``np.sqrt((v * v).sum(axis=-1))`` of
    3-vectors, so the two agree bit for bit, without a reduction whose
    inner loop runs over 3 coordinates.
    """
    return np.sqrt((c[0] * c[0] + c[1] * c[1]) + c[2] * c[2])


def _weight(code, eta, d, nx, nd, ne):
    """Kernel weight from ``eta``, ``d = xi - eta`` and the three norms.

    This is the one weight formula: ``term_weight`` forms its arguments
    from ``(xi, eta)``, and ``term_sums`` shares them with omega.
    ``eta`` and ``d`` are coordinate columns: ``eta[i]`` holds coordinate
    i of every node.  ``code`` is one code or an array of codes that
    broadcasts against the nodes.
    """
    code = np.asarray(code)
    if np.any((code < 0) | (code > 3)):
        raise ValueError(f"unknown kernel code {code}")
    slot = code & 1
    d1, e1 = d[0], eta[0]
    d_axis = np.where(code >> 1, d[2], d[1])
    e_axis = np.where(code >> 1, eta[2], eta[1])
    num = (((d1 * np.where(slot, d_axis, d1)) * e1) * e1) * np.where(slot, e1, e_axis)
    return (1 - 2 * slot) * num / (nx * nd * nd * ne * ne)


def term_weight(code, xi, eta) -> np.ndarray:
    """Kernel weight w(xi, eta); broadcasts over leading axes of eta and code."""
    xi, eta = np.asarray(xi, dtype=float), np.asarray(eta, dtype=float)
    xi, eta, d = (np.moveaxis(v, -1, 0) for v in (xi, eta, xi - eta))
    return _weight(code, eta, d, _norm3(xi), _norm3(d), _norm3(eta))


def resonant_triples(codes) -> np.ndarray:
    """Mask ``(..., 8)`` of the sign triples where each term of ``codes`` resonates.

    A term resonates on the two triples where the factor in ``-W'`` (the
    planar datum: ``xi - eta`` for slot 0, ``eta`` for slot 1) carries
    the sign opposite to ``s1`` and the other factor the sign of ``s1``;
    on the Knapp boxes omega cancels there, and is about ``2 lam`` or
    more on the other six.  Slot 0 resonates on ``+-+`` and ``-+-`` (rows
    2 and 5), slot 1 on ``++-`` and ``--+`` (rows 1 and 6).
    """
    slot = (np.asarray(codes) & 1)[..., None]
    s1, s2, s3 = SIGNS_ARRAY.T
    return (np.where(slot, s3, s2) == -s1) & (np.where(slot, s2, s3) == s1)


def term_sums(pts, wq, xis, t, codes, runs):
    """Per-term, per-sign-triple sums of m(t, omega) * weight over grids.

    ``xis`` holds P output frequencies, shape ``(P, 3)``; ``pts``
    ``(N, 3)`` and ``wq`` ``(N,)`` hold P grids of N / P nodes each, grid
    j's in rows ``j*N/P`` to ``(j+1)*N/P``.  ``t`` is each grid's time,
    shape ``(P,)``, or one time for every grid.  ``codes`` ``(P, C)``
    holds the codes of the C kernel terms integrated over each grid
    (terms on one support pair share its grid), so a call may mix terms,
    points and windows.  ``runs`` splits each grid's nodes into
    consecutive runs of the given lengths, such as two refinement levels
    of one grid, and must add up to a grid.  Returns one ``(tot, env)``
    per run, each ``(P, C, 8)``: for each grid, term and sign triple (in
    ``SIGNS_ARRAY`` order) the run's full complex sum and its envelope
    ``min(t, 2/|omega|) * |weight|`` (``t`` at omega = 0), which is 0 on
    the term's two ``resonant_triples``.  Each run's sums have the bits
    of a call over that run's nodes alone, at any size.

    The nodes go in blocks of at most ``TERM_SUMS_BLOCK``: whole grids,
    every run of them, while a grid fits in a block, else consecutive
    slices of one run, counted from that run's start, as a call over the
    run alone cuts them.
    Per block, ``xi - eta``, ``|xi - eta|``, ``|eta|``, omega and the
    multiplier are formed once for all C terms, the norms over
    contiguous coordinate columns (``_norm3``), and only for the four
    ``s1 = +1`` triples, from the two partial sums ``|xi| -+ |xi - eta|``
    that they share: triple ``7 - j`` has omega negated exactly, so
    its multiplier, its products with the real weights and their sums
    are the conjugates of triple j's, and its envelope is triple j's.
    One ``_weight`` call weights the block for all C terms; then each
    term's products and sums are taken as ``(grids, 4, nodes)`` arrays,
    one term at a time.  Each run's nodes are summed along a contiguous
    axis, so its sums do not depend on the other runs, grids or terms of
    the call.
    """
    pts = np.asarray(pts, dtype=float)
    wq = np.asarray(wq, dtype=float)
    xis = np.asarray(xis, dtype=float)
    codes = np.asarray(codes)
    n_pts, n_terms = codes.shape
    # (grids, 1, 1): each grid's time broadcasts over its triples and nodes
    t = np.broadcast_to(np.asarray(t, dtype=float), (n_pts,))[:, None, None]
    per = len(pts) // n_pts
    edges = np.cumsum((0, *runs)).tolist()
    if edges[-1] != per:
        raise ValueError(f"runs {tuple(runs)} must split {per} nodes")
    spans = list(enumerate(zip(edges, edges[1:])))
    # (start, stop, [(run, cut)]): whole grids while a grid fits in a
    # block, else slices of one run, each counted from the run's start
    blocks = [(0, per, [(run, slice(*span)) for run, span in spans])]
    if per > TERM_SUMS_BLOCK:
        blocks = [(i, min(i + TERM_SUMS_BLOCK, b), [(run, slice(None))])
                  for run, (a, b) in spans for i in range(a, b, TERM_SUMS_BLOCK)]
    # (3, grids, nodes): coordinate columns, each node axis contiguous
    eta = np.ascontiguousarray(pts.reshape(n_pts, per, 3).transpose(2, 0, 1))
    wq = wq.reshape(n_pts, per)
    # |xi| per grid for omega: numpy takes each stacked (1x3) @ (3x1)
    # product with the dot routine of ``x @ x``, so a grid's norm has the
    # one-point bits.  The weight takes |xi| as ``term_weight`` does.
    nx = np.sqrt(xis[:, None, :] @ xis[:, :, None])[:, 0]
    tot = np.zeros((len(spans), n_pts, n_terms, 8), dtype=np.complex128)
    env = np.zeros((len(spans), n_pts, n_terms, 8), dtype=np.float64)
    step = max(TERM_SUMS_BLOCK // max(per, 1), 1)
    for first in range(0, n_pts, step):
        rows = slice(first, first + step)
        x = xis[rows].T[:, :, None]
        nx_weight = _norm3(x)
        t_rows = t[rows]
        for start, stop, cuts in blocks:
            e = eta[:, rows, start:stop]
            d = x - e
            nd = _norm3(d)
            ne = _norm3(e)
            # the s1 = +1 triples' omegas (nx - s2 nd) - s3 ne, in
            # SIGNS_ARRAY order; a - (-b) is a + b exactly
            near, far = nx[rows] - nd, nx[rows] + nd
            om = np.stack([near - ne, near + ne, far - ne, far + ne], axis=1)
            m = mult_values(t_rows, om)
            with np.errstate(divide="ignore"):  # 2 / 0 is inf, so min(t, inf) is t
                bound = np.minimum(t_rows, 2.0 / np.abs(om))
            # (C, grids, nodes): each grid's codes broadcast over its nodes
            weights = _weight(codes[rows].T[..., None], e, d, nx_weight, nd, ne)
            weights *= wq[rows, start:stop]
            for c, w in enumerate(weights):
                prods = m * w[:, None, :], bound * np.abs(w)[:, None, :]
                for run, cut in cuts:
                    part, bound_part = (p[..., cut].sum(axis=-1) for p in prods)
                    tot[run, rows, c] += np.concatenate([part, np.conj(part[:, ::-1])], axis=1)
                    env[run, rows, c] += np.concatenate([bound_part, bound_part[:, ::-1]], axis=1)
    env[:, resonant_triples(codes)] = 0.0
    return list(zip(tot, env))
