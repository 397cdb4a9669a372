"""Hot numerical kernels, vectorized with numpy.

``term_sums`` is the one evaluation path; ``_term_sums_loop`` is its
scalar reference, kept for the agreement test.
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

# Nodes per block in ``term_sums``.  Its 8 x block complex temporaries
# take 0.5 MB each whatever the grid size or the number of points, so a
# ceiling grid of 256 x 128 x 128 nodes needs no more memory than a
# small one.
TERM_SUMS_BLOCK = 1 << 12


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


def mult_values(t: float, om: np.ndarray) -> np.ndarray:
    """Vectorized multiplier; same two-branch rule as the scalar path.

    Each branch is evaluated only on the elements it applies to.
    """
    om = np.asarray(om, dtype=float)
    x = t * om
    small = np.abs(x) < MULT_SERIES_THRESHOLD
    out = np.empty(x.shape, dtype=complex)
    z = 1j * x[small]
    out[small] = t * (
        1.0 + z * (1 / 2 + z * (1 / 6 + z * (1 / 24 + z * (1 / 120 + z * (1 / 720)))))
    )
    big = ~small
    half = 0.5 * x[big]
    s = np.sin(half)
    c = np.cos(half)
    out[big] = (2.0 * s / om[big]) * (c + 1j * s)
    return out


# ---------------------------------------------------------------------------
# Bilinear kernel weights
#
# Codes index the four admissible-support terms: 0/2 put the planar data
# on the xi-eta slot with transverse factor eta_2 / eta_3; 1/3 swap the
# slots, with the sign of the swapped term folded in so that each weight
# is nonnegative on its own admissible set.
# ---------------------------------------------------------------------------

def term_weight(code: int, xi, eta) -> np.ndarray:
    """Kernel weight w(xi, eta); broadcasts over leading axes of eta."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    d = xi - eta
    nx = np.sqrt((xi * xi).sum(axis=-1))
    nd = np.sqrt((d * d).sum(axis=-1))
    ne = np.sqrt((eta * eta).sum(axis=-1))
    d1 = d[..., 0]
    e1 = eta[..., 0]
    if code == 0:
        num = d1 * d1 * e1 * e1 * eta[..., 1]
    elif code == 1:
        num = -(d1 * d[..., 1] * e1 * e1 * e1)
    elif code == 2:
        num = d1 * d1 * e1 * e1 * eta[..., 2]
    elif code == 3:
        num = -(d1 * d[..., 2] * e1 * e1 * e1)
    else:
        raise ValueError(f"unknown kernel code {code}")
    return num / (nx * nd * nd * ne * ne)


def _term_sums_loop(pts, wq, xi, t, code, signs, res_thr):
    """Scalar reference for ``term_sums``, used only to check it in tests."""
    n = pts.shape[0]
    tot = np.zeros(8, dtype=np.complex128)
    res = np.zeros(8, dtype=np.complex128)
    env = np.zeros(8, dtype=np.float64)
    nx = math.sqrt(xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2])
    for i in range(n):
        e1 = pts[i, 0]
        e2 = pts[i, 1]
        e3 = pts[i, 2]
        d1 = xi[0] - e1
        d2 = xi[1] - e2
        d3 = xi[2] - e3
        ne = math.sqrt(e1 * e1 + e2 * e2 + e3 * e3)
        nd = math.sqrt(d1 * d1 + d2 * d2 + d3 * d3)
        if code == 0:
            num = d1 * d1 * e1 * e1 * e2
        elif code == 1:
            num = -(d1 * d2 * e1 * e1 * e1)
        elif code == 2:
            num = d1 * d1 * e1 * e1 * e3
        else:
            num = -(d1 * d3 * e1 * e1 * e1)
        w = num / (nx * nd * nd * ne * ne) * wq[i]
        aw = abs(w)
        for j in range(8):
            om = signs[j, 0] * nx - signs[j, 1] * nd - signs[j, 2] * ne
            c = _mult_py(t, om) * w
            tot[j] += c
            if abs(om) <= res_thr:
                res[j] += c
            else:
                env[j] += min(t, 2.0 / abs(om)) * aw
    return tot, res, env


def term_sums(pts, wq, xis, t, codes, signs, res_thr):
    """Per-sign-triple sums of m(t, omega) * weight over quadrature grids.

    ``xis`` holds P output frequencies, shape ``(P, 3)``; ``pts``
    ``(N, 3)`` and ``wq`` ``(N,)`` hold P grids of N / P nodes each, row
    j's grid in rows ``j*N/P`` to ``(j+1)*N/P``.  ``codes`` holds one
    kernel term's code per row, so a call may mix terms.  Returns
    ``(tot, res, env)``, each of shape ``(P, 8)``: for each row and sign
    triple the full complex sum, the sum over resonant nodes
    (|omega| <= res_thr), and a pointwise envelope
    ``min(t, 2/|omega|) * |weight|`` over the rest.  All 8 triples are
    evaluated together as ``(rows, 8, nodes)`` arrays over blocks of at
    most ``TERM_SUMS_BLOCK`` nodes: whole grids while a grid fits in a
    block, else consecutive slices of one grid.  Each row's nodes are
    summed along a contiguous axis, so a row's sums do not depend on the
    other rows of the call.
    """
    pts = np.asarray(pts, dtype=float)
    wq = np.asarray(wq, dtype=float)
    xis = np.asarray(xis, dtype=float)
    codes = np.asarray(codes)
    n_pts = len(xis)
    per = len(pts) // n_pts
    eta = pts.reshape(n_pts, per, 3)
    wq = wq.reshape(n_pts, per)
    # |xi| per row: numpy takes each stacked (1x3) @ (3x1) product with
    # the dot routine of ``x @ x``, so a row's norm has the one-point bits.
    nx = np.sqrt(xis[:, None, :] @ xis[:, :, None])
    tot = np.zeros((n_pts, 8), dtype=np.complex128)
    res = np.zeros((n_pts, 8), dtype=np.complex128)
    env = np.zeros((n_pts, 8), dtype=np.float64)
    width = max(min(per, TERM_SUMS_BLOCK), 1)
    step = max(TERM_SUMS_BLOCK // width, 1)
    for first in range(0, n_pts, step):
        rows = slice(first, first + step)
        x = xis[rows, None, :]
        block_codes = codes[rows]
        # Each run of rows with one kernel code is weighted in one call.
        cuts = [0, *(np.flatnonzero(np.diff(block_codes)) + 1), len(block_codes)]
        for start in range(0, per, width):
            e = eta[rows, start : start + width]
            w = np.empty(e.shape[:-1])
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                w[lo:hi] = term_weight(int(block_codes[lo]), x[lo:hi], e[lo:hi])
            w *= wq[rows, start : start + width]
            d = x - e
            nd = np.sqrt((d * d).sum(axis=-1))[:, None, :]
            ne = np.sqrt((e * e).sum(axis=-1))[:, None, :]
            om = signs[:, 0:1] * nx[rows] - signs[:, 1:2] * nd - signs[:, 2:3] * ne
            contrib = mult_values(t, om) * w[:, None, :]
            abs_om = np.abs(om)
            resonant = abs_om <= res_thr
            tot[rows] += contrib.sum(axis=-1)
            res[rows] += np.where(resonant, contrib, 0.0).sum(axis=-1)
            aw = np.abs(w)[:, None, :]
            far = np.minimum(t, 2.0 / np.where(resonant, 1.0, abs_om)) * aw
            env[rows] += np.where(resonant, 0.0, far).sum(axis=-1)
    return tot, res, env

