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
    """Vectorized multiplier; same two-branch rule as the scalar path."""
    om = np.asarray(om, dtype=float)
    x = t * om
    small = np.abs(x) < MULT_SERIES_THRESHOLD
    z = 1j * x
    series = t * (
        1.0 + z * (1 / 2 + z * (1 / 6 + z * (1 / 24 + z * (1 / 120 + z * (1 / 720)))))
    )
    om_safe = np.where(small, 1.0, om)
    half = 0.5 * x
    s = np.sin(half)
    c = np.cos(half)
    exact = (2.0 * s / om_safe) * (c + 1j * s)
    return np.where(small, series, exact)


# ---------------------------------------------------------------------------
# Bilinear kernel weights
#
# Codes index the four admissible-support terms: 0/2 put the planar data
# on the xi-eta slot with transverse factor eta_2 / eta_3; 1/3 swap the
# slots, with the sign of the swapped term folded in so that each weight
# is nonnegative on its own admissible set.
# ---------------------------------------------------------------------------

def term_weight(code: int, xi, eta, alpha: float = 1.0) -> np.ndarray:
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
    return alpha * num / (nx * nd * nd * ne * ne)


def _term_sums_loop(pts, wq, xi, t, alpha, code, signs, res_thr):
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
        w = alpha * num / (nx * nd * nd * ne * ne) * wq[i]
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


def term_sums(pts, wq, xi, t, alpha, code, signs, res_thr):
    """Per-sign-triple sums of m(t, omega) * weight over a quadrature grid.

    Returns ``(tot, res, env)``: for each of the 8 sign triples the full
    complex sum, the sum over resonant nodes (|omega| <= res_thr), and a
    pointwise envelope ``min(t, 2/|omega|) * |weight|`` over the rest.
    """
    pts = np.asarray(pts, dtype=float)
    wq = np.asarray(wq, dtype=float)
    xi = np.asarray(xi, dtype=float)
    w = term_weight(code, xi, pts, alpha) * wq
    d = xi - pts
    nx = float(np.sqrt(xi @ xi))
    nd = np.sqrt((d * d).sum(axis=-1))
    ne = np.sqrt((pts * pts).sum(axis=-1))
    tot = np.zeros(8, dtype=np.complex128)
    res = np.zeros(8, dtype=np.complex128)
    env = np.zeros(8, dtype=np.float64)
    aw = np.abs(w)
    for j in range(8):
        om = signs[j, 0] * nx - signs[j, 1] * nd - signs[j, 2] * ne
        contrib = mult_values(t, om) * w
        tot[j] = contrib.sum()
        mask = np.abs(om) <= res_thr
        res[j] = contrib[mask].sum()
        om_far = om[~mask]
        env[j] = (np.minimum(t, 2.0 / np.abs(om_far)) * aw[~mask]).sum()
    return tot, res, env


def overlap_lengths(vals: np.ndarray, a_lo: float, a_hi: float, b_lo: float, b_hi: float) -> np.ndarray:
    """Length of ``(v - [a_lo, a_hi]) ∩ [b_lo, b_hi]`` for each v (clipped at 0)."""
    lo = np.maximum(vals - a_hi, b_lo)
    hi = np.minimum(vals - a_lo, b_hi)
    return np.maximum(hi - lo, 0.0)
