"""Amplitude quadrature, resonance bookkeeping, and Sobolev norms.

The frequency-side output amplitude at time ``t`` and frequency ``xi``
is a sum over the 8 half-wave sign triples of phase-weighted integrals

    (1 / 4i) * exp(-i s1 t |xi|) * ∫ m(t, omega) * weight(xi, eta) d eta

taken over each kernel term's admissible eta-box.  Every integral is
evaluated on tensor Gauss-Legendre grids with node doubling until the
per-term totals settle.  Nodes are classified resonant or nonresonant by
the empirical cut |omega| <= lam^(3/4); the resonant and nonresonant
parts of the sum are accumulated separately, together with a rigorous
pointwise envelope min(t, 2/|omega|) * |weight| for the nonresonant
part.

All Sobolev norms use the convention

    ||u||_{H^r} = ( (2 pi)^-3 * ∫ <xi>^{2r} |u_hat(xi)|^2 d xi )^(1/2),

and a product of physical-side data transforms to ``(2 pi)^-3`` times
the convolution of the transforms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .boxes import Box3, QuadratureGrid, admissible_eta_region, quadrature_grid
from .construction import BilinearKernel, KnappParams, kernels
from .errors import InvalidParameterError
from .symbols import SIGN_TRIPLES, SIGNS_ARRAY, SignTriple, omega_all

# Per-term quadrature refinement: double nodes until the 8-triple totals
# move by less than this relative amount, up to REFINE_CAP doublings.
REFINE_RELTOL = 1e-6
REFINE_CAP = 3

TWO_PI_CUBED = (2.0 * math.pi) ** 3


class ResonanceClass(str, Enum):
    RESONANT = "resonant"
    NONRESONANT = "nonresonant"


@dataclass(frozen=True)
class ResonanceReport:
    """Both classifications of the 8 triples at one (xi, eta) pair.

    ``empirical`` uses the measured cut |omega| <= lam^(3/4);
    ``sign_pattern`` calls a triple resonant when its three signs agree.
    The two disagree on this geometry and both are recorded.
    """

    empirical: dict[SignTriple, ResonanceClass]
    sign_pattern: dict[SignTriple, ResonanceClass]
    omegas: dict[SignTriple, float]


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
    norm_output_lower: float


def resonance_classify(p: KnappParams, xi, eta) -> ResonanceReport:
    """Classify all 8 sign triples at one (xi, eta) pair."""
    oms = omega_all(xi, eta)
    thr = p.resonance_threshold
    empirical = {}
    pattern = {}
    omegas = {}
    for s, om in zip(SIGN_TRIPLES, oms):
        empirical[s] = (
            ResonanceClass.RESONANT if abs(om) <= thr else ResonanceClass.NONRESONANT
        )
        pattern[s] = (
            ResonanceClass.RESONANT if s.s1 == s.s2 == s.s3 else ResonanceClass.NONRESONANT
        )
        omegas[s] = float(om)
    return ResonanceReport(empirical=empirical, sign_pattern=pattern, omegas=omegas)


def _doubled(counts: tuple[int, int, int], factor: int) -> tuple[int, int, int]:
    return tuple(int(n) * factor for n in counts)  # type: ignore[return-value]


def _term_integrals(
    p: KnappParams, xi: np.ndarray, kern: BilinearKernel, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Refined per-triple integrals (total, resonant, envelope) for one term."""
    region = admissible_eta_region(xi, kern.support_a, kern.support_b)
    zeros = (np.zeros(8, complex), np.zeros(8, complex), np.zeros(8), [])
    if region is None:
        return zeros
    thr = p.resonance_threshold
    prev_tot = None
    tot = res = env = None
    flags: list[str] = []
    factor = 1
    for _ in range(REFINE_CAP + 1):
        grid = quadrature_grid(region, _doubled(p.grid, factor))
        if grid.weights.size == 0:
            return zeros
        tot, res, env = _kernels.term_sums(
            grid.points, grid.weights, xi, t, kern.alpha, kern.code, SIGNS_ARRAY, thr
        )
        if prev_tot is not None:
            scale = float(np.abs(tot).max())
            if scale == 0.0 or float(np.abs(tot - prev_tot).max()) <= REFINE_RELTOL * scale:
                return tot, res, env, flags
        prev_tot = tot
        factor *= 2
    flags.append(f"nonconverged_quadrature:{kern.label}")
    return tot, res, env, flags


def lambda_hat(
    p: KnappParams,
    xi,
    which: str = "both",
    signs: tuple[SignTriple, ...] | None = None,
    t: float | None = None,
) -> AmplitudeBreakdown:
    """Frequency-side output amplitude at (t, xi), fully broken down.

    ``which`` selects the transverse blocks ('axis2', 'axis3', 'both');
    ``signs`` restricts the sign triples (default: all 8); ``t`` overrides
    the configuration time (test hook).  Points outside the interaction
    support return an exact zero breakdown.  Non-convergence of a term's
    quadrature at the refinement cap is flagged, not raised.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (3,):
        raise InvalidParameterError("xi must be a 3-vector")
    if float(xi @ xi) == 0.0:
        raise InvalidParameterError("xi must be nonzero")
    t_val = p.t if t is None else float(t)
    if t_val < 0.0:
        raise InvalidParameterError(f"t must be nonnegative, got {t_val}")
    active = SIGN_TRIPLES if signs is None else tuple(signs)
    active_idx = [SIGN_TRIPLES.index(s) for s in active]

    tot_acc = np.zeros(8, dtype=complex)
    res_acc = np.zeros(8, dtype=complex)
    env_acc = np.zeros(8, dtype=float)
    flags: list[str] = []
    for kern in kernels(p, which):
        tot, res, env, term_flags = _term_integrals(p, xi, kern, t_val)
        tot_acc += tot
        res_acc += res
        env_acc += env
        flags.extend(term_flags)

    nx = math.sqrt(float(xi @ xi))
    pre = 1.0 / 4.0j
    per_sign: dict[SignTriple, complex] = {}
    total = 0.0j
    resonant = 0.0j
    envelope = 0.0
    for j in active_idx:
        sigma = SIGN_TRIPLES[j]
        phase = np.exp(-1j * sigma.s1 * t_val * nx)
        val = pre * phase * tot_acc[j]
        per_sign[sigma] = complex(val)
        total += val
        resonant += pre * phase * res_acc[j]
        envelope += 0.25 * env_acc[j]
    return AmplitudeBreakdown(
        total=complex(total),
        per_sign=per_sign,
        resonant_sum=complex(resonant),
        nonresonant_sum=complex(total - resonant),
        nonresonant_envelope=float(envelope),
        eval_point=(float(xi[0]), float(xi[1]), float(xi[2])),
        t=t_val,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def _bracket_sq(pts: np.ndarray) -> np.ndarray:
    return 1.0 + (pts * pts).sum(axis=-1)


def sobolev_norm_monomial(
    b: Box3,
    monomial: tuple[int, int, int],
    amplitude: float,
    r: float,
    nodes_per_axis: tuple[int, int, int] = (32, 16, 16),
) -> float:
    """H^r norm of data whose transform is ``amplitude * xi^monomial`` on ``b``.

    On a surface box the integral carries the box's 2-D measure; such
    values are formal (a genuine 3-D norm of surface-supported data does
    not exist) and are flagged by callers.
    """
    if any(int(m) < 0 for m in monomial):
        raise InvalidParameterError(f"monomial powers must be nonnegative, got {monomial}")
    grid = quadrature_grid(b, nodes_per_axis)
    if grid.weights.size == 0:
        return 0.0
    vals = _bracket_sq(grid.points) ** r
    for i, m in enumerate(monomial):
        if m:
            vals = vals * grid.points[:, i] ** (2 * int(m))
    integral = float(grid.weights @ vals) * amplitude * amplitude
    return math.sqrt(integral / TWO_PI_CUBED)


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
    return _kernels.overlap_lengths(vals, a_lo, a_hi, b_lo, b_hi)


def product_norm_boxes(
    a: Box3,
    b: Box3,
    r: float,
    nodes_per_axis: tuple[int, int, int] = (32, 16, 16),
    alpha: float = 1.0,
) -> float:
    """H^r norm of a product of data with transforms chi_a and alpha*chi_b.

    The transform of the product is ``(2 pi)^-3`` times the convolution,
    which factorizes per axis for axis-aligned boxes; the norm integral
    over the Minkowski-sum support is done by Gauss-Legendre composite
    over the cells between the per-axis kink points of the convolution.
    """
    axis_cells = []
    for i in range(3):
        if i == a.surface_axis:
            lo, hi = a.axes[i][0] + b.axes[i][0], a.axes[i][0] + b.axes[i][1]
            cuts = np.array([lo, hi])
        elif i == b.surface_axis:
            cuts = np.array([a.axes[i][0] + b.axes[i][0], a.axes[i][1] + b.axes[i][0]])
        else:
            cuts = _axis_breakpoints(a.axes[i], b.axes[i])
        cells = [(cuts[j], cuts[j + 1]) for j in range(len(cuts) - 1) if cuts[j + 1] > cuts[j]]
        if not cells:
            return 0.0
        axis_cells.append(cells)

    integral = 0.0
    for c1 in axis_cells[0]:
        for c2 in axis_cells[1]:
            for c3 in axis_cells[2]:
                cell = Box3(ax1=c1, ax2=c2, ax3=c3)
                grid = quadrature_grid(cell, nodes_per_axis)
                if grid.weights.size == 0:
                    continue
                conv = alpha * (
                    _conv_factor(grid.points[:, 0], a, b, 0)
                    * _conv_factor(grid.points[:, 1], a, b, 1)
                    * _conv_factor(grid.points[:, 2], a, b, 2)
                )
                vals = _bracket_sq(grid.points) ** r * (conv / TWO_PI_CUBED) ** 2
                integral += float(grid.weights @ vals)
    return math.sqrt(integral / TWO_PI_CUBED)


def product_norm(p: KnappParams, r: float | None = None) -> float:
    """H^r norm of the product datum a1 * a2 for a configuration."""
    r_val = p.r_exp if r is None else float(r)
    return product_norm_boxes(
        p.w2_box, p.neg_wprime_box, r_val, nodes_per_axis=p.grid, alpha=p.slab.amplitude
    )


def norm_report(
    p: KnappParams,
    r: float | None = None,
    *,
    output_lower: float,
) -> NormReport:
    """All data norms for a configuration, plus the given output lower bound.

    ``norm_total`` is the H^r size of the curl block contributed by the
    first datum, (0, d3 a1, -d2 a1): the quadrature sum of its two
    component norms.  It is the scaling-relevant input norm (the second
    datum's block is lower order on this geometry) and is what the
    smoothness verdict divides by.
    """
    r_val = p.r_exp if r is None else float(r)
    nd2 = sobolev_norm_monomial(p.w2_box, (0, 1, 0), 1.0, r_val, p.grid)
    nd3 = sobolev_norm_monomial(p.w2_box, (0, 0, 1), 1.0, r_val, p.grid)
    nd1a2 = sobolev_norm_monomial(
        p.neg_wprime_box, (1, 0, 0), p.slab.amplitude, r_val, p.grid
    )
    nprod = product_norm(p, r_val)
    return NormReport(
        norm_d2a1=nd2,
        norm_d1a2=nd1a2,
        norm_product=nprod,
        norm_total=math.hypot(nd2, nd3),
        norm_output_lower=float(output_lower),
    )


# ---------------------------------------------------------------------------
# Output norm lower bound
# ---------------------------------------------------------------------------

def sample_lattice(b: Box3, n_per_axis: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Regular n^3 lattice over a volume box, including its corners."""
    axes = [np.linspace(lo, hi, n_per_axis) for lo, hi in b.axes]
    g1, g2, g3 = np.meshgrid(*axes, indexing="ij")
    return axes, np.column_stack([g1.ravel(), g2.ravel(), g3.ravel()])


def _trilinear(corners: np.ndarray, lo: np.ndarray, hi: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Trilinear interpolant at ``pts`` of one lattice cell ``[lo, hi]``.

    ``corners[c1, c2, c3]`` is the value at the low (0) or high (1) end
    of each axis.  The operation order is that of scipy's linear
    ``RegularGridInterpolator``, so the two agree bit for bit.
    """
    y = (pts - lo) / (hi - lo)
    out = np.zeros(len(pts))
    for corner in itertools.product((0, 1), repeat=3):
        w = np.ones(len(pts))
        for axis, c in enumerate(corner):
            w = w * (y[:, axis] if c else 1 - y[:, axis])
        out = out + corners[corner] * w
    return out


def output_norm_from_samples(
    p: KnappParams,
    s: float,
    lattice_axes: list[np.ndarray],
    amps: np.ndarray,
) -> float:
    """Weighted-norm lower bound from amplitude magnitudes on a lattice.

    Interpolates |amplitude| trilinearly within each lattice cell and
    integrates ``(2 pi)^-3 <xi>^{2s} |amp|^2`` over the sampling box by
    per-cell Gauss-Legendre (the interpolant is smooth within cells).
    """
    shape = tuple(len(ax) for ax in lattice_axes)
    vals = amps.reshape(shape)
    integral = 0.0
    for idx in itertools.product(*(range(n - 1) for n in shape)):
        lo = np.array([ax[i] for ax, i in zip(lattice_axes, idx)])
        hi = np.array([ax[i + 1] for ax, i in zip(lattice_axes, idx)])
        grid = quadrature_grid(Box3(*zip(lo, hi)), (6, 6, 6))
        corners = vals[tuple(slice(i, i + 2) for i in idx)]
        interp = _trilinear(corners, lo, hi, grid.points)
        integral += float(grid.weights @ (_bracket_sq(grid.points) ** s * interp**2))
    return math.sqrt(integral / TWO_PI_CUBED)
