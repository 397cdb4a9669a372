"""Knapp-type counterexample data: parameter resolution, data symbols, kernels.

The datum concentrates the first potential component on the dilated box
``2W`` and the second on the reflected planar box ``-W'``.  The
evaluation time is tied to the frequency scale by ``t = eps / sqrt(lam)``
with ``lam`` chosen from a resonance window so that ``t |xi|`` sits
within ``eps`` of ``2 k pi`` for every ``xi`` in ``W``: the resonant
interactions then add coherently while every nonresonant phase is small.

The bilinear interaction splits into four admissible-support terms (two
per transverse axis).  Their weights are written with all signs folded
in, so each weight is nonnegative on its own support pair.

Every Knapp number lives here: the widths of ``W`` and ``W'`` and the
slab thickness, each as a multiple of a power of ``lam``.  A
configuration, ``KnappParams``, is ``(lam, eps, mode, grid)``: the slab
thickness derives from ``lam`` and ``mode``, and every box, the
sampling window included, from ``W``.  The resonance window ``(rho, k)``
only chooses ``lam`` (``make_params``), and ``lambda_window`` is the one
rule for it: whether a window is empty is whatever its computed interval
says, never a restated bound on ``rho``.  ``boxes`` holds only box
algebra and quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boxes import Box3, _node_counts, box_scale
from .errors import InvalidParameterError, WindowEmptyError, is_real, is_whole, shown

# Relative half-width of W and W' along axis 1, and W's transverse
# window [TRANSVERSE_LO, TRANSVERSE_HI] * sqrt(lam) along axes 2 and 3.
AXIAL_HALF_WIDTH = 1e-6
TRANSVERSE_LO = 1e-9
TRANSVERSE_HI = 1e-6
# rho must cover the spread of |xi|/lam over W: AXIAL_HALF_WIDTH per
# side along axis 1 plus transverse corrections bounded by TRANSVERSE_HI**2.
RHO_MIN = AXIAL_HALF_WIDTH + TRANSVERSE_HI**2
DEFAULT_RHO = 2e-6
DEFAULT_GRID = (32, 16, 16)
# Default slab thickness as a multiple of sqrt(lam).
DEFAULT_SLAB_FACTOR = 1e-6


@dataclass(frozen=True)
class KnappParams:
    """One member of the Knapp family: ``(lam, eps, mode, grid)``.

    ``lam`` is the frequency scale and ``t = eps / sqrt(lam)`` the
    evaluation time.  ``mode`` is the planar-box convention:
    ``"surface"`` gives W' 2-D measure, ``"slab"`` makes it a volume slab
    of thickness ``DEFAULT_SLAB_FACTOR * sqrt(lam)`` centered on the
    plane.  ``grid`` is the quadrature grid.  The window ``(rho, k)``
    that chose ``lam`` is not kept: no evaluation reads it.
    """

    lam: float
    eps: float
    mode: str
    grid: tuple[int, int, int] = DEFAULT_GRID

    def __post_init__(self) -> None:
        if not (is_real(self.lam) and 1e3 < self.lam < math.inf):
            raise InvalidParameterError(f"lam must exceed 1e3 and be finite, got {shown(self.lam)}")
        _check_eps(self.eps)
        if self.mode not in ("slab", "surface"):
            raise InvalidParameterError(f"mode must be 'slab' or 'surface', got {self.mode!r}")
        object.__setattr__(self, "grid", _node_counts(self.grid))

    @property
    def t(self) -> float:
        """Evaluation time eps / sqrt(lam)."""
        return self.eps / math.sqrt(self.lam)

    # The thickness and the boxes are built on first read and kept on the
    # instance, outside the fields: equality, hash and repr see the fields
    # alone.
    @cached_property
    def thickness(self) -> float | None:
        """The slab's thickness ``DEFAULT_SLAB_FACTOR * sqrt(lam)``; None in surface mode."""
        return None if self.mode == "surface" else DEFAULT_SLAB_FACTOR * math.sqrt(self.lam)

    @cached_property
    def w_box(self) -> Box3:
        """Main volume box near ``lam * e1`` with positive transverse window."""
        lam, rt = self.lam, np.sqrt(self.lam)
        axial = (lam - AXIAL_HALF_WIDTH * lam, lam + AXIAL_HALF_WIDTH * lam)
        trans = (TRANSVERSE_LO * rt, TRANSVERSE_HI * rt)
        return Box3(ax1=axial, ax2=trans, ax3=trans)

    @cached_property
    def w2_box(self) -> Box3:
        """Support of the first datum: the dilate 2W."""
        return box_scale(self.w_box, 2.0)

    @cached_property
    def wprime_box(self) -> Box3:
        """Planar companion box in the ``xi3 = 0`` plane.

        In the surface convention axis 3 is degenerate at 0 and the box
        carries 2-D measure; a slab is centered on the plane.
        """
        ax1, rt = self.w_box.ax1, np.sqrt(self.lam)
        ax2 = (-TRANSVERSE_HI * rt, TRANSVERSE_HI * rt)
        if self.thickness is None:
            return Box3(ax1=ax1, ax2=ax2, ax3=(0.0, 0.0), surface_axis=2)
        half = self.thickness / 2.0
        return Box3(ax1=ax1, ax2=ax2, ax3=(-half, half))

    @cached_property
    def neg_wprime_box(self) -> Box3:
        """Support of the second datum: the reflection -W'."""
        return box_scale(self.wprime_box, -1.0)

    @cached_property
    def samp_box(self) -> Box3:
        """Output sampling sub-box of W where all four terms are active.

        It is ``W`` with its axis-3 floor doubled.  A planar term pins
        the planar operand's axis-3 coordinate to 0, so the operand in
        ``2W`` carries all of ``xi3``; the doubled floor keeps every
        sampled ``xi3`` in ``2W``'s axis-3 interval, in both operand
        orders.
        """
        w = self.w_box
        return Box3(w.ax1, w.ax2, (2.0 * w.ax3[0], w.ax3[1]))


def _check_eps(eps: float) -> None:
    """The one eps rule, of ``KnappParams`` and ``lambda_window``: eps lies in (0, 0.1]."""
    if not (is_real(eps) and 0.0 < eps <= 0.1):
        raise InvalidParameterError(f"eps must lie in (0, 0.1], got {shown(eps)}")


def window_index(k) -> int:
    """``k`` as an int; a window index is a finite whole number >= 1."""
    if not is_whole(k, 1):
        raise InvalidParameterError(f"k must be a positive integer, got {shown(k)}")
    return int(k)


def lambda_window(eps: float, rho: float, k: int) -> tuple[float, float] | None:
    """Admissible open interval for sqrt(lam), or None when empty.

    The window guarantees ``t |xi|`` within ``eps`` of ``2 k pi`` for all
    ``|xi|`` within relative ``rho`` of ``lam``.  This is the package's one
    window rule: the window is the computed ``(lo, hi)`` when ``lo < hi``
    and None otherwise.  In exact arithmetic ``lo < hi`` is
    ``2 k pi rho < eps``; rounding closes the window a little below that
    edge, by about 4e-12 relative at eps 1e-3 and k 7 and by up to about
    1.5e-10 where ``rho`` nears ``RHO_MIN`` (the band grows like the unit
    roundoff over ``rho``).  ``rho`` below ``RHO_MIN`` cannot cover the
    spread of ``|xi| / lam`` over ``W`` and raises ``InvalidParameterError``.
    """
    _check_eps(eps)
    if not (is_real(rho) and 0.0 < rho < 1.0):
        raise InvalidParameterError(f"rho must lie in (0, 1), got {shown(rho)}")
    if rho < RHO_MIN:
        raise InvalidParameterError(
            f"rho={rho} cannot cover the box spread of |xi|/lam; need rho >= {RHO_MIN}"
        )
    k = window_index(k)
    lo = (2.0 * k * math.pi - eps) / (eps * (1.0 - rho))
    hi = (2.0 * k * math.pi + eps) / (eps * (1.0 + rho))
    if lo >= hi:
        return None
    return (lo, hi)


def make_params(
    eps: float,
    rho: float,
    k: int,
    mode: str = "slab",
    grid: tuple[int, int, int] = DEFAULT_GRID,
) -> KnappParams:
    """The configuration with lam at the midpoint of window ``(rho, k)``.

    ``rho`` and ``k`` choose ``lam`` and are checked by ``lambda_window``;
    the result keeps neither.  ``mode`` is ``"slab"`` or ``"surface"``, and
    ``KnappParams`` derives the slab thickness from it.  Raises
    ``WindowEmptyError`` exactly when ``lambda_window`` returns None.
    """
    window = lambda_window(eps, rho, k)
    if window is None:
        raise WindowEmptyError(
            f"resonance window empty for eps={eps}, rho={rho}, k={k}; decrease rho or k"
        )
    root = (window[0] + window[1]) / 2.0
    return KnappParams(lam=root * root, eps=eps, mode=mode, grid=grid)


def curl_parts(xi, a1_val: complex, a2_val: complex) -> tuple[np.ndarray, np.ndarray]:
    """Polynomial symbol vectors of the linearized curvature curl.

    Returns the two blocks (a1-borne, a2-borne), without the half-wave
    phase factors:

        a2 block: ((i xi1)(i xi2), -(i xi1)^2, 0) * a2
        a1 block: (-(i xi2)^2 - (i xi3)^2, (i xi1)(i xi2), (i xi1)(i xi3)) * a1

    Their sum equals ``-xi (xi . a) + |xi|^2 a`` for ``a = (a1, a2, 0)``
    whenever ``xi3 * a2 = 0``, i.e. on admissible planar data.
    """
    x1, x2, x3 = np.asarray(xi, dtype=float)
    a1_part = np.array(
        [(x2 * x2 + x3 * x3) * a1_val, -x1 * x2 * a1_val, -x1 * x3 * a1_val],
        dtype=complex,
    )
    a2_part = np.array([-x1 * x2 * a2_val, x1 * x1 * a2_val, 0.0], dtype=complex)
    return a1_part, a2_part


@dataclass(frozen=True)
class BilinearKernel:
    """One admissible-support term of the bilinear interaction.

    ``_kernels.term_weight(code, xi, eta)`` is its real kernel weight
    (signs folded in, so it is nonnegative when ``xi - eta`` lies in
    ``support_a`` and ``eta`` in ``support_b``); ``_kernels`` documents
    the code layout.
    """

    label: str
    code: int
    support_a: Box3
    support_b: Box3


def kernels(p: KnappParams) -> tuple[BilinearKernel, ...]:
    """The four admissible-support terms, two per transverse block.

    A block is the transverse axis of the curvature factor.  Term 1 of
    each block carries the planar datum on the ``xi - eta`` slot; term 2
    swaps the slots.  Codes and labels follow ``_kernels``' layout.
    """
    w2 = p.w2_box
    nwp = p.neg_wprime_box
    return (
        BilinearKernel("axis2.t1", 0, nwp, w2),
        BilinearKernel("axis2.t2", 1, w2, nwp),
        BilinearKernel("axis3.t1", 2, nwp, w2),
        BilinearKernel("axis3.t2", 3, w2, nwp),
    )
