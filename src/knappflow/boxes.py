"""Axis-aligned frequency boxes and tensor-product Gauss-Legendre grids.

A box is a volume box or a surface box: one degenerate axis carrying
2-D measure.  All set algebra needed downstream -- dilation, reflection,
the admissible eta-regions of a support pair and the product datum's
convolution factors -- reduces to per-axis interval arithmetic and is
kept exact here, beside the Gauss-Legendre rules every grid of the
package takes.  Every overlap ``(x - a) ∩ b`` of one axis is one
``overlap`` call, which states the package's one interval rule; a
surface axis is its one-point case.  This module knows no Knapp
number: the boxes ``W`` and ``W'`` and their widths live in
``construction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidParameterError, is_real, is_whole, shown

@dataclass(frozen=True)
class Box3:
    """Closed axis-aligned box, optionally degenerate along one axis.

    ``surface_axis`` marks the single degenerate axis of a surface box;
    such a box carries 2-D measure on its two non-degenerate axes.  A
    volume box may still have zero-length axes (then its measure is 0 --
    degeneracy does not silently promote it to a surface).  Membership
    on a surface axis is exact, by ``overlap``'s rule for a point axis:
    an overlap with the surface is found only where its two ends meet
    at the axis's point.
    """

    ax1: tuple[float, float]
    ax2: tuple[float, float]
    ax3: tuple[float, float]
    surface_axis: int | None = None

    def __post_init__(self) -> None:
        for i, axis in enumerate(self.axes, 1):
            try:
                lo, hi = axis
            except (TypeError, ValueError):
                raise InvalidParameterError(
                    f"box axis ax{i} must be a (lo, hi) pair, got {shown(axis)}"
                ) from None
            if not (is_real(lo) and is_real(hi) and math.isfinite(lo) and math.isfinite(hi)):
                raise InvalidParameterError(f"box endpoints must be finite, got {shown((lo, hi))}")
            if lo > hi:
                raise InvalidParameterError(f"empty axis interval ({lo}, {hi})")
        if self.surface_axis is not None:
            if self.surface_axis not in (0, 1, 2):
                raise InvalidParameterError("surface_axis must be 0, 1 or 2")
            for i, (lo, hi) in enumerate(self.axes):
                if i == self.surface_axis and lo != hi:
                    raise InvalidParameterError("surface axis must be degenerate")
                if i != self.surface_axis and lo >= hi:
                    raise InvalidParameterError(
                        "a surface box must have exactly one degenerate axis"
                    )

    @property
    def axes(self) -> tuple[tuple[float, float], ...]:
        return (self.ax1, self.ax2, self.ax3)

    @property
    def measure(self) -> float:
        """Lebesgue measure: 3-D for volume boxes, 2-D for surface boxes."""
        out = 1.0
        for i, (lo, hi) in enumerate(self.axes):
            if i != self.surface_axis:
                out *= hi - lo
        return out

    @property
    def has_null_axis(self) -> bool:
        """True when a volume axis has zero length: measure 0, no grid nodes."""
        return any(lo == hi for i, (lo, hi) in enumerate(self.axes) if i != self.surface_axis)

    def center(self) -> np.ndarray:
        return np.array([(lo + hi) / 2.0 for lo, hi in self.axes])


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product quadrature nodes with weights summing to the measure."""

    points: np.ndarray  # (n, 3) float64
    weights: np.ndarray  # (n,) float64
    total_measure: float


def box_scale(b: Box3, c: float) -> Box3:
    """Dilate a box by ``c`` about the origin (``c < 0`` reflects it)."""
    if c == 0.0:
        raise InvalidParameterError("scale factor must be nonzero")
    axes = []
    for lo, hi in b.axes:
        a, z = c * lo, c * hi
        axes.append((a, z) if a <= z else (z, a))
    return Box3(*axes, surface_axis=b.surface_axis)


def overlap(x, a, b, point: bool):
    """The ends of ``(x - a) ∩ b`` on one axis, and where it is found.

    ``a`` and ``b`` are ``(lo, hi)`` pairs of floats or of arrays that
    broadcast against ``x``.  ``x - a`` reverses its interval, so the
    ends are ``lo = max(x - a_hi, b_lo)`` and ``hi = min(x - a_lo, b_hi)``.
    The package's one interval rule reads them: an axis where one side is
    a single point (``point``: a surface axis) is found where
    ``lo <= hi`` and counts 1 there; any other axis is found where
    ``lo < hi`` and counts ``max(hi - lo, 0)``, which in floats is
    positive exactly where ``hi > lo``.  Returns ``(lo, hi, found)``.
    """
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    lo, hi = np.maximum(x - a_hi, b_lo), np.minimum(x - a_lo, b_hi)
    return lo, hi, (lo <= hi if point else lo < hi)


class EtaRegions(NamedTuple):
    """Admissible eta-regions of P output frequencies against one support pair.

    Row j is the box with per-axis bounds ``lo[j]``, ``hi[j]`` (shape
    ``(P, 3)`` each), sharing ``surface_axis``.
    ``found[j]`` is True exactly when every axis of the row is found by
    ``overlap``'s rule; where it is False the row's bounds are
    meaningless.
    """

    lo: np.ndarray
    hi: np.ndarray
    found: np.ndarray
    surface_axis: int | None


def admissible_eta_region(xi, a: Box3, b: Box3) -> EtaRegions:
    """The eta-sets where ``xi - eta`` lies in ``a`` and ``eta`` lies in ``b``.

    For P output frequencies ``xi`` (shape ``(P, 3)``) returns each row's
    ``(xi - a) ∩ b`` as ``EtaRegions`` bounds arrays, one ``overlap``
    call per axis.  At most one operand may be a surface box.  Its
    surface axis is a point axis: a found row's ends there are the one
    pinned coordinate, and the region carries 2-D measure on the
    remaining axes.  A volume axis must have ``lo < hi``, so a region
    that is a single point along a volume axis, in a volume or a
    surface intersection, is not found.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2 or xi.shape[1] != 3:
        raise InvalidParameterError("xi must be an array of 3-vectors")
    if a.surface_axis is not None and b.surface_axis is not None:
        raise InvalidParameterError("at most one operand may be a surface box")
    surface_axis = a.surface_axis if a.surface_axis is not None else b.surface_axis
    lo, hi = np.empty_like(xi), np.empty_like(xi)
    found = np.ones(len(xi), dtype=bool)
    for i in range(3):
        lo[:, i], hi[:, i], on = overlap(xi[:, i], a.axes[i], b.axes[i], i == surface_axis)
        found &= on
    return EtaRegions(lo, hi, found, surface_axis)


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's n-point Gauss-Legendre nodes and weights on ``[-1, 1]``, once per n."""
    return leggauss(n)


def axis_rule(lo, hi, n: int, surface: bool) -> tuple[np.ndarray, np.ndarray]:
    """One axis's nodes and weights on each interval ``[lo, hi]``.

    ``lo`` and ``hi`` are arrays of interval ends; the nodes and weights
    gain a trailing axis.  A surface axis is each interval's single point
    ``lo`` with weight 1; any other axis takes the n-point Gauss-Legendre
    rule mapped onto each interval, ``mid + half * u`` with weights
    ``half * w``.  Every grid of the package takes its per-axis rule from
    here.
    """
    lo = np.asarray(lo, dtype=float)
    if surface:
        point = lo[..., None]
        return point, np.ones_like(point)
    hi = np.asarray(hi, dtype=float)
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    u, w = _leggauss(n)
    return mid[..., None] + half[..., None] * u, half[..., None] * w


def _node_counts(nodes_per_axis) -> tuple[int, int, int]:
    """A grid as 3 ints: a sequence of 3 finite whole numbers >= 1."""
    try:
        ok = len(nodes_per_axis) == 3 and all(is_whole(n, 1) for n in nodes_per_axis)
    except TypeError:  # no len() or no iteration: not a sequence
        ok = False
    if not ok:
        raise InvalidParameterError(
            f"grid must be 3 whole numbers >= 1, got {shown(nodes_per_axis)}"
        )
    return tuple(int(n) for n in nodes_per_axis)


def quadrature_nodes(
    lo, hi, nodes_per_axis: tuple[int, int, int], surface_axis: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Legendre nodes and weights of P boxes at once.

    Box j spans ``lo[j]`` to ``hi[j]`` (arrays of shape ``(P, 3)``); the
    boxes share ``surface_axis`` (or none), whose single point ``lo[j]``
    gets weight 1, and have no zero-length volume axis.  Returns
    ``points`` of shape ``(P, n, 3)`` and ``weights`` of shape ``(P, n)``
    for n nodes per box, each box's nodes ordered with axis 1 slowest and
    axis 3 fastest.
    """
    counts = _node_counts(nodes_per_axis)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    (x1, w1), (x2, w2), (x3, w3) = (
        axis_rule(lo[:, i], hi[:, i], counts[i], i == surface_axis) for i in range(3)
    )
    points = np.empty((len(lo), x1.shape[1], x2.shape[1], x3.shape[1], 3))
    points[..., 0] = x1[:, :, None, None]
    points[..., 1] = x2[:, None, :, None]
    points[..., 2] = x3[:, None, None, :]
    weights = (w1[:, :, None, None] * w2[:, None, :, None]) * w3[:, None, None, :]
    return points.reshape(len(lo), -1, 3), weights.reshape(len(lo), -1)


def quadrature_grid(b: Box3, nodes_per_axis: tuple[int, int, int]) -> QuadratureGrid:
    """Tensor-product Gauss-Legendre grid over a box.

    A surface axis contributes its single point with weight 1 so that the
    weights integrate the 2-D measure.  A zero-length volume axis yields
    an empty grid (measure 0), not an error.
    """
    _node_counts(nodes_per_axis)
    if b.has_null_axis:
        empty = np.empty((0, 3))
        return QuadratureGrid(points=empty, weights=np.empty(0), total_measure=0.0)
    bounds = np.array([b.axes], dtype=float)
    points, weights = quadrature_nodes(
        bounds[..., 0], bounds[..., 1], nodes_per_axis, b.surface_axis
    )
    return QuadratureGrid(points=points[0], weights=weights[0], total_measure=b.measure)
