"""A fixed reference kernel that gauges the machine's current speed.

On a shared VM the CPU time of identical work drifts by 10-30% within
minutes, because the host's load changes.  The benchmark therefore runs
short slices of this kernel about every ``SLICE_EVERY_S`` CPU seconds
of work: between units, and inside long units at a hooked package call.
Each stretch of work between two slices (a *segment*) has its CPU
seconds rescaled by the mean of those two slices, to the speed at which
one slice takes ``REFERENCE_SLICE_S`` CPU seconds.  The kernel mixes
interpreter work and numpy on arrays of 1,024, 8,192 and 65,536
elements, like the workloads.  It does not touch the package, so a
change to the package moves the rescaled times and a change in the
host's speed mostly does not.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Median CPU seconds of one slice on the 2-vCPU VM where the benchmark
# was defined; it only sets the scale of the rescaled times.
REFERENCE_SLICE_S = 0.058
# Run a slice once at least this many CPU seconds of work have been done.
SLICE_EVERY_S = 0.5
_ROUNDS = 9


@dataclass
class Piece:
    """A timed piece of work: its segments as ``(cpu_s, mark)`` and the
    wall seconds of the slices run inside it."""

    segments: list[tuple[float, int]]
    slice_wall_s: float

    @property
    def cpu_s(self) -> float:
        return sum(cpu for cpu, _ in self.segments)


class SpeedGauge:
    """Slice timings, and CPU seconds rescaled by the slices around them."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._large = rng.random(65_536)
        self._medium = rng.random(8_192)
        self._small = rng.random(1_024)
        self.slices: list[float] = []
        self._work_since_slice = 0.0
        self._piece: Piece | None = None
        self._segment_start = (0.0, 0)

    def slice(self) -> float:
        """Run one slice and record its CPU seconds; returns its wall seconds."""
        w0, c0 = time.perf_counter(), time.process_time()
        acc = 0.0
        for i in range(_ROUNDS):
            acc += float(np.exp(1j * i * self._large).sum().real)
            for _ in range(8):
                acc += float(np.exp(1j * i * self._medium).sum().real)
            for _ in range(20):
                acc += float(np.sqrt(self._small * i + 1.0).sum())
            for j in range(2_000):
                acc += j * 0.5
        self.slices.append(time.process_time() - c0)
        self._work_since_slice = 0.0
        return time.perf_counter() - w0

    def mark(self) -> int:
        """Position of work starting now: after slice ``mark - 1``, before the next."""
        return len(self.slices)

    def rescale(self, cpu_s: float, mark: int) -> float:
        """CPU seconds of work done at ``mark``, at the reference speed."""
        local = 0.5 * (self.slices[mark - 1] + self.slices[mark])
        return cpu_s * REFERENCE_SLICE_S / local

    def rescaled(self, piece: Piece) -> float:
        return sum(self.rescale(cpu, mark) for cpu, mark in piece.segments)

    def start(self) -> None:
        """Begin a timed piece of work."""
        self._piece = Piece([], 0.0)
        self._segment_start = (time.process_time(), self.mark())

    def _close_segment(self) -> None:
        c0, mark = self._segment_start
        cpu = time.process_time() - c0
        self._piece.segments.append((cpu, mark))
        self._work_since_slice += cpu

    def poll(self) -> None:
        """Inside a piece, run a slice if one is due."""
        if self._piece is None:
            return
        c0, _ = self._segment_start
        if self._work_since_slice + time.process_time() - c0 >= SLICE_EVERY_S:
            self._close_segment()
            self._piece.slice_wall_s += self.slice()
            self._segment_start = (time.process_time(), self.mark())

    def stop(self) -> Piece:
        """End the piece begun by ``start``."""
        self._close_segment()
        piece, self._piece = self._piece, None
        return piece

    def after_work(self) -> None:
        """Between pieces, run a slice if one is due."""
        if self._work_since_slice >= SLICE_EVERY_S:
            self.slice()

    @contextlib.contextmanager
    def polling(self, module, attr: str):
        """Poll after every call of ``module.attr``, the name its caller resolves."""
        original = getattr(module, attr)

        def polled(*args, **kwargs):
            result = original(*args, **kwargs)
            self.poll()
            return result

        setattr(module, attr, polled)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def factor(self) -> float:
        """Reference speed over the run's median speed (information only)."""
        return REFERENCE_SLICE_S / statistics.median(self.slices)
