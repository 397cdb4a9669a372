"""One output frequency's admissible region as a box, for the tests."""

import numpy as np

from knappflow.boxes import Box3, admissible_eta_region


def one_region(xi, a: Box3, b: Box3) -> Box3 | None:
    """``(xi - a) ∩ b`` for one ``xi``: row 0 of the array form, or ``None``
    when that row is empty."""
    rows = admissible_eta_region(np.asarray(xi, dtype=float)[None, :], a, b)
    if not rows.found[0]:
        return None
    return Box3(*zip(rows.lo[0].tolist(), rows.hi[0].tolist()), surface_axis=rows.surface_axis)
