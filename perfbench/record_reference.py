"""Record the reference values the benchmark checks outputs against.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

It evaluates every window k = 1..10 once per mode (about a minute, most
of it the slab lattice), derives the serialized record of each window
for every ``(s, r)`` pair the workloads can draw, and writes
``perfbench/reference.json``.  It then confirms that every three-window
subset the workloads can draw gives a slab verdict within the
benchmark's tolerance, and exits non-zero if one does not.
"""

from __future__ import annotations

import itertools
import json
import sys

from run import SRC, git_sha

sys.path.insert(0, str(SRC))

import workloads as wl  # noqa: E402
from knappflow import sweep  # noqa: E402


def records_by_pair(cores, pairs) -> dict:
    return {
        wl.pair_key(s, r): {
            str(rec.k): sweep.record_to_dict(rec) for rec in sweep.records_from_core(cores, s, r)
        }
        for s, r in pairs
    }


def worst_verdict_deviation(cores) -> float:
    worst = 0.0
    for s, r in itertools.product(wl.S_GRID, wl.R_GRID):
        records = sweep.records_from_core(cores, s, r)
        for subset in itertools.combinations(records, wl.WINDOWS_PER_SWEEP):
            v = sweep.smoothness_verdict(s, r, list(subset))
            worst = max(worst, abs(v.measured_ratio_exponent - v.analytic_ratio_exponent))
    return worst


def main() -> int:
    slab = sweep.sweep_core(wl.EPS, wl.RHO, wl.K_RANGE, mode="slab")
    surface = sweep.sweep_core(wl.EPS, wl.RHO, wl.K_RANGE, mode="surface")
    reference = {
        "recorded_from": git_sha(),
        "eps": wl.EPS,
        "rho": wl.RHO,
        "slab": records_by_pair(slab, itertools.product(wl.S_GRID, wl.R_GRID)),
        "surface": records_by_pair(surface, [(wl.DEFAULT_S, wl.DEFAULT_R)]),
    }
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    worst = worst_verdict_deviation(slab)
    print(f"wrote {wl.REFERENCE_PATH.name}; worst slab verdict deviation {worst:.4f}")
    return 0 if worst <= wl.VERDICT_TOL else 1


if __name__ == "__main__":
    raise SystemExit(main())
