"""The benchmark's four workloads: seeded inputs, one timed unit each, and output checks.

Every workload runs at the acceptance configuration (``eps=0.01``,
``rho=2e-6``).  A workload draws its inputs from a seeded
``numpy.random.Generator``; the package only ever sees those inputs.

A *unit* is the work of one timed step and an *item* is what a unit is
made of:

- ``slab_sweep`` / ``surface_sweep``: a unit is one sweep (run, report and
  serialization) over three seeded windows; an item is one window.
- ``sr_scan``: a unit is one seeded ``(s, r)`` verdict over a cached
  three-window slab lattice built in set-up; an item is that verdict.
- ``multiplier_oracle``: a unit is 1,000 seeded ``(t, omega)`` pairs, a
  tenth of criterion 1's batch; an item is one pair.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from knappflow import sweep, symbols

EPS = 0.01
RHO = 2e-6
K_RANGE = tuple(range(1, 11))
WINDOWS_PER_SWEEP = 3
DEFAULT_S, DEFAULT_R = 0.5, -0.25
# sr_scan draws s and r independently from these grids, so r values recur.
S_GRID = (0.25, 0.5, 0.75, 1.0)
R_GRID = (-0.5, -0.25, 0.0, 0.25)
ORACLE_PAIRS = 1_000
ORACLE_STEPS = 4096

# A record value passes when it is within REL_TOL of its reference: the
# package's own quadrature tolerance (amplitudes.REFINE_RELTOL), ten
# orders above roundoff and ~100x below the 9.3e-5 error a too-coarse
# grid makes on wider boxes.
REL_TOL = 1e-6
NUMERIC_FIELDS = (
    "lambda",
    "t",
    "sup_amp",
    "res_amp",
    "nonres_amp",
    "nonres_envelope",
    "norm_d2a1",
    "norm_d1a2",
    "norm_product",
    "norm_total",
    "output_norm",
)
# The measured ratio exponent must match s - 1 - 2r this closely (slab).
VERDICT_TOL = 0.1
# Criterion 1's gate: multiplier deviations are scaled by t, since |m| <= t.
ORACLE_TOL = 1e-9

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def pair_key(s: float, r: float) -> str:
    return f"{s!r}|{r!r}"


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


@dataclass
class Checked:
    """Outcome of checking one unit's outputs."""

    items: int
    failed: int
    max_rel_dev: float
    csv_text: str = ""


def record_deviation(got: dict, ref: dict) -> float:
    """Largest relative deviation of a serialized record from its reference.

    A changed mode or flag list, or a missing value, is an infinite
    deviation.
    """
    if got["mode"] != ref["mode"] or got["flags"] != ref["flags"]:
        return math.inf
    worst = 0.0
    for name in NUMERIC_FIELDS:
        if got[name] is None:
            return math.inf
        worst = max(worst, abs(got[name] - ref[name]) / abs(ref[name]))
    return worst


def record_fails(got: dict, ref: dict) -> tuple[bool, float]:
    dev = record_deviation(got, ref)
    nonconverged = any(f.startswith("nonconverged") for f in got["flags"])
    return nonconverged or not dev <= REL_TOL, dev


def verdict_fails(report: dict) -> bool:
    v = report["verdict"]
    return not abs(v["measured_ratio_exponent"] - v["analytic_ratio_exponent"]) <= VERDICT_TOL


def _sweep_outputs(records, s: float, r: float, params: dict) -> tuple[str, str]:
    report = sweep.build_report(records, s, r, params=params)
    csv_text = "\n".join(sweep.csv_lines(records)) + "\n"
    return csv_text, sweep.report_json(report)


def _params(ks, mode: str, s: float, r: float) -> dict:
    return {"eps": EPS, "rho": RHO, "s": s, "r": r, "k_list": list(ks), "mode": mode}


def _seeded_windows(rng: np.random.Generator) -> tuple[int, ...]:
    picked = rng.choice(len(K_RANGE), size=WINDOWS_PER_SWEEP, replace=False)
    return tuple(sorted(K_RANGE[int(i)] for i in picked))


class SweepWorkload:
    """``run_sweep`` at ``(s, r) = (1/2, -1/4)`` plus report and serialization."""

    def __init__(self, mode: str, reference: dict):
        self.mode = mode
        self.name = f"{mode}_sweep"
        self.reference = reference[mode][pair_key(DEFAULT_S, DEFAULT_R)]
        # A slab sweep is long enough to trace alone; surface sweeps are not.
        self.trace_units = 1 if mode == "slab" else 3

    def setup(self, rng: np.random.Generator) -> None:
        pass

    def make_unit(self, rng: np.random.Generator) -> tuple[int, ...]:
        return _seeded_windows(rng)

    def items(self, unit) -> int:
        return len(unit)

    def run(self, ks: tuple[int, ...]) -> tuple[str, str]:
        records = sweep.run_sweep(EPS, RHO, DEFAULT_S, DEFAULT_R, ks, mode=self.mode)
        return _sweep_outputs(records, DEFAULT_S, DEFAULT_R, _params(ks, self.mode, DEFAULT_S, DEFAULT_R))

    def check(self, ks, output) -> Checked:
        csv_text, json_text = output
        report = json.loads(json_text)
        records = report["records"]
        failed = 0
        worst = 0.0
        if [rec["k"] for rec in records] != list(ks):
            return Checked(len(ks), len(ks), math.inf, csv_text)
        for rec in records:
            bad, dev = record_fails(rec, self.reference[str(rec["k"])])
            failed += bad
            worst = max(worst, dev)
        # Surface norms are formal, so only slab sweeps carry the verdict.
        if self.mode == "slab" and verdict_fails(report):
            failed = len(ks)
        return Checked(len(ks), failed, worst, csv_text)


class SrScan:
    """Records, fits, verdict and serialization for seeded ``(s, r)`` pairs."""

    name = "sr_scan"
    trace_units = 50

    def __init__(self, reference: dict):
        self.reference = reference["slab"]
        self.cores = None
        self.ks: tuple[int, ...] = ()

    def setup(self, rng: np.random.Generator) -> None:
        """Build the cached three-window slab lattice."""
        self.ks = _seeded_windows(rng)
        self.cores = sweep.sweep_core(EPS, RHO, self.ks, mode="slab")

    def make_unit(self, rng: np.random.Generator) -> tuple[float, float]:
        return S_GRID[int(rng.integers(len(S_GRID)))], R_GRID[int(rng.integers(len(R_GRID)))]

    def items(self, unit) -> int:
        return 1

    def run(self, pair: tuple[float, float]) -> tuple[str, str]:
        s, r = pair
        records = sweep.records_from_core(self.cores, s, r)
        return _sweep_outputs(records, s, r, _params(self.ks, "slab", s, r))

    def check(self, pair, output) -> Checked:
        csv_text, json_text = output
        report = json.loads(json_text)
        ref = self.reference[pair_key(*pair)]
        records = report["records"]
        bad = [rec["k"] for rec in records] != list(self.ks) or verdict_fails(report)
        worst = 0.0
        for rec in records:
            rec_bad, dev = record_fails(rec, ref[str(rec["k"])])
            bad = bad or rec_bad
            worst = max(worst, dev)
        return Checked(1, int(bad), worst, csv_text)


def multiplier_exact(ts: np.ndarray, oms: np.ndarray) -> np.ndarray:
    """m(t, omega) = t exp(i x/2) sinc(x/2) with x = t omega, branch-free."""
    x = ts * oms
    return ts * np.exp(0.5j * x) * np.sinc(x / (2.0 * np.pi))


class MultiplierOracle:
    """Scalar ``duhamel_multiplier`` against the Simpson oracle (criterion 1's work)."""

    name = "multiplier_oracle"
    trace_units = 10

    def setup(self, rng: np.random.Generator) -> None:
        pass

    def make_unit(self, rng: np.random.Generator) -> tuple[list[float], list[float]]:
        ts = 1.0 - rng.random(ORACLE_PAIRS)
        xs = rng.uniform(-100.0, 100.0, ORACLE_PAIRS)
        return ts.tolist(), (xs / ts).tolist()

    def items(self, unit) -> int:
        return len(unit[0])

    def run(self, pairs) -> tuple[list[complex], list[complex]]:
        mult = symbols.duhamel_multiplier
        oracle = symbols.duhamel_multiplier_oracle
        ms = []
        os_ = []
        for t, om in zip(*pairs):
            ms.append(mult(t, om).value)
            os_.append(oracle(t, om, n_steps=ORACLE_STEPS))
        return ms, os_

    def check(self, pairs, output) -> Checked:
        ts = np.array(pairs[0])
        exact = multiplier_exact(ts, np.array(pairs[1]))
        dev_m = np.abs(np.array(output[0]) - exact) / ts
        dev_o = np.abs(np.array(output[1]) - exact) / ts
        dev = np.maximum(dev_m, dev_o)
        failed = int(np.count_nonzero(~(dev <= ORACLE_TOL)))
        return Checked(len(ts), failed, float(dev.max()))


def make_workload(name: str, reference: dict):
    if name in ("slab_sweep", "surface_sweep"):
        return SweepWorkload(name.removesuffix("_sweep"), reference)
    if name == "sr_scan":
        return SrScan(reference)
    if name == "multiplier_oracle":
        return MultiplierOracle()
    raise ValueError(f"unknown workload {name!r}")



def csv_digest(checks: list[Checked]) -> str | None:
    """sha256 over the CSV text of every unit, in run order (information only)."""
    texts = [c.csv_text for c in checks if c.csv_text]
    if not texts:
        return None
    return hashlib.sha256("".join(texts).encode()).hexdigest()
