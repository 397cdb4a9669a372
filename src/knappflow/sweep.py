"""Window sweeps, log-log exponent fits, and the smoothness verdict.

A sweep walks the window indices k, builds the configuration for each
nonempty window, evaluates the amplitude on the 3x3x3 sampling lattice,
and collects per-window scalars (sup amplitude, resonant/nonresonant
parts at the argmax, data norms, output-norm lower bound).  Ordinary
least squares on (log lambda, log value) turns the scalars into measured
exponents, and the verdict compares the measured ratio exponent against
the analytic prediction s - 1 - 2r.

Windows that are empty at the requested rho are skipped with a
``window_empty`` flag rather than aborting the sweep; flagged records
are excluded from fits and listed in the verdict notes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .amplitudes import (
    AmplitudeBreakdown,
    NormReport,
    lambda_hat,  # noqa: F401  (perfbench/ hooks this name; sweeps use lattice_hats)
    lattice_hats,
    norm_report,
    output_norm_from_samples,
    sample_lattice,
)
from .construction import DEFAULT_GRID, KnappParams, make_params, window_index
from .errors import FitDataError, InvalidParameterError, WindowEmptyError

# Flags whose presence drops a record from exponent fits.  Everything
# else (for example the formal-surface-norm marker) is informational.
EXCLUDING_FLAG_PREFIXES = ("window_empty", "nonconverged")

VERDICT_MARGIN = 0.05

_NAN_NORMS = NormReport(
    norm_d2a1=math.nan,
    norm_d1a2=math.nan,
    norm_product=math.nan,
    norm_total=math.nan,
)


@dataclass(frozen=True)
class SweepRecord:
    """Scalars measured at one window index."""

    k: int
    lam: float
    t: float
    sup_amp: float
    res_amp: float
    nonres_amp: float
    nonres_envelope: float
    output_norm: float
    norms: NormReport
    mode: str
    flags: tuple[str, ...] = ()

    def is_excluded(self) -> bool:
        return any(f.startswith(EXCLUDING_FLAG_PREFIXES) for f in self.flags)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class Verdict:
    s_exp: float
    r_exp: float
    measured_ratio_exponent: float
    analytic_ratio_exponent: float
    smooth_bound_fails: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class WindowSamples:
    """One window's cached lattice evaluation, reusable across (s, r)."""

    k: int
    params: KnappParams | None
    lattice_axes: tuple[np.ndarray, ...]
    breakdowns: tuple[AmplitudeBreakdown, ...]
    flags: tuple[str, ...] = ()


def sweep_core(
    eps: float,
    rho: float,
    k_list,
    mode: str = "slab",
    grid: tuple[int, int, int] = DEFAULT_GRID,
) -> list[WindowSamples]:
    """Evaluate the amplitude lattice for each window index.

    The expensive oscillatory quadrature happens here exactly once per
    k; records for any (s, r) pair are derived from the result without
    re-integration.  Every k must be a whole number.
    """
    ks = [window_index(k) for k in k_list]
    if not ks:
        raise InvalidParameterError("k_list must be nonempty")
    cores: list[WindowSamples] = []
    n_empty = 0
    for k in ks:
        try:
            p = make_params(eps=eps, rho=rho, k=k, mode=mode, grid=grid)
        except WindowEmptyError:
            n_empty += 1
            cores.append(
                WindowSamples(
                    k=k,
                    params=None,
                    lattice_axes=(),
                    breakdowns=(),
                    flags=("window_empty",),
                )
            )
            continue
        axes, pts = sample_lattice(p.samp_box, 3)
        breakdowns = lattice_hats(p, pts)
        cores.append(
            WindowSamples(
                k=k,
                params=p,
                lattice_axes=tuple(axes),
                breakdowns=breakdowns,
            )
        )
    if n_empty == len(ks):
        raise InvalidParameterError(
            f"every window k={ks} is empty at rho={rho}; decrease rho"
        )
    return cores


def records_from_core(
    cores: list[WindowSamples], s_exp: float, r_exp: float
) -> list[SweepRecord]:
    """Derive sweep records for one (s, r) pair from cached lattices."""
    records: list[SweepRecord] = []
    for core in cores:
        if core.params is None:
            records.append(
                SweepRecord(
                    k=core.k,
                    lam=math.nan,
                    t=math.nan,
                    sup_amp=math.nan,
                    res_amp=math.nan,
                    nonres_amp=math.nan,
                    nonres_envelope=math.nan,
                    output_norm=math.nan,
                    norms=_NAN_NORMS,
                    mode="none",
                    flags=core.flags,
                )
            )
            continue
        p = core.params
        amps = np.array([abs(b.total) for b in core.breakdowns])
        j = int(np.argmax(amps))
        top = core.breakdowns[j]
        flags: list[str] = list(core.flags)
        for b in core.breakdowns:
            for f in b.flags:
                if f not in flags:
                    flags.append(f)
        if p.mode == "surface":
            flags.append("surface_norm_formal")
        out = output_norm_from_samples(s_exp, list(core.lattice_axes), amps)
        norms = norm_report(p, r_exp)
        records.append(
            SweepRecord(
                k=core.k,
                lam=p.lam,
                t=p.t,
                sup_amp=float(amps[j]),
                res_amp=abs(top.resonant_sum),
                nonres_amp=abs(top.nonresonant_sum),
                nonres_envelope=top.nonresonant_envelope,
                output_norm=out,
                norms=norms,
                mode=p.mode,
                flags=tuple(flags),
            )
        )
    return records


def run_sweep(
    eps: float,
    rho: float,
    s_exp: float,
    r_exp: float,
    k_list,
    mode: str = "slab",
    grid: tuple[int, int, int] = DEFAULT_GRID,
) -> list[SweepRecord]:
    """Full sweep over the window indices for one (s, r) pair."""
    ks = list(k_list)
    if len(ks) < 3:
        raise InvalidParameterError(
            f"need at least 3 window indices for a sweep, got {len(ks)}"
        )
    cores = sweep_core(eps, rho, ks, mode=mode, grid=grid)
    return records_from_core(cores, s_exp, r_exp)


# ---------------------------------------------------------------------------
# Fits and verdict
# ---------------------------------------------------------------------------

def fit_exponent(points) -> FitResult:
    """Least-squares power-law exponent through (lambda, value) pairs."""
    pts = [(float(lam), float(v)) for lam, v in points]
    if len(pts) < 3:
        raise FitDataError(f"exponent fit needs at least 3 points, got {len(pts)}")
    for lam, v in pts:
        if not (v > 0.0) or not math.isfinite(v) or not math.isfinite(lam) or lam <= 0.0:
            raise FitDataError(
                f"exponent fit requires positive finite values; offending point "
                f"(lambda={lam!r}, value={v!r})"
            )
    x = np.log(np.array([p[0] for p in pts]))
    y = np.log(np.array([p[1] for p in pts]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=min(max(r_sq, 0.0), 1.0),
        n_points=len(pts),
    )


def _usable(records: list[SweepRecord]) -> list[SweepRecord]:
    return [r for r in records if not r.is_excluded()]


def standard_fits(records: list[SweepRecord]) -> dict[str, FitResult]:
    """The three exponent fits reported with every sweep."""
    usable = _usable(records)
    return {
        "sup_amp": fit_exponent([(r.lam, r.sup_amp) for r in usable]),
        "output_norm": fit_exponent([(r.lam, r.output_norm) for r in usable]),
        "norm_total": fit_exponent([(r.lam, r.norms.norm_total) for r in usable]),
    }


def smoothness_verdict(
    s_exp: float,
    r_exp: float,
    records: list[SweepRecord],
) -> Verdict:
    """Compare the measured growth ratio against the analytic exponent.

    The measured ratio exponent is slope(output_norm) - 2*slope(norm_total):
    the log-lambda growth rate of output size over squared input size.  A
    value above ``VERDICT_MARGIN`` means the quadratic flow-map bound
    cannot hold with constants uniform in lambda.
    """
    usable = _usable(records)
    if len(usable) < 3:
        raise FitDataError(
            f"verdict needs at least 3 unflagged records, got {len(usable)}"
        )
    f_out = fit_exponent([(r.lam, r.output_norm) for r in usable])
    f_tot = fit_exponent([(r.lam, r.norms.norm_total) for r in usable])
    measured = f_out.slope - 2.0 * f_tot.slope
    analytic = s_exp - 1.0 - 2.0 * r_exp
    notes = []
    for r in records:
        if r.is_excluded():
            notes.append(f"k={r.k} excluded from fits: {';'.join(r.flags)}")
    if abs(measured - analytic) > 0.1:
        notes.append(
            f"measured ratio exponent {measured:.4f} deviates from analytic "
            f"{analytic:.4f} by more than 0.1"
        )
    return Verdict(
        s_exp=s_exp,
        r_exp=r_exp,
        measured_ratio_exponent=measured,
        analytic_ratio_exponent=analytic,
        smooth_bound_fails=bool(measured > VERDICT_MARGIN),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _num(x: float):
    x = float(x)
    return None if math.isnan(x) else x


# How a record field is written: (its CSV cell, its JSON value).
_FLOAT = (lambda x: format(float(x), ".17g"), _num)
_PLAIN = (str, lambda v: v)
_FLAGS = (";".join, list)

# Every record field once, in output order: (name, value of a record,
# format, whether the CSV has a column for it).  The JSON has them all.
_RECORD_FIELDS = (
    ("k", attrgetter("k"), _PLAIN, True),
    ("lambda", attrgetter("lam"), _FLOAT, True),
    ("t", attrgetter("t"), _FLOAT, True),
    ("sup_amp", attrgetter("sup_amp"), _FLOAT, True),
    ("res_amp", attrgetter("res_amp"), _FLOAT, True),
    ("nonres_amp", attrgetter("nonres_amp"), _FLOAT, True),
    ("nonres_envelope", attrgetter("nonres_envelope"), _FLOAT, False),
    ("norm_d2a1", attrgetter("norms.norm_d2a1"), _FLOAT, True),
    ("norm_d1a2", attrgetter("norms.norm_d1a2"), _FLOAT, True),
    ("norm_product", attrgetter("norms.norm_product"), _FLOAT, True),
    ("norm_total", attrgetter("norms.norm_total"), _FLOAT, True),
    ("output_norm", attrgetter("output_norm"), _FLOAT, True),
    ("mode", attrgetter("mode"), _PLAIN, True),
    ("flags", attrgetter("flags"), _FLAGS, True),
)
CSV_COLUMNS = tuple(name for name, _, _, in_csv in _RECORD_FIELDS if in_csv)


def csv_lines(records: list[SweepRecord]) -> list[str]:
    cells = [(get, fmt[0]) for _, get, fmt, in_csv in _RECORD_FIELDS if in_csv]
    rows = [",".join(cell(get(r)) for get, cell in cells) for r in records]
    return [",".join(CSV_COLUMNS), *rows]


def _write_text(text: str, path_or_file) -> None:
    """Write ``text`` to a path, with no newline translation, or to an open file."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "w", newline="") as fh:
            fh.write(text)
    else:
        path_or_file.write(text)


def write_csv(records: list[SweepRecord], path_or_file) -> None:
    """Write records as CSV; identical records give identical bytes."""
    _write_text("\n".join(csv_lines(records)) + "\n", path_or_file)


def record_to_dict(r: SweepRecord) -> dict:
    return {name: fmt[1](get(r)) for name, get, fmt, _ in _RECORD_FIELDS}


def build_report(
    records: list[SweepRecord],
    s_exp: float,
    r_exp: float,
    params: dict,
) -> dict:
    """JSON-ready sweep report: params, records, fits, verdict."""
    fits = standard_fits(records)
    verdict = smoothness_verdict(s_exp, r_exp, records)
    return {
        "schema": 1,
        "params": params,
        "records": [record_to_dict(r) for r in records],
        "fits": {
            name: {
                "slope": f.slope,
                "intercept": f.intercept,
                "r_squared": f.r_squared,
                "n_points": f.n_points,
            }
            for name, f in fits.items()
        },
        "verdict": {
            "s": verdict.s_exp,
            "r": verdict.r_exp,
            "measured_ratio_exponent": verdict.measured_ratio_exponent,
            "analytic_ratio_exponent": verdict.analytic_ratio_exponent,
            "smooth_bound_fails": verdict.smooth_bound_fails,
            "notes": list(verdict.notes),
        },
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: dict, path_or_file) -> None:
    _write_text(report_json(report), path_or_file)
