"""Window sweeps, log-log exponent fits, and the smoothness verdict.

A sweep walks the window indices k, builds the configuration for each
nonempty window (its boxes built once, on first read), evaluates the
amplitude on the 3x3x3 sampling lattices of all windows in one pass,
settles each window's record but for its norms, and prepares the norms
in stacked passes.  A record holds per-window scalars (sup amplitude,
resonant/nonresonant parts at the argmax, data norms, output-norm
estimate); the record for one (s, r) pair is the settled record with
its two norms evaluated.  A window's ``AmplitudeBreakdown``s are built
only when they are read.  Ordinary least squares on (log lambda, log
value) turns the scalars into measured exponents, and the verdict
compares the measured ratio exponent against the analytic prediction,
the slab row of ``LEDGER``, the one table of predicted exponents (see
``predicted_exponent`` and ``smoothness_verdict``).

Windows that are empty at the requested rho are skipped with a
``window_empty`` flag rather than aborting the sweep.  A record flagged
``window_empty`` or ``nonconverged`` is excluded by ``usable``, the one
filter every fit and the verdict read through, and listed in the verdict
notes.  Every fit, here and in the acceptance suite, is ``fit_series``:
a record field, named as its CSV/JSON column, over the usable records.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from operator import attrgetter

import numpy as np

from .amplitudes import (
    AmplitudeBreakdown,
    NormReport,
    _breakdowns,
    _check_index,
    _Lattice,
    _lattice_pass,
    _NormData,
    _norms_at,
    _output_data,
    _output_norm_at,
    _OutputData,
    _stacked_norm_data,
    lambda_hat,  # noqa: F401  (perfbench/ hooks this name; sweeps use _lattice_pass)
    norm_report,  # noqa: F401  (perfbench/ hooks this name; sweeps use _norms_at)
    output_norm_from_samples,  # noqa: F401  (perfbench/ hooks this name; sweeps use _output_norm_at)
    sample_lattice,
)
from .construction import DEFAULT_GRID, KnappParams, make_params, window_index
from .errors import FitDataError, InvalidParameterError, WindowEmptyError

# Flags whose presence drops a record from exponent fits.  Everything
# else (for example the formal-surface-norm marker) is informational.
EXCLUDING_FLAG_PREFIXES = ("window_empty", "nonconverged")

VERDICT_MARGIN = 0.05


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


# An empty window's record at k = 0; a live window's settled record
# keeps its nan norms until an (s, r) pair evaluates them.
_NAN_RECORD = SweepRecord(
    k=0,
    lam=math.nan,
    t=math.nan,
    sup_amp=math.nan,
    res_amp=math.nan,
    nonres_amp=math.nan,
    nonres_envelope=math.nan,
    output_norm=math.nan,
    norms=NormReport(
        norm_d2a1=math.nan, norm_d1a2=math.nan, norm_product=math.nan, norm_total=math.nan
    ),
    mode="none",
    flags=("window_empty",),
)


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


@dataclass(frozen=True, eq=False)
class WindowSamples:
    """One window's cached lattice evaluation, reusable across (s, r).

    ``sweep_core`` settles every record field that no (s, r) pair
    changes (``_record``, whose norms are nan) and prepares the norms:
    the output norm's squared interpolant, weights and transverse check
    (``_output``) and the data norms' per-axis cells and factors
    (``_norms``).  A record for one (s, r) is ``_record`` with the two
    norms evaluated.  Only ``breakdowns`` reads the lattice columns
    (``_lattice``), building the breakdowns on first read (about 27 KB
    more) and keeping them.  A default-grid window holds about 54 KB:
    35 KB of prepared-norm arrays, 5.5 KB of columns, the rest its
    parameters, boxes and record.  Windows compare by identity.
    """

    k: int
    params: KnappParams | None
    _record: SweepRecord = field(repr=False)
    _output: _OutputData | None = field(default=None, repr=False)
    _norms: _NormData | None = field(default=None, repr=False)
    _lattice: _Lattice | None = field(default=None, repr=False)

    @cached_property
    def breakdowns(self) -> tuple[AmplitudeBreakdown, ...]:
        """The lattice's ``lattice_hats`` breakdowns, bit for bit; () for an empty window."""
        return () if self._lattice is None else _breakdowns(self._lattice)


def _settled_record(k: int, p: KnappParams, lattice: _Lattice, amps: np.ndarray) -> SweepRecord:
    """A live window's record but for its norms, which stay nan."""
    j = int(np.argmax(amps))
    flags = list(dict.fromkeys(f for point in lattice.flags for f in point))
    if p.mode == "surface":
        flags.append("surface_norm_formal")
    return replace(
        _NAN_RECORD,
        k=k,
        lam=p.lam,
        t=p.t,
        sup_amp=float(amps[j]),
        res_amp=abs(lattice.resonant[j].item()),
        nonres_amp=abs(lattice.nonresonant[j].item()),
        nonres_envelope=lattice.envelope[j].item(),
        mode=p.mode,
        flags=tuple(flags),
    )


def sweep_core(
    eps: float,
    rho: float,
    k_list,
    mode: str = "slab",
    grid: tuple[int, int, int] = DEFAULT_GRID,
) -> list[WindowSamples]:
    """Evaluate the amplitude lattice for each window index.

    Every window's parameters and sampling lattice are built first; then
    the lattices of all nonempty windows are integrated in one pass, one
    ``term_sums`` call per comparison of two successive refinement
    levels, the first of (2,1,1) and (4,2,2) grids, for all of them; each
    window's record is settled but for its norms, and the norms are
    prepared in one stacked pass each for the output norms and the data
    norms.  The expensive oscillatory quadrature happens here exactly
    once per k; records for any (s, r) pair are derived from the result
    without re-integration.  Every k must be a whole number.
    """
    ks = [window_index(k) for k in k_list]
    if not ks:
        raise InvalidParameterError("k_list must be nonempty")
    params: list[KnappParams | None] = []
    for k in ks:
        try:
            params.append(make_params(eps=eps, rho=rho, k=k, mode=mode, grid=grid))
        except WindowEmptyError:
            params.append(None)
    live = [(k, p) for k, p in zip(ks, params) if p is not None]
    if not live:
        raise InvalidParameterError(
            f"every window k={ks} is empty at rho={rho}; decrease rho"
        )
    lattices = [sample_lattice(p.samp_box) for _, p in live]
    columns = _lattice_pass([(p, pts) for (_, p), (_, pts) in zip(live, lattices)])
    # Python's complex abs: numpy's can differ in the last bit
    amps = [np.array([abs(z) for z in c.total.tolist()]) for c in columns]
    records = [_settled_record(k, p, c, a) for (k, p), c, a in zip(live, columns, amps)]
    outputs = _output_data([(axes, a) for (axes, _), a in zip(lattices, amps)])
    norms = _stacked_norm_data([p for _, p in live])
    samples = iter(
        WindowSamples(k, p, *prepared)
        for (k, p), *prepared in zip(live, records, outputs, norms, columns)
    )
    return [
        WindowSamples(k, None, replace(_NAN_RECORD, k=k)) if p is None else next(samples)
        for k, p in zip(ks, params)
    ]


def records_from_core(
    cores: list[WindowSamples], s_exp: float, r_exp: float
) -> list[SweepRecord]:
    """Derive sweep records for one (s, r) pair from cached lattices.

    Each window's settled record is copied with its two norms, the
    (s, r)-dependent steps of its prepared norms; they reject a
    non-finite s or r.  An empty window's record is its settled one.
    """
    return [
        core._record
        if core.params is None
        else replace(
            core._record,
            output_norm=_output_norm_at(s_exp, core._output),
            norms=_norms_at(core._norms, r_exp),
        )
        for core in cores
    ]


def run_sweep(
    eps: float,
    rho: float,
    s_exp: float,
    r_exp: float,
    k_list,
    mode: str = "slab",
    grid: tuple[int, int, int] = DEFAULT_GRID,
) -> list[SweepRecord]:
    """Full sweep over the window indices for one (s, r) pair.

    The fits need at least 3 distinct windows, so fewer distinct
    indices, like a non-finite s or r, are rejected before any lattice
    is integrated.
    """
    _check_index("s", s_exp)
    _check_index("r", r_exp)
    ks = [window_index(k) for k in k_list]
    if len(set(ks)) < 3:
        raise InvalidParameterError(
            f"need at least 3 distinct window indices for a sweep, got {sorted(set(ks))}"
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
    if len(set(x.tolist())) < 2:
        raise FitDataError("exponent fit needs at least 2 distinct lambdas")
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


def usable(records: list[SweepRecord]) -> list[SweepRecord]:
    """The records that fits and the verdict read: those no flag excludes."""
    return [r for r in records if not r.is_excluded()]


def fit_series(records: list[SweepRecord], name: str) -> FitResult:
    """The exponent fit of the record field ``name`` over the usable records.

    ``name`` is a float field's CSV/JSON column (``"sup_amp"``,
    ``"norm_total"``, ``"output_norm"``, ...); its value is read by the
    getter the CSV and JSON use, and fitted against lambda by
    ``fit_exponent``.
    """
    get = _SERIES[name]
    return fit_exponent([(r.lam, get(r)) for r in usable(records)])


def standard_fits(records: list[SweepRecord]) -> dict[str, FitResult]:
    """The three exponent fits reported with every sweep."""
    return {name: fit_series(records, name) for name in ("sup_amp", "output_norm", "norm_total")}


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

    The analytic exponent is ``LEDGER``'s slab ratio row in both modes.
    Surface records measure the surface row, which differs, so on them
    the "deviates" note always appears and the verdict is formal, like
    the surface norms it is read from; the scaling conclusions are drawn
    in slab mode.
    """
    n = len(usable(records))
    if n < 3:
        raise FitDataError(f"verdict needs at least 3 unflagged records, got {n}")
    fits = [fit_series(records, name) for name in ("output_norm", "norm_total")]
    return _verdict(s_exp, r_exp, records, *fits)


def _verdict(
    s_exp: float, r_exp: float, records: list[SweepRecord], f_out: FitResult, f_tot: FitResult
) -> Verdict:
    """The verdict from the fits of ``output_norm`` and ``norm_total``.

    It rejects a non-finite s or r, for ``smoothness_verdict`` and
    ``build_report`` alike.
    """
    _check_index("s", s_exp)
    _check_index("r", r_exp)
    measured = f_out.slope - 2.0 * f_tot.slope
    analytic = predicted_exponent("slab", "ratio", s_exp, r_exp)
    notes = [
        f"k={r.k} excluded from fits: {';'.join(r.flags)}" for r in records if r.is_excluded()
    ]
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
_SERIES = {name: get for name, get, fmt, _ in _RECORD_FIELDS if fmt is _FLOAT}

# The exponent ledger: each series' predicted exponent of lam per mode,
# as (s coefficient, r coefficient, constant), derived from the box
# sides in ``predicted_exponent``.  A series is named by its CSV/JSON
# column, as ``fit_series`` takes it; "ratio" is the verdict's ratio
# of the output norm over ``norm_total`` squared.
LEDGER = {
    "sup_amp": {"slab": (0, 0, 1.0), "surface": (0, 0, 0.5)},
    "res_amp": {"slab": (0, 0, 1.0), "surface": (0, 0, 0.5)},
    "norm_d2a1": {"slab": (0, 1, 1.5), "surface": (0, 1, 1.5)},
    "norm_total": {"slab": (0, 1, 1.5), "surface": (0, 1, 1.5)},
    "norm_d1a2": {"slab": (0, 1, 2.0), "surface": (0, 1, 1.75)},
    "norm_product": {"slab": (0, 1, 3.0), "surface": (0, 1, 2.5)},
    "output_norm": {"slab": (1, 0, 2.0), "surface": (1, 0, 1.5)},
    "ratio": {"slab": (1, -2, -1.0), "surface": (1, -2, -1.5)},
}


def predicted_exponent(mode: str, name: str, s: float, r: float) -> float:
    """The exponent of lam that ``LEDGER`` predicts for series ``name``.

    It is ``(c + a*s) + b*r`` for the row ``(a, b, c)``, in that order,
    so the slab ratio is ``s - 1.0 - 2.0*r`` bit for bit at every finite
    (s, r).  The rows follow from the box sides.  The volume boxes W and
    W2 have sides of order ``(lam, lam^1/2, lam^1/2)``, so measure
    ``lam^2``.  The planar box W' has the same first two sides; in slab
    mode its thickness is of order ``lam^1/2`` (measure ``lam^2``), in
    surface mode it carries the 2-D measure ``lam^3/2``.  On every box
    ``<xi>`` is of order ``lam``.

    - Amplitudes (``sup_amp``, ``res_amp``): the time is ``t = eps
      lam^-1/2``, so the resonant multiplier is of order ``lam^-1/2``;
      the kernel weight is 5 frequency factors over 5 norms, one of them
      transverse, so ``lam^-1/2``; and the admissible region is a box of
      W's sides cut by W', so ``lam^2`` (slab) or ``lam^3/2`` (surface).
    - First datum (``norm_d2a1``, ``norm_total``): ``lam^r`` times the
      transverse ``xi2`` or ``xi3``, ``lam^1/2``, times the square root
      of W2's measure, ``lam``.
    - Second datum (``norm_d1a2``): ``lam^r`` times ``xi1``, ``lam``,
      times the square root of the measure of W'.
    - Product norm: the convolution of W2 with -W' is as high as the
      measure of their overlap, ``lam^2`` (slab) or ``lam^3/2``
      (surface), on a support of measure ``lam^2``; the square root of
      ``lam^{2r}`` times the height squared times the support.
    - Output norm: the amplitude's exponent, plus s, plus 1 from the
      square root of the sampling box's measure ``lam^2``.
    - Ratio: the output norm's exponent minus twice ``norm_total``'s.
    """
    a, b, c = LEDGER[name][mode]
    return (c + a * s) + b * r


def csv_lines(records: list[SweepRecord]) -> list[str]:
    cells = [(get, fmt[0]) for _, get, fmt, in_csv in _RECORD_FIELDS if in_csv]
    rows = [",".join(cell(get(r)) for get, cell in cells) for r in records]
    return [",".join(CSV_COLUMNS), *rows]


def record_to_dict(r: SweepRecord) -> dict:
    return {name: fmt[1](get(r)) for name, get, fmt, _ in _RECORD_FIELDS}


def build_report(
    records: list[SweepRecord],
    s_exp: float,
    r_exp: float,
    params: dict,
) -> dict:
    """JSON-ready sweep report: params, records, fits, verdict.

    The verdict is ``smoothness_verdict``'s, from the report's own fits
    of the same records, so each series is fitted once.
    """
    fits = standard_fits(records)
    verdict = _verdict(s_exp, r_exp, records, fits["output_norm"], fits["norm_total"])
    return {
        "schema": 1,
        "params": params,
        "records": [record_to_dict(r) for r in records],
        "fits": {name: asdict(f) for name, f in fits.items()},
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
