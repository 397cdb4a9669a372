"""The acceptance suite: eleven checks that gate the package.

Each criterion is a standalone function returning a CriterionResult with
a measured value and its pinned tolerance in the detail string, so a
failure is diagnosable from the one-line report.  The expensive lattice
evaluations (the k = 1..10 sweeps in slab and surface mode) are built
once and shared by every criterion that needs them; everything is
deterministic, with fixed seeds on the sampled checks.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._kernels import resonant_triples, term_weight
from .amplitudes import product_norm_boxes, sobolev_norm_monomial
from .boxes import Box3, admissible_eta_region
from .construction import DEFAULT_GRID, KnappParams, curl_parts, kernels
from .sweep import (
    VERDICT_MARGIN,
    SweepRecord,
    WindowSamples,
    fit_series,
    predicted_exponent,
    records_from_core,
    smoothness_verdict,
    sweep_core,
    usable,
)
from .symbols import duhamel_multiplier, duhamel_multiplier_oracle, omega_all

ACCEPT_EPS = 0.01
ACCEPT_RHO = 2e-6
ACCEPT_KS = tuple(range(1, 11))


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.number:2d} {self.name}: {self.detail}"


@lru_cache(maxsize=None)
def _core(mode: str) -> tuple[tuple[WindowSamples, ...], float]:
    """Shared k = 1..10 lattice evaluation for one mode, with build time."""
    t0 = time.perf_counter()
    cores = sweep_core(ACCEPT_EPS, ACCEPT_RHO, ACCEPT_KS, mode=mode)
    return tuple(cores), time.perf_counter() - t0


@lru_cache(maxsize=None)
def _records(mode: str, s_exp: float, r_exp: float) -> tuple[SweepRecord, ...]:
    cores, _ = _core(mode)
    return tuple(records_from_core(list(cores), s_exp, r_exp))


def _configs(mode: str) -> list[KnappParams]:
    """The k = 1..10 configurations of the shared lattice of one mode."""
    return [core.params for core in _core(mode)[0]]


def criterion_multiplier_oracle() -> CriterionResult:
    """1: closed-form multiplier vs Simpson time-quadrature oracle."""
    rng = np.random.default_rng(101)
    n = 10_000
    ts = 1.0 - rng.random(n)
    xs = rng.uniform(-100.0, 100.0, n)
    t0 = time.perf_counter()
    worst = 0.0
    for t, x in zip(ts, xs):
        om = x / t
        m = duhamel_multiplier(t, om).value
        o = duhamel_multiplier_oracle(t, om, n_steps=4096)
        # |m| <= t always, so deviations are measured against the scale t
        # (pointwise relative error is ill-posed at the zeros of m).
        worst = max(worst, abs(m - o) / t)
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-9 and elapsed < 5.0
    return CriterionResult(
        1,
        "multiplier-oracle-agreement",
        passed,
        f"max deviation {worst:.3e} relative to scale t (tol 1e-09) over 10^4 "
        f"pairs with |t*omega| <= 100; runtime {elapsed:.2f}s (limit 5s)",
    )


def _double_curl_oracle(xi: np.ndarray, a: np.ndarray) -> np.ndarray:
    # -xi (xi . a) + |xi|^2 a in exact rational arithmetic: the two terms
    # cancel to ~1e-18 of their own size here, far beyond float64.
    x = [Fraction(float(v)) for v in xi]
    av = [Fraction(float(v)) for v in a]
    dot = sum(xi_i * a_i for xi_i, a_i in zip(x, av))
    n2 = sum(xi_i * xi_i for xi_i in x)
    return np.array([float(-xi_i * dot + n2 * a_i) for xi_i, a_i in zip(x, av)])


def criterion_curl_identity() -> CriterionResult:
    """2: displayed curl symbol vs the vector-calculus oracle."""
    rng = np.random.default_rng(202)
    p_slab = _configs("slab")[0]
    p_surf = _configs("surface")[0]
    worst = 0.0
    checked = 0

    def check(xi: np.ndarray, a1: float, a2: float) -> None:
        nonlocal worst, checked
        p1, p2 = curl_parts(xi, a1, a2)
        got = p1 + p2
        want = _double_curl_oracle(xi, np.array([a1, a2, 0.0]))
        scale = float(np.linalg.norm(want))
        if scale == 0.0:
            worst = max(worst, float(np.linalg.norm(got)))
        else:
            worst = max(worst, float(np.linalg.norm(got - want)) / scale)
        checked += 1

    def sample(box: Box3, n: int) -> np.ndarray:
        u = rng.random((n, 3))
        lo = np.array([ax[0] for ax in box.axes])
        hi = np.array([ax[1] for ax in box.axes])
        return lo + u * (hi - lo)

    # First-datum support: arbitrary xi3, a2 = 0 there.
    for xi in sample(p_slab.w2_box, 400):
        check(xi, a1=float(1.0 + rng.random()), a2=0.0)
    # Planar-datum support, surface convention: xi3 = 0 exactly.
    pts = sample(p_surf.neg_wprime_box, 300)
    pts[:, 2] = 0.0
    for xi in pts:
        check(xi, a1=0.0, a2=float(1.0 + rng.random()))
    # Slab convention: |xi3| <= h/2, mismatch bounded by (xi3/lam)^2.
    for xi in sample(p_slab.neg_wprime_box, 300):
        check(xi, a1=0.0, a2=float(1.0 + rng.random()))

    passed = worst <= 1e-12 and checked == 1000
    return CriterionResult(
        2,
        "curl-symbol-identity",
        passed,
        f"max relative deviation {worst:.3e} (tol 1e-12) at {checked} support points",
    )


def _closed_form_tol(grid: tuple[int, int, int]) -> float:
    """Criterion 3's rounding bound on a norm's relative error (see there)."""
    per_cell, cells = math.prod(grid), 8
    return ((per_cell + cells + 64) / 2 + 8) * 2.0**-53


def criterion_quadrature_closed_forms() -> CriterionResult:
    """3: indicator/monomial norms and the tent product norm vs closed forms.

    In every cell, each integrand is a polynomial of degree at most 4
    along axis 1 and at most 2 along axes 2 and 3 (the tent is linear
    between its kinks, which are the cell ends).  An n-point Gauss rule
    is exact to degree 2n - 1, so both grids integrate all six exactly
    and only rounding is left.  In units of ``u = 2^-53``:
    - every term of the sum is positive, and each is the rule's weights
      times the integrand at its node, a few operations on numbers of
      order 1 on these unit boxes, each rounded once, on nodes and
      weights from ``leggauss`` that are within a few u.  Allow 64 u of
      relative error per term;
    - a dot of N positive terms is within N u of its exact sum, whatever
      order the BLAS adds them in (Higham's gamma_N), and adding the C
      cells' dots costs C u more.  N is the nodes of one cell, C = 8 (the
      tent's cells; a monomial norm has 1);
    - the root halves the integral's relative error; the division by
      ``(2 pi)^3``, the root and the closed forms' own constants add at
      most 8 u.
    So each norm is within ``((N + C + 64) / 2 + 8) u`` of its closed
    form: 4.6e-13 at the default grids (N = 8,192) and 3.6e-12 at the
    doubled grids (N = 65,536).  A rule that is not exact fails: with 2
    nodes on axis 1, the ``xi1`` monomial at r = 1 (degree 4 there) is
    off by 3.7e-3.
    """
    cube = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 1.0))
    sheet = Box3(ax1=(0.0, 1.0), ax2=(0.0, 1.0), ax3=(0.0, 0.0), surface_axis=2)
    c = (2.0 * math.pi) ** -1.5
    cases = [
        ("indicator r=0", lambda g: sobolev_norm_monomial(cube, (0, 0, 0), 0.0, g), c),
        (
            "monomial xi1 r=0",
            lambda g: sobolev_norm_monomial(cube, (1, 0, 0), 0.0, g),
            c / math.sqrt(3.0),
        ),
        (
            "indicator r=1",
            lambda g: sobolev_norm_monomial(cube, (0, 0, 0), 1.0, g),
            c * math.sqrt(2.0),
        ),
        (
            "monomial xi1 r=1",
            lambda g: sobolev_norm_monomial(cube, (1, 0, 0), 1.0, g),
            c * math.sqrt(34.0 / 45.0),
        ),
        (
            "surface indicator r=0",
            lambda g: sobolev_norm_monomial(sheet, (0, 0, 0), 0.0, g),
            c,
        ),
        (
            "tent product norm r=0",
            lambda g: product_norm_boxes(cube, cube, 0.0, g),
            (2.0 * math.pi) ** -4.5 * (2.0 / 3.0) ** 1.5,
        ),
    ]
    doubled = tuple(2 * n for n in DEFAULT_GRID)
    worst_default = 0.0
    worst_doubled = 0.0
    for _, fn, want in cases:
        worst_default = max(worst_default, abs(fn(DEFAULT_GRID) - want) / want)
        worst_doubled = max(worst_doubled, abs(fn(doubled) - want) / want)
    tol_default, tol_doubled = _closed_form_tol(DEFAULT_GRID), _closed_form_tol(doubled)
    passed = worst_default <= tol_default and worst_doubled <= tol_doubled
    return CriterionResult(
        3,
        "quadrature-closed-forms",
        passed,
        f"max relative error {worst_default:.3e} at default grids (tol {tol_default:.1e}), "
        f"{worst_doubled:.3e} at doubled grids (tol {tol_doubled:.1e}), "
        f"{len(cases)} closed forms",
    )


def criterion_kernel_nonnegativity() -> CriterionResult:
    """4: kernel weights nonnegative on 1e5 admissible pairs per term."""
    rng = np.random.default_rng(404)
    p = _configs("slab")[0]
    n = 100_000
    samp = p.samp_box
    lo = np.array([ax[0] for ax in samp.axes])
    hi = np.array([ax[1] for ax in samp.axes])
    violations = 0
    min_w = math.inf
    for kern in kernels(p):
        xi = lo + rng.random((n, 3)) * (hi - lo)
        region = admissible_eta_region(xi, kern.support_a, kern.support_b)
        if not region.found.all():
            return CriterionResult(
                4, "kernel-nonnegativity", False, f"empty admissible region for {kern.label}"
            )
        eta = region.lo + rng.random((n, 3)) * (region.hi - region.lo)
        w = term_weight(kern.code, xi, eta)
        violations += int((w < 0.0).sum())
        min_w = min(min_w, float(w.min()))
    passed = violations == 0
    return CriterionResult(
        4,
        "kernel-nonnegativity",
        passed,
        f"{violations} negative weights over 4 x 10^5 admissible pairs "
        f"(minimum weight {min_w:.3e})",
    )


def criterion_realness() -> CriterionResult:
    """5: 4i times the amplitude is real at 100 sampled (xi, k) pairs."""
    cores, _ = _core("slab")
    worst = 0.0
    count = 0
    for core in cores:
        for bd in core.breakdowns:
            if count >= 100:
                break
            z = 4j * bd.total
            if abs(z) > 0.0:
                worst = max(worst, abs(z.imag) / abs(z))
            count += 1
    passed = worst <= 1e-8 and count == 100
    return CriterionResult(
        5,
        "amplitude-realness",
        passed,
        f"max |Im(4i*F)| / |4i*F| = {worst:.3e} (tol 1e-08) at {count} (xi, k) pairs",
    )


def criterion_resonance_separation() -> CriterionResult:
    """6: resonant/nonresonant gap at the admissible-region corners.

    For each k and kernel term, ``omega`` of every sign triple is taken at
    the 8 corners of the eta-region admissible at the sampling-box centre
    and split as the amplitudes split the term's sums: resonant on the
    term's two ``resonant_triples``, nonresonant on the other six.  Each
    side has its own bound: a nonresonant ``|omega|`` is at least
    ``lam / 2``, a resonant one at most 2 ulp of ``2 lam``
    (``np.spacing(2 lam)``).  On these boxes the transverse squares round
    away, so ``|xi|``, ``|xi - eta|`` and ``|eta|`` are exactly their
    axis-1 magnitudes.  A resonant omega then cancels (``xi1 = d1 +
    eta1``) but for the rounding of ``d1 = xi1 - eta1`` and of the two
    additions forming omega, each at most half an ulp of a number up to
    about ``2 lam``: ``|omega| <= 1.5 ulp(2 lam)``, or 2 if one such
    number passes the next power of two.
    """
    max_res = 0.0
    min_nonres = math.inf
    for p in _configs("slab"):
        xi = p.samp_box.center()
        for kern in kernels(p):
            region = admissible_eta_region(xi[None, :], kern.support_a, kern.support_b)
            for eta in itertools.product(*zip(region.lo[0], region.hi[0])):
                for om, resonant in zip(np.abs(omega_all(xi, eta)), resonant_triples(kern.code)):
                    if resonant:
                        max_res = max(max_res, float(om / np.spacing(2.0 * p.lam)))
                    else:
                        min_nonres = min(min_nonres, float(om) / p.lam)
    passed = max_res <= 2.0 and min_nonres >= 0.5
    return CriterionResult(
        6,
        "resonance-separation",
        passed,
        f"resonant max |omega| = {max_res:.3g} ulp(2 lam) (need <= 2), "
        f"nonresonant min |omega|/lam = {min_nonres:.3f} (need >= 0.5), k = 1..10",
    )


def criterion_amplitude_scaling() -> CriterionResult:
    """7: sup-amplitude growth exponents in both conventions, with runtime."""
    slab_cores, slab_secs = _core("slab")
    surf_cores, surf_secs = _core("surface")
    slab_recs = _records("slab", 0.5, -0.25)
    f_slab = fit_series(slab_recs, "sup_amp")
    f_surf = fit_series(_records("surface", 0.5, -0.25), "sup_amp")
    want_slab = predicted_exponent("slab", "sup_amp", 0.5, -0.25)
    want_surf = predicted_exponent("surface", "sup_amp", 0.5, -0.25)
    cs = [r.sup_amp / (ACCEPT_EPS * r.lam) for r in usable(slab_recs)]
    runtime = slab_secs + surf_secs
    passed = (
        abs(f_slab.slope - want_slab) <= 0.10
        and abs(f_surf.slope - want_surf) <= 0.10
        and runtime < 600.0
    )
    return CriterionResult(
        7,
        "amplitude-scaling",
        passed,
        f"slab slope {f_slab.slope:.4f} (want {want_slab:.2f} +/- 0.10), surface slope "
        f"{f_surf.slope:.4f} (want {want_surf:.2f} +/- 0.10); sup_amp/(eps*lam) in "
        f"[{min(cs):.3e}, {max(cs):.3e}]; sweep runtime {runtime:.1f}s (limit 600s)",
    )


def criterion_norm_scaling() -> CriterionResult:
    """8: input-norm exponents and the product-norm exponent, slab mode.

    The product-norm exponent follows from the box sides.  ``2W`` and
    ``-W'`` both have sides scaling as ``(lam, lam^1/2, lam^1/2)`` (the
    slab thickness is ``1e-6 lam^1/2``), so the transform of the product,
    their convolution, factorizes into per-axis tents whose heights are
    the overlap lengths: a height of ``lam * lam^1/2 * lam^1/2 = lam^2``
    (the overlap volume) on a Minkowski-sum support of volume ``lam^2``
    at ``|xi| ~ lam``.  Hence ``∫ <xi>^{2r} |F|^2 ~ lam^{2r} lam^4 lam^2``
    and the norm grows as ``lam^(r + 3)``.  In surface mode ``-W'`` has no
    axis-3 side, the axis-3 factor is an indicator of height 1, and the
    exponent is ``r + 5/2``.  Both are ``sweep.LEDGER``'s ``norm_product``
    rows, which the check reads.
    """
    fails = []
    slopes = {}
    wants = {r: predicted_exponent("slab", "norm_d2a1", 0.5, r) for r in (-0.5, -0.25, 0.0)}
    for r_exp, want in wants.items():
        fit = fit_series(_records("slab", 0.5, r_exp), "norm_d2a1")
        slopes[r_exp] = fit.slope
        if abs(fit.slope - want) > 0.05:
            fails.append(f"r={r_exp}: slope {fit.slope:.4f} vs {want}")
    r_prod = -0.25
    f_prod = fit_series(_records("slab", 0.5, r_prod), "norm_product")
    want_prod = predicted_exponent("slab", "norm_product", 0.5, r_prod)
    if abs(f_prod.slope - want_prod) > 0.05:
        fails.append(f"product r={r_prod}: slope {f_prod.slope:.4f} vs {want_prod}")
    passed = not fails
    slope_txt = ", ".join(f"r={r}: {s:.4f}" for r, s in slopes.items())
    return CriterionResult(
        8,
        "data-norm-scaling",
        passed,
        f"derivative-norm slopes {{{slope_txt}}} (want r + {wants[0.0]:g} +/- 0.05); "
        f"product-norm slope {f_prod.slope:.4f} at r={r_prod} (want r + {want_prod - r_prod:g} = "
        f"{want_prod} +/- 0.05: lam^2 overlap volume on a lam^2 support, "
        f"derived in acceptance.criterion_norm_scaling)"
        + (f"; FAILED: {fails}" if fails else ""),
    )


def criterion_output_scaling() -> CriterionResult:
    """9: output-norm growth exponent in slab mode at s = 1/2."""
    fit = fit_series(_records("slab", 0.5, -0.25), "output_norm")
    want = predicted_exponent("slab", "output_norm", 0.5, -0.25)
    passed = abs(fit.slope - want) <= 0.15
    return CriterionResult(
        9,
        "output-norm-scaling",
        passed,
        f"slope {fit.slope:.4f} (want {want} +/- 0.15, r^2 = {fit.r_squared:.6f})",
    )


def criterion_verdict_consistency() -> CriterionResult:
    """10: the verdict fails where the ledger's slab ratio exceeds the margin, on four cases."""
    details = []
    ok = True
    for s_exp, r_exp in [(0.5, -0.5), (1.0, -0.25), (0.75, -0.375), (0.5, -0.25)]:
        expected = predicted_exponent("slab", "ratio", s_exp, r_exp) > VERDICT_MARGIN
        v = smoothness_verdict(s_exp, r_exp, list(_records("slab", s_exp, r_exp)))
        good = v.smooth_bound_fails == expected
        ok = ok and good
        details.append(
            f"(s={s_exp}, r={r_exp}): measured {v.measured_ratio_exponent:+.3f}, "
            f"fails={v.smooth_bound_fails} (want {expected})"
        )
    return CriterionResult(10, "verdict-consistency", ok, "; ".join(details))


def criterion_envelope() -> CriterionResult:
    """11: nonresonant envelope exponent and resonant dominance."""
    recs = usable(_records("slab", 0.5, -0.25))
    fit = fit_series(recs, "nonres_envelope")
    ratios = [
        r.res_amp / r.nonres_amp if r.nonres_amp > 0.0 else math.inf for r in recs
    ]
    passed = fit.slope <= 0.6 and min(ratios) >= 5.0
    return CriterionResult(
        11,
        "nonresonant-envelope",
        passed,
        f"envelope slope {fit.slope:.4f} (need <= 0.6); resonant dominance "
        f"min |res|/|nonres| = {min(ratios):.1f} (need >= 5)",
    )


CRITERIA = (
    criterion_multiplier_oracle,
    criterion_curl_identity,
    criterion_quadrature_closed_forms,
    criterion_kernel_nonnegativity,
    criterion_realness,
    criterion_resonance_separation,
    criterion_amplitude_scaling,
    criterion_norm_scaling,
    criterion_output_scaling,
    criterion_verdict_consistency,
    criterion_envelope,
)


def run_all() -> list[CriterionResult]:
    """Run every criterion, printing one pass/fail line each."""
    results = []
    for fn in CRITERIA:
        res = fn()
        results.append(res)
        print(res.line())
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} acceptance criteria passed")
    return results
