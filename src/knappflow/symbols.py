"""Half-wave sign triples and the Duhamel multiplier.

A free-wave datum splits into half-waves ``exp(∓ i t |D|)``, so each
factor in a trilinear interaction carries a sign.  Each sign triple
``(s1, s2, s3)`` has its own omega (``_kernels`` writes it), and the
time-integrated interaction weight is the Duhamel multiplier

    m(t, omega) = (exp(i t omega) - 1) / (i omega),    m(t, 0) = t,

with |m| <= min(t, 2 / |omega|).  The multiplier is evaluated by a
cancellation-free closed form for |t omega| >= 1e-4 and by a truncated
Taylor series below; an independent composite-Simpson oracle of the
defining integral backs both branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import SIGNS_ARRAY, _mult_py
from .errors import InvalidParameterError, is_real, is_whole, shown


@dataclass(frozen=True)
class SignTriple:
    """One of the 8 half-wave sign assignments; components are +1 or -1."""

    s1: int
    s2: int
    s3: int

    def __post_init__(self) -> None:
        if any(s not in (1, -1) for s in (self.s1, self.s2, self.s3)):
            raise InvalidParameterError("sign components must be +1 or -1")

    def __str__(self) -> str:
        return "".join("+" if s > 0 else "-" for s in (self.s1, self.s2, self.s3))

    @classmethod
    def from_string(cls, text: str) -> "SignTriple":
        cleaned = text.strip().replace(",", "").replace(" ", "")
        if len(cleaned) != 3 or any(ch not in "+-" for ch in cleaned):
            raise InvalidParameterError(f"cannot parse sign triple {text!r}")
        return cls(*(1 if ch == "+" else -1 for ch in cleaned))


# Fixed enumeration order, that of ``SIGNS_ARRAY``: lexicographic with +
# before -, i.e. +++, ++-, +-+, +--, -++, -+-, --+, ---.
SIGN_TRIPLES: tuple[SignTriple, ...] = tuple(
    SignTriple(*(int(s) for s in row)) for row in SIGNS_ARRAY
)


@dataclass(frozen=True)
class MultiplierValue:
    """One value of m(t, omega).

    A plain ``complex`` would do; the field stays because the benchmark's
    multiplier workload (``perfbench/workloads.py``) reads ``.value``.
    """

    value: complex


def _check_pair(t: float, om: float) -> None:
    """Reject a pair outside the multiplier's domain: ``t`` real, finite
    and nonnegative, ``omega`` real and finite, and their product finite,
    since both evaluations take the phase ``t * omega``."""
    if not (is_real(t) and 0.0 <= t < math.inf):
        raise InvalidParameterError(f"t must be finite and nonnegative, got {shown(t)}")
    if not (is_real(om) and math.isfinite(om)):
        raise InvalidParameterError(f"omega must be finite, got {shown(om)}")
    if not math.isfinite(t * om):
        raise InvalidParameterError(f"t * omega must be finite, got t = {t}, omega = {om}")


def duhamel_multiplier(t: float, om: float) -> MultiplierValue:
    """Evaluate m(t, omega) for one finite pair with ``t >= 0`` and finite ``t * omega``.

    The closed form is used when |t*omega| >= 1e-4, written as
    ``2 sin(t omega / 2) exp(i t omega / 2) / omega`` to avoid the
    cancellation of the raw quotient; below the threshold a 6-term
    Taylor series of ``(exp(ix) - 1)/(ix)`` is used (truncation error
    under 1e-23 relative at the switch, continuous to ~1e-12).
    ``m(t, 0) = t`` exactly.
    """
    _check_pair(t, om)
    return MultiplierValue(value=_mult_py(t, om))


def duhamel_multiplier_oracle(t: float, om: float, n_steps: int = 2048) -> complex:
    """Composite-Simpson evaluation of the defining integral of m(t, omega).

    Integrates ``exp(i t' omega)`` over [0, t] with ``n_steps`` Simpson
    panels (2 * n_steps subintervals of width h), independent of the
    closed form; the error decays like n^-4.  The cosine and sine of the
    n + 1 even nodes ``tau_2j`` come from one ``np.cos`` and one
    ``np.sin`` of their phases; each odd node ``tau_2j+1 = tau_2j + h``
    takes one angle addition with ``cos(omega h)`` and ``sin(omega h)``.
    The real and imaginary parts are summed apart with Simpson's weights
    1, 4, 2, ..., 4, 1.
    """
    _check_pair(t, om)
    if not is_whole(n_steps, 8):
        raise InvalidParameterError(f"n_steps must be a whole number >= 8, got {shown(n_steps)}")
    n_steps = int(n_steps)
    h = t / (2 * n_steps)
    phase = om * np.linspace(0.0, t, n_steps + 1)
    c = np.cos(phase)
    s = np.sin(phase)
    c1, s1 = math.cos(om * h), math.sin(om * h)
    c_odd = c[:-1] * c1 - s[:-1] * s1
    s_odd = s[:-1] * c1 + c[:-1] * s1
    re = (c[0] + c[-1]) + 4.0 * c_odd.sum() + 2.0 * c[1:-1].sum()
    im = (s[0] + s[-1]) + 4.0 * s_odd.sum() + 2.0 * s[1:-1].sum()
    return complex(re * (h / 3.0), im * (h / 3.0))
