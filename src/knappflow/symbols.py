"""Half-wave sign triples, the resonance function, and the Duhamel multiplier.

A free-wave datum splits into half-waves ``exp(∓ i t |D|)``, so each
factor in a trilinear interaction carries a sign.  For a sign triple
``(s1, s2, s3)`` the resonance function is

    omega(xi, eta) = s1 |xi| - s2 |xi - eta| - s3 |eta|

and the time-integrated interaction weight is the Duhamel multiplier

    m(t, omega) = (exp(i t omega) - 1) / (i omega),    m(t, 0) = t,

with |m| <= min(t, 2 / |omega|).  The multiplier is evaluated by a
cancellation-free closed form for |t omega| >= 1e-4 and by a truncated
Taylor series below; an independent composite-Simpson oracle of the
defining integral backs both branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import _mult_py
from .errors import InvalidParameterError


@dataclass(frozen=True)
class SignTriple:
    """One of the 8 half-wave sign assignments; components are +1 or -1.

    The hash is the generated one, ``hash((s1, s2, s3))``, computed once:
    every breakdown's ``per_sign`` dict is keyed by these.
    """

    s1: int
    s2: int
    s3: int

    def __post_init__(self) -> None:
        if any(s not in (1, -1) for s in (self.s1, self.s2, self.s3)):
            raise InvalidParameterError("sign components must be +1 or -1")
        object.__setattr__(self, "_hash", hash((self.s1, self.s2, self.s3)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "".join("+" if s > 0 else "-" for s in (self.s1, self.s2, self.s3))

    @classmethod
    def from_string(cls, text: str) -> "SignTriple":
        cleaned = text.strip().replace(",", "").replace(" ", "")
        if len(cleaned) != 3 or any(ch not in "+-" for ch in cleaned):
            raise InvalidParameterError(f"cannot parse sign triple {text!r}")
        return cls(*(1 if ch == "+" else -1 for ch in cleaned))


# Fixed enumeration order: lexicographic with + before -, i.e.
# +++, ++-, +-+, +--, -++, -+-, --+, ---.
SIGN_TRIPLES: tuple[SignTriple, ...] = tuple(
    SignTriple(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)
)
SIGNS_ARRAY = np.array([[s.s1, s.s2, s.s3] for s in SIGN_TRIPLES], dtype=float)


@dataclass(frozen=True)
class MultiplierValue:
    """One value of m(t, omega).

    A plain ``complex`` would do; the field stays because the benchmark's
    multiplier workload (``perfbench/workloads.py``) reads ``.value``.
    """

    value: complex


def omega_all(xi, eta) -> np.ndarray:
    """omega(xi, eta) for every triple in enumeration order, sharing the norms."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    nx = math.sqrt(float(xi @ xi))
    nd = math.sqrt(float((xi - eta) @ (xi - eta)))
    ne = math.sqrt(float(eta @ eta))
    return np.array(
        [s.s1 * nx - s.s2 * nd - s.s3 * ne for s in SIGN_TRIPLES], dtype=float
    )


def duhamel_multiplier(t: float, om: float) -> MultiplierValue:
    """Evaluate m(t, omega) for one finite pair with ``t >= 0``.

    The closed form is used when |t*omega| >= 1e-4, written as
    ``2 sin(t omega / 2) exp(i t omega / 2) / omega`` to avoid the
    cancellation of the raw quotient; below the threshold a 6-term
    Taylor series of ``(exp(ix) - 1)/(ix)`` is used (truncation error
    under 1e-23 relative at the switch, continuous to ~1e-12).
    ``m(t, 0) = t`` exactly.
    """
    if t < 0.0 or not math.isfinite(t):
        raise InvalidParameterError(f"t must be finite and nonnegative, got {t}")
    if not math.isfinite(om):
        raise InvalidParameterError(f"omega must be finite, got {om}")
    return MultiplierValue(value=_mult_py(t, om))


@lru_cache(maxsize=64)
def _simpson_weights(n_panels: int) -> np.ndarray:
    w = np.ones(2 * n_panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def duhamel_multiplier_oracle(t: float, om: float, n_steps: int = 2048) -> complex:
    """Composite-Simpson evaluation of the defining integral of m(t, omega).

    Integrates ``exp(i t' omega)`` over [0, t] with ``n_steps`` Simpson
    panels (2 * n_steps subintervals), independent of the closed form;
    the error decays like n^-4.
    """
    if t < 0.0:
        raise InvalidParameterError(f"t must be nonnegative, got {t}")
    if n_steps < 8:
        raise InvalidParameterError(f"n_steps must be at least 8, got {n_steps}")
    n_steps = int(n_steps)
    tau = np.linspace(0.0, t, 2 * n_steps + 1)
    h = t / (2 * n_steps)
    vals = np.exp(1j * om * tau)
    return complex((h / 3.0) * (_simpson_weights(n_steps) @ vals))

