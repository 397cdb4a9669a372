"""Exception types shared across the package, its one real-number rule
and the whole-number rule written on it, and the one way an error
message shows a rejected value."""

import numpy as np


class InvalidParameterError(ValueError):
    """A caller-supplied parameter is outside its documented domain."""


class WindowEmptyError(InvalidParameterError):
    """The resonance window for (eps, rho, k) is empty.

    ``construction.lambda_window`` decides emptiness; the error names
    eps, rho and k and carries no bound on rho, since rounding closes
    windows slightly below the exact edge ``rho = eps / (2 k pi)``.
    """


class FitDataError(ValueError):
    """Log-log fitting was attempted on unusable data (nonpositive values)."""


def is_whole(x, least: int) -> bool:
    """Whether ``x`` is a finite whole number ``>= least``: a real number
    by ``is_real`` that ``float`` holds as a whole number.

    A whole number of any real type passes (``8``, ``8.0``,
    ``np.int64(8)``); a fraction, nan or inf does not, nor does anything
    ``is_real`` rejects.  The answer is always True or False, and each
    caller raises its own error with its own bound.
    """
    return is_real(x) and float(x).is_integer() and x >= least


def is_real(x) -> bool:
    """Whether ``x`` is a real number: a numpy value of a real kind with
    no axes, or anything else, that ``float`` takes and that orders
    against a float.

    Any int, float or numpy real scalar that a float can hold passes,
    nan and inf included: each caller states its own bounds.  A string,
    even a numeric one, None, a list, an array with an axis (which
    ``float`` takes on numpy before 2.4 if it holds one element), a
    complex of any type (numpy's included, which ``float`` would
    truncate) and an int too large for a float do not.  The numpy check
    comes before ``float``, whose warnings it would otherwise meet.  The
    answer is always True or False, and each caller raises
    ``InvalidParameterError`` naming its own parameter.
    """
    try:
        if isinstance(x, (np.ndarray, np.generic)) and (x.ndim or x.dtype.kind == "c"):
            return False
        float(x)
        x < 0.0
    except (OverflowError, TypeError, ValueError):
        return False
    return True


def shown(x) -> str:
    """``str(x)`` for an error message, but a str is quoted, so that
    ``"0.5"`` does not read as a number, and an int too long for decimal
    conversion (Python's ``int_max_str_digits``), alone or in a tuple or
    list, is named by its size: ``bit_length`` converts nothing."""
    try:
        return repr(x) if isinstance(x, str) else str(x)
    except ValueError:
        if isinstance(x, int):
            return f"an int of {x.bit_length()} bits"
        inner = ", ".join(shown(v) for v in x)
        return f"[{inner}]" if isinstance(x, list) else f"({inner})"
