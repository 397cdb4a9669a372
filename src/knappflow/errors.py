"""Exception types shared across the package, its one whole-number rule,
and the one way an error message shows a rejected value."""


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
    """Whether ``x`` is a finite whole number ``>= least``.

    A whole number of any real type passes (``8``, ``8.0``,
    ``np.int64(8)``); a fraction, nan or inf does not, nor does an int
    too large for a float, for which ``float`` raises ``OverflowError``.
    Nor does anything else ``float`` rejects (``None``, ``"abc"``, a
    list) or that does not compare with an int (``"3"``): the answer is
    always True or False, and each caller raises its own error with its
    own bound.
    """
    try:
        return float(x).is_integer() and x >= least
    except (OverflowError, TypeError, ValueError):
        return False


def shown(x) -> str:
    """``str(x)`` for an error message, but an int too long for decimal
    conversion (Python's ``int_max_str_digits``), alone or in a tuple or
    list, is named by its size: ``bit_length`` converts nothing."""
    try:
        return str(x)
    except ValueError:
        if isinstance(x, int):
            return f"an int of {x.bit_length()} bits"
        inner = ", ".join(shown(v) for v in x)
        return f"[{inner}]" if isinstance(x, list) else f"({inner})"
