"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A caller-supplied parameter is outside its documented domain."""


class WindowEmptyError(InvalidParameterError):
    """The resonance window for (eps, rho, k) is empty.

    ``rho_max`` carries the largest box-spread tolerance for which the
    window would have been nonempty, so callers can report a fix.
    """

    def __init__(self, message: str, rho_max: float):
        super().__init__(message)
        self.rho_max = rho_max


class FitDataError(ValueError):
    """Log-log fitting was attempted on unusable data (nonpositive values)."""
