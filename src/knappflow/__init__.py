"""Numerical counterexample experiments for quadratic wave flow-map bounds.

The package builds anisotropic frequency-box data, evaluates the
second-order response amplitude over all half-wave sign combinations at
resonance-window times, and fits the growth exponents that decide
whether a quadratic flow-map estimate between the given Sobolev indices
can hold.

The package root exports the library entry points, the types they take
and return, and the errors they raise; everything else is imported from
its submodule.
"""

from .amplitudes import AmplitudeBreakdown, NormReport, lambda_hat
from .construction import KnappParams, make_params
from .errors import FitDataError, InvalidParameterError, WindowEmptyError
from .sweep import SweepRecord, Verdict, run_sweep, smoothness_verdict
from .symbols import SignTriple

__version__ = "0.1.0"

__all__ = [
    "make_params",
    "lambda_hat",
    "run_sweep",
    "smoothness_verdict",
    "KnappParams",
    "AmplitudeBreakdown",
    "SignTriple",
    "SweepRecord",
    "NormReport",
    "Verdict",
    "InvalidParameterError",
    "WindowEmptyError",
    "FitDataError",
    "__version__",
]
