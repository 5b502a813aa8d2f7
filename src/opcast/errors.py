"""Exception and warning types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 1, data
problems exit 2, numeric or model-state problems exit 3.
"""

import sys
import warnings


class OpcastError(Exception):
    """Base class for all package errors."""


class ConfigurationError(OpcastError):
    """Invalid parameter or option value (bad forgetting factor, lag order, spec string)."""


class DataError(OpcastError):
    """Base class for problems with input data."""


class SchemaError(DataError):
    """Dataset header is missing mandatory columns or is unreadable."""


class OrderingError(DataError):
    """Records are not in chronological order."""


class TimeConsistencyError(DataError):
    """A derived duration is negative beyond tolerance."""


class InsufficientHistoryError(DataError):
    """Not enough records to build the requested lag structure."""


class DegenerateDataError(DataError):
    """Data cannot support the requested operation (too few distinct points, zero spread)."""


class InputError(DataError):
    """A runtime input (vector, index, document) is malformed."""


class DimensionError(InputError):
    """An array argument has the wrong shape or length."""


class StateIndexError(InputError, IndexError):
    """A state label is outside 1..K."""


class RestoreError(InputError):
    """A serialized model document is truncated, mis-shaped or of an unknown version."""


class NumericError(OpcastError):
    """A numeric invariant was violated (non-finite values, covariance not PSD)."""


class FittingError(NumericError):
    """A regression design is rank deficient or otherwise unusable."""


class ForecastUnavailableError(OpcastError):
    """No trained state exists for the requested condition and cold starts are disabled."""


class ConditioningWarning(UserWarning):
    """The precision proxy has become badly conditioned."""


class ThresholdWarning(UserWarning):
    """The cluster-quality threshold was not reached within the allowed range."""


def warn(message: str, category: type[Warning]) -> None:
    """Issue a warning at the first caller outside this package, however deep it arose."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").startswith(__package__ + "."):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)
