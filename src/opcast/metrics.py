"""Point and interval accuracy metrics."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError

Z95 = 1.96  # the two-sided 95% normal quantile of every interval


def _paired(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=float).reshape(-1)
    p = np.asarray(predicted, dtype=float).reshape(-1)
    if a.size == 0:
        raise DimensionError("metrics need at least one pair")
    if a.shape != p.shape:
        raise DimensionError(f"length mismatch: {a.shape} vs {p.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(p))):
        raise NumericError("metric inputs contain non-finite values")
    return a, p


def mae(actual, predicted) -> float:
    a, p = _paired(actual, predicted)
    return float(np.abs(a - p).mean())


def rmse(actual, predicted) -> float:
    a, p = _paired(actual, predicted)
    return float(np.sqrt(((a - p) ** 2).mean()))


def coverage(actual, predicted, sd) -> float:
    """Share of actuals inside the centered 95% band, ``Z95 * sd``."""
    a, p = _paired(actual, predicted)
    s = np.asarray(sd, dtype=float).reshape(-1)
    if s.shape != a.shape:
        raise DimensionError(f"length mismatch: {a.shape} vs {s.shape}")
    if not np.all(np.isfinite(s)) or (s < 0).any():
        raise NumericError("standard deviations must be finite and non-negative")
    return float((np.abs(a - p) <= Z95 * s).mean())


def interval_width(sd) -> float:
    """Mean half-width of the centered 95% band."""
    s = np.asarray(sd, dtype=float).reshape(-1)
    if s.size == 0:
        raise DimensionError("need at least one value")
    if not np.all(np.isfinite(s)) or (s < 0).any():
        raise NumericError("standard deviations must be finite and non-negative")
    return float((Z95 * s).mean())
