"""Point and interval accuracy metrics: ``checked`` turns forecasts and their
actuals (and spreads) into arrays once, ``columns`` gives each pair's value of
every score, and ``cell_scores`` averages those over a run of pairs."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError

Z95 = 1.96  # the two-sided 95% normal quantile of every interval


def checked(actual, predicted, sd=None) -> tuple[np.ndarray, ...]:
    """The pairs (and spreads ``sd``) as 1-D float arrays, refused where a metric would be."""
    a = np.asarray(actual, dtype=float).reshape(-1)
    p = np.asarray(predicted, dtype=float).reshape(-1)
    if a.size == 0:
        raise DimensionError("metrics need at least one pair")
    if a.shape != p.shape:
        raise DimensionError(f"length mismatch: {a.shape} vs {p.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(p))):
        raise NumericError("metric inputs contain non-finite values")
    if sd is None:
        return a, p
    s = np.asarray(sd, dtype=float).reshape(-1)
    if s.shape != a.shape:
        raise DimensionError(f"length mismatch: {a.shape} vs {s.shape}")
    if not np.all(np.isfinite(s)) or (s < 0).any():
        raise NumericError("standard deviations must be finite and non-negative")
    return a, p, s


def columns(a: np.ndarray, p: np.ndarray, s: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Per pair of ``checked`` arrays, the value each score averages: ``|e|``,
    ``e²`` (``rmse`` is the root of its mean), and given spreads ``s`` the hit,
    the half-width ``h`` and the interval-score term (the 95% band's interval
    score, Gneiting & Raftery 2007: its width plus ``2 / 0.05`` times each miss)."""
    err = np.abs(a - p)
    out = {"mae": err, "rmse": err ** 2}
    if s is not None:
        h = Z95 * s
        out.update(covg=err <= h, piw=h, is95=2.0 * h + 40.0 * np.maximum(err - h, 0.0))
    return out


def cell_scores(cols: dict[str, np.ndarray], part: slice) -> dict[str, float]:
    """The ``mae`` and ``rmse``, and given spreads the ``covg``, ``piw`` and ``is95``,
    of the pairs ``part`` of ``columns``, in that order: the mean of the same values
    in the same order as over those pairs alone."""
    out = {name: float(col[part].sum()) / (part.stop - part.start) for name, col in cols.items()}
    out["rmse"] = float(np.sqrt(out["rmse"]))
    return out
