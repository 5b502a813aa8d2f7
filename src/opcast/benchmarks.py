"""Reference models the online forecaster is compared against.

* persistence: tomorrow equals today.
* VARX(q): vector autoregression with exogenous regressors, fitted once by
  per-equation least squares and then frozen.

The no-lags and univariate variants of the main model are configurations
of it (``FeatureConfig.with_lags``, ``FeatureConfig.for_response``), built
by the evaluation harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DimensionError, FittingError, NumericError


def persistence_forecast(y_prev) -> np.ndarray:
    """The previous observation, unchanged."""
    y_prev = np.asarray(y_prev, dtype=float).reshape(-1)
    if not np.all(np.isfinite(y_prev)):
        raise NumericError("previous observation contains non-finite values")
    return y_prev.copy()


@dataclass(frozen=True)
class VarxModel:
    """Frozen coefficients of a VARX(q) fitted by least squares.

    ``phi[j]`` multiplies the response vector at lag j+1, ``beta``
    multiplies the exogenous vector; both act by matrix-vector product.
    """

    q: int
    intercept: np.ndarray          # (m,)
    phi: tuple[np.ndarray, ...]    # q matrices, each (m, m)
    beta: np.ndarray               # (m, g)
    sigma_eta: np.ndarray          # (m, m) residual covariance
    column_names: tuple[str, ...]  # design columns, for diagnostics


def _design_columns(q: int, m: int, g: int) -> list[str]:
    return (["const"] + [f"y[t-{j}][{r}]" for j in range(1, q + 1) for r in range(m)]
            + [f"g[{c}]" for c in range(g)])


def fit_varx(train: Sequence[tuple], q: int) -> VarxModel:
    """Least-squares fit of a VARX(q) on chronological (y, g) pairs.

    The first q pairs only provide lags. The residual covariance uses the
    degrees-of-freedom denominator (rows minus parameters per equation).
    Raises when the design is rank deficient, naming the involved columns.
    """
    if not isinstance(q, int) or q < 0:
        raise ConfigurationError(f"lag order must be a non-negative integer, got {q!r}")
    pairs = [(np.asarray(y, dtype=float).reshape(-1),
              np.asarray(g, dtype=float).reshape(-1)) for y, g in train]
    if not pairs:
        raise ConfigurationError("training data is empty")
    m, g_dim = pairs[0][0].size, pairs[0][1].size
    for y, g in pairs:
        if y.size != m or g.size != g_dim:
            raise DimensionError("training pairs have inconsistent dimensions")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(g))):
            raise NumericError("training pairs contain non-finite values")

    n_rows = len(pairs) - q
    p_cols = 1 + q * m + g_dim
    if n_rows <= p_cols:
        raise FittingError(
            f"need more than {q + p_cols} observations to fit {p_cols} "
            f"parameters per equation, got {len(pairs)}")

    ys = np.array([y for y, _ in pairs])
    X = np.hstack([np.ones((n_rows, 1))] + [ys[q - j:len(pairs) - j] for j in range(1, q + 1)]
                  + [np.array([g for _, g in pairs[q:]])])
    Y = ys[q:]

    names = _design_columns(q, m, g_dim)
    rank = np.linalg.matrix_rank(X)
    if rank < p_cols:
        # name the columns loading on the null space of X^T X
        _, _, vt = np.linalg.svd(X, full_matrices=True)
        null = vt[rank:]
        involved = sorted({names[c] for row in null
                           for c in np.flatnonzero(np.abs(row) > 1e-8)})
        raise FittingError(
            f"design matrix is rank deficient ({rank}/{p_cols}); "
            f"collinear columns: {involved}")

    coef, _, _, _ = np.linalg.lstsq(X, Y, rcond=None)
    resid = Y - X @ coef
    sigma_eta = resid.T @ resid / (n_rows - p_cols)

    phi = tuple(coef[1 + j * m: 1 + (j + 1) * m].T for j in range(q))
    beta = coef[1 + q * m:].T
    return VarxModel(q=q, intercept=coef[0].copy(), phi=phi, beta=beta,
                     sigma_eta=sigma_eta, column_names=tuple(names))


def predict_varx(model: VarxModel, lags: Sequence, g) -> tuple[np.ndarray, np.ndarray]:
    """One-step mean and the frozen residual covariance.

    ``lags[0]`` is the most recent response vector, ``lags[q-1]`` the
    oldest required one.
    """
    m = model.intercept.size
    if len(lags) != model.q:
        raise DimensionError(f"expected {model.q} lag vectors, got {len(lags)}")
    g = np.asarray(g, dtype=float).reshape(-1)
    if g.size != model.beta.shape[1]:
        raise DimensionError(f"exogenous vector must have length {model.beta.shape[1]}")
    y_hat = model.intercept.copy()
    for j, lag in enumerate(lags):
        lag = np.asarray(lag, dtype=float).reshape(-1)
        if lag.size != m:
            raise DimensionError(f"lag vectors must have length {m}")
        y_hat = y_hat + model.phi[j] @ lag
    y_hat = y_hat + model.beta @ g
    return y_hat, model.sigma_eta.copy()
