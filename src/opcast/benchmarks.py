"""Reference models the online forecaster is compared against.

* persistence: tomorrow equals today (no code here: the harness reads ``y[t-1]``).
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


def _design_columns(q: int, m: int, g: int) -> list[str]:
    return (["const"] + [f"y[t-{j}][{r}]" for j in range(1, q + 1) for r in range(m)]
            + [f"g[{c}]" for c in range(g)])


def fit_varx(y, g, q: int) -> VarxModel:
    """Least-squares fit of a VARX(q) on chronological rows: responses ``y``
    ``(n, m)`` and exogenous inputs ``g`` ``(n, g_dim)``.

    The first q rows only provide lags. The residual covariance uses the
    degrees-of-freedom denominator (rows minus parameters per equation).
    Raises when the design is rank deficient, naming the involved columns; the rank
    is the fitting ``lstsq``'s (singular values <= eps * max(X.shape) * s_max are zero).
    """
    if isinstance(q, bool) or not isinstance(q, int) or q < 0:
        raise ConfigurationError(f"lag order must be a non-negative integer, got {q!r}")
    y, g = np.asarray(y, dtype=float), np.asarray(g, dtype=float)
    if y.size == 0:
        raise ConfigurationError("training data is empty")
    if y.ndim != 2 or g.ndim != 2 or len(y) != len(g):
        raise DimensionError("training pairs have inconsistent dimensions")
    if not (np.isfinite(y).all() and np.isfinite(g).all()):
        raise NumericError("training pairs contain non-finite values")

    (n, m), g_dim = y.shape, g.shape[1]
    n_rows = n - q
    p_cols = 1 + q * m + g_dim
    if n_rows <= p_cols:
        raise FittingError(
            f"need more than {q + p_cols} observations to fit {p_cols} "
            f"parameters per equation, got {n}")

    X = np.hstack([np.ones((n_rows, 1))] + [y[q - j:n - j] for j in range(1, q + 1)]
                  + [g[q:]])
    Y = y[q:]

    coef, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
    if rank < p_cols:
        # name the columns loading on the null space of X^T X
        names = _design_columns(q, m, g_dim)
        _, _, vt = np.linalg.svd(X, full_matrices=True)
        null = vt[rank:]
        involved = sorted({names[c] for row in null
                           for c in np.flatnonzero(np.abs(row) > 1e-8)})
        raise FittingError(
            f"design matrix is rank deficient ({rank}/{p_cols}); "
            f"collinear columns: {involved}")

    resid = Y - X @ coef
    sigma_eta = resid.T @ resid / (n_rows - p_cols)

    phi = tuple(coef[1 + j * m: 1 + (j + 1) * m].T for j in range(q))
    beta = coef[1 + q * m:].T
    return VarxModel(q=q, intercept=coef[0].copy(), phi=phi, beta=beta, sigma_eta=sigma_eta)


def predict_varx(model: VarxModel, lags: Sequence, g) -> tuple[np.ndarray, np.ndarray]:
    """One-step means of ``n`` rows and the frozen residual covariance.

    ``g`` holds the rows' exogenous vectors ``(n, g_dim)``; ``lags[0]`` the
    rows' most recent response vectors ``(n, m)``, ``lags[q-1]`` the oldest
    required ones. Each mean adds the terms in the order of the model,
    intercept first, one matrix-vector product per row and term.
    """
    m = model.intercept.size
    if len(lags) != model.q:
        raise DimensionError(f"expected {model.q} lag vectors, got {len(lags)}")
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[1] != model.beta.shape[1]:
        raise DimensionError(f"exogenous vectors must have length {model.beta.shape[1]}")
    y_hat = model.intercept
    for phi, lag in zip(model.phi, lags):
        lag = np.asarray(lag, dtype=float)
        if lag.shape != (len(g), m):
            raise DimensionError(f"lag vectors must have length {m}, one per row")
        y_hat = y_hat + np.matmul(phi, lag[:, :, None])[:, :, 0]
    y_hat = y_hat + np.matmul(model.beta, g[:, :, None])[:, :, 0]
    return y_hat, model.sigma_eta.copy()
