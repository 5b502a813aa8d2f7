"""Exponentially weighted recursive estimator for multivariate linear models.

Tracks the coefficient matrix of ``y = u H + noise`` together with a
noise-covariance estimate, discounting old observations by a forgetting
factor. One update is a rank-one correction (no matrix inversion); the
precision proxy ``P`` plays the role of ``(sum of weighted outer products
of u)^-1`` and is kept symmetric explicitly.

The update refuses a step whose gain denominator ``lam + u'Pu`` is not
positive, before touching any state. Past that guard the noise covariance
step is a convex combination of the previous covariance and the outer
product of the innovation, so ``Sigma`` stays exactly symmetric and
positive semidefinite by construction. It is checked once, where a
covariance enters from outside: ``from_dict``.

``batch_oracle`` recomputes the same quantities non-recursively with
direct solves, which is useful to validate the recursion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (ConditioningWarning, ConfigurationError, DimensionError,
                     NumericError)

# Eigenvalues of a restored noise covariance in [-EIG_FLOOR, 0) are
# rounding noise; anything lower is a real violation.
EIG_FLOOR = 1e-10
# Every COND_CHECK_EVERY updates the condition number of P is compared
# with COND_THRESHOLD; above it a ConditioningWarning is issued.
COND_CHECK_EVERY = 50
COND_THRESHOLD = 1e8


def _check_forgetting(forgetting: float) -> float:
    forgetting = float(forgetting)
    if not 0.0 < forgetting <= 1.0:
        raise ConfigurationError(f"forgetting factor must lie in (0, 1], got {forgetting}")
    return forgetting


def _as_vector(x, length: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.shape != (length,):
        raise DimensionError(f"{name} must have length {length}, got shape {np.shape(x)}")
    if not all(map(math.isfinite, arr.tolist())):  # cheaper than numpy on short vectors
        raise NumericError(f"{name} contains non-finite values")
    return arr


class AdaptiveState:
    """Mutable state of one adaptive linear model.

    Parameters
    ----------
    n_predictors : int
        Length of the predictor vector ``u``.
    n_responses : int
        Length of the response vector ``y``.
    forgetting : float
        Discount factor in (0, 1]; 1 means no forgetting.
    """

    def __init__(self, n_predictors: int, n_responses: int, forgetting: float):
        if n_predictors < 1 or n_responses < 1:
            raise ConfigurationError("predictor and response dimensions must be >= 1")
        self.n_predictors = int(n_predictors)
        self.n_responses = int(n_responses)
        self.forgetting = _check_forgetting(forgetting)
        self.H = np.zeros((self.n_predictors, self.n_responses))
        self.Sigma = np.zeros((self.n_responses, self.n_responses))
        self.P = np.eye(self.n_predictors)
        self.gamma = 0.0
        self.n_updates = 0

    def update(self, u, y) -> None:
        """Fold one observation pair into the state.

        The innovation used for the covariance update is measured against
        the coefficients from before this observation. A rejected pair
        leaves the state untouched.
        """
        u = _as_vector(u, self.n_predictors, "u")
        y = _as_vector(y, self.n_responses, "y")
        lam = self.forgetting
        Pu = self.P @ u
        denom = lam + u @ Pu
        if not denom > 0.0:
            raise NumericError(f"gain denominator lam + u'Pu is {denom:.3e}, not positive")

        self.gamma = gamma = 1.0 + lam * self.gamma
        e = y - u @ self.H
        self.H = self.H + Pu[:, None] * e / denom
        # both weights are >= 0 (gamma >= 1), so Sigma stays PSD and the
        # outer product scaled as a whole keeps it exactly symmetric
        self.Sigma = (1.0 - 1.0 / gamma) * self.Sigma + (e[:, None] * e) * (lam / (gamma * denom))
        P = (self.P - Pu[:, None] * Pu / denom) / lam
        self.P = (P + P.T) / 2.0

        self.n_updates += 1
        if self.n_updates % COND_CHECK_EVERY == 0:
            cond = np.linalg.cond(self.P)
            if not np.isfinite(cond) or cond > COND_THRESHOLD:
                warnings.warn(
                    f"precision proxy condition number {cond:.3e} exceeds "
                    f"{COND_THRESHOLD:.1e} after {self.n_updates} updates",
                    ConditioningWarning, stacklevel=2)

    def predict_mean(self, u) -> np.ndarray:
        u = _as_vector(u, self.n_predictors, "u")
        return u @ self.H

    def covariance(self) -> np.ndarray:
        """Noise covariance (symmetric and PSD by construction)."""
        return self.Sigma.copy()

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n_predictors": self.n_predictors,
            "n_responses": self.n_responses,
            "forgetting": self.forgetting,
            "gamma": self.gamma,
            "n_updates": self.n_updates,
            "H": self.H.tolist(),
            "Sigma": self.Sigma.tolist(),
            "P": self.P.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AdaptiveState":
        """Rebuild a state, checking what ``update`` keeps true by construction.

        Keys of older documents that are no longer settable
        (``cond_check_every``, ``cond_threshold``) are ignored.
        """
        state = cls(int(doc["n_predictors"]), int(doc["n_responses"]),
                    float(doc["forgetting"]))
        H = np.asarray(doc["H"], dtype=float)
        Sigma = np.asarray(doc["Sigma"], dtype=float)
        P = np.asarray(doc["P"], dtype=float)
        gamma = float(doc["gamma"])
        p, m = state.n_predictors, state.n_responses
        if H.shape != (p, m) or Sigma.shape != (m, m) or P.shape != (p, p):
            raise DimensionError("serialized state matrices do not match dimensions")
        for name, arr in (("H", H), ("Sigma", Sigma), ("P", P)):
            if not np.isfinite(arr).all():
                raise NumericError(f"serialized {name} contains non-finite values")
        if not 0.0 <= gamma < math.inf:
            raise NumericError(f"serialized gamma must be finite and >= 0, got {gamma!r}")
        if not np.array_equal(Sigma, Sigma.T):
            raise NumericError("serialized noise covariance is not symmetric")
        low = np.linalg.eigvalsh(Sigma).min()
        if low < -EIG_FLOOR:
            raise NumericError(f"serialized noise covariance has negative eigenvalue {low:.3e}")
        state.H, state.Sigma, state.P = H, Sigma, P
        state.gamma = gamma
        state.n_updates = int(doc["n_updates"])
        return state


@dataclass(frozen=True)
class BatchOracleResult:
    H: np.ndarray
    Sigma: np.ndarray
    P: np.ndarray
    gamma: float


def batch_oracle(history: Sequence[tuple], forgetting: float,
                 prior_H: np.ndarray | None = None,
                 prior_P: np.ndarray | None = None) -> BatchOracleResult:
    """Recompute the estimator state from scratch with direct solves.

    The precision accumulates as ``lam * previous + u u^T`` starting from
    the inverse of the prior ``P``; coefficients solve the correspondingly
    discounted normal equations at every step. The covariance recursion is
    unrolled with the per-step innovations measured against the previous
    directly solved coefficients, so nothing here shares code with the
    rank-one update path.
    """
    lam = _check_forgetting(forgetting)
    if not history:
        raise ConfigurationError("history must contain at least one observation")
    u0 = np.asarray(history[0][0], dtype=float).reshape(-1)
    y0 = np.asarray(history[0][1], dtype=float).reshape(-1)
    p, m = u0.size, y0.size
    H_prev = np.zeros((p, m)) if prior_H is None else np.asarray(prior_H, dtype=float)
    P_prior = np.eye(p) if prior_P is None else np.asarray(prior_P, dtype=float)
    if H_prev.shape != (p, m) or P_prior.shape != (p, p):
        raise DimensionError("prior matrices do not match observation dimensions")

    precision = np.linalg.inv(P_prior)
    moment = precision @ H_prev              # discounted sum of u^T y plus prior term
    P_prev = P_prior.copy()
    weighted_sq = np.zeros((m, m))           # gamma_n * Sigma_n
    gamma = 0.0

    for u, y in history:
        u = _as_vector(u, p, "u")
        y = _as_vector(y, m, "y")
        gamma = 1.0 + lam * gamma
        e = y - u @ H_prev
        weighted_sq = lam * weighted_sq + lam * np.outer(e, e) / (lam + u @ (P_prev @ u))
        precision = lam * precision + np.outer(u, u)
        moment = lam * moment + np.outer(u, y)
        H_prev = np.linalg.solve(precision, moment)
        P_prev = np.linalg.inv(precision)

    return BatchOracleResult(H=H_prev, Sigma=weighted_sq / gamma,
                             P=P_prev, gamma=gamma)
