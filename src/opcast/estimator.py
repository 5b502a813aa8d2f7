"""Exponentially weighted recursive estimator for multivariate linear models.

Tracks the coefficient matrix of ``y = u H + noise`` together with a
noise-covariance estimate, discounting old observations by a forgetting
factor. One update is a rank-one correction (no matrix inversion); the
precision proxy ``P`` plays the role of ``(sum of weighted outer products
of u)^-1``.

The update refuses a step whose gain denominator ``lam + u'Pu`` is not
positive, before touching any state. Past that guard the noise covariance
step is a convex combination of the previous covariance and the outer
product of the innovation, so ``Sigma`` stays exactly symmetric and
positive semidefinite by construction. ``P`` stays exactly symmetric too:
its step subtracts ``Pu_i Pu_j / denom`` from entry ``(i, j)`` and IEEE
multiplication commutes, so a symmetric ``P`` gives a symmetric result
with no explicit symmetrization. Both invariants are checked once, where
a state enters from outside: ``from_dict``.

``stacked_pass`` folds many same-shaped states through their own input
sequences at once, one stacked update per step, computing bit for bit
what ``AdaptiveState._update`` computes one state at a time; ``stacked``
lays the sequences out for it.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from typing import Sequence

import numpy as np

from .errors import (ConditioningWarning, ConfigurationError, DimensionError,
                     NumericError, RestoreError)

# Eigenvalues of a restored noise covariance in [-EIG_FLOOR, 0) are
# rounding noise; anything lower is a real violation.
EIG_FLOOR = 1e-10
# Every COND_CHECK_EVERY updates the condition number of P is compared
# with COND_THRESHOLD; above it a ConditioningWarning is issued.
COND_CHECK_EVERY = 50
COND_THRESHOLD = 1e8


def checked_vector(x, length: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.shape != (length,):
        raise DimensionError(f"{name} must have length {length}, got shape {np.shape(x)}")
    if not all(map(math.isfinite, arr.tolist())):  # cheaper than numpy on short vectors
        raise NumericError(f"{name} contains non-finite values")
    return arr


def json_number(value, whole: bool = False) -> bool:
    """Whether ``value`` is a finite number, never a boolean or a string; with
    ``whole``, an integer >= 0 (``7.0`` counts as 7)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max  # exact: no JSON number overflows
            and (not whole or value >= 0 and value == int(value)))


def serialized(doc: dict, name: str, kind: type = float):
    """A scalar of a serialized document, checked, not coerced: a JSON boolean
    for ``bool``, else a ``json_number`` >= 0, a whole one for ``int``."""
    value = doc[name]
    if kind is bool and not isinstance(value, bool):
        raise RestoreError(f"serialized {name} must be a boolean, got {value!r}")
    if kind is not bool and not (json_number(value, kind is int) and value >= 0):
        raise NumericError(f"serialized {name} must be a finite non-negative "
                           f"{'integer' if kind is int else 'number'}, got {value!r}")
    return kind(value)


def _refusal(denom) -> str:
    return f"gain denominator lam + u'Pu is {denom:.3e}, not positive"


def _conditioning(P: np.ndarray, n_updates: int) -> str | None:
    """The ConditioningWarning message due after update ``n_updates``, if any."""
    if n_updates % COND_CHECK_EVERY:
        return None
    cond = np.linalg.cond(P)
    if np.isfinite(cond) and cond <= COND_THRESHOLD:
        return None
    return (f"precision proxy condition number {cond:.3e} exceeds "
            f"{COND_THRESHOLD:.1e} after {n_updates} updates")


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
        self.forgetting = float(forgetting)
        if not 0.0 < self.forgetting <= 1.0:
            raise ConfigurationError(f"forgetting factor must lie in (0, 1], got {forgetting}")
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
        self._update(checked_vector(u, self.n_predictors, "u"),
                     checked_vector(y, self.n_responses, "y"))

    def _update(self, u: np.ndarray, y: np.ndarray) -> None:
        """``update`` of vectors the caller has checked (right length, finite)."""
        lam = self.forgetting
        Pu = self.P @ u
        denom = lam + u @ Pu
        if not denom > 0.0:
            raise NumericError(_refusal(denom))

        self.gamma = gamma = 1.0 + lam * self.gamma
        e = y - u @ self.H
        self.H = self.H + Pu[:, None] * e / denom
        # both weights are >= 0 (gamma >= 1), so Sigma stays PSD and the
        # outer product scaled as a whole keeps it exactly symmetric
        self.Sigma = (1.0 - 1.0 / gamma) * self.Sigma + (e[:, None] * e) * (lam / (gamma * denom))
        self.P = (self.P - Pu[:, None] * Pu / denom) / lam  # exactly symmetric

        self.n_updates += 1
        message = _conditioning(self.P, self.n_updates)
        if message is not None:
            warnings.warn(message, ConditioningWarning, stacklevel=3)

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
        state = cls(serialized(doc, "n_predictors", int),
                    serialized(doc, "n_responses", int),
                    serialized(doc, "forgetting"))
        H = np.asarray(doc["H"], dtype=float)
        Sigma = np.asarray(doc["Sigma"], dtype=float)
        P = np.asarray(doc["P"], dtype=float)
        p, m = state.n_predictors, state.n_responses
        if H.shape != (p, m) or Sigma.shape != (m, m) or P.shape != (p, p):
            raise DimensionError("serialized state matrices do not match dimensions")
        for name, arr in (("H", H), ("Sigma", Sigma), ("P", P)):
            if not np.isfinite(arr).all():
                raise NumericError(f"serialized {name} contains non-finite values")
        if not np.array_equal(P, P.T):
            raise NumericError("serialized precision proxy P is not symmetric")
        if not np.array_equal(Sigma, Sigma.T):
            raise NumericError("serialized noise covariance is not symmetric")
        low = np.linalg.eigvalsh(Sigma).min()
        if low < -EIG_FLOOR:
            raise NumericError(f"serialized noise covariance has negative eigenvalue {low:.3e}")
        state.H, state.Sigma, state.P = H, Sigma, P
        state.gamma = serialized(doc, "gamma")
        state.n_updates = serialized(doc, "n_updates", int)
        return state


def stacked(sequences: Sequence[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """Sequences sorted longest first, zero-padded into one ``(steps, count, ...)``
    array, and per step the number of sequences still running (a prefix)."""
    lengths = np.array([len(seq) for seq in sequences])
    out = np.zeros((lengths[0], len(sequences)) + sequences[0].shape[1:],
                   dtype=sequences[0].dtype)
    for i, seq in enumerate(sequences):
        out[:len(seq), i] = seq
    return out, (lengths > np.arange(lengths[0])[:, None]).sum(axis=1).tolist()


def stacked_pass(states: Sequence[AdaptiveState], X: np.ndarray, Y: np.ndarray,
                 active: Sequence[int]) -> tuple:
    """Fold each state's own sequence of checked ``(u, y)`` rows, all at once.

    The states share their dimensions and forgetting factor and come
    sorted by sequence length, longest first; ``X``, ``Y`` and ``active``
    hold their sequences as ``stacked`` lays them out. Step ``k`` advances
    the first ``active[k]`` states by one stacked update that computes bit
    for bit what ``_update`` computes state by state: the products are
    ``np.matmul`` of ``(n, p, p) @ (n, p, 1)`` stacks of contiguous slices,
    which call the BLAS gemv/dot of the 2-D product once per slice, and
    the elementwise steps keep ``_update``'s operands and order.

    Nothing is written to the states: returns ``commit``, which writes the
    results, the ``(state, step, message)`` of every ConditioningWarning
    due, per refused state the ``(step, message)`` of its first refused
    step (the state is then reset to a harmless prior and carried along),
    and, laid out like ``Y``, each step's pre-update prediction ``u'H`` and
    diagonal of ``Sigma``: the forecast a state makes before it learns.
    """
    lam = states[0].forgetting
    p, m = X.shape[2], Y.shape[2]
    lengths = (np.asarray(active)[:, None] > np.arange(len(states))).sum(axis=0).tolist()
    H = np.stack([st.H for st in states])
    Sigma = np.stack([st.Sigma for st in states])
    P = np.stack([st.P for st in states])
    gamma = np.array([st.gamma for st in states])
    checks: dict[int, list[int]] = {}  # step -> states whose update count hits the schedule
    for j, (st, length) in enumerate(zip(states, lengths)):
        for k in range(COND_CHECK_EVERY - 1 - st.n_updates % COND_CHECK_EVERY, length,
                       COND_CHECK_EVERY):
            checks.setdefault(k, []).append(j)
    caught: list[tuple[int, int, str]] = []
    refused: dict[int, tuple[int, str]] = {}
    mean, var = np.empty(Y.shape), np.empty(Y.shape)
    for k, n in enumerate(active):
        u, Hk, Sk, Pk, gk = X[k, :n], H[:n], Sigma[:n], P[:n], gamma[:n]
        ut = u.reshape(n, 1, p)
        Pu = np.matmul(Pk, u.reshape(n, p, 1))
        denom = np.matmul(ut, Pu)
        denom += lam
        if not (denom > 0.0).all():
            for j in np.flatnonzero(~(denom[:, 0, 0] > 0.0)).tolist():
                refused.setdefault(j, (k, _refusal(denom[j, 0, 0])))
                Hk[j], Sk[j], Pk[j], gk[j] = 0.0, 0.0, np.eye(p), 0.0
            Pu = np.matmul(Pk, u.reshape(n, p, 1))
            denom = np.matmul(ut, Pu)
            denom += lam
        var[k, :n] = Sk.diagonal(0, 1, 2)
        pred = np.matmul(ut, Hk)
        mean[k, :n] = pred[:, 0]
        gk *= lam
        gk += 1.0
        e = Y[k, :n].reshape(n, 1, m) - pred
        Hk += Pu * e / denom
        ee = e.reshape(n, m, 1) * e
        ee *= (lam / (gk * denom[:, 0, 0]))[:, None, None]
        Sk *= (1.0 - 1.0 / gk)[:, None, None]
        Sk += ee
        outer = Pu * Pu.reshape(n, 1, p)
        outer /= denom
        Pk -= outer
        Pk /= lam
        for j in checks.get(k, ()):
            message = _conditioning(Pk[j], states[j].n_updates + k + 1)
            if message is not None and j not in refused:
                caught.append((j, k, message))

    def commit() -> None:
        for i, (st, length) in enumerate(zip(states, lengths)):
            st.H, st.Sigma, st.P = H[i].copy(), Sigma[i].copy(), P[i].copy()
            st.gamma, st.n_updates = float(gamma[i]), st.n_updates + length
    return commit, caught, refused, mean, var
