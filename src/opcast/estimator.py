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
states enter from outside: ``restore_states``, over whole stacks.

``stacked_pass`` folds many states through their own input sequences at
once, computing bit for bit what ``AdaptiveState._update`` computes one
state at a time; it reports each state's refusal where and as ``_update``
would raise it, and ends that state. Its layout is ragged: the states come
in groups of one shape, each kind of array is one flat buffer of all
states' blocks, and one step advances every group, the products per group
and everything else once over the flat buffers; ``stacked`` lays the
sequences out for it; ``model`` passes equal v chains once. A due
conditioning check takes an SVD only where a Cholesky factor cannot bound it.
"""

from __future__ import annotations

import bisect
import math
import numbers
import sys
from typing import Sequence

import numpy as np

from .errors import (ConditioningWarning, ConfigurationError, DimensionError,
                     InputError, NumericError, RestoreError, StateIndexError, warn)

# Eigenvalues of a restored noise covariance in [-EIG_FLOOR, 0) are
# rounding noise; anything lower is a real violation.
EIG_FLOOR = 1e-10
# Every COND_CHECK_EVERY updates the condition number of P is compared
# with COND_THRESHOLD; above it a ConditioningWarning is issued.
COND_CHECK_EVERY = 50
COND_THRESHOLD = 1e8
_REFUSED_GAIN = "gain denominator lam + u'Pu is {:.3e}, not positive"


def float_cells(x, name: str) -> np.ndarray:
    """``x`` as a flat float array. Text cells, which ``float`` would parse, and
    complex ones are refused by one dtype test, which only an object array follows
    with a test per cell; ``None`` stays NaN."""
    arr = np.asarray(x)
    if arr.dtype.kind in "SUc" or arr.dtype.kind == "O" and any(
            isinstance(cell, (str, bytes)) for cell in arr.flat):
        raise InputError(f"{name} has cells that are not real numbers")
    return arr.astype(float, copy=False).reshape(-1)


def checked_vector(x, length: int, name: str) -> np.ndarray:
    arr = float_cells(x, name)
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


def checked_state(state, n_states: int) -> int:
    """``state`` as an ``int`` if it labels one of ``n_states`` states: a whole
    number of type ``int`` or ``np.integer``, never a boolean, in 1..n_states."""
    if (isinstance(state, bool) or not isinstance(state, (int, np.integer))
            or not 1 <= state <= n_states):
        raise StateIndexError(f"state {state!r} is not an integer in 1..{n_states}")
    return int(state)


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


def _conditioning(P: np.ndarray, n_updates: int) -> str | None:
    """The ConditioningWarning message due after update ``n_updates``, if any."""
    return None if n_updates % COND_CHECK_EVERY else _cond_message(_cond(P), n_updates)


def _cond(P: np.ndarray) -> np.ndarray:
    """``cond`` of each matrix of the stack ``P``, or the bound ``COND_THRESHOLD / 10`` of
    all that one Cholesky factor shows with no SVD: for ``b`` the largest absolute row sum,
    if ``P - c I`` with ``c = 10 b / COND_THRESHOLD`` is positive definite, ``cond(P) < b /
    c``. The factor reads the lower triangle, which stands for all of ``P``: ``P`` is exactly
    symmetric in ``_update`` and ``stacked_pass``. A non-finite ``b`` takes the SVD."""
    b = np.linalg.norm(P, np.inf, axis=(-2, -1), keepdims=True)  # the largest absolute row sum
    try:
        if np.isfinite(b).all():  # as Cholesky passes NaN
            np.linalg.cholesky(P - b * (10 / COND_THRESHOLD) * np.eye(P.shape[-1]))
            return np.full(P.shape[:-2], COND_THRESHOLD / 10)
    except np.linalg.LinAlgError:
        pass
    return np.linalg.cond(P)


def _cond_message(cond: float, n_updates: int) -> str | None:
    """The ConditioningWarning message for a checked ``cond(P)``, if it is due."""
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
        if not all(json_number(n, whole=True) and n >= 1 for n in (n_predictors, n_responses)):
            raise ConfigurationError("predictor and response dimensions must be whole numbers >= 1")
        if not (json_number(forgetting) and 0.0 < forgetting <= 1.0):
            raise ConfigurationError(f"forgetting factor must lie in (0, 1], got {forgetting!r}")
        vars(self).update(vars(self.prior(int(n_predictors), int(n_responses), float(forgetting))))

    @classmethod
    def trusted(cls, forgetting: float, H: np.ndarray, Sigma: np.ndarray, P: np.ndarray,
                gamma: float = 0.0, n_updates: int = 0) -> "AdaptiveState":
        """A state of values the caller has checked (``restore_states``) or built
        (a zero-knowledge prior); nothing is validated again."""
        state = cls.__new__(cls)
        state.n_predictors, state.n_responses = H.shape
        state.forgetting, state.H, state.Sigma, state.P = forgetting, H, Sigma, P
        state.gamma, state.n_updates = gamma, n_updates
        return state

    @classmethod
    def prior(cls, p: int, m: int, forgetting: float) -> "AdaptiveState":
        """The zero-knowledge state of checked dimensions and forgetting factor."""
        return cls.trusted(forgetting, np.zeros((p, m)), np.zeros((m, m)), np.eye(p))

    def update(self, u, y) -> None:
        """Fold one observation pair into the state.

        The innovation used for the covariance update is measured against
        the coefficients from before this observation. A rejected pair
        leaves the state untouched.
        """
        self._update(checked_vector(u, self.n_predictors, "u"),
                     checked_vector(y, self.n_responses, "y"))

    def _update(self, u: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``update`` of vectors the caller has checked (right length, finite);
        returns the prediction ``u'H`` and the ``Sigma`` it learned against."""
        lam = self.forgetting
        Pu = self.P @ u
        denom = lam + u @ Pu
        if not denom > 0.0:
            raise NumericError(_REFUSED_GAIN.format(denom))

        self.gamma = gamma = 1.0 + lam * self.gamma
        pred, Sigma = u @ self.H, self.Sigma
        e = y - pred
        self.H = self.H + Pu[:, None] * e / denom
        # both weights are >= 0 (gamma >= 1), so Sigma stays PSD and the
        # outer product scaled as a whole keeps it exactly symmetric
        self.Sigma = (1.0 - 1.0 / gamma) * Sigma + (e[:, None] * e) * (lam / (gamma * denom))
        self.P = (self.P - Pu[:, None] * Pu / denom) / lam  # exactly symmetric

        self.n_updates += 1
        message = _conditioning(self.P, self.n_updates)
        if message is not None:
            warn(message, ConditioningWarning)
        return pred, Sigma

    def covariance(self) -> np.ndarray:
        """Noise covariance (symmetric and PSD by construction)."""
        return self.Sigma.copy()


def state_stacks(states: Sequence[AdaptiveState]) -> dict:
    """The states serialized as one stack per field, the layout ``restore_states`` reads."""
    return {"H": [st.H.tolist() for st in states], "Sigma": [st.Sigma.tolist() for st in states],
            "P": [st.P.tolist() for st in states], "gamma": [st.gamma for st in states],
            "n_updates": [st.n_updates for st in states]}


def restore_states(doc: dict, keys: list, p: int, m: int, forgetting: float,
                   side: str) -> list[AdaptiveState]:
    """The ``(p, m)`` states of ``keys``, forgetting at ``forgetting``, as views into
    their ``state_stacks``. Each stack is checked once, whole, for what ``update``
    keeps true: shape, finite cells, exactly symmetric ``P`` and ``Sigma``, the
    eigenvalues of ``Sigma`` (one batched ``eigvalsh``), then each ``gamma`` and
    ``n_updates``; a refusal names the ``side`` and the first pattern at fault."""
    n, stacks = len(keys), []
    for name, shape in (("H", (n, p, m)), ("Sigma", (n, m, m)), ("P", (n, p, p))):
        arr = np.asarray(doc[name], dtype=float)
        if arr.shape != shape and not arr.size == 0 == n:  # an empty stack is []
            raise DimensionError(f"serialized {side} {name} has shape {arr.shape}, not {shape}")
        stacks.append(arr.reshape(shape))
    H, Sigma, P = stacks
    gamma, n_updates = doc["gamma"], doc["n_updates"]
    if not (type(gamma) is type(n_updates) is list and len(gamma) == len(n_updates) == n):
        raise DimensionError(f"serialized {side} gamma and n_updates must list {n} numbers")

    def refuse(ok: list, what: str, values: Sequence = ()) -> None:
        if not all(ok):
            i = ok.index(False)
            got = f", got {values[i]!r}" if len(values) else ""
            raise NumericError(f"serialized {side} {what} for pattern {keys[i]!r}{got}")
    for name, arr in zip(("H", "Sigma", "P"), stacks):
        refuse(np.isfinite(arr).all(axis=(1, 2)).tolist(), f"{name} contains non-finite values")
    for arr, name in ((P, "precision proxy P"), (Sigma, "noise covariance")):
        refuse((arr == arr.swapaxes(1, 2)).all(axis=(1, 2)).tolist(), f"{name} is not symmetric")
    low = np.linalg.eigvalsh(Sigma).min(axis=1, initial=0.0).tolist()
    refuse([value >= -EIG_FLOOR for value in low], "noise covariance has negative eigenvalues",
           low)
    refuse([json_number(value) and value >= 0 for value in gamma],
           "gamma must be a finite non-negative number", gamma)
    refuse([json_number(value, whole=True) for value in n_updates],
           "n_updates must be a finite non-negative integer", n_updates)
    return [AdaptiveState.trusted(forgetting, *arrays, float(g), int(k))
            for *arrays, g, k in zip(H, Sigma, P, gamma, n_updates)]


def stacked(sequences: Sequence[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """Sequences sorted longest first, zero-padded into one ``(steps, count, ...)``
    array, and per step the number of sequences still running (a prefix)."""
    lengths = np.array([len(seq) for seq in sequences])
    out = np.zeros((lengths[0], len(sequences)) + sequences[0].shape[1:],
                   dtype=sequences[0].dtype)
    for i, seq in enumerate(sequences):
        out[:len(seq), i] = seq
    return out, (lengths > np.arange(lengths[0])[:, None]).sum(axis=1).tolist()


def stacked_pass(groups: Sequence[tuple], moments: bool = False) -> tuple:
    """Fold many states, each through its own sequence of checked ``(u, y)``
    rows, in one ragged pass, bit for bit as ``_update`` folds them one by one.

    Each group is ``(states, X, active, Y)``: states of one shape ``(p, m)``,
    sorted by sequence length, longest first, and their sequences as
    ``stacked`` lays them out; the first ``active[k]`` states are active at
    step ``k``. Each kind of array (``H``, ``Sigma``, ``P``, ``Pu``, ...) is one
    flat buffer of every state's block, a group's blocks one ``(n, ...)``
    view of it. Per group and step, ``P u``, ``u'Pu`` and ``u'H`` are
    ``np.matmul`` of ``(n, p, p) @ (n, p, 1)`` stacks, which call the BLAS
    gemv/dot of the 2-D product once per slice; every other operation runs
    once over the flat buffers, with ``_update``'s operands and order. A state
    is kept as its last step leaves it and its blocks are then zeroed, so
    that with its zero rows they stay zero, whatever its values were; a
    group whose states have all ended skips its products.

    Nothing is written to the states: returns ``commit``, which writes the
    results, the ``(group, state, step, message)`` of every
    ConditioningWarning due and of every refusal and, with ``moments``, per
    group each step's pre-update ``u'H`` laid out like its ``Y`` and
    ``Sigma`` (an ``(m, m)`` matrix per entry of ``Y``): what ``_update``
    returns, the moments that ``run_online`` and ``walk_tables`` blend into
    the forecast of the step's row. A state whose gain denominator is not
    positive at a step is reported there with the ``NumericError`` that
    ``_update`` raises, naming its denominator, and ended: its ``P`` and ``Pu``
    blocks are zeroed and its denominator set to ``lam``, so it refuses and
    warns no more and its neighbours' blocks run on as alone. A pass that
    reports a refusal is not to be committed.
    """
    if not groups:
        return (lambda: None), [], []
    states = [st for sts, *_ in groups for st in sts]
    first = np.cumsum([0] + [len(sts) for sts, *_ in groups]).tolist()
    shapes = [(X.shape[2], Y.shape[2]) for _, X, _, Y in groups]
    ps, ms = (np.repeat(dim, np.diff(first)) for dim in zip(*shapes))  # per state
    steps = max(len(X) for _, X, _, _ in groups)
    pm, mm, pp = (lambda p, m: (p, m)), (lambda p, m: (m, m)), (lambda p, m: (p, p))

    def flat(block):
        """A zeroed buffer of a ``block(p, m)`` per state, its group views and
        where each state's block starts."""
        rows, cols = block(ps, ms)
        at = np.concatenate([[0], np.cumsum(np.broadcast_to(rows * cols, len(states)))])
        buf = np.zeros(at[-1])
        return buf, [buf[at[a]:at[b]].reshape((b - a,) + block(*shape))
                     for shape, a, b in zip(shapes, first, first[1:])], at

    def outer(block, at_y):
        """For the blocks ``x y'`` of shape ``block(p, m)``: how often each ``x_i``
        repeats, where each ``y_j`` lies in its buffer (blocks starting at
        ``at_y``), and a buffer to gather into."""
        rows, cols = block(ps, ms)
        sizes = rows * cols
        within = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        return (cols.repeat(rows), within % cols.repeat(sizes) + at_y[:-1].repeat(sizes),
                np.empty(sizes.sum()))

    def product(x, y, reps, j, yj):  # x_i y_j, as _update's outer products compute it
        return np.multiply(x.repeat(reps), y.take(j, out=yj, mode="clip"), out=yj)

    (H, Hs, at_H), (S, _, at_S), (P, Ps, at_P), (Pu, Pus, at_u), (den, dens, at_1), \
        (pred, preds, at_y) = (flat(block) for block in (
            pm, mm, pp, lambda p, m: (p, 1), lambda p, m: (1, 1), lambda p, m: (1, m)))
    on_H, on_S, on_P = outer(pm, at_y), outer(mm, at_y), outer(pp, at_u)
    size_H, size_S, size_P = np.diff(at_H), np.diff(at_S), np.diff(at_P)
    blocks = (H, at_H, "H"), (S, at_S, "Sigma"), (P, at_P, "P")
    for buf, _, name in blocks:
        np.concatenate([getattr(st, name).ravel() for st in states], out=buf)
    gamma, lam = (np.array([getattr(st, key) for st in states]) for key in ("gamma", "forgetting"))
    lam_P, refused = lam.repeat(size_P), np.zeros(len(states), bool)
    kept = H.copy(), S.copy(), P.copy(), gamma.copy(), np.zeros(len(states), int)
    Y = np.zeros((steps, len(pred)))
    mean, cov = (np.empty((steps, len(buf))) for buf in (pred, S)) if moments else (None, None)
    checks, ends, stacks = {}, {}, []  # step -> {group: states due a check}, [states ending]
    for g, (sts, X, active, Yg) in enumerate(groups):
        Y[:len(Yg), at_y[first[g]]:at_y[first[g + 1]]] = Yg.reshape(len(Yg), -1)
        lengths = (np.asarray(active)[:, None] > np.arange(len(sts))).sum(axis=0).tolist()
        for i, (st, length) in enumerate(zip(sts, lengths)):
            for k in range(COND_CHECK_EVERY - 1 - st.n_updates % COND_CHECK_EVERY, length,
                           COND_CHECK_EVERY):
                checks.setdefault(k, {}).setdefault(g, []).append(i)
        active = [*active, 0]
        for k in np.flatnonzero(np.diff(active)).tolist():  # states active[k + 1].. end at k
            ends.setdefault(k, []).append((first[g] + active[k + 1], first[g] + active[k]))
        stacks.append((X[..., None], X[:, :, None], Ps[g], Pus[g], dens[g], Hs[g], preds[g]))
    caught: list[tuple[int, int, int, str | NumericError]] = []
    for k in range(steps):
        for Xc, Xr, Pk, Puk, dk, Hk, yk in [s for s in stacks if k < len(s[0])]:  # live groups
            np.matmul(Pk, Xc[k], out=Puk)
            np.matmul(Xr[k], Puk, out=dk)
            np.matmul(Xr[k], Hk, out=yk)
        den += lam
        if not den.min() > 0.0:  # NaN too: each refused state is reported, then ended
            for j in np.flatnonzero(~(den > 0.0)).tolist():
                g = bisect.bisect(first, j) - 1
                caught.append((g, j - first[g], k, NumericError(_REFUSED_GAIN.format(den[j]))))
                P[at_P[j]:at_P[j + 1]] = Pu[at_u[j]:at_u[j + 1]] = 0.0
                den[j], refused[j] = lam[j], True
        if moments:
            mean[k], cov[k] = pred, S
        gamma *= lam
        gamma += 1.0
        e = Y[k] - pred
        H += np.divide(product(Pu, e, *on_H), den.repeat(size_H), out=on_H[2])
        ee = np.multiply(product(e, e, *on_S), (lam / (gamma * den)).repeat(size_S), out=on_S[2])
        S *= (1.0 - 1.0 / gamma).repeat(size_S)
        S += ee
        P -= np.divide(product(Pu, Pu, *on_P), den.repeat(size_P), out=on_P[2])
        P /= lam_P
        for g, due in checks.get(k, {}).items():  # one batched cond per group
            for i, cond in zip(due, _cond(Ps[g][due]).tolist()):
                message = _cond_message(cond, groups[g][0][i].n_updates + k + 1)
                if message is not None and not refused[first[g] + i]:
                    caught.append((g, i, k, message))
        for a, b in ends.get(k, ()):  # kept, then zeroed: with zero rows they stay zero
            for now, last, at in zip((H, S, P, gamma), kept, (at_H, at_S, at_P, at_1)):
                last[at[a]:at[b]] = now[at[a]:at[b]]
                now[at[a]:at[b]] = 0.0
            for now, at in ((Pu, at_u), (den, at_1), (pred, at_y)):  # as a skipped group needs
                now[at[a]:at[b]] = 0.0
            kept[4][a:b] = k + 1

    def commit() -> None:
        for j, st in enumerate(states):
            for (_, at, name), last in zip(blocks, kept):
                setattr(st, name, last[at[j]:at[j + 1]].reshape(getattr(st, name).shape).copy())
            st.gamma, st.n_updates = float(kept[3][j]), st.n_updates + int(kept[4][j])
    return commit, caught, [
        (mean[:, at_y[a]:at_y[b]].reshape(steps, b - a, m),
         cov[:, at_S[a]:at_S[b]].reshape(steps, b - a, m, m))
        for (_, m), a, b in zip(shapes, first, first[1:])] if moments else None
