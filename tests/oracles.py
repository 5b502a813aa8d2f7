"""Reference computations the tests check the library against.

``batch_oracle`` recomputes the recursive estimator's state from scratch
with direct solves, sharing no code with the rank-one update of
``opcast.estimator.AdaptiveState``. ``row_parse_oracle`` parses a dataset
one row at a time, without the column pass of ``parse_dataset``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from opcast.errors import (ConfigurationError, DimensionError, SchemaError,
                           TimeConsistencyError)
from opcast.estimator import checked_vector
from opcast.records import (_GROUPS, ALIAS_TO_ATTR, MANDATORY, ParseResult, RowError,
                            _parse_row)


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
    lam = float(forgetting)
    if not 0.0 < lam <= 1.0:
        raise ConfigurationError(f"forgetting factor must lie in (0, 1], got {forgetting}")
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
        u = checked_vector(u, p, "u")
        y = checked_vector(y, m, "y")
        gamma = 1.0 + lam * gamma
        e = y - u @ H_prev
        weighted_sq = lam * weighted_sq + lam * np.outer(e, e) / (lam + u @ (P_prev @ u))
        precision = lam * precision + np.outer(u, u)
        moment = lam * moment + np.outer(u, y)
        H_prev = np.linalg.solve(precision, moment)
        P_prev = np.linalg.inv(precision)

    return BatchOracleResult(H=H_prev, Sigma=weighted_sq / gamma,
                             P=P_prev, gamma=gamma)


def row_parse_oracle(stream, schema: dict[str, str] | None = None,
                     tol: float = 0.01) -> ParseResult:
    """``parse_dataset`` as ``_parse_row`` applied to every non-blank row.

    The header rules are those of ``parse_dataset``: a duplicated name
    reads its last cell, ``schema`` renames actual names to canonical ones.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if not header:
        raise SchemaError("dataset has no header row")
    rename = {}
    for canonical, actual in (schema or {}).items():
        if canonical not in ALIAS_TO_ATTR:
            raise SchemaError(f"unknown canonical column {canonical!r} in schema")
        rename[actual] = canonical
    last = {name: i for i, name in enumerate(header)}
    position = {rename.get(name, name): i for name, i in last.items()}
    missing = [alias for alias in MANDATORY if alias not in position]
    if missing:
        raise SchemaError(f"dataset header is missing mandatory columns: {missing}")
    plan = (len(header), tuple(itemgetter(*(position.get(alias, -1) for alias, _, _ in group))
                               for group in _GROUPS))
    records, errors = [], []
    for row in reader:
        if row:
            try:
                records.append(_parse_row(row, plan, tol))
            except (ValueError, TimeConsistencyError) as exc:
                errors.append(RowError(reader.line_num, str(exc)))
    return ParseResult(records, errors)
