"""Reference computations the tests check the library against.

``batch_oracle`` recomputes the recursive estimator's state from scratch
with direct solves, sharing no code with the rank-one update of
``opcast.estimator.AdaptiveState``. ``row_parse_oracle`` parses a dataset
on ``csv.DictReader`` with its own cell converters, written from the row
rules that ``parse_dataset`` documents; it shares no code with its row
parser.
``lowo_row_oracle`` evaluates leave-one-week-out one forecast row at a
time and one fold at a time: one record per forecast and response, grouped
into cells by a dict, with the pair-form VARX fit (``fit_varx_pairs``) and
one-row forecasts.
``featurize_oracle`` featurizes records spec by spec, one column of one
spec group at a time, from each spec's parsed kind, column and value.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from opcast import metrics
from opcast.benchmarks import VarxModel, _design_columns
from opcast.errors import (ConfigurationError, DegenerateDataError, DimensionError,
                           FittingError, InputError, NumericError, SchemaError,
                           TimeConsistencyError)
from opcast.estimator import checked_vector
from opcast.features import (FeatureConfig, FeatureTable, build_features,
                             default_feature_config)
from opcast.harness import (DEFAULT_MODELS, MetricsReport, ReportRow, parse_model_name,
                            response_summary, week_key)
from opcast.model import IoHmmModel, ModelConfig, fit_states, learn_tables, walk_tables
from opcast.records import (ParseResult, ProductionRecord, RowError, check_chronological,
                            compute_indices, derive_time_variables)


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


# The row rules of ``parse_dataset``, written out again from its docstring:
# each group's columns in the order their cells are read.
_REQUIRED_CELLS = ("n", "date", "start", "shift", "pr.ord", "ics", "rcs", "TU", "DU", "TgU",
                   "nstops", "OT", "SBT", "DT", "PLT", "QLT")
_DERIVED_TIMES = ("LT", "OpT", "NOpT", "VT")
_DERIVED_INDICES = ("lo", "av", "pf", "qu", "oee")
_SENSORS = ("hum", "temp")
_KNOWN = set(_REQUIRED_CELLS + _DERIVED_TIMES + _DERIVED_INDICES + _SENSORS)


def _number(alias, raw):
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"column {alias!r}: cannot parse {raw!r} as a number") from exc
    if not math.isfinite(value):
        raise ValueError(f"column {alias!r}: non-finite value {raw!r}")
    return value


def _integer(alias, raw):
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"column {alias!r}: cannot parse {raw!r} as an integer") from exc


def _calendar(parse):
    def convert(alias, raw):
        try:
            return parse(raw)
        except ValueError as exc:
            raise ValueError(f"column {alias!r}: cannot parse {raw!r}") from exc
    return convert


_CELL = {"date": _calendar(dt.date.fromisoformat), "start": _calendar(dt.time.fromisoformat),
         "shift": lambda alias, raw: raw,
         **{alias: _integer for alias in ("n", "pr.ord", "TU", "DU", "nstops")}}


def _oracle_record(row: dict) -> ProductionRecord:
    """One record from a ``csv.DictReader`` row keyed by canonical names."""
    def cell(alias):  # stripped; absent and missing cells read empty
        return (row.get(alias) or "").strip()

    def convert(alias, fallback=None):
        raw = cell(alias)
        return _CELL.get(alias, _number)(alias, raw) if raw else getattr(fallback, alias, None)

    values = {}
    for alias in _REQUIRED_CELLS:
        if not cell(alias):
            raise ValueError(f"column {alias!r}: missing value")
        values[alias] = convert(alias)
    derived = None
    if not all(map(cell, _DERIVED_TIMES)):
        derived = derive_time_variables(*(values[a] for a in ("OT", "SBT", "DT", "PLT", "QLT")))
    values.update((alias, convert(alias, derived)) for alias in _DERIVED_TIMES)
    computed = None
    if not all(map(cell, _DERIVED_INDICES)):
        computed = compute_indices(*(values[a] for a in ("OT",) + _DERIVED_TIMES))
    values.update((alias, convert(alias, computed)) for alias in _DERIVED_INDICES)
    values.update((alias, convert(alias)) for alias in _SENSORS)
    return ProductionRecord(**{alias.replace(".", "_"): v for alias, v in values.items()})


def row_parse_oracle(stream, schema: dict[str, str] | None = None) -> ParseResult:
    """``parse_dataset`` on ``csv.DictReader``, with its own cell converters.

    ``DictReader`` gives the header rules: a duplicated name reads its last
    cell, a short row's missing cells read empty and blank rows are skipped.
    ``schema`` renames actual names to canonical ones.
    """
    reader = csv.DictReader(stream)
    if not reader.fieldnames:
        raise SchemaError("dataset has no header row")
    rename = {}
    for canonical, actual in (schema or {}).items():
        if canonical not in _KNOWN:
            raise SchemaError(f"unknown canonical column {canonical!r} in schema")
        rename[actual] = canonical
    present = {rename.get(name, name) for name in reader.fieldnames}
    missing = [alias for alias in _REQUIRED_CELLS if alias not in present]
    if missing:
        raise SchemaError(f"dataset header is missing mandatory columns: {missing}")
    records, errors = [], []
    for row in reader:
        try:
            records.append(_oracle_record({rename.get(k, k): v for k, v in row.items()}))
        except (ValueError, TimeConsistencyError) as exc:
            errors.append(RowError(reader.line_num, str(exc)))
    return ParseResult(records, errors)


def featurize_oracle(records: Sequence[ProductionRecord], config: FeatureConfig) -> FeatureTable:
    """``build_features`` one spec at a time: each column of ``z``, ``w``, ``t``
    and ``y`` evaluated over all records, then each record's cells checked."""
    flags = [(True, True) if i == 0 else (rec.shift != records[i - 1].shift,
                                          rec.pr_ord != records[i - 1].pr_ord)
             for i, rec in enumerate(records)]

    def column(spec) -> list[float]:
        if spec.kind == "flag":
            return [1.0 if flag[spec.column == "begins_order"] else 0.0 for flag in flags]
        raw = [getattr(rec, spec.column) for rec in records]
        if spec.kind == "indicator":
            return [1.0 if str(value) == spec.value else 0.0 for value in raw]
        if any(value is None for value in raw):
            raise ConfigurationError(f"covariate {spec.expr!r} does not evaluate to a number")
        return [float(value) for value in raw]

    groups = (config.parsed_z, config.parsed_w, config.parsed_t, config.parsed_y)
    z, w, t, y = (np.array([column(spec) for spec in specs], dtype=float)
                  .reshape(len(specs), len(records)).T.copy() for specs in groups)
    checked = groups[1] + groups[2] + groups[3]
    for rec, cells in zip(records, np.hstack((w, t, y))):
        for spec, value in zip(checked, cells.tolist()):
            if not math.isfinite(value):
                raise InputError(f"record n={rec.n} has a non-finite {spec.expr!r}")
    return FeatureTable(z=z, w=w, t=t, y=y, begins_shift=np.array([flag[0] for flag in flags]),
                        responses=config.response_names)


def fit_varx_pairs(train: Sequence[tuple], q: int) -> VarxModel:
    """``fit_varx`` on chronological (y, g) pairs, converted and checked one
    pair at a time."""
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

    rank = np.linalg.matrix_rank(X)
    if rank < p_cols:
        names = _design_columns(q, m, g_dim)
        _, _, vt = np.linalg.svd(X, full_matrices=True)
        involved = sorted({names[c] for row in vt[rank:]
                           for c in np.flatnonzero(np.abs(row) > 1e-8)})
        raise FittingError(
            f"design matrix is rank deficient ({rank}/{p_cols}); "
            f"collinear columns: {involved}")

    coef, _, _, _ = np.linalg.lstsq(X, Y, rcond=None)
    resid = Y - X @ coef
    sigma_eta = resid.T @ resid / (n_rows - p_cols)
    phi = tuple(coef[1 + j * m: 1 + (j + 1) * m].T for j in range(q))
    beta = coef[1 + q * m:].T
    return VarxModel(q=q, intercept=coef[0].copy(), phi=phi, beta=beta, sigma_eta=sigma_eta)


def predict_varx_row(model: VarxModel, lags: Sequence, g) -> tuple[np.ndarray, np.ndarray]:
    """``predict_varx`` of one row: ``lags[0]`` the most recent response vector."""
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


def _persistence_row(y_prev) -> np.ndarray:
    y_prev = np.asarray(y_prev, dtype=float).reshape(-1)
    if not np.all(np.isfinite(y_prev)):
        raise NumericError("previous observation contains non-finite values")
    return y_prev.copy()


@dataclass(frozen=True)
class PredictionRow:
    model: str
    fold: str
    index: int
    response: str
    actual: float
    predicted: float
    sd: float | None
    shift_type: str


def _rows(records, name, fold, i, responses, actual, predicted, var=None):
    sd = None if var is None else np.sqrt(np.clip(var, 0.0, None))
    return [PredictionRow(name, fold, i, resp, float(actual[j]), float(predicted[j]),
                          None if sd is None else float(sd[j]), records[i].shift_code)
            for j, resp in enumerate(responses)]


def lowo_row_oracle(records, model_names=DEFAULT_MODELS, base: ModelConfig | None = None,
                    seed: int = 0, threshold: float = 0.8, k_max: int = 12) -> MetricsReport:
    """``leave_one_week_out`` one forecast row at a time and one fold at a
    time; ``predictions`` holds the rows. The IO-HMM variants of each fold
    learn and walk through stacked passes of that fold alone, before its
    other models, and an empty cell warns at once."""
    check_chronological(records)
    kinds = {parse_model_name(name)[0] for name in model_names}
    if base is None:
        base = ModelConfig(features=default_feature_config(records), allow_cold_start=True)
    responses = base.features.response_names
    weeks = sorted({week_key(rec.date) for rec in records})
    if len(weeks) < 2:
        raise DegenerateDataError(
            f"leave-one-week-out needs at least 2 ISO weeks, found {len(weeks)}")
    lag_free = base.features.with_lags(0)
    use_varx = "varx" in kinds
    use_iohmm = not kinds.isdisjoint({"iohmm", "iohmm-uni"})
    full = build_features(records, lag_free) if model_names else None  # refuses a bad cell

    predictions, fitted = [], {}
    for fold in weeks:
        test_idx = [i for i, rec in enumerate(records) if week_key(rec.date) == fold]
        train = [rec for rec in records if week_key(rec.date) != fold]
        train_table = build_features(train, lag_free) if use_varx or use_iohmm else None
        states = fit_states(train_table, seed=seed, threshold=threshold,
                            k_max=k_max) if use_iohmm else None
        if use_iohmm:
            fitted[fold] = states
        iohmm = {}
        if use_iohmm:
            names, models, derived = [], [], []
            for name in model_names:
                kind, q = parse_model_name(name)
                if kind not in ("iohmm", "iohmm-uni"):
                    continue
                features = base.features.with_lags(q)
                variants = [(features, range(len(responses)))] if kind == "iohmm" else \
                    [(features.for_response(r), [j]) for j, r in enumerate(responses)]
                for features, columns in variants:
                    names.append(name)
                    models.append(IoHmmModel(replace(base, features=features),
                                             clusters=states))
                    derived.append(columns)
            learn_tables(models, [train_table] * len(models))  # lag-free: each reads its own
            walks = walk_tables(models, [full] * len(models),
                                [range(test_idx[0], test_idx[-1] + 1)] * len(models))
            iohmm = {name: [] for name in names}
            for name, model, columns, (index, means, variances) in zip(names, models, derived,
                                                                       walks):
                for i, y_hat, var in zip(index.tolist(), means, variances):
                    iohmm[name] += _rows(records, name, fold, i,
                                         model.config.features.response_names,
                                         [full.y[i, j] for j in columns], y_hat, var)
        for name in model_names:
            kind, q = parse_model_name(name)
            rows = []
            if kind == "persistence":
                for i in test_idx:
                    if i >= 1:
                        prev = _persistence_row([float(getattr(records[i - 1], r))
                                                 for r in responses])
                        rows += _rows(records, name, fold, i, responses,
                                      [getattr(records[i], r) for r in responses], prev)
            elif kind == "varx":
                varx = fit_varx_pairs(list(zip(train_table.y, train_table.w)), q)
                for i in test_idx:
                    if i >= q:
                        lags = [full.y[i - j] for j in range(1, q + 1)]
                        y_hat, sigma = predict_varx_row(varx, lags, full.w[i])
                        rows += _rows(records, name, fold, i, responses, full.y[i], y_hat,
                                      np.diagonal(sigma))
            else:
                rows = iohmm[name]
            if not rows:
                warnings.warn(f"model {name!r} produced no forecasts in fold {fold}",
                              stacklevel=2)
            predictions.extend(rows)

    cells: dict[tuple, list[PredictionRow]] = {}
    for row in predictions:
        cells.setdefault((row.model, row.fold, row.shift_type, row.response), []).append(row)
    out = []
    for key in sorted(cells):
        group = cells[key]
        actual = [r.actual for r in group]
        predicted = [r.predicted for r in group]
        sds = [r.sd for r in group] if all(r.sd is not None for r in group) else None
        pairs = metrics.checked(actual, predicted, sds)  # each cell summed alone
        sums = {name: col.sum() for name, col in metrics.columns(*pairs).items()}
        out += [ReportRow(*key, metric, float(value), len(group))
                for metric, value in metrics.cell_scores(sums, len(group)).items()]
    actual = np.array([[float(getattr(rec, name)) for name in responses] for rec in records])
    return MetricsReport(rows=out, response_summary=response_summary(actual, responses),
                         folds=weeks, models=list(model_names), n_records=len(records),
                         predictions=predictions, states=fitted)
