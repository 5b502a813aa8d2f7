"""Rolling out-of-sample evaluation with leave-one-week-out folds.

Each ISO week of the dataset is held out once. Models are fitted from
scratch on the remaining weeks (in chronological order, so week seams act
as sequence starts) and evaluated on the held-out week. Per fold, the
hidden states are discovered once and the training weeks are featurized
once, as a lag-free table of all responses (also the VARX input). Each
IO-HMM variant learns its own coefficients and counts from a copy of that
table with its response columns and lags; the variants of a fold learn
together, in one stacked pass (``learn_tables``), and then walk the test
week one after the other in model order. Only one fold's models are alive
at a time. The online model keeps learning as it walks through the test
week, mirroring production use; the regression benchmark stays frozen
after fitting.

Aggregation is per model, fold, shift type and response.
"""

from __future__ import annotations

import copy
import io
import json
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .benchmarks import fit_varx, persistence_forecast, predict_varx
from .errors import ConfigurationError, DegenerateDataError
from .clustering import ClusterModel
from .features import FeatureTable, build_features, default_feature_config
from .metrics import coverage, interval_width, mae, rmse
from .model import IoHmmModel, ModelConfig, fit_states, learn_tables
from .records import ProductionRecord, check_chronological

DEFAULT_MODELS = (
    ("persistence", "no-lags")
    + tuple(f"iohmm-q{k}" for k in range(1, 6))
    + tuple(f"varx-q{k}" for k in range(1, 6))
    + tuple(f"iohmm-uni-q{k}" for k in range(1, 6))
)

SUMMARY_MODEL = "_summary"
CSV_HEADER = "model,fold,shift_type,response,metric,value,count"


def parse_model_name(name: str) -> tuple[str, int | None]:
    """Split a benchmark identifier into (kind, lag order)."""
    if name == "persistence":
        return "persistence", None
    if name == "no-lags":
        return "iohmm", 0
    for prefix, kind in (("iohmm-uni-q", "iohmm-uni"), ("iohmm-q", "iohmm"),
                         ("varx-q", "varx")):
        if name.startswith(prefix):
            tail = name[len(prefix):]
            if tail.isdigit():
                return kind, int(tail)
    raise ConfigurationError(f"unknown model identifier {name!r}")


def week_key(date) -> str:
    iso = date.isocalendar()
    return f"{iso[0]}-W{iso[1]:02d}"


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


@dataclass(frozen=True)
class ReportRow:
    model: str
    fold: str
    shift_type: str
    response: str
    metric: str
    value: float
    count: int


@dataclass
class MetricsReport:
    rows: list[ReportRow]
    response_summary: dict[str, dict[str, float]]
    folds: list[str]
    models: list[str]
    n_records: int
    predictions: list[PredictionRow] = field(default_factory=list)


def response_summary(records: Sequence[ProductionRecord],
                     responses: Sequence[str]) -> dict[str, dict[str, float]]:
    """Location statistics of each response over the whole dataset."""
    out: dict[str, dict[str, float]] = {}
    for name in responses:
        values = np.array([float(getattr(rec, name)) for rec in records])
        qs = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
        out[name] = {
            "min": float(qs[0]), "q1": float(qs[1]), "median": float(qs[2]),
            "mean": float(values.mean()), "q3": float(qs[3]), "max": float(qs[4]),
        }
    return out


def _rows(records, name, fold, i, responses, actual, predicted,
          sigma=None) -> list[PredictionRow]:
    """One row per response of record ``i``; ``sigma`` gives the spreads, if any."""
    sd = None if sigma is None else np.sqrt(np.clip(np.diagonal(sigma), 0.0, None))
    return [PredictionRow(name, fold, i, resp, float(actual[j]), float(predicted[j]),
                          None if sd is None else float(sd[j]), records[i].shift_code)
            for j, resp in enumerate(responses)]


def _fit_iohmm(model_names, base: ModelConfig, train: FeatureTable,
               states: ClusterModel) -> dict[str, list[IoHmmModel]]:
    """The fold's IO-HMM variants per identifier, in response order, each
    learned from the lag-free table as derived for it, all in one stacked pass."""
    responses = base.features.response_names
    fitted: dict[str, list[IoHmmModel]] = {}
    models, tables = [], []
    for name in model_names:
        kind, q = parse_model_name(name)
        if kind not in ("iohmm", "iohmm-uni"):
            continue
        features = base.features.with_lags(q)
        variants = [(features, range(len(responses)))] if kind == "iohmm" else \
            [(features.for_response(resp), [j]) for j, resp in enumerate(responses)]
        for features, columns in variants:
            # run_online moves centroids, so every model gets its own copy
            models.append(IoHmmModel(replace(base, features=features),
                                     clusters=copy.deepcopy(states)))
            tables.append(train.lagged(q, columns))
        fitted[name] = models[-len(variants):]
    learn_tables(models, tables)
    return fitted


def _iohmm_predictions(records, model: IoHmmModel, test_idx, name,
                       fold) -> list[PredictionRow]:
    """A learned model's forecasts as it walks the test week."""
    steps = model.run_online(records, indices=test_idx)
    return [row for st in steps if st.forecast is not None
            for row in _rows(records, name, fold, st.index,
                             model.config.features.response_names,
                             st.y, st.forecast.y_hat, st.forecast.sigma)]


def _varx_predictions(records, train: FeatureTable, full: FeatureTable, test_idx,
                      name, fold, responses, q: int) -> list[PredictionRow]:
    """VARX(q) fitted on the training table, forecasting from the full one.

    Both tables are built without lags; the VARX takes its lags from ``y``.
    """
    varx = fit_varx(list(zip(train.y, train.w)), q)
    rows = []
    for i in test_idx:
        if i >= q:
            lags = [full.y[i - j] for j in range(1, q + 1)]
            rows += _rows(records, name, fold, i, responses, full.y[i],
                          *predict_varx(varx, lags, full.w[i]))
    return rows


def _persistence_predictions(records, test_idx, name, fold,
                             responses) -> list[PredictionRow]:
    rows = []
    for i in test_idx:
        if i >= 1:
            prev = persistence_forecast([float(getattr(records[i - 1], r))
                                         for r in responses])
            rows += _rows(records, name, fold, i, responses,
                          [getattr(records[i], r) for r in responses], prev)
    return rows


def leave_one_week_out(records: Sequence[ProductionRecord],
                       model_names: Sequence[str] = DEFAULT_MODELS,
                       base: ModelConfig | None = None,
                       seed: int = 0, threshold: float = 0.8,
                       k_min: int = 2, k_max: int = 12) -> MetricsReport:
    """Evaluate the configured models across held-out ISO weeks.

    A fresh model instance is fitted per model per fold; nothing carries
    over between folds. The states of a fold are fitted once and copied
    into each IO-HMM variant. Per-fold cells that produce no forecasts are
    omitted with a warning.
    """
    check_chronological(records)
    kinds = {parse_model_name(name)[0] for name in model_names}
    repeated = sorted(name for name, n in Counter(model_names).items() if n > 1)
    if repeated:
        raise ConfigurationError(f"model identifiers repeated: {', '.join(repeated)}")
    if base is None:
        base = ModelConfig(features=default_feature_config(records),
                           allow_cold_start=True)
    responses = base.features.response_names

    weeks = sorted({week_key(rec.date) for rec in records})
    if len(weeks) < 2:
        raise DegenerateDataError(
            f"leave-one-week-out needs at least 2 ISO weeks, found {len(weeks)}")

    lag_free = base.features.with_lags(0)
    use_varx = "varx" in kinds
    use_iohmm = not kinds.isdisjoint({"iohmm", "iohmm-uni"})
    varx_full = build_features(records, lag_free) if use_varx else None

    predictions: list[PredictionRow] = []
    for fold in weeks:
        test_idx = [i for i, rec in enumerate(records) if week_key(rec.date) == fold]
        train = [rec for rec in records if week_key(rec.date) != fold]
        states = fit_states(train, base.features, seed=seed, threshold=threshold,
                            k_min=k_min, k_max=k_max) if use_iohmm else None
        train_table = build_features(train, lag_free) if use_varx or use_iohmm else None
        fitted = _fit_iohmm(model_names, base, train_table, states) if use_iohmm else {}
        for name in model_names:
            kind, q = parse_model_name(name)
            if kind == "persistence":
                rows = _persistence_predictions(records, test_idx, name, fold,
                                                responses)
            elif kind == "varx":
                rows = _varx_predictions(records, train_table, varx_full, test_idx,
                                         name, fold, responses, q)
            else:  # the variants of an IO-HMM identifier, in response order
                rows = [row for model in fitted[name]
                        for row in _iohmm_predictions(records, model, test_idx, name, fold)]
            if not rows:
                warnings.warn(f"model {name!r} produced no forecasts in fold {fold}",
                              stacklevel=2)
            predictions.extend(rows)

    report_rows = _aggregate(predictions)
    return MetricsReport(rows=report_rows,
                         response_summary=response_summary(records, responses),
                         folds=weeks, models=list(model_names),
                         n_records=len(records), predictions=predictions)


def _aggregate(predictions: Sequence[PredictionRow]) -> list[ReportRow]:
    """Per (model, fold, shift_type, response) accuracy metrics.

    Interval metrics are reported only for cells whose model provides
    predictive spreads.
    """
    cells: dict[tuple[str, str, str, str], list[PredictionRow]] = {}
    for row in predictions:
        cells.setdefault((row.model, row.fold, row.shift_type, row.response),
                         []).append(row)
    out: list[ReportRow] = []
    for key in sorted(cells):
        group = cells[key]
        actual = [r.actual for r in group]
        predicted = [r.predicted for r in group]
        metrics = [("mae", mae(actual, predicted)), ("rmse", rmse(actual, predicted))]
        if all(r.sd is not None for r in group):
            sds = [r.sd for r in group]
            metrics += [("covg", coverage(actual, predicted, sds)),
                        ("piw", interval_width(sds))]
        out += [ReportRow(*key, metric, value, len(group)) for metric, value in metrics]
    return out


def emit_report(report: MetricsReport, format: str = "csv") -> str:
    """Render a report as a flat CSV or a structured-text (JSON) document.

    The CSV includes the dataset-level response summary as rows under the
    pseudo-model ``_summary`` so one document is self-contained.
    """
    if format == "csv":
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for row in report.rows:
            buf.write(f"{row.model},{row.fold},{row.shift_type},{row.response},"
                      f"{row.metric},{row.value!r},{row.count}\n")
        for resp in sorted(report.response_summary):
            stats = report.response_summary[resp]
            for stat in ("min", "q1", "median", "mean", "q3", "max"):
                buf.write(f"{SUMMARY_MODEL},,,{resp},{stat},{stats[stat]!r},"
                          f"{report.n_records}\n")
        return buf.getvalue()
    if format in ("structured-text", "json"):
        doc = {
            "rows": [{"model": r.model, "fold": r.fold, "shift_type": r.shift_type,
                      "response": r.response, "metric": r.metric,
                      "value": r.value, "count": r.count} for r in report.rows],
            "response_summary": report.response_summary,
            "folds": report.folds,
            "models": report.models,
            "n_records": report.n_records,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    raise ConfigurationError(f"unknown report format {format!r}")
