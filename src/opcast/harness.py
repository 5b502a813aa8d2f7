"""Rolling out-of-sample evaluation with leave-one-week-out folds.

Each ISO week of the dataset is held out once. Models are fitted from
scratch on the remaining weeks (in chronological order, so week seams act
as sequence starts) and evaluated on the held-out week. Per fold, the
hidden states are discovered once and the training weeks are featurized
once, as a lag-free table of all responses (also the VARX input). Each
IO-HMM variant learns its own coefficients and counts from a copy of that
table with its response columns and lags; the variants of a fold learn
together, in one stacked pass (``learn_tables``), and then walk the test
week together, in one more (``walk_tables``), each in a copy of the
lag-free table of all records, built once. Only one fold's models are
alive at a time. The online model keeps learning as it walks through the
test week, mirroring production use; the regression benchmark stays
frozen after fitting.

Forecasts flow as arrays, one ``ForecastBlock`` per model, fold and response;
the report splits each by shift type, per model, fold, shift type and response.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .benchmarks import fit_varx, persistence_forecast, predict_varx
from .errors import ConfigurationError, DegenerateDataError, warn
from .clustering import ClusterModel
from .features import FeatureTable, build_features, default_feature_config
from .metrics import coverage, interval_width, mae, rmse
from .model import IoHmmModel, ModelConfig, fit_states, learn_tables, walk_tables
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
class ForecastBlock:
    """The forecasts of one response that one model made in one fold, in
    record order: 1-D arrays of record ``index``, ``actual``, ``mean`` and
    ``sd`` (None for a model without predictive spreads)."""

    model: str
    fold: str
    response: str
    index: np.ndarray
    actual: np.ndarray
    mean: np.ndarray
    sd: np.ndarray | None


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
    predictions: list[ForecastBlock] = field(default_factory=list)


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


def _blocks(name, fold, responses, index, actual, mean, sd=None) -> list[ForecastBlock]:
    """One block per response of the ``(n, m)`` forecasts of records ``index``;
    none without forecasts."""
    return [ForecastBlock(name, fold, resp, index, actual[:, j], mean[:, j],
                          None if sd is None else sd[:, j])
            for j, resp in enumerate(responses)] if len(index) else []


def _iohmm_blocks(model_names, base: ModelConfig, train: FeatureTable,
                  full: FeatureTable, states: ClusterModel, test: range,
                  fold) -> dict[str, list[ForecastBlock]]:
    """The forecast blocks of the fold's IO-HMM variants per identifier, in
    response order. Each variant learns from the training table and walks
    the test week in the table of all records, both as derived for it; the
    variants learn in one stacked pass and walk in one more, sharing ``states``."""
    responses = base.features.response_names
    names, models, derived = [], [], []
    for name in model_names:
        kind, q = parse_model_name(name)
        if kind not in ("iohmm", "iohmm-uni"):
            continue
        features = base.features.with_lags(q)
        variants = [(features, range(len(responses)))] if kind == "iohmm" else \
            [(features.for_response(resp), [j]) for j, resp in enumerate(responses)]
        for features, columns in variants:
            names.append(name)
            models.append(IoHmmModel(replace(base, features=features), clusters=states))
            derived.append((q, columns))
    learn_tables(models, [train.lagged(q, columns) for q, columns in derived])
    tables = [full.lagged(q, columns) for q, columns in derived]
    walks = walk_tables(models, tables, test)
    blocks: dict[str, list[ForecastBlock]] = {name: [] for name in names}
    for name, model, table, walk in zip(names, models, tables, walks):
        if walk:
            index, mean, var = (np.array(column) for column in zip(*walk))
            blocks[name] += _blocks(name, fold, model.config.features.response_names, index,
                                    table.y[index], mean, np.sqrt(np.clip(var, 0.0, None)))
    return blocks


def _varx_blocks(train: FeatureTable, full: FeatureTable, test: range, name, fold,
                 responses, q: int) -> list[ForecastBlock]:
    """VARX(q) fitted on the training table, forecasting the test records
    from ``q`` on out of the full one, in one call.

    Both tables are built without lags; the VARX takes its lags from ``y``.
    """
    varx = fit_varx(train.y, train.w, q)
    index = np.arange(max(test.start, q), test.stop)
    y_hat, sigma = predict_varx(varx, [full.y[index - j] for j in range(1, q + 1)],
                                full.w[index])
    sd = np.broadcast_to(np.sqrt(np.clip(np.diagonal(sigma), 0.0, None)), y_hat.shape)
    return _blocks(name, fold, responses, index, full.y[index], y_hat, sd)


def leave_one_week_out(records: Sequence[ProductionRecord],
                       model_names: Sequence[str] = DEFAULT_MODELS,
                       base: ModelConfig | None = None,
                       seed: int = 0, threshold: float = 0.8,
                       k_min: int = 2, k_max: int = 12) -> MetricsReport:
    """Evaluate the configured models across held-out ISO weeks.

    A fresh model instance is fitted per model per fold; nothing carries
    over between folds. The states of a fold are fitted once and shared by
    its IO-HMM variants, whose learning and test-week walks run before the
    fold's other models. Per-fold cells that produce no forecasts are
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

    keys = [week_key(rec.date) for rec in records]
    weeks = sorted(set(keys))
    if len(weeks) < 2:
        raise DegenerateDataError(
            f"leave-one-week-out needs at least 2 ISO weeks, found {len(weeks)}")

    lag_free = base.features.with_lags(0)
    use_varx = "varx" in kinds
    use_iohmm = not kinds.isdisjoint({"iohmm", "iohmm-uni"})
    full = build_features(records, lag_free) if use_varx or use_iohmm else None
    values = np.array([[float(getattr(rec, name)) for name in responses]
                       for rec in records]) if "persistence" in kinds else None

    blocks: list[ForecastBlock] = []
    for fold in weeks:  # chronological records: each week is one run of indices
        test = range(keys.index(fold), len(keys) - keys[::-1].index(fold))
        train = [*records[:test.start], *records[test.stop:]]
        states = fit_states(train, base.features, seed=seed, threshold=threshold,
                            k_min=k_min, k_max=k_max) if use_iohmm else None
        train_table = build_features(train, lag_free) if use_varx or use_iohmm else None
        iohmm = _iohmm_blocks(model_names, base, train_table, full, states, test,
                              fold) if use_iohmm else {}
        for name in model_names:
            kind, q = parse_model_name(name)
            if kind == "persistence":  # every test record after the dataset's first
                index = np.arange(max(test.start, 1), test.stop)
                mine = _blocks(name, fold, responses, index, values[index],
                               persistence_forecast(values[index - 1]))
            elif kind == "varx":
                mine = _varx_blocks(train_table, full, test, name, fold, responses, q)
            else:
                mine = iohmm[name]
            if not mine:
                warn(f"model {name!r} produced no forecasts in fold {fold}", UserWarning)
            blocks += mine

    shifts = np.array([rec.shift_code for rec in records])
    return MetricsReport(rows=_aggregate(blocks, shifts),
                         response_summary=response_summary(records, responses),
                         folds=weeks, models=list(model_names),
                         n_records=len(records), predictions=blocks)


def _aggregate(blocks: Sequence[ForecastBlock], shifts: np.ndarray) -> list[ReportRow]:
    """Per (model, fold, shift_type, response) accuracy metrics; ``shifts``
    holds the shift type of every record.

    A cell holds its block's forecasts of one shift type, in record order.
    Interval metrics are reported only for cells whose model provides
    predictive spreads.
    """
    cells: dict[tuple[str, str, str, str], tuple[ForecastBlock, np.ndarray]] = {}
    for block in blocks:
        codes = shifts[block.index]
        for shift in set(codes.tolist()):
            cells[block.model, block.fold, shift, block.response] = block, codes == shift
    out: list[ReportRow] = []
    for key in sorted(cells):
        block, at = cells[key]
        actual, mean = block.actual[at], block.mean[at]
        metrics = [("mae", mae(actual, mean)), ("rmse", rmse(actual, mean))]
        if block.sd is not None:
            sd = block.sd[at]
            metrics += [("covg", coverage(actual, mean, sd)), ("piw", interval_width(sd))]
        out += [ReportRow(*key, metric, value, len(actual)) for metric, value in metrics]
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
