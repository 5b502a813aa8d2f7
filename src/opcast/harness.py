"""Rolling out-of-sample evaluation with leave-one-week-out folds.

Each ISO week of the dataset is held out once. Models are fitted from
scratch on the remaining weeks (in chronological order, so week seams act
as sequence starts) and evaluated on the held-out week. First, each fold's
hidden states are discovered and its training weeks featurized once, as a
lag-free table of all responses (also the VARX input). Every IO-HMM variant
reads its responses and lags from that table, learning, and walks its test
week in the one such table of all records: the variants of all folds learn
in one stacked pass (``learn_tables``) and walk in one more (``walk_tables``),
learning as they walk, as in production; the regression benchmark stays
frozen after fitting.

Forecasts flow as arrays, one ``ForecastBlock`` per model, fold and response;
the report splits each by shift type, per model, fold, shift type and response.
"""

from __future__ import annotations

import io
import json
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .benchmarks import fit_varx, persistence_forecast, predict_varx
from .clustering import ClusterModel
from .errors import (ConditioningWarning, ConfigurationError, DegenerateDataError,
                     OpcastError, ThresholdWarning, warn)
from .features import CovariateSpec, FeatureTable, build_features, default_feature_config
from .metrics import checked, scores
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
    states: dict[str, ClusterModel] = field(default_factory=dict)  # per fold, if fitted


def response_summary(records: Sequence[ProductionRecord],
                     responses: Sequence[str]) -> dict[str, dict[str, float]]:
    """Location statistics of each response over the whole dataset."""
    out: dict[str, dict[str, float]] = {}
    for name in responses:  # a numeric covariate: an empty cell is refused
        values = np.array(CovariateSpec(name).evaluate(records, ()))
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


def _iohmm_blocks(variants, base: ModelConfig, folds, states, trains,
                  full: FeatureTable) -> dict[tuple[str, str], list[ForecastBlock]]:
    """The IO-HMM ``variants``' blocks per identifier and fold (``(week, test
    records)``), in response order: each learns from its fold's training table
    with its ``states`` and walks the test week in the table of all records
    (``full``), all folds in one stacked learning pass and one stacked walk."""
    models = [IoHmmModel(replace(base, features=features), clusters=fitted)
              for fitted in states for _, features, _ in variants]
    learn_tables(models, [train for train in trains for _ in variants])
    walks = iter(walk_tables(models, [full] * len(models),
                             [test for _, test in folds for _ in variants]))
    blocks: dict[tuple[str, str], list[ForecastBlock]] = {}
    for fold, _ in folds:
        for name, features, columns in variants:
            index, mean, var = next(walks)
            blocks.setdefault((name, fold), []).extend(_blocks(
                name, fold, features.response_names, index, full.y[np.ix_(index, columns)],
                mean, np.sqrt(np.clip(var, 0.0, None))))
    return blocks


def _varx_blocks(train: FeatureTable, full: FeatureTable, test: range, name, fold,
                 responses, q: int) -> list[ForecastBlock]:
    """VARX(q) fitted on the training table, forecasting the test records
    from ``q`` on out of the full one, in one call; like the IO-HMM
    variants, the VARX takes its lags from ``y``."""
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
    its IO-HMM variants, which learn and walk before the other models, all
    folds at once. Per-fold cells without forecasts are omitted with a
    warning. A refusal is that of the folds one by one: one before the other
    models replays the folds so, on the states already fitted, issuing no
    Threshold or ConditioningWarning twice. ``states`` holds each fold's fit.
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

    variants = []  # a fold's IO-HMM models: (identifier, features, response columns)
    for name in model_names:
        kind, q = parse_model_name(name)
        if kind in ("iohmm", "iohmm-uni"):
            features = base.features.with_lags(q)
            variants += [(name, features, range(len(responses)))] if kind == "iohmm" else \
                [(name, features.for_response(resp), [j]) for j, resp in enumerate(responses)]
    lag_free = base.features.with_lags(0)
    full = build_features(records, lag_free) if "varx" in kinds or variants else None
    values = np.column_stack([CovariateSpec(name).evaluate(records, ()) for name in responses]
                             ) if "persistence" in kinds else None

    fitted: dict[str, ClusterModel] = {}  # each fold's states, fitted once

    def learned(folds) -> tuple[list, dict]:
        """The training tables and IO-HMM blocks of ``folds``, ``(week, test records)``."""
        trains = [[*records[:test.start], *records[test.stop:]] for _, test in folds]
        fitted.update((week, fit_states(train, base.features, seed=seed, threshold=threshold,
                                        k_min=k_min, k_max=k_max))
                      for (week, _), train in zip(folds, trains) if variants and week not in fitted)
        states = [fitted[week] for week, _ in folds if week in fitted]
        tables = [None if full is None else build_features(train, lag_free) for train in trains]
        return tables, _iohmm_blocks(variants, base, folds, states, tables, full)

    def evaluated(folds, tables, blocks) -> list[ForecastBlock]:
        """All blocks of ``folds`` in fold and model order; an empty cell warns at once."""
        out = []
        for (fold, test), table in zip(folds, tables):
            for name in model_names:
                kind, q = parse_model_name(name)
                if kind == "persistence":  # every test record after the dataset's first
                    index = np.arange(max(test.start, 1), test.stop)
                    blocks[name, fold] = _blocks(name, fold, responses, index, values[index],
                                                 persistence_forecast(values[index - 1]))
                elif kind == "varx":
                    blocks[name, fold] = _varx_blocks(table, full, test, name, fold, responses, q)
                if not blocks[name, fold]:
                    warn(f"model {name!r} produced no forecasts in fold {fold}", UserWarning)
                out += blocks[name, fold]
        return out

    folds = [(week, range(keys.index(week), len(keys) - keys[::-1].index(week)))
             for week in weeks]  # chronological records: each week is one run of indices
    try:  # a later refusal is the first of the folds one by one, after their UserWarnings
        prepared = learned(folds)
    except OpcastError:  # raise what the folds one by one raise, no warning twice
        with warnings.catch_warnings():
            for category in (ThresholdWarning, ConditioningWarning):
                warnings.simplefilter("ignore", category)
            for fold in folds:
                evaluated([fold], *learned([fold]))
        raise AssertionError("the folds together refused what the folds one by one accept")
    blocks = evaluated(folds, *prepared)

    shifts = np.array([rec.shift_code for rec in records])
    return MetricsReport(rows=_aggregate(blocks, shifts),
                         response_summary=response_summary(records, responses),
                         folds=weeks, models=list(model_names),
                         n_records=len(records), predictions=blocks, states=fitted)


def _aggregate(blocks: Sequence[ForecastBlock], shifts: np.ndarray) -> list[ReportRow]:
    """Per (model, fold, shift_type, response) accuracy metrics; ``shifts``
    holds the shift type of every record.

    A cell holds its block's forecasts of one shift type, in record order.
    Interval metrics are reported only for cells whose model provides
    predictive spreads.
    """
    cells: dict[tuple[str, str, str, str], tuple[ForecastBlock, np.ndarray]] = {}
    for block in blocks:  # checked once, then its cells are scored unchecked
        checked(block.actual, block.mean, block.sd)
        codes = shifts[block.index]
        for shift in set(codes.tolist()):
            cells[block.model, block.fold, shift, block.response] = block, codes == shift
    out: list[ReportRow] = []
    for key, (block, at) in sorted(cells.items()):
        count = int(np.count_nonzero(at))
        out += [ReportRow(*key, metric, value, count) for metric, value in scores(
            block.actual[at], block.mean[at], None if block.sd is None else block.sd[at]).items()]
    return out


def emit_report(report: MetricsReport, format: str = "csv") -> str:
    """Render a report as a flat CSV (``"csv"``) or a JSON document (``"structured-text"``).

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
    if format == "structured-text":
        doc = {
            "rows": [{"model": r.model, "fold": r.fold, "shift_type": r.shift_type,
                      "response": r.response, "metric": r.metric,
                      "value": r.value, "count": r.count} for r in report.rows],
            "response_summary": report.response_summary,
            "folds": report.folds,
            "models": report.models,
            "n_records": report.n_records,
            "states": {fold: {"K": m.K, "gof": m.gof, "reached_threshold": m.reached_threshold}
                       for fold, m in report.states.items()},
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    raise ConfigurationError(f"unknown report format {format!r}")
