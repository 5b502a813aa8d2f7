"""Rolling out-of-sample evaluation with leave-one-week-out folds.

Each ISO week of the dataset is held out once. Models are fitted from
scratch on the remaining weeks (in chronological order, so week seams act
as sequence starts) and evaluated on the held-out week. First, all records
are featurized once, as a lag-free table of all responses, which refuses a
record with a non-finite cell before any fold trains; then each fold's
training weeks (also the VARX input), whose classification vectors give the
fold's hidden states. Every IO-HMM variant reads its responses and lags from
that table, learning, and walks its test week in the one such table of all
records: the variants of all folds learn in one stacked pass (``learn_tables``)
and walk in one more (``walk_tables``), learning as they walk, as in
production; the regression benchmark stays frozen after fitting. Every stage
runs once and the first refusal met is raised, so an evaluation accepts
exactly what the folds one by one accept.

Forecasts flow as arrays of means and variances (persistence's means are the
table's rows ``y[t-1]``), and the report scores all of them in one pass against
the table of all records, one cell per model, fold, shift type and response.
"""

from __future__ import annotations

import io
import json
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .benchmarks import fit_varx, predict_varx
from .clustering import ClusterModel
from .errors import ConfigurationError, DegenerateDataError, NumericError, warn
from .features import MAX_LAGS, FeatureTable, build_features, default_feature_config
from .metrics import cell_scores, cell_sums, columns
from .model import IoHmmModel, ModelConfig, fit_states, learn_tables, walk_tables
from .records import ProductionRecord, check_chronological

# every model identifier and its (kind, lag order), in the report's row order
_MODELS = {"persistence": ("persistence", None), "no-lags": ("iohmm", 0),
           **{f"{kind}-q{q}": (kind, q) for kind in ("iohmm", "varx", "iohmm-uni")
              for q in range(1, MAX_LAGS + 1)}}
DEFAULT_MODELS = tuple(_MODELS)

SUMMARY_MODEL = "_summary"
CSV_HEADER = "model,fold,shift_type,response,metric,value,count"


def parse_model_name(name: str) -> tuple[str, int | None]:
    """The (kind, lag order) of a benchmark identifier."""
    if not (isinstance(name, str) and name in _MODELS):  # a list or a set cannot be hashed
        raise ConfigurationError(f"unknown model identifier {name!r}")
    return _MODELS[name]


def week_key(date) -> str:
    iso = date.isocalendar()
    return f"{iso[0]}-W{iso[1]:02d}"


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
    predictions: dict[str, np.ndarray] = field(default_factory=dict)  # empty without forecasts
    states: dict[str, ClusterModel] = field(default_factory=dict)  # per fold, if fitted


def response_summary(y: np.ndarray, responses: Sequence[str]) -> dict[str, dict[str, float]]:
    """Location statistics of each response over the whole dataset, from the
    ``(n, m)`` responses ``y`` whose column ``j`` holds ``responses[j]``."""
    out: dict[str, dict[str, float]] = {}
    for name, values in zip(responses, np.asarray(y, dtype=float).T):
        qs = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
        out[name] = {
            "min": float(qs[0]), "q1": float(qs[1]), "median": float(qs[2]),
            "mean": float(values.mean()), "q3": float(qs[3]), "max": float(qs[4]),
        }
    return out


def _iohmm_forecasts(variants, base: ModelConfig, folds, states, trains,
                     full: FeatureTable) -> dict[tuple[str, str], list[tuple]]:
    """The IO-HMM ``variants``' forecasts per identifier and fold (``(week,
    test records)``), as ``(response columns, index, mean, var)`` of each
    variant: each learns from its fold's training table with its ``states`` and
    walks the test week in the table of all records (``full``), all folds in
    one stacked learning pass and one stacked walk."""
    models = [IoHmmModel(replace(base, features=features), clusters=fitted)
              for fitted in states for _, features, _ in variants]
    learn_tables(models, [train for train in trains for _ in variants])
    walks = iter(walk_tables(models, [full] * len(models),
                             [test for _, test in folds for _ in variants]))
    forecasts: dict[tuple[str, str], list[tuple]] = {}
    for fold, _ in folds:
        for name, _, columns in variants:
            forecasts.setdefault((name, fold), []).append((columns, *next(walks)))
    return forecasts


def leave_one_week_out(records: Sequence[ProductionRecord],
                       model_names: Sequence[str] = DEFAULT_MODELS,
                       base: ModelConfig | None = None,
                       seed: int = 0, threshold: float = 0.8, k_max: int = 12) -> MetricsReport:
    """Evaluate the configured models across held-out ISO weeks.

    A fresh model instance is fitted per model per fold; nothing carries
    over between folds. Each stage runs once, in one order: all records are
    featurized, even for no models (persistence and the response summary read
    their responses there), then every fold's training weeks, then every
    fold's states are fitted, then the IO-HMM variants of all folds learn and
    walk, then persistence and VARX forecast fold by fold, and then the report
    scores all forecasts at once. Per-fold cells without forecasts are omitted
    with a warning. The first refusal met is raised; an evaluation accepts
    exactly what the folds one by one accept. ``states`` holds each fold's fit.
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
    full = build_features(records, lag_free)  # refuses a bad cell

    folds = [(week, range(keys.index(week), len(keys) - keys[::-1].index(week)))
             for week in weeks]  # chronological records: each week is one run of indices
    tables = [build_features([*records[:test.start], *records[test.stop:]], lag_free)
              if "varx" in kinds or variants else None for _, test in folds]
    states = {week: fit_states(table, seed=seed, threshold=threshold, k_max=k_max)
              for (week, _), table in (zip(folds, tables) if variants else ())}
    forecasts = _iohmm_forecasts(variants, base, folds, list(states.values()), tables, full)
    every, parts = range(len(responses)), []  # in fold and model order
    for (fold, test), table in zip(folds, tables):
        for name in model_names:
            kind, q = parse_model_name(name)
            if kind == "persistence":  # every test record after the dataset's first: y[t-1]
                index = np.arange(max(test.start, 1), test.stop)
                forecasts[name, fold] = [(every, index, full.y[index - 1], None)]
            elif kind == "varx":  # from record q on, its lags read from y as the IO-HMM's
                varx = fit_varx(table.y, table.w, q)
                index = np.arange(max(test.start, q), test.stop)
                y_hat, sigma = predict_varx(varx, [full.y[index - j] for j in range(1, q + 1)],
                                            full.w[index])
                forecasts[name, fold] = [(every, index, y_hat,
                                          np.broadcast_to(np.diagonal(sigma), y_hat.shape))]
            made = [part for part in forecasts[name, fold] if len(part[1])]
            if not made:  # an empty cell warns at once
                warn(f"model {name!r} produced no forecasts in fold {fold}", UserWarning)
            parts += [(name, fold, *part) for part in made]

    rows, predictions = _aggregate(parts, full.y, np.array([rec.shift_code for rec in records]),
                                   responses)
    return MetricsReport(rows=rows, response_summary=response_summary(full.y, responses),
                         folds=weeks, models=list(model_names),
                         n_records=len(records), predictions=predictions, states=states)


def _aggregate(parts: Sequence[tuple], y: np.ndarray, shifts: np.ndarray,
               responses: Sequence[str]) -> tuple[list[ReportRow], dict[str, np.ndarray]]:
    """The report rows and the long columns of the forecasts ``parts``, each
    ``(model, fold, response columns, index, mean, var)`` with ``(n, columns)``
    arrays (``var`` None without spreads), scored against the checked table's
    responses ``y``; ``shifts`` holds each record's shift type. Only what the
    models computed is refused: a non-finite mean, then a non-finite spread of
    a model that has spreads. A pair's key ranks its (model, fold, shift_type,
    response) cell in sorted order, and one stable sort of the keys makes each
    cell a run of its pairs in record order, summed as that cell alone. Interval
    metrics are reported only for cells whose model provides predictive spreads.
    """
    if not parts:  # no forecasts at all
        return [], {}
    pairs = sorted({part[:2] for part in parts})  # (model, fold), in rank order
    owner, resp, index, mean, var = (np.concatenate(col) for col in zip(*(
        (np.full(p.size, pairs.index((model, fold))), np.repeat(cols, len(i)),
         np.tile(i, len(cols)), p.T.ravel(), np.full(p.size, np.nan) if s is None else s.T.ravel())
        for model, fold, cols, i, p, s in parts)))
    has = np.isin(owner, [pairs.index(part[:2]) for part in parts if part[5] is not None])
    sd = np.sqrt(np.clip(var, 0.0, None))
    if not np.isfinite(mean).all():
        raise NumericError("metric inputs contain non-finite values")
    if not np.isfinite(sd[has]).all():
        raise NumericError("standard deviations must be finite and non-negative")
    actual = y[index, resp]
    shift_names, shift_rank = np.unique(shifts, return_inverse=True)
    key = (owner * len(shift_names) + shift_rank[index]) * len(responses) \
        + np.argsort(np.argsort(responses))[resp]
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(key[order]) != 0])
    counts = np.diff(np.r_[starts, key.size])
    scores = cell_scores(cell_sums(columns(actual[order], mean[order], sd[order]),
                                   starts, counts), counts)
    first, metrics = order[starts], list(scores)
    rows = [ReportRow(*pairs[o], shift, responses[r], metric, value, count)
            for o, shift, r, spread, count, values in zip(
                owner[first].tolist(), shifts[index[first]].tolist(), resp[first].tolist(),
                has[first].tolist(), counts.tolist(), zip(*(v.tolist() for v in scores.values())))
            for metric, value in zip(metrics if spread else metrics[:2], values)]
    model, fold = np.array(pairs, dtype=object).T[:, owner]  # 8 bytes a label, not 4 a char
    return rows, dict(model=model, fold=fold, response=np.array(responses, dtype=object)[resp],
                      index=index, actual=actual, mean=mean, sd=sd)


_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search


def _csv_cell(text: str) -> str:
    """``text`` as a CSV cell: quoted if it holds a comma, a double quote or a line break."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def emit_report(report: MetricsReport, format: str = "csv") -> str:
    """Render a report as a flat CSV (``"csv"``) or a JSON document (``"structured-text"``).

    The CSV includes the dataset-level response summary as rows under the
    pseudo-model ``_summary`` so one document is self-contained. A text field
    that holds a comma, a double quote or a line break is quoted under the
    CSV rules; numbers are written as their ``repr``.
    """
    if format == "csv":
        buf, cell = io.StringIO(), _csv_cell
        buf.write(CSV_HEADER + "\n")
        for row in report.rows:
            buf.write(f"{cell(row.model)},{cell(row.fold)},{cell(row.shift_type)},"
                      f"{cell(row.response)},{cell(row.metric)},{row.value!r},{row.count}\n")
        for resp in sorted(report.response_summary):
            stats = report.response_summary[resp]
            for stat in ("min", "q1", "median", "mean", "q3", "max"):
                buf.write(f"{SUMMARY_MODEL},,,{cell(resp)},{stat},{stats[stat]!r},"
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
