"""Online forecasting model combining two adaptive predictors per pattern.

For every binary conditioning pattern the model keeps two linear models
sharing the same responses: one driven by the regressors ``u = [1, w]``
(``w`` and ``q`` lags of its responses, read from a lag-free table's ``y``),
one driven by the expected-state probability vector from the pseudo-count
tables. Their forecasts are blended per response with inverse-variance
weights. Hidden states come from clustering; pseudo-counts track their dynamics.

Records move state in one loop, and a forecast only reads. ``run_online``
(``_pass``) is the interleaved loop over a run of consecutive records: per
record it absorbs the record before into its centroid, then classifies the
record (once) and learns its counts and predictors. It checks each cell
where it reads it, in the order of the checked entry points
(``forecast_step``, ``update_centroid``, ``assign``, ``learn_step``), and
puts back what moved when it refuses. ``learn_tables`` (behind ``fit`` and
the LOWO folds) and ``walk_tables`` are one stacked pass of that loop over
several models' tables: learning is a walk whose first forecast lies after
the last row. Centroid moves never depend on the predictors, so the rows of
each pattern form an independent chain, and all chains advance together,
one stacked update per chain position, bit for bit as the loop would. A
stacked pass takes exactly what ``_pass`` accepts; what ``_pass`` refuses it
replays through ``_pass`` on copies, in model order, only to raise. One blend,
``_blend``, makes every forecast: ``run_online`` and ``walk_tables`` both
forecast a record as the blend of the pre-update predictions of the step
that learns it, and ``forecast_step`` reads the same moments without
learning. A single forecast is a ``ForecastResult``; the full state
snapshots to a JSON document.
"""

from __future__ import annotations

import contextlib
import copy
import json
from dataclasses import dataclass, field, replace
from typing import Callable, NoReturn, Sequence

import numpy as np

from .clustering import ClusterModel, fit_auto_k
from .dirichlet import DirichletTable
from .errors import (ConditioningWarning, ConfigurationError, DimensionError,
                     ForecastUnavailableError, InputError, InsufficientHistoryError,
                     NumericError, OpcastError, RestoreError, warn)
from .estimator import (AdaptiveState, checked_vector, json_number, serialized, stacked,
                        stacked_pass)
from .features import (FeatureConfig, FeatureTable, build_features,
                       classification_points, pattern_key)
from .metrics import Z95
from .records import ProductionRecord

_INTERCEPT = np.ones(1)  # leads every regressor vector u = [1, w]

SNAPSHOT_FORMAT = "opcast-model"
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    features: FeatureConfig
    lambda_u: float = 0.99
    lambda_v: float = 0.95
    allow_cold_start: bool = False

    def __post_init__(self):
        for name in ("lambda_u", "lambda_v"):
            value = getattr(self, name)
            if not (json_number(value) and 0.0 < value <= 1.0):
                raise ConfigurationError(f"{name} must lie in (0, 1], got {value!r}")
        if not isinstance(self.allow_cold_start, bool):
            raise ConfigurationError(
                f"allow_cold_start must be a boolean, got {self.allow_cold_start!r}")

    def to_dict(self) -> dict:
        return {
            "lambda_u": self.lambda_u,
            "lambda_v": self.lambda_v,
            "allow_cold_start": self.allow_cold_start,
            "features": self.features.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        return cls(features=FeatureConfig.from_dict(doc["features"]),
                   lambda_u=serialized(doc, "lambda_u"),
                   lambda_v=serialized(doc, "lambda_v"),
                   allow_cold_start=serialized(doc, "allow_cold_start", bool))


@dataclass
class PatternStates:
    u: AdaptiveState
    v: AdaptiveState


@dataclass(frozen=True)
class ForecastResult:
    """A blended forecast; ``forecast_step`` fills in where it came from."""

    y_hat: np.ndarray
    sigma: np.ndarray
    weights: np.ndarray
    intervals: np.ndarray
    cold_start: bool
    state: int | None = None
    pattern: str | None = None
    begins: bool = False

    def to_dict(self, response_names: Sequence[str]) -> dict:
        return {
            "y_hat": {name: float(v) for name, v in zip(response_names, self.y_hat)},
            "intervals": {name: [float(lo), float(hi)]
                          for name, (lo, hi) in zip(response_names, self.intervals)},
            "weights": {name: float(d) for name, d in zip(response_names, self.weights)},
            "sigma": self.sigma.tolist(),
            "cold_start": self.cold_start,
            "state": self.state,
            "pattern": self.pattern,
            "begins_shift": self.begins,
        }


@dataclass(frozen=True)
class StepResult:
    index: int
    state: int
    y: np.ndarray
    forecast: ForecastResult | None


def _weights(su: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """Per response, the regressor side's weight: the competing variance's
    share of the total, so the less certain side counts less (1/2 if both vanish)."""
    sv = np.maximum(sv, 0.0)
    total = np.maximum(su, 0.0) + sv
    return np.divide(sv, total, out=np.full(su.shape, 0.5), where=total > 0.0)


def _blend(mu, sigma_u, mv, sigma_v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weights, mean and covariance of the inverse-variance blend of the
    two predictors' means and noise covariances, for one forecast (``(m,)``
    means, ``(m, m)`` covariances) or a stack of them (leading axes)."""
    delta = _weights(np.diagonal(sigma_u, 0, -2, -1), np.diagonal(sigma_v, 0, -2, -1))
    rest = 1.0 - delta
    return delta, delta * mu + rest * mv, (delta[..., :, None] * delta[..., None, :] * sigma_u
                                           + rest[..., :, None] * rest[..., None, :] * sigma_v)


def _result(cold: bool, u: tuple, v: tuple, **origin) -> ForecastResult:
    """The forecast blending the two predictors' ``(mean, covariance)``;
    ``origin`` fills in where it came from."""
    delta, y_hat, sigma = _blend(*u, *v)
    half = Z95 * np.sqrt(np.maximum(sigma.diagonal(), 0.0))
    return ForecastResult(y_hat=y_hat, sigma=sigma, weights=delta, cold_start=cold,
                          intervals=np.stack((y_hat - half, y_hat + half), axis=1), **origin)


def _cold_start(states: PatternStates | None, allowed: bool, where: str = "") -> bool:
    """Whether a forecast from a pattern's predictors (None: never learned)
    starts cold; raises, after ``where``, when that is not ``allowed``."""
    cold = states is None or states.u.gamma == 0.0 and states.v.gamma == 0.0
    if cold and not allowed:
        raise ForecastUnavailableError(f"{where}no observations for this pattern yet; enable "
                                       "cold starts to forecast from the zero-knowledge prior")
    return cold


def _reads_before(span: range, q: int, first: int, begins: np.ndarray) -> bool:
    """Whether a pass over the records ``span`` classifies the one before: if it
    forecasts the first, or learns it while ``begins[0]`` says no sequence begins there."""
    return bool(span) and (span.start >= first or span.start >= q and not begins[0])


def _span(indices, n: int) -> range:
    """The consecutive positions among ``n`` records that ``indices`` lists (None: all)."""
    if indices is None:
        return range(n)
    at = np.asarray(indices) if isinstance(indices, (list, range, np.ndarray)) else None
    if at is None or at.ndim != 1 or len(at) and at.dtype.kind not in "iu":
        raise DimensionError("indices must be a list, a range or an integer array")
    positions = at.tolist()
    span = range(positions[0], positions[-1] + 1) if positions else range(0)
    if positions != list(span) or not 0 <= span.start <= span.stop <= n:
        raise DimensionError(f"indices must be one increasing run of consecutive "
                             f"positions of the {n} records")
    return span


def combine(u, v, state_u: AdaptiveState, state_v: AdaptiveState,
            allow_cold_start: bool = False) -> ForecastResult:
    """Blend the two per-pattern predictors for one upcoming period."""
    su, sv = state_u.Sigma.diagonal(), state_v.Sigma.diagonal()
    if su.shape != sv.shape:
        raise DimensionError("variance inputs have mismatched sizes")
    for arr in (su, sv):
        if (arr < -1e-10).any():
            raise NumericError(f"negative variance {arr.min():.3e} in combination")
    u = checked_vector(u, state_u.n_predictors, "u")
    v = checked_vector(v, state_v.n_predictors, "v")
    return _result(_cold_start(PatternStates(state_u, state_v), allow_cold_start),
                   (u @ state_u.H, state_u.Sigma), (v @ state_v.H, state_v.Sigma))


_BAD_T = "classification vector read at record {} contains non-finite values"
_BAD_WY = "regressors or responses of record {} contain non-finite values"


@dataclass
class _Chain:
    """The rows of one table that one pattern of one model learns, in order."""

    order: int              # the model's place in the pass
    model: "IoHmmModel"
    key: str
    states: PatternStates   # the pattern's predictors before the pass
    table: FeatureTable
    columns: list           # the columns of table.y that hold the model's responses
    rows: np.ndarray        # the learned rows of the table
    prev: np.ndarray        # count row read: 0 where a sequence begins, else the state before
    cur: np.ndarray         # realized states, 1-based
    counts: np.ndarray | None = None  # count rows after the pass, set by the count walk
    moments: list = field(default_factory=list)  # per side, each step's pre-update (u'H, Sigma)

    @property
    def u(self) -> np.ndarray:
        """The regressor vectors ``[1, w]``, built only while a pass needs them."""
        w = self.table.regressors(self.rows, self.model.config.features.q, self.columns)
        return np.concatenate((np.ones((len(w), 1)), w), axis=1)


def _walk_counts(chains: Sequence[_Chain]) -> tuple[np.ndarray, list[int]]:
    """Read and count every observation of ``chains`` (one K, longest first),
    one stacked step per chain position; the expected-state vectors read,
    laid out as ``stacked`` lays out sequences.

    Counts are half-integers, so every sum is exact and each vector equals
    ``expected_state_vector``'s.
    """
    counts = np.stack([ch.model.dirichlet.count_rows(ch.key) for ch in chains])
    prev, active = stacked([ch.prev for ch in chains])
    cur, _ = stacked([ch.cur - 1 for ch in chains])
    vectors = np.empty(prev.shape + counts.shape[2:])
    for k, n in enumerate(active):
        at, read = np.arange(n), prev[k, :n]
        rows = counts[at, read]
        vectors[k, :n] = rows / rows.sum(axis=1, keepdims=True)
        counts[at, read, cur[k, :n]] += 1.0
    for ch, rows in zip(chains, counts):
        ch.counts = rows
    return vectors, active


def _advance(chains: Sequence[_Chain], walking: bool) -> tuple[list, list] | None:
    """Advance ``chains`` together, one stacked count step and one stacked
    update per group of predictors at each chain position; ``walking``, fill
    their ``moments`` (u mean and covariance, v mean and covariance per step).
    Returns the commits and the warnings keyed by where each falls in a
    record-by-record pass, or None at the first refused update."""
    commits, events = [], []
    for side, name in enumerate(("u", "v")):  # a record updates u, then v
        groups: dict = {}  # by predictor shape, the v side also by ClusterModel (one count walk)
        for ch in sorted(chains, key=lambda ch: -len(ch.rows)):  # stable
            st = getattr(ch.states, name)
            groups.setdefault((st.n_predictors, st.n_responses, st.forgetting,
                               name == "v" and id(ch.model.clusters)), []).append(ch)
        for group in groups.values():
            X, active = stacked([ch.u for ch in group]) if name == "u" \
                else _walk_counts(group)
            Y = stacked([ch.table.y.take(ch.rows, axis=0).take(ch.columns, axis=1)
                         for ch in group])[0]
            done = stacked_pass([getattr(ch.states, name) for ch in group], X, Y, active)
            if done is None:
                return None
            commit, caught, mean, cov = done
            commits.append(commit)
            events += [((group[j].order, group[j].rows[k], side), message)
                       for j, k, message in caught]
            for j, ch in enumerate(group if walking else ()):
                ch.moments += mean[:len(ch.rows), j], cov[:len(ch.rows), j]
    return commits, events


def learn_tables(models: Sequence["IoHmmModel"], tables: Sequence[FeatureTable]) -> None:
    """Learn each model (at most once) from every row of its table, bit for
    bit as ``_pass`` would, in one stacked pass; a refused pass moves nothing."""
    _stacked(models, tables, [None] * len(models), False)[1]()


def walk_tables(models: Sequence["IoHmmModel"], tables: Sequence[FeatureTable],
                spans: Sequence[range]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per model, the forecasts that ``run_online(records, indices=span)`` makes over its
    own span, bit for bit, as record order columns: records ``(n,)``, means and variances
    ``(n, m)``; one stacked pass that moves nothing, and row ``i`` of a table is record ``i``."""
    return _stacked(models, tables, spans, True)[0]


def _stacked(models, tables, spans, walking: bool) -> tuple[list, Callable[[], None]]:
    """The pass behind ``learn_tables`` (``spans`` all None) and ``walk_tables``
    (``walking``): per model its forecast columns, and a commit that writes
    what it learned.

    The states come from one walk of a copy of the centroids per run of
    records walked; the learned rows split into one chain per pattern, all
    chains advance together (``_advance``), and each forecast is the
    ``_blend`` of its step's pre-update moments, as in ``_pass``. It takes
    exactly what ``_pass`` accepts: a pass that reads a bad cell of its model's columns (by
    ``_reads_before`` for the row before), must refuse a cold start or refuses an update raises.
    """
    if not len(models) == len(tables) == len(spans):
        raise DimensionError(f"{len(models)} models, {len(tables)} tables, {len(spans)} spans")
    if not walking and len({id(model) for model in models}) < len(models):
        raise ConfigurationError("a model appears twice in one learning pass")
    labels, chains, firsts = {}, [], []
    for order, (model, table, span) in enumerate(zip(models, tables, spans)):
        q, columns, records, first = model._reach(table, span)
        lo = records.start - _reads_before(records, q, first, table.begins_shift[records.start:])
        rows = np.arange(max(records.start, q), records.stop)
        read = slice(rows[0] - q, records.stop) if len(rows) else slice(0)  # with the lags
        if not (np.isin(table.z[rows], (0, 1)).all() and all(np.isfinite(a).all() for a in (
                table.w[rows], table.y[read, columns], table.t[lo:records.stop]))):
            return _one_by_one(models, tables, spans)
        key = id(model.clusters), id(table.t), lo, first, records.stop  # one walk, one labelling
        if key not in labels:
            walk = replace(model.clusters, centroids=model.clusters.centroids.copy(),
                           counts=model.clusters.counts.copy())
            X, labels[key] = walk.standardizer.transform(table.t), np.zeros(len(table.t), int)
            labels[key][lo:records.stop] = walk.nearest(X[lo:records.stop])
            for i in range(first, records.stop):  # from there on as _pass labels them
                walk.absorb(labels[key][i - 1], X[i - 1])
                labels[key][i] = walk.nearest(X[i:i + 1])[0]
        mine = model._chains(order, table, rows, labels[key])
        if not model.config.allow_cold_start and any(
                ch.rows[0] >= first and _cold_start(ch.states, True) for ch in mine):
            return _one_by_one(models, tables, spans)
        chains += mine
        firsts.append(first)
    advanced = _advance(chains, walking)
    if advanced is None:
        return _one_by_one(models, tables, spans)
    commits, events = advanced
    for _, message in sorted(events):
        warn(message, ConditioningWarning)
    parts = [[(np.zeros(0, int), *[np.zeros((0, m.n_responses))] * 2)] for m in models]
    for ch in chains if walking else ():  # the forecast rows, from the model's first on
        _, means, covs = _blend(*ch.moments)
        at = ch.rows >= firsts[ch.order]
        parts[ch.order].append((ch.rows[at], means[at], np.diagonal(covs, 0, 1, 2)[at]))
    out = []
    for mine in parts:
        index, mean, var = (np.concatenate(column) for column in zip(*mine))
        order = np.argsort(index)
        out.append((index[order], mean[order], var[order]))

    def commit() -> None:
        for step in commits:
            step()
        for ch in chains:
            ch.model.params.setdefault(ch.key, ch.states)
            ch.model.dirichlet.counts[ch.key] = ch.counts  # read by _walk_counts, so checked
    return out, commit


def _one_by_one(models, tables, spans) -> NoReturn:
    """Raise what ``_pass`` raises over the records of a pass that ``_stacked``
    refused, each model on a copy of itself, in model order."""
    for model, table, span in zip(models, tables, spans):
        *_, records, first = model._reach(table, span)
        copy.deepcopy(model)._pass(table, 0, records, first)
    raise AssertionError("the stacked pass refused records that the loop accepts")


def fit_states(records: Sequence[ProductionRecord], features: FeatureConfig,
               seed: int = 0, threshold: float = 0.8, k_min: int = 2,
               k_max: int = 12) -> ClusterModel:
    """Discover the hidden states from the records' classification vectors.

    The result depends on the classification spec only, so models that
    differ in lags or responses can share one fit (``run_online`` moves the
    centroids; the passes without it do not).
    """
    return fit_auto_k(classification_points(records, features), threshold=threshold,
                      k_min=k_min, k_max=k_max, seed=seed)


class _AllOrNothing(contextlib.AbstractContextManager):
    """Puts back, if the block raises, the centroids and the predictors and
    counts of patterns ``keys``: references to a predictor's arrays (an
    update replaces them) and copies of the count rows (changed in place)."""

    def __init__(self, model: "IoHmmModel", keys):
        self.model, self.params = model, dict(model.params)
        self.counts = dict(model.dirichlet.counts)
        self.centroids = model.clusters.centroids.copy(), model.clusters.counts.copy()
        self.fields = []
        for key in keys:
            if key in self.counts:
                self.counts[key] = self.counts[key].copy()
            if key in self.params:
                u, v = self.params[key].u, self.params[key].v
                self.fields += (u, vars(u).copy()), (v, vars(v).copy())

    def __exit__(self, kind, *_) -> None:
        if kind is not None:  # put back; the exception propagates
            model = self.model
            model.params, model.dirichlet.counts = self.params, self.counts
            model.clusters.centroids, model.clusters.counts = self.centroids
            for st, values in self.fields:
                vars(st).update(values)


class IoHmmModel:
    """Forecasting model with per-pattern adaptive states.

    The cluster model must be attached (or fitted) before learning or
    forecasting; its K fixes the dimensions of the state-driven predictor
    and the pseudo-count tables.
    """

    def __init__(self, config: ModelConfig, clusters: ClusterModel | None = None):
        self.config = config
        self.clusters: ClusterModel | None = None
        self.dirichlet: DirichletTable | None = None
        self.params: dict[str, PatternStates] = {}
        if clusters is not None:
            self.attach_clusters(clusters)

    # -- dimensions --------------------------------------------------------

    @property
    def n_states(self) -> int:
        if self.clusters is None:
            raise ConfigurationError("no cluster model attached")
        return self.clusters.K

    @property
    def n_responses(self) -> int:
        return self.config.features.n_responses

    @property
    def u_dim(self) -> int:
        return 1 + self.config.features.w_dim

    # -- construction ------------------------------------------------------

    def attach_clusters(self, clusters: ClusterModel) -> None:
        """Set the state space. Resets pseudo-counts and adaptive states."""
        if clusters.centroids.shape[1] != len(self.config.features.t_spec):
            raise DimensionError(
                "cluster model dimension does not match the classification spec")
        self.clusters = clusters
        self.dirichlet = DirichletTable(clusters.K,
                                        self.config.features.pattern_length)
        self.params = {}

    def fit(self, records: Sequence[ProductionRecord], seed: int = 0,
            threshold: float = 0.8, k_min: int = 2, k_max: int = 12) -> "IoHmmModel":
        """Featurize the records, discover states on them, then learn them in
        one pass; a featurizing refusal comes first and a refused fit moves nothing."""
        table = build_features(records, self.config.features)
        fitted = IoHmmModel(self.config, fit_states(records, self.config.features, seed=seed,
                                                    threshold=threshold, k_min=k_min, k_max=k_max))
        learn_tables([fitted], [table])
        vars(self).update(vars(fitted))  # the new states only with what was learned from them
        return self

    # -- pattern state access ------------------------------------------------

    def _prior(self) -> PatternStates:
        """The zero-knowledge predictors of a pattern without observations."""
        return PatternStates(
            u=AdaptiveState(self.u_dim, self.n_responses, self.config.lambda_u),
            v=AdaptiveState(self.n_states, self.n_responses, self.config.lambda_v))

    def _require_fitted(self) -> None:
        if self.clusters is None or self.dirichlet is None:
            raise ConfigurationError("model has no fitted cluster state; call fit "
                                     "or attach_clusters first")

    # -- online operations ---------------------------------------------------

    def learn_step(self, z, w, y, prev_state: int | None, cur_state: int) -> None:
        """Fold one observed period (pattern, regressors, responses) into the model.

        Continuous updates happen first with the pre-observation counts;
        the pseudo-count for the realized state is incremented afterwards.
        """
        self._require_fitted()
        if np.shape(w) != (self.config.features.w_dim,):
            raise DimensionError(
                f"regressor vector must have length {self.config.features.w_dim}")
        key = pattern_key(z)
        u = checked_vector(np.concatenate((_INTERCEPT, w)), self.u_dim, "u")
        y = checked_vector(y, self.n_responses, "y")
        self.dirichlet.check(key, *(() if prev_state is None else (prev_state,)), cur_state)
        with _AllOrNothing(self, (key,)):
            self._learn(key, u, y, prev_state, cur_state)

    def forecast_step(self, t_prev, z_next, w_next, begins: bool) -> ForecastResult:
        """Forecast the next period from the last classified one; a pure read.

        The previous period's state is the centroid nearest to ``t_prev``.
        Nothing moves: ``run_online`` absorbs ``t_prev`` into that centroid
        just before it forecasts, and a caller that streams step by step
        does so with ``clusters.update_centroid(result.state, t_prev)``.
        """
        self._require_fitted()
        state = self.clusters.assign(t_prev)
        z_next = np.asarray(z_next, dtype=float).reshape(-1)
        if z_next.shape != (self.config.features.pattern_length,):
            raise DimensionError(
                f"pattern must have length {self.config.features.pattern_length}")
        u = checked_vector(np.concatenate((_INTERCEPT, np.ravel(w_next))), self.u_dim, "u")
        key = pattern_key(z_next)
        states = self.params.get(key) or self._prior()  # an unseen pattern's is not kept
        v = self.dirichlet.expected_state_vector(key, None if begins else state)
        return _result(_cold_start(states, self.config.allow_cold_start),
                       (u @ states.u.H, states.u.Sigma), (v @ states.v.H, states.v.Sigma),
                       state=state, pattern=key, begins=begins)

    def _learn(self, key: str, u: np.ndarray, y: np.ndarray,
               prev_state: int | None, cur_state: int) -> tuple[tuple, tuple]:
        """Learn one checked record; the ``(prediction, Sigma)`` each side
        learned against, the moments a forecast of the record blends."""
        states = self.params.get(key)
        if states is None:
            states = self.params[key] = self._prior()
        v = self.dirichlet.expected_state_vector(key, prev_state)
        learned = states.u._update(u, y), states.v._update(v, y)
        if prev_state is None:
            self.dirichlet.observe_initial(key, cur_state)
        else:
            self.dirichlet.observe_transition(key, prev_state, cur_state)
        return learned

    def _columns(self, table: FeatureTable) -> list[int]:
        """The columns of ``table.y`` that hold this model's responses, in its order."""
        try:
            return [table.responses.index(name) for name in self.config.features.response_names]
        except ValueError:
            raise DimensionError("the table lacks one of the model's responses") from None

    def _reach(self, table: FeatureTable, span: range | None) -> tuple[int, list, range, int]:
        """This model's ``q`` and ``y`` columns once ``table`` is checked as its input (more
        than ``q`` rows shaped by its feature config, with its responses; at ``q = 0`` row 0
        begins a shift), the records of a pass over it and the first it forecasts: every row
        and none when ``span`` is None, else ``span`` and ``max(span.start, q + 1)``."""
        self._require_fitted()
        fc, n = self.config.features, len(table.y)
        if n <= fc.q:
            raise InsufficientHistoryError(f"need more than q={fc.q} records, got {n}")
        widths = (fc.pattern_length, len(fc.w_spec), len(fc.t_spec), len(table.responses))
        if ([a.shape for a in (table.z, table.w, table.t, table.y)]
                != [(n, d) for d in widths] or table.begins_shift.shape != (n,)):
            raise DimensionError("table shape does not match the model's feature config")
        columns = self._columns(table)
        if fc.q == 0 and not table.begins_shift[0]:
            raise InputError("with q = 0 the table's first row must begin a shift: "
                             "no row before it gives its previous state")
        if span is None:
            return fc.q, columns, range(n), n
        if not isinstance(span, range) or span.step != 1 or not 0 <= span.start <= span.stop <= n:
            raise DimensionError("the records to walk are not a range of the table's rows")
        return fc.q, columns, span, max(span.start, fc.q + 1)

    def _chains(self, order: int, table: FeatureTable, rows: np.ndarray,
                labels: np.ndarray) -> list[_Chain]:
        """The learned ``rows`` of ``table``, one chain per pattern in the order
        the patterns first occur; ``labels`` are the rows' states."""
        patterns, firsts, which = np.unique(table.z[rows], axis=0, return_index=True,
                                            return_inverse=True)
        keys, which = [pattern_key(z) for z in patterns], which.reshape(-1)
        chains, columns = [], self._columns(table)
        for j in np.argsort(firsts, kind="stable").tolist():
            at = rows[which == j]
            states = self.params.get(keys[j]) or self._prior()
            chains.append(_Chain(order, self, keys[j], states, table, columns, at,
                                 np.where(table.begins_shift[at], 0, labels[at - 1]),
                                 labels[at]))
        return chains

    def run_online(self, records: Sequence[ProductionRecord],
                   indices: Sequence[int] | None = None) -> list[StepResult]:
        """Interleave forecasting and learning over the records.

        Per processed record: forecast it from the previous record (when a
        lag history exists), classify it, learn from it. The earliest
        forecastable position is ``q + 1``: position ``q`` is the first
        with features and it has no featurized predecessor.

        ``indices`` restricts processing to one run of consecutive positions,
        a list, a range or an integer array (else ``DimensionError``); earlier
        records still provide lags and the previous state. Only the processed
        records and the ``max(q, 1)`` before them are featurized. Returns one
        entry per processed record; ``forecast`` is None for warm-up records.
        The first read that the checked steps refuse decides the error; a
        refused pass moves nothing.
        """
        self._require_fitted()
        fc = self.config.features
        if len(records) <= fc.q:
            raise InsufficientHistoryError(
                f"need more than q={fc.q} records, got {len(records)}")
        span = _span(indices, len(records))
        if not span:
            return []
        # rows from `start` on: the lags and boundary flag of every position
        start = max(0, span.start - max(fc.q, 1))
        table = build_features(records[start:max(span.stop, fc.q + 1)], fc)
        return self._pass(table, start, span, fc.q + 1)

    def _pass(self, table: FeatureTable, offset: int, span: range,
              first: int) -> list[StepResult]:
        """The interleaved loop over the consecutive records ``span``; row
        ``r`` of ``table`` is record ``offset + r``.

        Per record: from ``first`` (after ``q``) on, absorb the row before
        into the state it was classified in and check that the record can be
        forecast (a cold start); then classify the record and learn from it
        (from ``q`` on). Each row is classified once, the row before the span
        only where it is read (``_reads_before``). The forecast is the blend of
        what that learning step predicted before it learned. Each read of the
        model's cells is checked where it happens; a refused pass puts back what moved.
        """
        q, clusters, columns = self.config.features.q, self.clusters, self._columns(table)
        keys = [pattern_key(table.z[i - offset]) if i >= q else None for i in span]
        w = table.regressors(np.arange(q, len(table.y)), q, columns)  # row r's at r - q
        U, Y = np.concatenate((np.ones((len(w), 1)), w), axis=1), table.y.take(columns, axis=1)
        ok_t, ok_w, ok_y = (np.isfinite(a).all(axis=1).tolist() for a in (table.t, U, Y))
        X = clusters.standardizer.transform(table.t)  # one standardization per row

        def label(r: int, i: int) -> int:  # the state of row r, read for record i
            if not ok_t[r]:
                raise InputError(_BAD_T.format(i))
            return int(clusters.nearest(X[r:r + 1])[0])

        results: list[StepResult] = []
        with _AllOrNothing(self, set(keys) - {None}):
            r = span.start - offset
            prev = label(r - 1, span.start) if _reads_before(
                span, q, first, table.begins_shift[r:]) else None
            for i, key in zip(span, keys):
                r = i - offset
                begins = bool(table.begins_shift[r])
                forecast = None
                if i >= first:
                    if not ok_w[r - q]:
                        raise NumericError(_BAD_WY.format(i))
                    clusters.absorb(prev, X[r - 1])
                    cold = _cold_start(self.params.get(key), self.config.allow_cold_start,
                                       f"record {i}: ")
                cur = label(r, i)
                if i >= q:
                    if not (ok_w[r - q] and ok_y[r]):
                        raise NumericError(_BAD_WY.format(i))
                    learned = self._learn(key, U[r - q], Y[r], None if begins else prev, cur)
                    if i >= first:
                        forecast = _result(cold, *learned, state=prev, pattern=key,
                                           begins=begins)
                results.append(StepResult(index=i, state=cur, y=Y[r], forecast=forecast))
                prev = cur
        return results

    # -- serialization -----------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "config": self.config.to_dict(),
            "clusters": self.clusters.to_dict() if self.clusters else None,
            "dirichlet": self.dirichlet.to_dict() if self.dirichlet else None,
            "params": {key: {"u": st.u.to_dict(), "v": st.v.to_dict()}
                       for key, st in sorted(self.params.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def restore(cls, doc: dict) -> "IoHmmModel":
        try:
            if doc.get("format") != SNAPSHOT_FORMAT:
                raise RestoreError(f"unknown document format {doc.get('format')!r}")
            if doc.get("version") != SNAPSHOT_VERSION:
                raise RestoreError(f"unsupported snapshot version {doc.get('version')!r}")
            model = cls(ModelConfig.from_dict(doc["config"]))
            if doc.get("clusters") is not None:
                model.attach_clusters(ClusterModel.from_dict(doc["clusters"]))
                table = DirichletTable.from_dict(doc["dirichlet"])
                if ((table.n_states, table.pattern_length)
                        != (model.n_states, model.config.features.pattern_length)):
                    raise RestoreError("pseudo-count tables do not match the number "
                                       "of states and the pattern length")
                model.dirichlet = table
            for key, entry in doc.get("params", {}).items():
                u = AdaptiveState.from_dict(entry["u"])
                v = AdaptiveState.from_dict(entry["v"])
                if u.n_predictors != model.u_dim or v.n_predictors != model.n_states:
                    raise RestoreError(
                        f"adaptive state for pattern {key!r} has wrong dimensions")
                if {u.n_responses, v.n_responses} != {model.n_responses}:
                    raise RestoreError(
                        f"adaptive state for pattern {key!r} has wrong response count")
                if (u.forgetting, v.forgetting) != (model.config.lambda_u, model.config.lambda_v):
                    raise RestoreError(f"pattern {key!r} does not forget at lambda_u/lambda_v")
                model.dirichlet.check(key)
                model.params[key] = PatternStates(u=u, v=v)
            return model
        except RestoreError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError, OpcastError) as exc:
            raise RestoreError(f"cannot restore model snapshot: {exc}") from exc

    @classmethod
    def load(cls, path) -> "IoHmmModel":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise RestoreError(f"snapshot is not valid JSON: {exc}") from exc
        return cls.restore(doc)
