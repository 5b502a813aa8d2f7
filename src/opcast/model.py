"""Online forecasting model combining two adaptive predictors per pattern.

For every binary conditioning pattern the model keeps two linear models
sharing the same responses: one driven by the regressors ``u = [1, w]``
(``w`` and ``q`` lags of its responses, read from a lag-free table's ``y``),
one driven by the expected-state probability vector from the pseudo-count
tables. Their forecasts are blended per response with inverse-variance
weights. Hidden states come from clustering; pseudo-counts track their dynamics.

Every pass reads ``build_features`` tables, whose cells are checked there.
``run_online`` is the interleaved loop over consecutive records: per record it
absorbs the record before into its centroid, classifies the record once and
learns its counts and predictors, putting back what moved when it refuses.
``learn_tables`` (behind ``fit`` and the LOWO folds) and ``walk_tables`` are
one stacked pass of that loop over several models' tables, bit for bit.
Centroid moves never depend on the predictors, so what reads none runs once
per pass (labels, chain splits, one count walk per v group), and each
pattern's rows form a chain; all chains advance together, one ragged update of
each side per position (``stacked_pass``), both sides' inputs laid out by
``stacked``; a v side reads no lags, so equal v chains of several models
advance once. A stacked pass keys each warning, refused update and refused
cold start by where the loop would meet it, model by model, and raises the
first refusal after the warnings before it: what the loop raises. One blend,
``_blend``, makes every forecast, from the pre-update moments of the step that
learns the record; ``forecast_step`` reads the same moments without learning.
A forecast is a ``ForecastResult``; the full state snapshots to a JSON document.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .clustering import ClusterModel, fit_auto_k, walk_labels
from .dirichlet import DirichletTable
from .errors import (ConditioningWarning, ConfigurationError, DimensionError,
                     ForecastUnavailableError, InputError, InsufficientHistoryError,
                     NumericError, OpcastError, RestoreError, warn)
from .estimator import (AdaptiveState, checked_vector, json_number, restore_states,
                        serialized, stacked, stacked_pass, state_stacks)
from .features import FeatureConfig, FeatureTable, build_features, pattern_key
from .metrics import Z95
from .records import ProductionRecord, check_chronological

_INTERCEPT = np.ones(1)  # leads every regressor vector u = [1, w]

SNAPSHOT_FORMAT = "opcast-model"
SNAPSHOT_VERSION = 2
_COLD = ("{}no observations for this pattern yet; enable cold starts to forecast "
         "from the zero-knowledge prior")


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
        raise ForecastUnavailableError(_COLD.format(where))
    return cold


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
    twins: tuple = ()  # the later chains whose v side reads as this one's

    @property
    def u(self) -> np.ndarray:
        """The regressor vectors ``[1, w]``, built only while a pass needs them."""
        w = self.table.regressors(self.rows, self.model.config.features.q, self.columns)
        return np.concatenate((np.ones((len(w), 1)), w), axis=1)


def _walk_counts(group: Sequence[_Chain]) -> tuple[np.ndarray, list[int]]:
    """The expected-state vectors that one group of v chains (one K, longest first)
    reads and the chains running per step, as ``stacked`` lays them out; sets each
    chain's ``counts``. Counts grow by ``+= 1.0`` per observation, as ``observe`` adds
    them, and numpy sums each row of an ``(n, K)`` array as that row alone, so each
    vector is ``expected_state_vector``'s, whatever the counts hold."""
    K = group[0].states.v.n_predictors
    counts = np.stack([ch.model.dirichlet.count_rows(ch.key) for ch in group])
    read, active = stacked([ch.prev for ch in group])
    read += np.arange(len(group)) * (K + 1)  # the row read, among all chains' rows
    seen = stacked([ch.cur - 1 for ch in group])[0] + read * K  # the count observed
    rows_of, flat_counts = counts.reshape(-1, K), counts.reshape(-1)
    vectors = np.zeros(read.shape + (K,))
    for k, n in enumerate(active):
        rows = rows_of.take(read[k, :n], axis=0)
        vectors[k, :n] = rows / rows.sum(axis=1)[:, None]
        flat_counts[seen[k, :n]] += 1.0
    for ch, rows in zip(group, counts):
        ch.counts = rows
    return vectors, active


def _v_leads(chains: Sequence[_Chain]) -> list[_Chain]:
    """The first of the chains whose v sides read the same bytes, the rest its ``twins``."""
    leads: dict = {}
    for ch in chains:
        st = ch.states.v
        key = (id(ch.table), tuple(ch.columns), st.H.shape, st.forgetting, st.gamma, st.n_updates,
               *(a.tobytes() for a in (ch.rows, ch.prev, ch.cur, st.H, st.Sigma, st.P,
                                       ch.model.dirichlet.count_rows(ch.key))))
        lead = leads.setdefault(key, ch)
        if lead is not ch:
            lead.twins += (ch,)
    return list(leads.values())  # the keys go: the pass does not need them


def _advance(chains: Sequence[_Chain], walking: bool) -> tuple[list, list]:
    """Advance ``chains`` together: one ragged update of each side's groups (``stacked_pass``),
    the v side's inputs from one count walk per group, equal v chains once (``_v_leads``);
    ``walking``, fill their ``moments`` (u mean and covariance, v mean and covariance per
    step). Returns the commits and the warnings and refused updates, each keyed by where
    it falls in a record-by-record pass: ``(model order, record, side)``."""
    commits, events = [], []
    for side, name in enumerate(("u", "v")):  # a record updates u, then v
        leads = _v_leads(chains) if side else chains  # u reads the lags: twins only on v
        groups: dict = {}  # by predictor shape: a v side's n_predictors is its K
        for ch in sorted(leads, key=lambda ch: -len(ch.rows)):  # stable; groups longest first
            st = getattr(ch.states, name)
            groups.setdefault((st.n_predictors, st.n_responses), []).append(ch)
        groups = list(groups.values())
        commit, caught, moments = stacked_pass([(
            [getattr(ch.states, name) for ch in group],
            *(stacked([ch.u for ch in group]) if name == "u" else _walk_counts(group)),
            stacked([ch.table.y.take(ch.rows, axis=0).take(ch.columns, axis=1)
                     for ch in group])[0]) for group in groups], walking)
        commits.append(commit)
        events += [((ch.order, ch.rows[k], side), event) for g, j, k, event in caught
                   for ch in (groups[g][j], *groups[g][j].twins)]
        for group, (mean, cov) in zip(groups, moments if walking else ()):
            for j, lead in enumerate(group):
                for ch in (lead, *lead.twins):
                    ch.moments += mean[:len(ch.rows), j], cov[:len(ch.rows), j]

    def to_twins() -> None:  # after the v commit; copies, as no two models share an array
        for lead, ch in [(lead, ch) for lead in leads for ch in lead.twins]:
            v, learned = ch.states.v, lead.states.v
            v.H, v.Sigma, v.P = learned.H.copy(), learned.Sigma.copy(), learned.P.copy()
            v.gamma, v.n_updates, ch.counts = learned.gamma, learned.n_updates, lead.counts.copy()
    return [*commits, to_twins], events


def learn_tables(models: Sequence["IoHmmModel"], tables: Sequence[FeatureTable]) -> None:
    """Learn each model (at most once) from every row of its ``build_features``
    table, bit for bit as ``run_online``'s loop would, in one stacked pass; a
    refused pass moves nothing."""
    _stacked(models, tables, [None] * len(models), False)[1]()


def walk_tables(models: Sequence["IoHmmModel"], tables: Sequence[FeatureTable],
                spans: Sequence[range]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per model, the forecasts that ``run_online(records, indices=span)`` makes over its
    own span, bit for bit, as record order columns: records ``(n,)``, means and variances
    ``(n, m)``; one stacked pass that moves nothing over ``build_features`` tables, whose
    row ``i`` is record ``i``."""
    return _stacked(models, tables, spans, True)[0]


def _stacked(models, tables, spans, walking: bool) -> tuple[list, Callable[[], None]]:
    """The pass behind ``learn_tables`` (``spans`` all None) and ``walk_tables``
    (``walking``): per model its forecast columns, and a commit of what it learned.

    The tables come from ``build_features``, so their cells are already checked.
    Once per pass, each table's rows are labelled per cluster model, the runs
    that ``run_online`` labels by moving centroids walked in lockstep
    (``walk_labels``); the learned rows ``start..stop-1`` of each labelling split
    into pattern chains, of which each model learns its rows with its own
    predictors. All chains advance together (``_advance``); a model's forecasts,
    of its rows ``first..stop-1`` in record order, take one ``_blend``. A strict
    model's chain that starts cold from ``first`` on is refused at its first row.
    Chains never read each other's predictors, so the pass runs whole, then
    warns in the loop's order until the first refusal, and raises that.
    """
    if not len(models) == len(tables) == len(spans):
        raise DimensionError(f"{len(models)} models, {len(tables)} tables, {len(spans)} spans")
    if not walking and len({id(model) for model in models}) < len(models):
        raise ConfigurationError("a model appears twice in one learning pass")
    fixed, walked, reach = {}, {}, []
    for model, table, span in zip(models, tables, spans):
        q, columns, records, first = model._reach(table, span)
        start, stop = max(records.start, q), records.stop
        key = id(model.clusters), id(table.t)
        if key not in fixed:  # each row's state by the fitted centroids
            X = model.clusters.standardizer.transform(table.t)
            fixed[key] = X, model.clusters.nearest(X)
        X, labels = fixed[key]
        run = key + (first, stop)  # from first on, by centroids that move
        if first < stop:
            labels = walked.setdefault(run, (model.clusters, X, labels.copy(), first, stop))[2]
        reach.append((run, labels, stop, columns, start, first))
    walk_labels(walked.values())
    splits, chains, events = {}, [], []
    for order, (model, table, (run, labels, stop, columns, start, first)) in enumerate(
            zip(models, tables, reach)):
        if id(table.z) not in splits:  # each row's pattern id, once per table
            distinct, ids = np.unique(table.z, axis=0, return_inverse=True)
            splits[id(table.z)] = distinct, ids.reshape(-1)
        distinct, ids = splits[id(table.z)]
        split = run + (start, id(table.z), id(table.begins_shift))
        if split not in splits:  # learned rows: (row, key, rows, prev, cur) per pattern, by row
            at = np.argsort(ids[start:stop], kind="stable") + start
            edges = [*np.flatnonzero(np.diff(ids[at], prepend=-1)).tolist(), len(at)]
            prev = np.where(table.begins_shift[at], 0, labels[at - 1])  # the count row read
            splits[split] = sorted((int(at[a]), pattern_key(distinct[ids[at[a]]]), at[a:b],
                                    prev[a:b], labels[at[a:b]]) for a, b in zip(edges, edges[1:]))
        mine = [_Chain(order, model, key, model.params.get(key) or model._prior(), table,
                       columns, *piece) for _, key, *piece in splits[split]]
        if not model.config.allow_cold_start:  # a cold start falls before its record's updates
            events += [((order, ch.rows[0], -1), ForecastUnavailableError(
                _COLD.format(f"record {ch.rows[0]}: "))) for ch in mine
                if ch.rows[0] >= first and _cold_start(ch.states, True)]
        chains += mine
    commits, caught = _advance(chains, walking)
    for _, event in sorted(events + caught, key=lambda event: event[0]):
        if isinstance(event, OpcastError):  # the first refusal, after the warnings before it
            raise event
        warn(event, ConditioningWarning)

    def commit() -> None:
        for step in commits:
            step()
        for ch in chains:
            ch.model.params.setdefault(ch.key, ch.states)
            ch.model.dirichlet.counts[ch.key] = ch.counts  # read by _walk_counts, so checked
    if not walking:  # a learning pass builds no forecast columns
        return [], commit
    # per model, the u and v sides' (mean, covariance) columns of its rows first..stop-1
    forecasts = [[np.full((max(stop - first, 0),) + (model.n_responses,) * k, np.nan)
                  for k in (1, 2, 1, 2)] for model, (*_, stop, _, _, first) in zip(models, reach)]
    for ch in chains:  # each of those rows lies in one chain of its model
        first = reach[ch.order][-1]
        cut = int(np.searchsorted(ch.rows, first))
        for column, moment in zip(forecasts[ch.order], ch.moments):
            column[ch.rows[cut:] - first] = moment[cut:]
    blends = [_blend(*mine) for mine in forecasts]  # one per model
    return [(np.arange(first, stop), mean, np.diagonal(cov, 0, 1, 2))
            for (*_, stop, _, _, first), (_, mean, cov) in zip(reach, blends)], commit


def fit_states(table: FeatureTable, seed: int = 0, threshold: float = 0.8,
               k_max: int = 12) -> ClusterModel:
    """Discover the hidden states from a feature table's classification vectors ``t``.

    The result depends on the classification spec only, so models that
    differ in lags or responses can share one fit (``run_online`` moves the
    centroids; the passes without it do not).
    """
    return fit_auto_k(table.t, threshold=threshold, k_max=k_max, seed=seed)


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
            threshold: float = 0.8, k_max: int = 12) -> "IoHmmModel":
        """Check the records' order, featurize them, discover states on their table, then
        learn it in one pass; refusals come in that order and a refused fit moves nothing."""
        check_chronological(records)
        table = build_features(records, self.config.features)
        fitted = IoHmmModel(self.config, fit_states(table, seed, threshold, k_max))
        learn_tables([fitted], [table])
        vars(self).update(vars(fitted))  # the new states only with what was learned from them
        return self

    def _prior(self) -> PatternStates:
        """The zero-knowledge predictors of a pattern without observations (the
        config's forgetting factors were checked when it was built)."""
        m, config = self.n_responses, self.config
        return PatternStates(AdaptiveState.prior(self.u_dim, m, float(config.lambda_u)),
                             AdaptiveState.prior(self.n_states, m, float(config.lambda_v)))

    def _require_fitted(self) -> None:
        if self.clusters is None or self.dirichlet is None:
            raise ConfigurationError("model has no fitted cluster state; call fit "
                                     "or attach_clusters first")

    def learn_step(self, z, w, y, prev_state: int | None, cur_state: int) -> None:
        """Fold one observed period (pattern, regressors, responses) into the model.

        Continuous updates happen first with the pre-observation counts;
        the pseudo-count for the realized state is incremented afterwards.
        """
        self._require_fitted()
        key, u = self._inputs(z, w)
        y = checked_vector(y, self.n_responses, "y")
        self.dirichlet.check(key, prev_state, cur_state)
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
        key, u = self._inputs(z_next, w_next)
        v = self.dirichlet.expected_state_vector(key, None if begins else state)
        states = self.params.get(key) or self._prior()  # an unseen pattern's is not kept
        return _result(_cold_start(states, self.config.allow_cold_start),
                       (u @ states.u.H, states.u.Sigma), (v @ states.v.H, states.v.Sigma),
                       state=state, pattern=key, begins=begins)

    def _inputs(self, z, w) -> tuple[str, np.ndarray]:
        """The pattern key and regressors ``u = [1, w]`` of one record: ``z`` and ``w``
        must each be one row, ``z``'s cells are checked before any conversion
        (``pattern_key``) and its length is left to the count table."""
        if np.ndim(z) != 1 or np.ndim(w) != 1:
            raise DimensionError("a record's pattern and regressors must each be one row")
        return pattern_key(z), checked_vector(np.concatenate((_INTERCEPT, w)), self.u_dim, "u")

    def _learn(self, key: str, u: np.ndarray, y: np.ndarray,
               prev_state: int | None, cur_state: int) -> tuple[tuple, tuple]:
        """Learn one checked record; the ``(prediction, Sigma)`` each side
        learned against, the moments a forecast of the record blends."""
        states = self.params.get(key)
        if states is None:
            states = self.params[key] = self._prior()
        v = self.dirichlet.expected_state_vector(key, prev_state)
        learned = states.u._update(u, y), states.v._update(v, y)
        self.dirichlet.observe(key, prev_state, cur_state)
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

    def run_online(self, records: Sequence[ProductionRecord],
                   indices: Sequence[int] | None = None) -> list[StepResult]:
        """Interleave forecasting and learning over the records.

        Per processed record: from ``q + 1`` on (position ``q``, the first with
        features, has no featurized predecessor), absorb the record before into
        the state it was classified in and check for a cold start; then classify
        the record and learn from it (from ``q`` on). The forecast is the blend
        of what that learning step predicted before it learned.

        ``indices`` restricts processing to one run of consecutive positions,
        a list, a range or an integer array (else ``DimensionError``); earlier
        records still provide lags and the previous state. Only the processed
        records and the ``max(q, 1)`` before them are featurized, and each row
        is classified once. Returns one entry per processed record; ``forecast``
        is None for warm-up records. ``build_features`` refuses a non-finite
        cell before anything moves; then the first refused cold start or update
        decides the error, and a refused pass puts back what moved.
        """
        self._require_fitted()
        q, clusters = self.config.features.q, self.clusters
        if len(records) <= q:
            raise InsufficientHistoryError(f"need more than q={q} records, got {len(records)}")
        span = _span(indices, len(records))
        if not span:
            return []
        # row r is record offset + r; from `offset` on, the lags and boundary flag of each
        offset = max(0, span.start - max(q, 1))
        table = build_features(records[offset:max(span.stop, q + 1)], self.config.features)
        columns = self._columns(table)
        keys = [pattern_key(table.z[i - offset]) if i >= q else None for i in span]
        w = table.regressors(np.arange(q, len(table.y)), q, columns)  # row r's at r - q
        U, Y = np.concatenate((np.ones((len(w), 1)), w), axis=1), table.y.take(columns, axis=1)
        X = clusters.standardizer.transform(table.t)  # one standardization per row

        def label(r: int) -> int:  # the state of row r
            return int(clusters.nearest(X[r:r + 1])[0])

        results: list[StepResult] = []
        with _AllOrNothing(self, set(keys) - {None}):
            r = span.start - offset
            prev = label(r - 1) if r > 0 else None
            for i, key in zip(span, keys):
                r = i - offset
                begins = bool(table.begins_shift[r])
                forecast = None
                if i > q:
                    clusters.absorb(prev, X[r - 1])
                    cold = _cold_start(self.params.get(key), self.config.allow_cold_start,
                                       f"record {i}: ")
                cur = label(r)
                if i >= q:
                    learned = self._learn(key, U[r - q], Y[r], None if begins else prev, cur)
                    if i > q:
                        forecast = _result(cold, *learned, state=prev, pattern=key,
                                           begins=begins)
                results.append(StepResult(index=i, state=cur, y=Y[r], forecast=forecast))
                prev = cur
        return results

    def snapshot(self) -> dict:
        """The full state: per side (``u``, ``v``), a stack of each field over ``keys``."""
        keys = sorted(self.params)
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "config": self.config.to_dict(),
            "clusters": self.clusters.to_dict() if self.clusters else None,
            "dirichlet": self.dirichlet.to_dict() if self.dirichlet else None,
            "params": {"keys": keys, **{side: state_stacks([getattr(self.params[key], side)
                                                            for key in keys]) for side in "uv"}},
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def restore(cls, doc: dict) -> "IoHmmModel":
        """The model of a ``snapshot`` of this version, each stack checked once,
        whole; any refusal is a ``RestoreError``."""
        try:
            if doc.get("format") != SNAPSHOT_FORMAT:
                raise RestoreError(f"unknown document format {doc.get('format')!r}")
            if doc.get("version") != SNAPSHOT_VERSION:
                raise RestoreError(f"unsupported snapshot version {doc.get('version')!r}: this "
                                   f"opcast reads version {SNAPSHOT_VERSION}; refit the model")
            model = cls(ModelConfig.from_dict(doc["config"]))
            params, keys = doc["params"], doc["params"]["keys"]
            if doc["clusters"] is None and not keys:  # an unfitted model
                return model
            model.attach_clusters(ClusterModel.from_dict(doc["clusters"]))
            table = DirichletTable.from_dict(doc["dirichlet"])
            if ((table.n_states, table.pattern_length)
                    != (model.n_states, model.config.features.pattern_length)):
                raise RestoreError("pseudo-count tables do not match the number "
                                   "of states and the pattern length")
            model.dirichlet, config, m = table, model.config, model.n_responses
            u = restore_states(params["u"], keys, model.u_dim, m, config.lambda_u, "u")
            v = restore_states(params["v"], keys, model.n_states, m, config.lambda_v, "v")
            model.params = dict(zip(table.checked_keys(keys), map(PatternStates, u, v)))
            if model.params.keys() != table.counts.keys():  # learned together, kept together
                raise RestoreError("the predictors' and the pseudo-counts' pattern keys differ")
            return model
        except RestoreError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError, OpcastError) as exc:
            raise RestoreError(f"cannot restore model snapshot: {exc}") from exc

    @classmethod
    def load(cls, path) -> "IoHmmModel":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise RestoreError(f"snapshot is not valid JSON: {exc}") from exc
        return cls.restore(doc)
