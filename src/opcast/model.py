"""Online forecasting model combining two adaptive predictors per pattern.

For every binary conditioning pattern the model keeps two linear models
sharing the same responses: one driven by the continuous regressors
(``u = [1, w]``), one driven by the expected-state probability vector from
the pseudo-count tables. Their forecasts are blended per response with
inverse-variance weights. Hidden states come from clustering; their
dynamics are tracked by the pseudo-counts.

Everything updates online through one learning loop: ``run_online``
interleaves forecasting with learning, ``learn_records`` and
``learn_table`` learn without forecasts. A forecast only reads: the loop
is the one place where a record moves state (its centroid, counts and
predictors). Before any state moves the loop checks the table cells it
reads and, unless cold starts are allowed, that no forecast meets a
pattern without observations; then it runs the trusted cores of
``learn_step``, ``forecast_step`` and ``combine``, which are checked entry
points to them. Every forecast is a ``ForecastResult``, and the full state
can be snapshotted to a plain JSON document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import ClusterModel, fit_auto_k
from .dirichlet import DirichletTable
from .errors import (ConfigurationError, DimensionError, ForecastUnavailableError,
                     InputError, InsufficientHistoryError, NumericError,
                     OpcastError, RestoreError)
from .estimator import AdaptiveState, checked_vector
from .features import (FeatureConfig, FeatureTable, build_features,
                       classification_points, pattern_key)
from .records import ProductionRecord

Z95 = 1.96
_INTERCEPT = np.ones(1)  # leads every regressor vector u = [1, w]

SNAPSHOT_FORMAT = "opcast-model"
SNAPSHOT_VERSION = 1
_COLD = ("no observations for this pattern yet; enable cold starts to "
         "forecast from the zero-knowledge prior")


@dataclass(frozen=True)
class ModelConfig:
    features: FeatureConfig
    lambda_u: float = 0.99
    lambda_v: float = 0.95
    allow_cold_start: bool = False

    def __post_init__(self):
        for name in ("lambda_u", "lambda_v"):
            value = getattr(self, name)
            if not 0.0 < float(value) <= 1.0:
                raise ConfigurationError(f"{name} must lie in (0, 1], got {value}")

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
                   lambda_u=float(doc["lambda_u"]),
                   lambda_v=float(doc["lambda_v"]),
                   allow_cold_start=bool(doc["allow_cold_start"]))


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

    def to_dict(self, response_names: Sequence[str] | None = None) -> dict:
        names = list(response_names) if response_names is not None \
            else [f"y{j}" for j in range(self.y_hat.size)]
        return {
            "y_hat": {name: float(v) for name, v in zip(names, self.y_hat)},
            "intervals": {name: [float(lo), float(hi)]
                          for name, (lo, hi) in zip(names, self.intervals)},
            "weights": {name: float(d) for name, d in zip(names, self.weights)},
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


def combination_weights(sigma_u: np.ndarray, sigma_v: np.ndarray) -> np.ndarray:
    """Per-response blending weight for the regressor-driven forecast.

    The weight is the share of the competing model's variance, so the
    less certain model is down-weighted. When both variances vanish the
    weight is 1/2.
    """
    su, sv = (a.diagonal() if a.ndim == 2 else a.reshape(-1)
              for a in (np.asarray(sigma_u, dtype=float), np.asarray(sigma_v, dtype=float)))
    if su.shape != sv.shape:
        raise DimensionError("variance inputs have mismatched sizes")
    for arr in (su, sv):
        bad = arr < -1e-10
        if bad.any():
            raise NumericError(f"negative variance {arr[bad].min():.3e} in combination")
    return _weights(su, sv)


def _weights(su: np.ndarray, sv: np.ndarray) -> np.ndarray:
    sv = np.maximum(sv, 0.0)
    total = np.maximum(su, 0.0) + sv
    return np.divide(sv, total, out=np.full(su.shape, 0.5), where=total > 0.0)


def combine(u, v, state_u: AdaptiveState, state_v: AdaptiveState,
            allow_cold_start: bool = False) -> ForecastResult:
    """Blend the two per-pattern predictors for one upcoming period."""
    combination_weights(state_u.Sigma, state_v.Sigma)  # raises for bad variances
    return _combine(checked_vector(u, state_u.n_predictors, "u"),
                    checked_vector(v, state_v.n_predictors, "v"),
                    state_u, state_v, allow_cold_start)


def _combine(u: np.ndarray, v: np.ndarray, state_u: AdaptiveState,
             state_v: AdaptiveState, allow_cold_start: bool, **origin) -> ForecastResult:
    """``combine`` of checked vectors and variances; ``origin`` fills the result."""
    cold = state_u.gamma == 0.0 and state_v.gamma == 0.0
    if cold and not allow_cold_start:
        raise ForecastUnavailableError(_COLD)
    sigma_u, sigma_v = state_u.Sigma, state_v.Sigma
    delta = _weights(sigma_u.diagonal(), sigma_v.diagonal())
    rest = 1.0 - delta
    y_hat = delta * (u @ state_u.H) + rest * (v @ state_v.H)
    sigma = delta[:, None] * delta * sigma_u + rest[:, None] * rest * sigma_v
    half = Z95 * np.sqrt(np.maximum(sigma.diagonal(), 0.0))
    intervals = np.stack((y_hat - half, y_hat + half), axis=1)
    return ForecastResult(y_hat=y_hat, sigma=sigma, weights=delta,
                          intervals=intervals, cold_start=cold, **origin)


def _check_reads(table: FeatureTable, offset: int, positions: Sequence[int],
                 first: int, q: int) -> None:
    """Raise for the first non-finite cell the loop over ``positions`` reads:
    ``InputError`` in a classification vector, ``NumericError`` in a learned row's w or y."""
    # the common case: all finite from the first row read on (no lag NaN there)
    lo, fit = positions[0] - offset, max(positions[0], q) - offset
    if (np.isfinite(table.t[max(lo - 1, 0):]).all()
            and np.isfinite(table.w[fit:]).all() and np.isfinite(table.y[fit:]).all()):
        return
    idx = np.asarray(positions)
    r = idx - offset
    learned, forecast = idx >= q, idx >= first
    bad_t = ~np.isfinite(table.t).all(axis=1)
    bad_w = ~np.isfinite(table.w).all(axis=1)[r]
    reads_prev = forecast | learned & ~table.begins_shift[r]
    bad_input = bad_t[r] | reads_prev & bad_t[r - 1]
    bad_numeric = learned & (bad_w | ~np.isfinite(table.y).all(axis=1)[r])
    bad = np.flatnonzero(bad_input | bad_numeric)
    if bad.size:
        p = bad[0]
        # a forecast reads the row before, then the regressors, then classifies
        if bad_input[p] and not (forecast[p] and bad_w[p] and not bad_t[r[p] - 1]):
            raise InputError(f"classification vector read at record {idx[p]} "
                             "contains non-finite values")
        raise NumericError(f"regressors or responses of record {idx[p]} "
                           "contain non-finite values")


def fit_states(records: Sequence[ProductionRecord], features: FeatureConfig,
               seed: int = 0, threshold: float = 0.8, k_min: int = 2,
               k_max: int = 12) -> ClusterModel:
    """Discover the hidden states from the records' classification vectors.

    The result depends on the classification spec only, so models that
    differ in lags or responses can share one fit (each needs its own
    copy: ``run_online`` moves the centroids).
    """
    return fit_auto_k(classification_points(records, features), threshold=threshold,
                      k_min=k_min, k_max=k_max, seed=seed)


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
        """Discover states on the records, then learn them in one pass."""
        self.attach_clusters(fit_states(records, self.config.features, seed=seed,
                                        threshold=threshold, k_min=k_min,
                                        k_max=k_max))
        self.learn_records(records)
        return self

    # -- pattern state access ------------------------------------------------

    def _states_for(self, key: str) -> PatternStates:
        states = self.params.get(key)
        if states is None:
            states = self.params[key] = self._prior()
        return states

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
        self._learn(key, u, y, prev_state, cur_state)

    def forecast_step(self, t_prev, z_next, w_next, begins: bool) -> ForecastResult:
        """Forecast the next period from the last classified one; a pure read.

        The previous period's state is the centroid nearest to ``t_prev``.
        Nothing moves: ``run_online`` absorbs ``t_prev`` into that centroid
        just before it forecasts, and a caller that streams step by step
        does so with ``clusters.update_centroid(result.state, t_prev)``.
        """
        self._require_fitted()
        x_prev = self.clusters.standardized(t_prev)
        z_next = np.asarray(z_next, dtype=float).reshape(-1)
        if z_next.shape != (self.config.features.pattern_length,):
            raise DimensionError(
                f"pattern must have length {self.config.features.pattern_length}")
        u = checked_vector(np.concatenate((_INTERCEPT, np.ravel(w_next))), self.u_dim, "u")
        state = int(self.clusters.nearest(x_prev[None])[0])
        return self._forecast(state, pattern_key(z_next), u, begins)

    def _learn(self, key: str, u: np.ndarray, y: np.ndarray,
               prev_state: int | None, cur_state: int) -> None:
        states = self._states_for(key)
        v = self.dirichlet.expected_state_vector(key, prev_state)
        states.u._update(u, y)
        states.v._update(v, y)
        if prev_state is None:
            self.dirichlet.observe_initial(key, cur_state)
        else:
            self.dirichlet.observe_transition(key, prev_state, cur_state)

    def _forecast(self, state: int, key: str, u: np.ndarray, begins: bool) -> ForecastResult:
        """The forecast after a period in ``state``; reads only (an unseen
        pattern blends the zero-knowledge prior, which is not kept)."""
        states = self.params.get(key) or self._prior()
        v = self.dirichlet.expected_state_vector(key, None if begins else state)
        return _combine(u, v, states.u, states.v, self.config.allow_cold_start,
                        state=state, pattern=key, begins=begins)

    def learn_records(self, records: Sequence[ProductionRecord]) -> None:
        """Single learning pass over chronologically sorted records."""
        self._require_fitted()
        self.learn_table(build_features(records, self.config.features))

    def learn_table(self, table: FeatureTable) -> None:
        """``learn_records`` of a table built for this model's feature config."""
        self._require_fitted()
        fc, n = self.config.features, len(table.y)
        if n <= fc.q:
            raise InsufficientHistoryError(f"need more than q={fc.q} records, got {n}")
        widths = (fc.pattern_length, fc.w_dim, len(fc.t_spec), fc.n_responses)
        if ([a.shape for a in (table.z, table.w, table.t, table.y)]
                != [(n, d) for d in widths] or table.begins_shift.shape != (n,)):
            raise DimensionError("table shape does not match the model's feature config")
        self._pass(table, 0, range(n), n)

    def run_online(self, records: Sequence[ProductionRecord],
                   forecast_from: int | None = None,
                   indices: Sequence[int] | None = None) -> list[StepResult]:
        """Interleave forecasting and learning over the records.

        Per processed record: forecast it from the previous record (when a
        lag history exists), classify it, learn from it. The earliest
        forecastable position is ``q + 1``: position ``q`` is the first
        with features and it has no featurized predecessor.

        ``indices`` restricts processing to a sub-range (it must be
        increasing); earlier records still provide lags and previous-state
        labels. Only the processed records and the ``max(q, 1)`` before
        them are featurized. Returns one entry per processed record;
        ``forecast`` is None for warm-up records.
        """
        self._require_fitted()
        fc = self.config.features
        if len(records) <= fc.q:
            raise InsufficientHistoryError(
                f"need more than q={fc.q} records, got {len(records)}")
        if indices is None:
            positions: Sequence[int] = range(len(records))
        else:
            positions = [int(i) for i in indices]
            if any(not 0 <= i < len(records) for i in positions):
                raise DimensionError("indices outside the record range")
            if any(b <= a for a, b in zip(positions, positions[1:])):
                raise DimensionError("indices must be strictly increasing")
            if not positions:
                return []
        first = fc.q + 1 if forecast_from is None else max(forecast_from, fc.q + 1)
        # rows from `start` on: the lags and boundary flag of every position
        start = max(0, positions[0] - max(fc.q, 1))
        table = build_features(records[start:max(positions[-1], fc.q) + 1], fc)
        return self._pass(table, start, positions, first)

    def _pass(self, table: FeatureTable, offset: int, positions: Sequence[int],
              first: int) -> list[StepResult]:
        """The one learning loop; row ``r`` of ``table`` is record ``offset + r``.

        Per position: from ``first`` on, classify the row before, absorb it
        into its centroid and forecast the record; then classify the
        record and learn from it (from ``q`` on). Nothing moves before
        every read and every forecast is known to succeed.
        """
        q, clusters = self.config.features.q, self.clusters
        _check_reads(table, offset, positions, first, q)
        keys = [pattern_key(table.z[i - offset]) if i >= q else None for i in positions]
        if not self.config.allow_cold_start:
            warm = {key for key, st in self.params.items() if st.u.gamma or st.v.gamma}
            for i, key in zip(positions, keys):
                if i >= first and key not in warm:
                    raise ForecastUnavailableError(f"record {i}: {_COLD}")
                warm.add(key)  # learned from q on; before q the key is None
        X = clusters.standardizer.transform(table.t)  # one standardization per row
        # before the first forecast no centroid moves: one labelling holds
        labels = clusters.nearest(X).tolist() if positions[0] < first else None
        U = np.concatenate((np.ones((len(table.w), 1)), table.w), axis=1)
        results: list[StepResult] = []
        for i, key in zip(positions, keys):
            r = i - offset
            begins = bool(table.begins_shift[r])
            forecast = None
            if i >= first:
                state = int(clusters.nearest(X[r - 1:r])[0])
                clusters.absorb(state, X[r - 1])
                forecast = self._forecast(state, key, U[r], begins)
                cur = int(clusters.nearest(X[r:r + 1])[0])
            else:
                cur = labels[r]
            if i >= q:
                prev = None if begins else labels[r - 1] if forecast is None \
                    else forecast.state
                self._learn(key, U[r], table.y[r], prev, cur)
            results.append(StepResult(index=i, state=cur, y=table.y[r],
                                      forecast=forecast))
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
