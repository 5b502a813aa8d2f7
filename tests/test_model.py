import contextlib
import copy
import datetime as dt
import json
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import opcast.model
from opcast import (AdaptiveState, ClusterModel, ConditioningWarning,
                    ConfigurationError, DimensionError, DirichletTable, FeatureConfig,
                    ForecastUnavailableError, InputError, InsufficientHistoryError,
                    IoHmmModel, ModelConfig, NumericError, OpcastError, OrderingError,
                    RestoreError, Standardizer, StateIndexError, SyntheticSpec, build_features,
                    ThresholdWarning, classification_vector, combine,
                    default_feature_config, fit_states, generate_synthetic,
                    leave_one_week_out, pattern_key)
from opcast.estimator import state_stacks
from opcast.model import PatternStates, _Chain, _walk_counts, learn_tables, walk_tables

from conftest import build_stream, featurizing_reads


def _feature_config(q=1, t_spec=("OpT",)):
    return FeatureConfig(response_names=("OpT", "NOpT"),
                         z_spec=("shift_code==M", "shift_code==A",
                                 "shift_code==N"),
                         w_spec=("ics", "@begins_shift"),
                         t_spec=t_spec, q=q)


def _manual_clusters(centroids, counts=None):
    centroids = np.asarray(centroids, dtype=float)
    if counts is None:
        counts = np.ones(centroids.shape[0])
    return ClusterModel(K=centroids.shape[0], centroids=centroids.copy(),
                        counts=np.asarray(counts, dtype=float),
                        standardizer=Standardizer(
                            mean=np.zeros(centroids.shape[1]),
                            scale=np.ones(centroids.shape[1])),
                        gof=1.0, reached_threshold=True)


def _model(q=1, t_spec=("OpT",), centroids=((0.0,), (10.0,)), **cfg):
    config = ModelConfig(features=_feature_config(q=q, t_spec=t_spec), **cfg)
    return IoHmmModel(config, clusters=_manual_clusters(centroids))


def _learn(model, records):
    """A learning pass without forecasts, as ``fit`` runs one."""
    learn_tables([model], [build_features(records, model.config.features)])


def _w(table, i, q=1):
    """The regressors of record ``i``: ``w`` and ``q`` lags of the table's
    responses, lag-major, gathered row by row."""
    return np.concatenate([table.w[i]] + [table.y[i - j] for j in range(1, q + 1)])


def _row(table, i, q=1):
    """(z, w, y) of one record position, the learn_step inputs at lag order ``q``."""
    return table.z[i], _w(table, i, q), table.y[i]


def _set_state(doc, key, side, **fields) -> None:
    """Set fields of one pattern's ``side`` state in a snapshot document."""
    i = doc["params"]["keys"].index(key)
    for name, value in fields.items():
        doc["params"][side][name][i] = value


def _negative_definite(model, key, side="u"):
    """``model`` restored with pattern ``key``'s ``side`` P at -10 I, so that its
    next update there is refused (a v vector's squared norm is at most 1)."""
    doc = model.snapshot()
    _set_state(doc, key, side, P=(-10.0 * np.eye(len(doc["params"][side]["P"][0]))).tolist())
    return IoHmmModel.restore(doc)


def _weights(sigma_u, sigma_v):
    """The blending weights ``combine`` gives predictors with these noise
    covariances (a vector: its diagonal)."""
    states = []
    for sigma in (sigma_u, sigma_v):
        sigma = np.asarray(sigma, dtype=float)
        states.append(AdaptiveState(1, len(sigma), forgetting=1.0))
        states[-1].Sigma = sigma if sigma.ndim == 2 else np.diag(sigma)
    return combine([1.0], [1.0], *states, allow_cold_start=True).weights


class TestCombinationWeights:
    def test_share_of_competing_variance(self):
        d = _weights(np.array([1.0, 4.0]), np.array([3.0, 4.0]))
        np.testing.assert_allclose(d, [0.75, 0.5])

    def test_matrix_inputs_use_diagonals(self):
        su = np.array([[1.0, 9.0], [9.0, 4.0]])
        sv = np.array([[3.0, -2.0], [-2.0, 12.0]])
        np.testing.assert_allclose(_weights(su, sv),
                                   [0.75, 0.75])

    def test_both_zero_is_a_half(self):
        np.testing.assert_allclose(
            _weights(np.zeros(2), np.zeros(2)), [0.5, 0.5])

    def test_one_zero_takes_all_weight(self):
        np.testing.assert_allclose(
            _weights(np.array([0.0]), np.array([2.0])), [1.0])
        np.testing.assert_allclose(
            _weights(np.array([2.0]), np.array([0.0])), [0.0])

    def test_rounding_noise_clipped_but_real_negative_raises(self):
        d = _weights(np.array([-1e-12]), np.array([1.0]))
        np.testing.assert_allclose(d, [1.0])
        with pytest.raises(NumericError):
            _weights(np.array([-1e-6]), np.array([1.0]))

    def test_mismatched_sizes(self):
        with pytest.raises(DimensionError):
            _weights(np.zeros(2), np.zeros(3))


class TestCombine:
    def _state(self, H, Sigma, gamma=5.0):
        H = np.asarray(H, dtype=float)
        state = AdaptiveState(H.shape[0], H.shape[1], forgetting=1.0)
        state.H = H
        state.Sigma = np.asarray(Sigma, dtype=float)
        state.gamma = gamma
        return state

    def test_blend_is_variance_weighted(self):
        su = self._state([[2.0], [0.0]], [[1.0]])
        sv = self._state([[4.0], [0.0]], [[3.0]])
        out = combine([1.0, 0.0], [1.0, 0.0], su, sv)
        # delta = 3/4: y = 0.75*2 + 0.25*4 = 2.5
        np.testing.assert_allclose(out.weights, [0.75])
        np.testing.assert_allclose(out.y_hat, [2.5])
        # blended variance: 0.75^2*1 + 0.25^2*3 = 0.75
        np.testing.assert_allclose(out.sigma, [[0.75]])
        sd = np.sqrt(0.75)
        np.testing.assert_allclose(out.intervals,
                                   [[2.5 - 1.96 * sd, 2.5 + 1.96 * sd]])
        assert not out.cold_start

    def test_blended_variance_never_exceeds_either_source(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            a, b = rng.uniform(0.01, 5.0, size=2)
            su = self._state([[0.0]], [[a]])
            sv = self._state([[0.0]], [[b]])
            out = combine([1.0], [1.0], su, sv)
            assert out.sigma[0, 0] <= min(a, b) + 1e-12

    def test_cold_start_blocked_then_allowed(self):
        su = self._state([[0.0]], [[0.0]], gamma=0.0)
        sv = self._state([[0.0]], [[0.0]], gamma=0.0)
        with pytest.raises(ForecastUnavailableError):
            combine([1.0], [1.0], su, sv)
        out = combine([1.0], [1.0], su, sv, allow_cold_start=True)
        assert out.cold_start
        np.testing.assert_allclose(out.y_hat, [0.0])

    def test_one_sided_knowledge_is_not_cold(self):
        su = self._state([[3.0]], [[1.0]], gamma=2.0)
        sv = self._state([[0.0]], [[0.0]], gamma=0.0)
        out = combine([1.0], [1.0], su, sv)
        assert not out.cold_start
        # the empty competitor has zero variance, so it takes the weight
        np.testing.assert_allclose(out.weights, [0.0])
        np.testing.assert_allclose(out.y_hat, [0.0])


class TestModelConfig:
    def test_forgetting_bounds(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(features=_feature_config(), lambda_u=0.0)
        with pytest.raises(ConfigurationError):
            ModelConfig(features=_feature_config(), lambda_v=1.5)

    @pytest.mark.parametrize("name, value", [
        ("lambda_u", "0.9"), ("lambda_u", True), ("allow_cold_start", "no"),
        ("allow_cold_start", 0), ("q", True)])
    def test_refuses_what_a_snapshot_cannot_restore(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            if name == "q":
                replace(_feature_config(), **{name: value})
            else:
                ModelConfig(features=_feature_config(), **{name: value})

    def test_dict_roundtrip(self):
        cfg = ModelConfig(features=_feature_config(), lambda_u=0.98,
                          lambda_v=0.9, allow_cold_start=True)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestLearnStep:
    def test_counts_increment_after_continuous_updates(self):
        model = _model(q=1, lambda_u=1.0, lambda_v=1.0)
        records = build_stream([{"OpT": 6.0}, {"OpT": 7.0}])
        table = build_features(records, model.config.features)
        model.learn_step(*_row(table, 1), prev_state=None, cur_state=1)
        # the state-driven update must see the pre-observation uniform
        # probabilities [0.5, 0.5]: H row 0 = 0.5 * y / (1 + 0.5)
        y = table.y[1]
        np.testing.assert_allclose(model.params["100"].v.H[0], y / 3.0)
        # and only afterwards the count moves to [1.5, 0.5]
        np.testing.assert_array_equal(
            model.dirichlet.count_rows("100")[0], [1.5, 0.5])

    def test_transition_vs_initial_dispatch(self):
        model = _model()
        records = build_stream([{"OpT": 6.0}, {"OpT": 7.0}, {"OpT": 8.0}])
        table = build_features(records, model.config.features)
        model.learn_step(*_row(table, 1), None, 2)
        model.learn_step(*_row(table, 2), 2, 1)
        np.testing.assert_array_equal(
            model.dirichlet.count_rows("100")[0], [0.5, 1.5])
        expected = np.full((2, 2), 0.5)
        expected[1, 0] += 1.0
        np.testing.assert_array_equal(
            model.dirichlet.count_rows("100")[1:], expected)

    def test_regressor_dimension_checked(self):
        model = _model(q=1)
        records = build_stream([{}, {}])
        table = build_features(records, _feature_config(q=0))
        with pytest.raises(DimensionError):
            model.learn_step(*_row(table, 0, q=0), None, 1)

    def test_rejected_call_moves_nothing(self):
        model = _model()
        records = build_stream([{"OpT": 6.0}, {"OpT": 7.0}])
        z, w, y = _row(build_features(records, model.config.features), 1)
        model.learn_step(z, w, y, None, 1)
        nan_w, inf_y = np.where([True] + [False] * (len(w) - 1), np.nan, w), y + [0, np.inf]
        before = model.to_json()
        for args, error in (((z, w[:-1], y, 1, 2), DimensionError),
                            (([2.0, 0.0, 0.0], w, y, 1, 2), ConfigurationError),
                            (([1.0, 0.0], w, y, 1, 2), ConfigurationError),
                            (([1.0, 0.0, 0.0, 0.0], w, y, 1, 2), ConfigurationError),
                            ((z, nan_w, y, 1, 2), NumericError),
                            ((z, w, inf_y, 1, 2), NumericError),
                            ((z, w, y[:1], 1, 2), DimensionError),
                            ((z, w, y, 0, 2), StateIndexError),
                            ((z, w, y, 1.5, 2), StateIndexError),
                            ((z, w, y, 1, 5), StateIndexError),
                            ((z, w, y, None, 0), StateIndexError),
                            (([0.0, 1.0, 0.0], w, y, 1, 3), StateIndexError),
                            (([0.0, 1.0, 0.0], w, y, None, 3), StateIndexError),
                            (([0.0, 0.0, 1.0], w, y, 9, 1), StateIndexError),
                            (([1.0, 0.0], w, y, 1, 5), ConfigurationError),
                            ((z, w, [np.nan, 1.0], 0, 1), NumericError)):
            with pytest.raises(error):
                model.learn_step(*args)
            assert model.to_json() == before, (args, error)

    def test_a_refused_update_moves_nothing(self):
        # restore keeps a symmetric indefinite P; the gain guard refuses the
        # update of v after u has taken its own
        model = _model()
        records = build_stream([{"OpT": 6.0}, {"OpT": 7.0}, {"OpT": 8.0}])
        table = build_features(records, model.config.features)
        model.learn_step(*_row(table, 1), None, 1)
        doc = model.snapshot()
        _set_state(doc, "100", "v", P=(-10.0 * np.eye(2)).tolist())
        model = IoHmmModel.restore(doc)
        before = model.to_json()
        with pytest.raises(NumericError, match="not positive"):
            model.learn_step(*_row(table, 2), 1, 2)
        assert model.to_json() == before

    @pytest.mark.parametrize("cell", [float("nan"), float("inf")])
    def test_a_non_finite_pattern_cell_is_refused(self, cell):
        # refused as a configuration error, before any state moves
        model = _model(allow_cold_start=True)
        table = build_features(build_stream([{"OpT": 6.0}, {"OpT": 7.0}, {"OpT": 8.0}]),
                               model.config.features)
        model.learn_step(*_row(table, 1), None, 1)
        before = model.to_json()
        with pytest.raises(ConfigurationError, match="0 or 1"):
            model.learn_step([cell, 0.0, 0.0], _w(table, 2), table.y[2], 1, 2)
        with pytest.raises(ConfigurationError, match="0 or 1"):
            model.forecast_step([6.0], [cell, 0.0, 0.0], _w(table, 2), False)
        z = table.z.copy()
        z[2, 0] = cell
        with pytest.raises(ConfigurationError, match="0 or 1"):
            learn_tables([model], [replace(table, z=z)])
        assert model.to_json() == before

    def test_requires_clusters(self):
        model = IoHmmModel(ModelConfig(features=_feature_config()))
        records = build_stream([{}, {}])
        table = build_features(records, _feature_config())
        with pytest.raises(ConfigurationError):
            model.learn_step(*_row(table, 1), None, 1)
        with pytest.raises(ConfigurationError, match="no cluster model attached"):
            model.n_states


class TestForecastStep:
    def test_state_lookup_happens_before_centroid_update(self):
        model = _model(centroids=((0.0,), (10.0,)), lambda_u=1.0,
                       lambda_v=1.0, allow_cold_start=True)
        records = build_stream([{"OpT": 6.0}, {"OpT": 7.0}])
        table = build_features(records, model.config.features)
        before = model.to_json()
        out = model.forecast_step([6.0], table.z[1], _w(table, 1),
                                  bool(table.begins_shift[1]))
        # nearest centroid to 6.0 is 10.0 (distance 4 vs 6)
        assert out.state == 2
        # and a forecast moves nothing: no centroid absorbs the point
        np.testing.assert_allclose(model.clusters.centroids[1], [10.0])
        np.testing.assert_allclose(model.clusters.centroids[0], [0.0])
        assert model.clusters.counts[1] == 1.0
        assert model.to_json() == before

    def test_leaves_the_model_unchanged(self):
        model = _model(allow_cold_start=True)
        records = build_stream([{"OpT": 6.0}, {"OpT": 7.0}, {"OpT": 8.0}])
        table = build_features(records, model.config.features)
        model.learn_step(*_row(table, 1), None, 1)
        before = model.to_json()
        known = model.forecast_step([6.0], table.z[2], _w(table, 2), False)
        assert not known.cold_start
        # an unseen pattern blends the zero-knowledge prior and keeps no entry
        cold = model.forecast_step([6.0], [0.0, 1.0, 0.0], _w(table, 2), False)
        assert cold.cold_start and cold.pattern == "010"
        np.testing.assert_array_equal(cold.y_hat, [0.0, 0.0])
        assert model.to_json() == before
        assert sorted(model.params) == model.dirichlet.patterns == ["100"]

    def test_cold_start_policy(self):
        records = build_stream([{"OpT": 6.0}, {"OpT": 7.0}])
        table = build_features(records, _feature_config())
        z, w, begins = table.z[1], _w(table, 1), bool(table.begins_shift[1])
        model = _model()
        with pytest.raises(ForecastUnavailableError):
            model.forecast_step([6.0], z, w, begins)
        model = _model(allow_cold_start=True)
        out = model.forecast_step([6.0], z, w, begins)
        assert out.cold_start
        np.testing.assert_allclose(out.y_hat, [0.0, 0.0])
        np.testing.assert_allclose(out.intervals, 0.0)

    def test_refused_cold_start_moves_nothing(self):
        model = _model()
        records = build_stream([{"OpT": 6.0}, {"OpT": 7.0}, {"OpT": 8.0}])
        table = build_features(records, model.config.features)
        model.learn_step(*_row(table, 1), None, 1)
        # a pattern with no entry, then one whose entry has seen nothing yet
        before = model.to_json()
        with pytest.raises(ForecastUnavailableError):
            model.forecast_step([6.0], [0.0, 1.0, 0.0], _w(table, 2), False)
        assert model.to_json() == before
        model.config = replace(model.config, allow_cold_start=True)
        model.forecast_step([6.0], [0.0, 0.0, 1.0], _w(table, 2), False)
        model.config = replace(model.config, allow_cold_start=False)
        assert "001" not in model.params and "001" not in model.dirichlet.patterns
        assert model.to_json() == before
        with pytest.raises(ForecastUnavailableError):
            model.forecast_step([6.0], [0.0, 0.0, 1.0], _w(table, 2), True)
        assert model.to_json() == before
        # a known pattern still forecasts, and moves nothing either
        model.forecast_step([6.0], table.z[2], _w(table, 2), False)
        assert model.to_json() == before

    def test_begins_switches_to_initial_counts(self):
        model = _model(allow_cold_start=True, lambda_u=1.0, lambda_v=1.0)
        records = build_stream([{"OpT": 6.0}, {"OpT": 7.0}, {"OpT": 8.0}])
        table = build_features(records, model.config.features)
        model.learn_step(*_row(table, 1), None, 1)
        model.learn_step(*_row(table, 2), 1, 2)
        z, w = table.z[2], _w(table, 2)

        v_cont = model.dirichlet.expected_state_vector("100", 1)
        v_init = model.dirichlet.expected_state_vector("100", None)
        assert not np.allclose(v_cont, v_init)

        out = model.forecast_step([0.1], z, w, begins=False)
        v_state = model.params["100"].v
        np.testing.assert_allclose(
            out.y_hat, out.weights * ([1.0, *w] @ model.params["100"].u.H)
            + (1 - out.weights) * (v_cont @ v_state.H))

        out2 = model.forecast_step([0.1], z, w, begins=True)
        np.testing.assert_allclose(
            out2.y_hat, out2.weights * ([1.0, *w] @ model.params["100"].u.H)
            + (1 - out2.weights) * (v_init @ v_state.H))

    def test_standardizes_t_prev_once(self, monkeypatch):
        calls = []
        standardized = ClusterModel.standardized

        def counting(clusters, t):
            calls.append(t)
            return standardized(clusters, t)

        monkeypatch.setattr(ClusterModel, "standardized", counting)
        model = _model(allow_cold_start=True)
        records = build_stream([{"OpT": 6.0}, {"OpT": 7.0}])
        table = build_features(records, model.config.features)
        before = model.to_json()
        for n in range(1, 4):
            out = model.forecast_step([6.0], table.z[1], _w(table, 1), False)
            assert len(calls) == n
            assert out.state == 2
        # 6 is nearer to centroid 10 every time, and no centroid moved
        np.testing.assert_allclose(model.clusters.centroids[1], [10.0])
        assert model.to_json() == before

    def test_rejected_input_moves_nothing(self):
        model = _model(allow_cold_start=True)
        records = build_stream([{"OpT": 6.0}, {"OpT": 7.0}])
        table = build_features(records, model.config.features)
        before = model.to_json()
        for t_prev, w in (([np.nan], _w(table, 1)), ([6.0], [np.nan, 0.0, 1.0, 1.0]),
                          ([6.0], _w(table, 1)[:2])):
            with pytest.raises(OpcastError):
                model.forecast_step(t_prev, table.z[1], w, False)
        assert model.to_json() == before


class TestOneInputRule:
    """``learn_step`` and ``forecast_step`` take a record's ``z`` and ``w`` by one rule."""

    @pytest.mark.parametrize("bad, error", [
        (lambda z, w: (z[None], w), DimensionError),
        (lambda z, w: (z, w[None]), DimensionError),
        (lambda z, w: (["1", "0", "0"], w), ConfigurationError),
        (lambda z, w: (z[:2], w), ConfigurationError),
        (lambda z, w: ([np.nan, 0.0, 0.0], w), ConfigurationError),
        (lambda z, w: (z, np.where(np.arange(len(w)) == 1, np.nan, w)), NumericError),
        (lambda z, w: (z, [str(v) for v in w]), InputError),
        (lambda z, w: (z, np.array([str(v) for v in w], dtype=object)), InputError),
        (lambda z, w: (z, [None] + list(w[1:])), NumericError),
    ], ids=["(1, L) pattern", "(1, w_dim) regressor row", "string pattern cells",
            "short pattern", "NaN pattern cell", "NaN regressor cell",
            "string regressor cells", "object array of string regressor cells",
            "None regressor cell"])
    def test_both_steps_refuse_alike_and_move_nothing(self, bad, error):
        model = _model(allow_cold_start=True)
        table = build_features(build_stream([{"OpT": 6.0}, {"OpT": 7.0}, {"OpT": 8.0}]),
                               model.config.features)
        model.learn_step(*_row(table, 1), None, 1)
        z, w = bad(table.z[2], _w(table, 2))
        before = model.to_json()
        for step in (lambda: model.learn_step(z, w, table.y[2], 1, 2),
                     lambda: model.forecast_step([6.0], z, w, False)):
            with pytest.raises(OpcastError) as refused:
                step()
            assert refused.type is error, refused.value
            assert model.to_json() == before


class TestTextCells:
    """The numeric cells of the record API refuse text, which ``float`` would parse."""

    def test_learn_step_refuses_string_responses(self):
        model = _model(allow_cold_start=True)
        table = build_features(build_stream([{"OpT": 6.0}, {"OpT": 7.0}]), model.config.features)
        z, w, y = _row(table, 1)
        before = model.to_json()
        with pytest.raises(InputError):
            model.learn_step(z, w, [str(v) for v in y], None, 1)
        with pytest.raises(NumericError):
            model.learn_step(z, w, [None] * len(y), None, 1)
        assert model.to_json() == before

    def test_forecast_step_refuses_a_string_classification_vector(self):
        model = _model(allow_cold_start=True)
        table = build_features(build_stream([{"OpT": 6.0}, {"OpT": 7.0}]), model.config.features)
        for t_prev in (["6.0"], np.array(["6.0"], dtype=object)):
            with pytest.raises(InputError, match="not real numbers"):
                model.forecast_step(t_prev, table.z[1], _w(table, 1), False)
        with pytest.raises(InputError, match="non-finite"):  # as a NaN is refused
            model.forecast_step([None], table.z[1], _w(table, 1), False)
        assert model.forecast_step([6.0], table.z[1], _w(table, 1), False).state == 2

    @pytest.mark.parametrize("u, v, error", [
        (["1.0"], [1.0], InputError), ([1.0], [b"1.0"], InputError),
        (np.array(["1.0"], dtype=object), [1.0], InputError), ([None], [1.0], NumericError)])
    def test_combine_refuses_string_cells(self, u, v, error):
        states = [AdaptiveState(1, 1, forgetting=1.0) for _ in range(2)]
        with pytest.raises(error):
            combine(u, v, *states, allow_cold_start=True)


class TestRunOnline:
    def _records(self, n=30, seed=0):
        rng = np.random.default_rng(seed)
        steps = []
        shifts = ["M", "A", "N"]
        for i in range(n):
            steps.append({"shift": f"Mo {shifts[(i // 4) % 3]}",
                          "OpT": 6.0 + rng.uniform(0.0, 2.0),
                          "pr_ord": 300 + i // 7})
        return build_stream(steps)

    def test_forecast_count_and_warmup(self):
        records = self._records(30)
        model = _model(q=2, allow_cold_start=True)
        results = model.run_online(records)
        assert len(results) == 30
        missing = [r.index for r in results if r.forecast is None]
        assert missing == [0, 1, 2]
        assert sum(r.forecast is not None for r in results) == 30 - 2 - 1

    def test_matches_manual_replay(self):
        records = self._records(25, seed=3)
        fc = _feature_config(q=1)
        auto = _model(q=1, allow_cold_start=True, lambda_u=0.99,
                      lambda_v=0.95)
        manual = _model(q=1, allow_cold_start=True, lambda_u=0.99,
                        lambda_v=0.95)
        results = auto.run_online(records)

        table = build_features(records, fc)
        label = {}
        got = []
        for i, rec in enumerate(records):
            begins = bool(table.begins_shift[i])
            if i >= 2:
                t_prev = classification_vector(records[i - 1], fc)
                got.append(manual.forecast_step(t_prev, table.z[i], _w(table, i),
                                                begins))
                manual.clusters.update_centroid(got[-1].state, t_prev)
            cur = manual.clusters.assign(classification_vector(rec, fc))
            if i >= fc.q:
                prev = None if begins else label[i - 1]
                manual.learn_step(*_row(table, i), prev, cur)
            label[i] = cur

        auto_fc = [r.forecast for r in results if r.forecast is not None]
        assert len(auto_fc) == len(got)
        for a, b in zip(auto_fc, got):
            np.testing.assert_array_equal(a.y_hat, b.y_hat)
            np.testing.assert_array_equal(a.sigma, b.sigma)
            assert a.state == b.state and a.pattern == b.pattern

    def test_index_subrange_forecasts_like_full_run(self):
        records = self._records(24, seed=5)
        full = _model(q=1, allow_cold_start=True)
        part = _model(q=1, allow_cold_start=True)
        res_full = full.run_online(records)
        res_head = part.run_online(records, indices=range(12))
        res_tail = part.run_online(records, indices=range(12, 24))
        tail_full = [r for r in res_full if r.index >= 12]
        assert [r.index for r in res_head + res_tail] == \
            [r.index for r in res_full]
        for a, b in zip(res_tail, tail_full):
            assert a.state == b.state
            if a.forecast is None:
                assert b.forecast is None
            else:
                np.testing.assert_array_equal(a.forecast.y_hat,
                                              b.forecast.y_hat)

    def test_index_validation(self):
        records = self._records(10)
        model = _model(allow_cold_start=True)
        with pytest.raises(DimensionError):
            model.run_online(records, indices=[3, 2])
        with pytest.raises(DimensionError):
            model.run_online(records, indices=[5, 50])

    @pytest.mark.parametrize("indices", [
        [8, 13], [3, 4, 6], range(2, 8, 2), range(5, 2, -1), [2.0, 3.0], (2, 3), 4,
        np.array([[2, 3]]), np.array([2.0, 3.0]), [-1, 0], range(18, 21)])
    def test_anything_but_a_run_of_consecutive_records_is_refused(self, indices):
        records = self._records(20)
        model = _model(allow_cold_start=True)
        _learn(model, records[:4])
        before = model.to_json()
        with pytest.raises(DimensionError):
            model.run_online(records, indices=indices)
        assert model.to_json() == before

    @pytest.mark.parametrize("indices", [[4, 5, 6], range(4, 7), np.arange(4, 7),
                                         np.array([4, 5, 6], dtype=np.uint8)])
    def test_a_run_is_a_list_a_range_or_an_integer_array(self, indices):
        records = self._records(10)
        model = _model(allow_cold_start=True)
        steps = model.run_online(records, indices=indices)
        assert [st.index for st in steps] == [4, 5, 6]

    def test_each_row_is_classified_once(self, monkeypatch):
        # a batch of N records classifies them and the row before the first,
        # N + 1 rows; a streamed record classifies itself and the row before
        records = self._records(30, seed=3)
        batch, stream = _model(allow_cold_start=True), _model(allow_cold_start=True)
        calls, nearest = [], ClusterModel.nearest

        def counting(clusters, X):
            calls.append(len(X))
            return nearest(clusters, X)

        monkeypatch.setattr(ClusterModel, "nearest", counting)
        batch.run_online(records, indices=range(10, 30))
        assert calls == [1] * 21
        for i in range(10, 30):
            calls.clear()
            stream.run_online(records[i - 2:i + 1], indices=[2])
            assert calls == [1, 1]
        assert batch.to_json() == stream.to_json()

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_featurizes_only_the_processed_records(self, q, monkeypatch):
        records = self._records(30, seed=2)
        lengths = []

        def recording(recs, config):
            lengths.append(len(recs))
            return build_features(recs, config)

        model = _model(q=q, allow_cold_start=True)
        _learn(model, records[:20])
        monkeypatch.setattr(opcast.model, "build_features", recording)
        steps = model.run_online(records, indices=range(20, 26))
        assert lengths == [6 + max(q, 1)]
        assert [st.index for st in steps] == list(range(20, 26))
        assert all(st.forecast is not None for st in steps)

    @pytest.mark.parametrize("q", [1, 2])
    def test_a_streamed_record_reads_its_counts_once(self, q, monkeypatch):
        # a learned record's forecast is what its learning step predicted,
        # so the forecast and the learning share one read of the counts
        records = self._records(30, seed=6)
        model = _model(q=q, allow_cold_start=True)
        _learn(model, records[:15])
        reads, read = [], DirichletTable.expected_state_vector

        def counting(table, *args):
            reads.append(args)
            return read(table, *args)

        monkeypatch.setattr(DirichletTable, "expected_state_vector", counting)
        steps = [model.run_online(records[i - q - 1:i + 1], indices=[q + 1])[0]
                 for i in range(15, 30)]
        assert all(st.forecast is not None for st in steps)
        assert len(reads) == len(steps)

    def test_short_lists_raise(self):
        records = self._records(10)
        model = _model(q=2, allow_cold_start=True)
        for short in ([], records[:1], records[:2]):
            with pytest.raises(InsufficientHistoryError):
                model.run_online(short)
            with pytest.raises(InsufficientHistoryError):
                _learn(model, short)
        with pytest.raises(InsufficientHistoryError):
            model.run_online(records[:2], indices=[])
        assert model.run_online(records, indices=[]) == []
        assert model.params == {}

    def test_warm_up_indices_classify_without_learning(self):
        records = self._records(10, seed=4)
        model = _model(q=3, allow_cold_start=True)
        table = build_features(records, model.config.features)
        steps = model.run_online(records, indices=[0, 1, 2])
        assert [st.index for st in steps] == [0, 1, 2]
        assert all(st.forecast is None for st in steps)
        assert [st.state for st in steps] == \
            [model.clusters.assign(table.t[i]) for i in (0, 1, 2)]
        np.testing.assert_array_equal(steps[2].y, table.y[2])
        assert model.params == {} and model.dirichlet.patterns == []

    def test_absorbs_the_row_before_just_before_the_forecast(self):
        model = _model(allow_cold_start=True, centroids=((0.0,), (10.0,)))
        records = build_stream([{"OpT": 6.0}, {"OpT": 6.0}, {"OpT": 4.5}])
        steps = model.run_online(records)
        # row 1 (6.0) is nearest to centroid 10 and is looked up first ...
        assert steps[2].forecast.state == 2
        # ... then absorbed, (10 + 6) / 2, before row 2 is classified: 4.5
        # is nearer to 8 than to 0, though not to the 10 it was
        np.testing.assert_array_equal(model.clusters.centroids, [[0.0], [8.0]])
        np.testing.assert_array_equal(model.clusters.counts, [1.0, 2.0])
        assert steps[2].state == 2

    def test_a_refused_pass_moves_nothing(self):
        # the first A shift (record 4) has no observations yet
        model = _model()
        before = model.to_json()
        with pytest.raises(ForecastUnavailableError, match="record 4"):
            model.run_online(self._records(20))
        assert model.to_json() == before

    @pytest.mark.parametrize("fault", ["indefinite-p", "warning-as-error"])
    def test_a_refusal_after_checks_puts_back_what_moved(self, fault):
        # learned on the A and N shifts (records 4-11); the pass over records
        # 12-24 creates the M pattern, absorbs rows into centroids and learns
        # M and A before the first N update is refused
        records = self._records(25)
        model = _model(allow_cold_start=True)
        _learn(model, records[4:12])
        doc = model.snapshot()
        if fault == "indefinite-p":
            _set_state(doc, "001", "v", P=(-10.0 * np.eye(2)).tolist())
        else:  # the next update is a conditioning check, on an ill-conditioned P
            _set_state(doc, "001", "v", P=np.diag([1.0, 1e-12]).tolist(), n_updates=49)
        model = IoHmmModel.restore(doc)
        before = model.to_json()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            with pytest.raises((NumericError, ConditioningWarning)) as refused:
                model.run_online(records, indices=range(12, 25))
        assert refused.type is (NumericError if fault == "indefinite-p"
                                else ConditioningWarning)
        assert model.to_json() == before
        assert sorted(model.params) == model.dirichlet.patterns == ["001", "010"]
        # the model still learns: the same pass runs once the fault is gone
        model.params["001"].v.P = np.eye(2)
        model.params["001"].v.n_updates = 0
        assert len(model.run_online(records, indices=range(12, 25))) == 13

    def test_patterns_learned_earlier_in_the_pass_are_warm(self):
        # M, A and N shifts are all learned before record 12
        records = self._records(20)
        strict, lenient = _model(), _model(allow_cold_start=True)
        for model in (strict, lenient):
            _learn(model, records[:12])
        a = strict.run_online(records, indices=range(12, 20))
        b = lenient.run_online(records, indices=range(12, 20))
        assert not any(st.forecast.cold_start for st in a if st.forecast)
        assert [st.state for st in a] == [st.state for st in b]
        a_doc, b_doc = strict.snapshot(), lenient.snapshot()
        assert a_doc.pop("config") != b_doc.pop("config")  # the cold-start flag
        assert a_doc == b_doc

    def test_an_empty_response_cell_is_refused_naming_the_column(self):
        features = replace(_feature_config(), response_names=("hum", "OpT"))
        model = IoHmmModel(ModelConfig(features=features),
                           clusters=_manual_clusters(((0.0,), (10.0,))))
        records = build_stream([{"OpT": 6.0 + i % 3, "hum": None if i == 7 else 60.0 + i}
                                for i in range(12)])
        before = model.to_json()
        for run in (lambda: model.run_online(records),
                    lambda: model.run_online(records, indices=[8])):
            with pytest.raises(ConfigurationError, match="'hum'"):
                run()
            assert model.to_json() == before

    def test_states_are_nearest_centroids(self):
        records = self._records(15, seed=7)
        model = _model(q=1, allow_cold_start=True,
                       centroids=((5.0,), (8.0,)))
        results = model.run_online(records)
        for r in results:
            assert r.state in (1, 2)


def _with_cells(records, faults):
    """A copy of ``records`` with ``{index: {column: value}}`` written in."""
    out = list(records)
    for i, cells in faults.items():
        out[i] = replace(out[i], **cells)
    return out


def _stepwise_error(model, records, start=0, forecasts=True):
    """The error of a replay through the public steps, each checking its input.

    It replays ``run_online(records, indices=range(start, len(records)))``
    in the order of the per-record loop; without ``forecasts``, a learning
    pass over ``records`` (``start`` 0).
    """
    fc = model.config.features
    table = build_features(records, fc)
    first = fc.q + 1 if forecasts else len(records)
    labels = {}
    try:
        for i in range(start, len(records)):
            begins = bool(table.begins_shift[i])
            forecast = None
            if i >= first:
                forecast = model.forecast_step(table.t[i - 1], table.z[i],
                                               _w(table, i, fc.q), begins)
                model.clusters.update_centroid(forecast.state, table.t[i - 1])
            cur = model.clusters.assign(table.t[i])
            if i >= fc.q:
                prev = None if begins else forecast.state if forecast else \
                    labels[i - 1] if i > start else model.clusters.assign(table.t[i - 1])
                model.learn_step(*_row(table, i, fc.q), prev, cur)
            labels[i] = cur
    except OpcastError as exc:
        return type(exc)
    return None


class TestChecksAtTheTable:
    """``build_features`` refuses the first record with a non-finite cell, by
    its ``n`` and spec, before any state moves; the passes read its tables
    unchecked. run_online refuses a cold start where its loop meets it unless
    it is allowed, and an update whose gain denominator is not positive, as
    the checked steps do; nothing moves."""

    NAN, INF = float("nan"), float("inf")

    def _model(self, q=1, cold=True):
        return _model(q=q, t_spec=("av",), centroids=((0.92,), (0.94,)),
                      allow_cold_start=cold)

    def _records(self, n=20):
        return TestRunOnline()._records(n, seed=11)

    @pytest.mark.parametrize("cells", [
        {"ics": NAN}, {"ics": INF}, {"OpT": NAN}, {"NOpT": -INF}, {"av": NAN}, {"av": INF}])
    def test_a_bad_cell_is_rejected_before_any_state_moves(self, cells):
        # through a run, a one-record step and a refit; record 14 is n = 15
        records = self._records()
        model = self._model()
        model.run_online(records[:8])
        before = model.to_json()
        bad = _with_cells(records, {14: cells})
        for run in (lambda: model.run_online(bad, indices=range(8, 20)),
                    lambda: model.run_online(bad, indices=[14]),
                    lambda: model.fit(bad, k_max=2)):
            with pytest.raises(InputError, match=f"^record n=15 has a non-finite {[*cells][0]!r}"):
                run()
            assert model.to_json() == before

    @pytest.mark.parametrize("faults", [
        {3: {"av": NAN}, 8: {"OpT": NAN}},
        {3: {"OpT": NAN}, 8: {"av": NAN}},
        {5: {"av": NAN, "ics": NAN}},
        {5: {"av": NAN, "OpT": NAN}},
        {4: {"av": NAN}, 5: {"ics": NAN}},
        {0: {"av": NAN}},
        {0: {"OpT": NAN}},                # only a lag of row 1 at q = 1
        {19: {"NOpT": NAN}},
    ])
    def test_the_first_bad_record_decides_the_error(self, faults):
        # the lowest record, at its first spec in w, t, y order
        row = min(faults)
        spec = next(s for s in ("ics", "av", "OpT", "NOpT") if s in faults[row])
        bad = _with_cells(self._records(), faults)
        model = self._model()
        before = model.to_json()
        message = f"^record n={row + 1} has a non-finite {spec!r}$"
        for run in (lambda: model.run_online(bad), lambda: _learn(model, bad)):
            with pytest.raises(InputError, match=message):
                run()
            assert model.to_json() == before

    @pytest.mark.parametrize("seed, cold", [  # the ids of the allowing leg are the seeds
        pytest.param(seed, cold, id=str(seed) if cold else f"{seed}-strict")
        for cold in (True, False) for seed in range(60)])
    def test_random_faults_match_the_stepwise_replay(self, seed, cold):
        # on clean cells, a run from a random start and a learning pass over
        # every row: a strict model refuses cold starts, and a pattern learned
        # from a random prefix may hold a restored P that no update accepts
        rng = np.random.default_rng(seed)
        q, start, records = int(rng.integers(0, 3)), int(rng.integers(0, 12)), self._records()
        model = self._model(q=q, cold=cold)
        learned = records[:int(rng.integers(0, 12))]
        if len(learned) > q:
            _learn(model, learned)
        if model.params and rng.random() < 0.6:
            model = _negative_definite(model, str(rng.choice(sorted(model.params))),
                                       str(rng.choice(["u", "v"])))
        for forecasts, run in ((True, lambda m: m.run_online(records, indices=range(start, 20))),
                               (False, lambda m: _learn(m, records))):
            replay, twin = copy.deepcopy(model), copy.deepcopy(model)
            expected = _stepwise_error(replay, records, start if forecasts else 0, forecasts)
            before = twin.to_json()
            if expected is None:
                run(twin)
                assert twin.to_json() == replay.to_json()
            else:
                with pytest.raises(expected):
                    run(twin)
                assert twin.to_json() == before

    def test_a_bad_cell_is_refused_before_an_earlier_cold_start(self):
        # the first A shift (record 4) is a cold start; record 6's NaN is
        # refused first, when the records are featurized
        model = self._model(cold=False)
        before = model.to_json()
        with pytest.raises(InputError, match="^record n=7 has a non-finite 'OpT'$"):
            model.run_online(_with_cells(self._records(), {6: {"OpT": self.NAN}}))
        with pytest.raises(ForecastUnavailableError, match="record 4"):
            model.run_online(self._records())
        assert model.to_json() == before
    def test_learn_tables_refuses_a_non_binary_pattern(self):
        model = self._model()
        _learn(model, self._records()[:8])
        before = model.to_json()
        table = build_features(self._records(), model.config.features)
        z = table.z.copy()
        z[10, 1] = 2.0
        with pytest.raises(ConfigurationError, match="0 or 1"):
            learn_tables([model], [replace(table, z=z)])
        assert model.to_json() == before

    @pytest.mark.parametrize("cell", [np.nan, 2.0, -np.inf])
    def test_learn_tables_never_reads_the_pattern_of_an_unlearned_row(self, cell):
        # at q = 2 rows 0 and 1 only give lags: a bad pattern cell there is
        # not read, and the pass learns what it learns from the clean table
        clean, dirty = self._model(q=2), self._model(q=2)
        table = build_features(self._records(), clean.config.features)
        z = table.z.copy()
        z[0, 0], z[1, 2] = cell, cell
        learn_tables([clean], [table])
        learn_tables([dirty], [replace(table, z=z)])
        assert dirty.to_json() == clean.to_json()

    @pytest.mark.parametrize("q, faults, records, indices, named", [
        # at q = 2 the table of indices 10.. starts at row 8, a lag-only row
        pytest.param(2, {8: {"av": NAN, "ics": NAN}}, slice(None), range(10, 20),
                     "n=9 has a non-finite 'ics'", id="lag-only-row"),
        # the walk starts at q = 1 on record 8, which begins a shift: nothing
        # reads the row before it, record 7
        pytest.param(1, {7: {"av": NAN}}, slice(7, 12), range(1, 5),
                     "n=8 has a non-finite 'av'", id="row-before-a-shift"),
        # at q = 1 the regressors of row 0 are never read
        pytest.param(1, {0: {"ics": INF}}, slice(None), None,
                     "n=1 has a non-finite 'ics'", id="regressors-of-row-0"),
    ])
    def test_a_cell_that_no_pass_reads_is_refused(self, q, faults, records, indices, named):
        model = self._model(q=q)
        _learn(model, self._records()[:8])
        before = model.to_json()
        with pytest.raises(InputError, match=f"^record {named}$"):
            model.run_online(_with_cells(self._records(), faults)[records], indices=indices)
        assert model.to_json() == before

    def test_a_q0_table_whose_first_row_begins_no_shift_is_refused(self):
        # at q = 0 row 0 is learned, and unless it begins a shift its learning
        # reads the state of the row before it, which the table does not hold
        records = self._records()
        model = self._model(q=0)
        _learn(model, records[:8])
        before = model.to_json()
        table = build_features(records[9:], model.config.features)  # 9 begins no shift
        table = replace(table, begins_shift=np.r_[False, table.begins_shift[1:]])
        for run in (lambda: learn_tables([model], [table]),
                    lambda: walk_tables([model], [table], [range(len(table.y))])):
            with pytest.raises(InputError, match="first row must begin a shift"):
                run()
            assert model.to_json() == before


class TestLearnTable:
    def test_a_derived_table_learns_like_learn_records(self):
        # the table built for another lag order is the same lag-free table
        records = TestRunOnline()._records(24, seed=9)
        a, b = _model(q=2, allow_cold_start=True), _model(q=2, allow_cold_start=True)
        _learn(a, records)
        lag_free = build_features(records, a.config.features.with_lags(0))
        assert lag_free.w.shape == (24, 2)
        learn_tables([b], [lag_free])
        assert a.to_json() == b.to_json()

    def test_rejects_a_table_of_another_config(self):
        records = TestRunOnline()._records(10)
        model = _model(q=1)
        before = model.to_json()
        table = build_features(records, model.config.features)
        for bad in (replace(table, t=np.hstack((table.t, table.t))),  # two t columns
                    replace(table, z=table.z[:, 1:]),  # a pattern too short
                    replace(table, y=table.y[:-1]),  # a row short
                    replace(table, w=table.w[:, 1:]),  # a regressor short
                    # without one of the model's responses
                    build_features(records, replace(_feature_config(), response_names=("OpT",)))):
            with pytest.raises(DimensionError):
                learn_tables([model], [bad])
            assert model.to_json() == before
        with pytest.raises(InsufficientHistoryError):
            learn_tables([model], [build_features(records[:1], _feature_config(q=0))])
        assert model.to_json() == before


def _learn_record_by_record(model, table):
    """The oracle of ``learn_tables``: the sequential ``_learn`` path over a
    table, one record at a time, as the interleaved loop learns; each row's
    regressors ``[1, w, lags]`` are gathered here, row by row."""
    fc = model.config.features
    columns = [table.responses.index(name) for name in fc.response_names]
    labels = model.clusters.nearest(model.clusters.standardizer.transform(table.t)).tolist()
    for r in range(fc.q, len(table.y)):
        u = np.concatenate([[1.0], table.w[r]]
                           + [table.y[r - j, columns] for j in range(1, fc.q + 1)])
        prev = None if table.begins_shift[r] else labels[r - 1]
        model._learn(pattern_key(table.z[r]), u, table.y[r, columns], prev, labels[r])


def _conditioning_messages(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
    return [str(w.message) for w in caught if w.category is ConditioningWarning]


@pytest.fixture(scope="module")
def setting():
    records = generate_synthetic(SyntheticSpec(
        states=3, transition=((0.8, 0.15, 0.05), (0.1, 0.8, 0.1), (0.05, 0.15, 0.8)),
        state_means=((3.2, 2.9), (2.4, 2.0), (1.5, 1.1)),
        noise_cov=((0.04, 0.01), (0.01, 0.04)), ar=(((0.3, 0.0), (0.0, 0.3)),),
        days=14, periods_per_shift=6, dt_max=0.4, ics_levels=(1.88,), seed=5))
    features = FeatureConfig(response_names=("OpT", "NOpT"),
                             z_spec=("shift_code==M", "shift_code==A", "shift_code==N"),
                             w_spec=("ics", "@begins_shift"), t_spec=("av", "OT"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # K selection
        states = fit_states(build_features(records, features), seed=0, k_max=4)
    return records, features, states


@contextlib.contextmanager
def _states_per_pass():
    """The number of states each ``stacked_pass`` call in the block advances."""
    sizes, stacked_pass = [], opcast.model.stacked_pass

    def counted(groups, moments=False):
        sizes.append(sum(len(states) for states, *_ in groups))
        return stacked_pass(groups, moments)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(opcast.model, "stacked_pass", counted)
        yield sizes


class TestLearnTables:
    """One stacked pass against the record-by-record ``_learn`` path."""

    FAST = 0.7  # winds up enough to warn, not enough to refuse an update

    def _models(self, setting):
        """Mixed lag orders, joint and single-response, two forgetting
        settings (one speed makes ``ics`` repeat the intercept, so the FAST
        ones wind up and warn), one table without the N shift and one
        model that learned before."""
        records, features, states = setting
        lag_free = build_features(records, features.with_lags(0))  # one table for all twelve
        models, tables = [], []
        for q in range(4):
            for names in (("OpT", "NOpT"), ("OpT",), ("NOpT",)):
                fast = q % 2 == len(names) % 2
                cfg = ModelConfig(features=replace(features, q=q, response_names=names),
                                  lambda_u=self.FAST if fast else 0.99,
                                  lambda_v=self.FAST if fast else 0.95, allow_cold_start=True)
                models.append(IoHmmModel(cfg, clusters=copy.deepcopy(states)))
                tables.append(lag_free)
        no_night = [rec for rec in records if rec.shift_code != "N"]
        models.append(IoHmmModel(ModelConfig(features=features.with_lags(2)),
                                 clusters=copy.deepcopy(states)))
        tables.append(build_features(no_night, features.with_lags(2)))
        learned = IoHmmModel(ModelConfig(features=features, lambda_u=self.FAST),
                             clusters=copy.deepcopy(states))
        _learn(learned, records[:100])
        models.append(learned)
        tables.append(build_features(records[90:], features))
        with _states_per_pass() as sizes, warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            learn_tables(copy.deepcopy(models), tables)
        u, v = sizes
        assert v < u  # equal v chains advance once: their warnings' fan-out is covered
        return models, tables

    def test_matches_the_record_by_record_pass(self, setting):
        models, tables = self._models(setting)
        oracle = copy.deepcopy(models)
        expected = _conditioning_messages(lambda: [
            _learn_record_by_record(model, table) for model, table in zip(oracle, tables)])
        got = _conditioning_messages(lambda: learn_tables(models, tables))
        assert len(expected) > 10 and got == expected
        assert [m.to_json() for m in models] == [m.to_json() for m in oracle]
        assert sorted(models[-2].params) == ["010", "100"]
        for model in models:
            for states in model.params.values():
                for state in (states.u, states.v):
                    assert np.array_equal(state.P, state.P.T)

    def test_learn_table_is_a_pass_of_one(self, setting):
        models, tables = self._models(setting)
        oracle = copy.deepcopy(models)
        for model, twin, table in zip(models, oracle, tables):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditioningWarning)
                learn_tables([model], [table])
                _learn_record_by_record(twin, table)
            assert model.to_json() == twin.to_json()

    @pytest.mark.parametrize("fault", ["non-binary-z", "wrong-shape", "negative-p"])
    def test_a_refused_pass_moves_nothing(self, setting, fault):
        models, tables = self._models(setting)
        if fault == "non-binary-z":  # a table that build_features does not make
            z = tables[5].z.copy()
            z[40, 1] = 2.0
            tables[5] = replace(tables[5], z=z)
            error = ConfigurationError
        elif fault == "wrong-shape":
            tables[7] = replace(tables[7], w=tables[7].w[:, 1:])
            error = DimensionError
        else:
            # refused in two models and two patterns: the error is that of
            # the first refused update in model and record order
            models[-1] = _negative_definite(
                _negative_definite(models[-1], "001"), "010")
            learn_tables([models[-2]], [tables[-2]])
            models[-2] = _negative_definite(models[-2], "100")
            error = NumericError
        before = [m.to_json() for m in models]
        with pytest.raises(error):
            learn_tables(models, tables)
        assert [m.to_json() for m in models] == before
        if fault == "negative-p":  # the same error after the same warnings
            got = _outcome(lambda: learn_tables(models, tables))
            assert got == self._one_by_one(models, tables)
            (kind, message), warned = got
            assert kind is NumericError and "gain denominator" in message and warned
            assert [m.to_json() for m in models] == before

    @staticmethod
    def _one_by_one(models, tables):
        """The outcome of learning copies of ``models`` record by record, in order."""
        return _outcome(lambda: [_learn_record_by_record(model, table)
                                 for model, table in zip(copy.deepcopy(models), tables)])

    @pytest.mark.parametrize("side", ["u", "v"])
    def test_the_first_refusal_in_model_order_decides(self, setting, side):
        # model 0 refuses an update; so does model 1, on either side, at an
        # earlier record of its table
        models, tables = self._models(setting)
        models, tables = [models[-1], models[0]], [tables[-1], tables[0]]
        models[0] = _negative_definite(models[0], "010")
        learn_tables([models[1]], [build_features(setting[0][:10], setting[1].with_lags(0))])
        models[1] = _negative_definite(models[1], sorted(models[1].params)[0], side)
        before = [m.to_json() for m in models]
        got = _outcome(lambda: learn_tables(models, tables))
        assert got == self._one_by_one(models, tables)
        assert got[0][0] is NumericError and "gain denominator" in got[0][1]
        assert got[0] == _outcome(lambda: learn_tables(models[:1], tables[:1]))[0]
        assert [m.to_json() for m in models] == before

    def test_one_table_serves_joint_and_single_response_models(self, setting):
        # another OpT in record 40: the NOpT model never reads that column, so
        # it learns and walks as on the first table; the joint model reads it
        records, features, states = setting
        clean = build_features(records, features)
        other = build_features(_with_cells(records, {40: {"OpT": 9.5}}), features)
        span = [range(20, 80)]  # walks through row 40 and its lag
        for names, same in ((("NOpT",), True), (("OpT", "NOpT"), False)):
            config = ModelConfig(features=replace(features, response_names=names),
                                 allow_cold_start=True)
            a, b = (IoHmmModel(config, clusters=copy.deepcopy(states)) for _ in range(2))
            learn_tables([a], [clean])
            learn_tables([b], [other])
            assert (a.to_json() == b.to_json()) == same
            assert (_walked([a], [clean], span) == _walked([b], [other], span)) == same

    def test_a_model_learns_once_per_pass(self, setting):
        models, tables = self._models(setting)
        before = models[0].to_json()
        with pytest.raises(ConfigurationError, match="twice"):
            learn_tables([models[0], models[0]], [tables[0], tables[0]])
        with pytest.raises(DimensionError):
            learn_tables(models[:2], tables[:1])
        assert models[0].to_json() == before


class TestTwinChains:
    """Chains whose v sides read the same bytes advance once, each as alone."""

    FAST = 0.6  # winds the v side up enough to warn

    def _models(self, setting, learned=()):
        """Joint and single-response models at lag orders 1 and 2, each in two u
        forgetting factors but of one v factor, learned from ``learned`` one by
        one: pairs of models whose v chains read the same bytes. Every row falls
        in state 1 of 3, so no v vector tells states 2 and 3 apart and the v
        sides wind up and warn."""
        records, features, _ = setting
        features = replace(features, t_spec=("OpT",))
        lag_free = build_features(records, features.with_lags(0))
        models = []
        for q in (1, 2):
            for names in (("OpT", "NOpT"), ("OpT",)):
                for lambda_u in (0.99, 0.9):
                    models.append(IoHmmModel(ModelConfig(
                        features=replace(features, q=q, response_names=names),
                        lambda_u=lambda_u, lambda_v=self.FAST, allow_cold_start=True),
                        clusters=_manual_clusters(((0.0,), (10.0,), (20.0,)))))
                    if learned:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", ConditioningWarning)
                            _learn(models[-1], learned)
        return models, [lag_free] * len(models)

    def test_a_learning_pass_learns_each_twin_as_alone(self, setting):
        models, tables = self._models(setting)
        alone = copy.deepcopy(models)
        expected = [_outcome(lambda: learn_tables([model], [table]))[1]
                    for model, table in zip(alone, tables)]
        with _states_per_pass() as sizes:
            got = _outcome(lambda: learn_tables(models, tables))
        assert sizes[1] < sizes[0] and got == (None, sum(expected, [])) and got[1]
        assert [m.to_json() for m in models] == [m.to_json() for m in alone]

    def test_a_walk_forecasts_for_each_twin_as_alone(self, setting):
        records = setting[0]
        models, tables = self._models(setting, records[:100])
        span = range(100, len(records))
        expected = [_outcome(lambda: _walked([model], [table], [span])) for model, table
                    in zip(models, tables)]
        with _states_per_pass() as sizes:
            got = _outcome(lambda: _walked(models, tables, [span] * len(models)))
        assert sizes[1] < sizes[0] and got[1]
        assert got == ([forecasts for (forecasts,), _ in expected],
                       sum((warned for _, warned in expected), []))

    def test_no_two_models_share_an_array_after_commit(self, setting):
        models, tables = self._models(setting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            learn_tables(models, tables)
        before = [m.to_json() for m in models]
        first, twin = models[:2]  # one v factor, two u factors
        assert first.params.keys() == twin.params.keys()
        for key, states in first.params.items():
            assert all(np.array_equal(getattr(states.v, name), getattr(twin.params[key].v, name))
                       for name in ("H", "Sigma", "P"))
            for arr in (states.v.H, states.v.Sigma, states.v.P, first.dirichlet.counts[key]):
                arr += 1.0  # in place
        assert first.to_json() != before[0]
        assert [m.to_json() for m in models[1:]] == before[1:]

    def test_a_refused_twin_chain_raises_for_the_first_twin(self, setting):
        # models 0 and 1, twins on v, both refuse there at the same record;
        # between them in model order one more model warns: the loop raises
        # for the first twin before any warning of the model after it
        records = setting[0]
        models, tables = self._models(setting, records[:40])
        key = sorted(models[0].params)[0]
        models = [_negative_definite(models[0], key, "v"), models[2],
                  _negative_definite(models[1], key, "v")]
        tables = tables[:3]
        before = [m.to_json() for m in models]
        with _states_per_pass() as sizes:
            got = _outcome(lambda: learn_tables(models, tables))
        assert sizes[1] < sizes[0]
        assert got == TestLearnTables._one_by_one(models, tables)
        assert got == _outcome(lambda: learn_tables(models[:1], tables[:1]))
        assert got[0][0] is NumericError and "gain denominator" in got[0][1]
        assert [m.to_json() for m in models] == before


def _outcome(run):
    """What ``run`` returns, or the type and message of the error it raises,
    and the messages of the ConditioningWarnings it issues, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = run()
        except OpcastError as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught if w.category is ConditioningWarning]


def _walks_one_by_one(models, records, span):
    """The oracle of ``walk_tables``: each model's own ``run_online`` walk, in
    model order, on a copy; per model its forecasts as (record, mean bytes,
    variance bytes)."""
    out = []
    for model in [copy.deepcopy(m) for m in models]:  # each with its own centroids
        out.append([(st.index, st.forecast.y_hat.tobytes(),
                     np.diagonal(st.forecast.sigma).tobytes())
                    for st in model.run_online(records, indices=span) if st.forecast])
    return out


def _walked(models, tables, spans):
    """``walk_tables`` with its forecasts laid out as the oracle's."""
    return [[(i, mean.tobytes(), var.tobytes()) for i, mean, var in zip(index.tolist(), *moments)]
            for index, *moments in walk_tables(models, tables, spans)]


class TestWalkTables:
    """One stacked walk against each model's own ``run_online`` walk."""

    FAST = 0.7  # winds up enough to warn

    def _models(self, setting, learned, cold=True, walked=None, states=None):
        """Mixed lag orders, joint and single-response, two forgetting
        settings, sharing one ``ClusterModel`` (``states``, else the
        setting's) and learned from ``learned`` (if longer than q), with
        their tables of ``walked`` (all records)."""
        records, features, shared = setting
        states = states or shared
        lag_free = build_features(walked or records, features.with_lags(0))
        models, tables = [], []
        for q in range(4):
            for names in (("OpT", "NOpT"), ("OpT",), ("NOpT",)):
                fast = q % 2 == len(names) % 2
                cfg = ModelConfig(features=replace(features, q=q, response_names=names),
                                  lambda_u=self.FAST if fast else 0.99,
                                  lambda_v=self.FAST if fast else 0.95,
                                  allow_cold_start=cold)
                models.append(IoHmmModel(cfg, clusters=states))
                tables.append(lag_free)
                if len(learned) > q:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", ConditioningWarning)
                        _learn(models[-1], learned)
        return models, tables

    def _assert_as_one_by_one(self, models, tables, records, span):
        before = [m.to_json() for m in models]
        expected = _outcome(lambda: _walks_one_by_one(models, records, span))
        got = _outcome(lambda: _walked(models, tables, [span] * len(models)))
        assert got == expected
        assert [m.to_json() for m in models] == before  # a walk moves nothing
        return got

    @pytest.mark.parametrize("first", [0, 2, 100, 251])
    def test_forecasts_match_the_walks_one_by_one(self, setting, first):
        # from 0 and 2 the lag orders start forecasting at different records
        records = setting[0]
        models, tables = self._models(setting, records[:first])
        span = range(first, len(records))
        (forecasts, warned) = self._assert_as_one_by_one(models, tables, records, span)
        assert sum(map(len, forecasts)) > 0
        if first == 100:
            assert len(warned) > 5

    @pytest.mark.parametrize("seed, cold", [
        pytest.param(seed, cold, id=f"{seed}-{'cold' if cold else 'strict'}")
        for cold in (True, False) for seed in range(30)])
    def test_faults_are_refused_as_one_by_one(self, setting, seed, cold):
        # on clean cells: a strict model refuses cold starts, so patterns not
        # learned yet refuse too, and up to three models hold a restored P
        # that no update accepts, on either side
        rng = np.random.default_rng(seed)
        records = setting[0]
        first = int(rng.choice([0, 3, 40, 150]))
        learned = records[:first] if rng.random() < 0.7 else \
            [rec for rec in records[:first] if rec.shift_code != "N"]
        models, tables = self._models(setting, learned, cold)
        for j in rng.choice(len(models), size=int(rng.integers(0, 4)), replace=False):
            if models[j].params:
                models[j] = _negative_definite(models[j], str(rng.choice(sorted(
                    models[j].params))), str(rng.choice(["u", "v"])))
        self._assert_as_one_by_one(models, tables, records, range(first, len(records)))

    def test_an_unseen_pattern_is_refused_as_one_by_one(self, setting):
        records = setting[0]
        models, tables = self._models(
            setting, [rec for rec in records[:100] if rec.shift_code != "N"], cold=False)
        (error, message), _ = self._assert_as_one_by_one(models, tables, records,
                                                         range(100, len(records)))
        assert error is ForecastUnavailableError and message.startswith("record ")

    def test_a_restored_indefinite_p_is_refused_as_one_by_one(self, setting):
        # refused in two models: the first refused update in model and
        # record order decides, after the warnings due before it
        records = setting[0]
        models, tables = self._models(setting, records[:100])
        for j, key in ((4, "001"), (7, "010")):
            models[j] = _negative_definite(models[j], key)
        (error, message), warned = self._assert_as_one_by_one(models, tables, records,
                                                              range(100, len(records)))
        assert error is NumericError and "gain denominator" in message and warned

    def test_models_of_two_cluster_models_walk_their_own_spans(self, setting):
        # two ClusterModels of different K (v predictors of two shapes), each
        # shared by twelve models, in one walk over three spans: each model's
        # forecasts equal its own run_online walk, bit for bit
        records, features, states = setting
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ThresholdWarning)
            other = fit_states(build_features(records[:150], features), seed=1, k_max=2)
        assert other.K != states.K
        first, second = self._models(setting, records[:100]), \
            self._models(setting, records[:60], states=other)
        models, tables = first[0] + second[0], first[1] + second[1]
        spans = [range(100, 180)] * 12 + [range(60, 252), range(200, 252)] * 6
        before = [m.to_json() for m in models]
        expected = _outcome(lambda: [_walks_one_by_one([model], records, span)[0]
                                     for model, span in zip(models, spans)])
        got = _outcome(lambda: _walked(models, tables, spans))
        assert got == expected and all(got[0])
        assert [m.to_json() for m in models] == before

    def test_two_cluster_models_of_one_k_share_each_count_walk(self, setting, monkeypatch):
        # the setting's states and a copy with its centroids in reverse order
        # (its labels permuted): the v sides of both, two (K, m) groups, take
        # one count walk per group, holding the chains of both cluster models,
        # whatever their forgetting factors, yet each model learns and walks as alone
        records, features, states = setting
        mirrored = replace(states, centroids=states.centroids[::-1].copy(),
                           counts=states.counts[::-1].copy())
        walks = []
        counting = opcast.model._walk_counts
        monkeypatch.setattr(opcast.model, "_walk_counts",
                            lambda group: walks.append(group) or counting(group))

        def both(learned):
            (a, tables_a), (b, tables_b) = (self._models(setting, learned, states=s)
                                            for s in (states, mirrored))
            return a + b, tables_a + tables_b

        models, tables = both([])
        groups = {(m.n_states, m.n_responses) for m in models}
        assert len(groups) == 2 and len({m.config.lambda_v for m in models}) == 2
        alone = [copy.deepcopy(m) for m in models]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            for model, table in zip(alone, tables):
                learn_tables([model], [table])
            del walks[:]
            learn_tables(models, tables)
        assert len(walks) == len(groups) and all(
            {id(ch.model.clusters) for ch in walk} == {id(states), id(mirrored)}
            for walk in walks)
        assert [m.to_json() for m in models] == [m.to_json() for m in alone]
        models, tables = both(records[:100])
        span = range(100, len(records))
        expected = _outcome(lambda: _walks_one_by_one(models, records, span))
        del walks[:]
        got = _outcome(lambda: _walked(models, tables, [span] * len(models)))
        assert len(walks) == len(groups) and all(
            {id(ch.model.clusters) for ch in walk} == {id(states), id(mirrored)}
            for walk in walks)
        assert got == expected and all(got[0])

    def test_label_walks_of_two_ks_from_record_zero(self, setting):
        # q = 0..5 under two ClusterModels of different K, every span from
        # record 0: each model's first forecast is at q + 1, so one pass walks
        # labels from six starts with centroids of two K in lockstep
        records, features, states = setting
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ThresholdWarning)
            other = fit_states(build_features(records[:150], features), seed=1, k_max=2)
        assert other.K != states.K
        lag_free = build_features(records, features.with_lags(0))
        models = []
        for clusters in (states, other):
            for q in range(6):
                models.append(IoHmmModel(ModelConfig(features=features.with_lags(q),
                                                     allow_cold_start=True), clusters=clusters))
                if q % 2:  # some learned before, some cold
                    _learn(models[-1], records[:40])
        span = range(len(records))
        before = [m.to_json() for m in models]
        expected = _outcome(lambda: _walks_one_by_one(models, records, span))
        got = _outcome(lambda: _walked(models, [lag_free] * len(models), [span] * len(models)))
        assert got == expected and all(got[0])
        assert [len(walk) for walk in got[0]] == [len(records) - q - 1 for q in range(6)] * 2
        assert [m.to_json() for m in models] == before

    @pytest.mark.parametrize("start, stop", [(0, None), (0, 2), (0, 3), (1, 40), (150, 150)])
    def test_each_model_forecasts_its_records_from_first_on(self, setting, start, stop):
        # q = 0, 1 and 2 from record 0, and one empty span: each model's index is
        # every record from max(start, q + 1) on, in record order, and its
        # forecasts are those of its own run_online walk
        records, features, states = setting
        span = range(start, len(records) if stop is None else stop)
        models = [IoHmmModel(ModelConfig(features=features.with_lags(q), allow_cold_start=True),
                             clusters=states) for q in range(3)]
        tables = [build_features(records, features.with_lags(0))] * len(models)
        walks = walk_tables(models, tables, [span] * len(models))
        for q, (index, mean, var) in enumerate(walks):
            np.testing.assert_array_equal(index, np.arange(max(span.start, q + 1), span.stop))
            assert mean.shape == var.shape == (len(index), 2)
        self._assert_as_one_by_one(models, tables, records, span)

    def test_empty_spans_walk_nothing(self, setting):
        # spans without records, at the start, inside and at the end, in one
        # pass with spans that forecast: no forecasts for them, as run_online
        records = setting[0]
        models, tables = self._models(setting, records[:100])
        spans = [range(0, 0), range(150, 150), range(len(records), len(records)),
                 range(100, 180)] * 3
        expected = _outcome(lambda: [_walks_one_by_one([model], records, span)[0]
                                     for model, span in zip(models, spans)])
        got = _outcome(lambda: _walked(models, tables, spans))
        assert got == expected and [bool(walk) for walk in got[0]] == ([False] * 3 + [True]) * 3

    def test_rejects_what_it_cannot_walk(self, setting):
        models, tables = self._models(setting, setting[0][:50])
        for span in (range(0, len(tables[0].y) + 1), range(10, 20, 2), [10, 11], (10, 11)):
            with pytest.raises(DimensionError):
                walk_tables(models, tables, [span] * len(models))
        with pytest.raises(DimensionError):
            walk_tables(models, tables[1:], [range(50, 60)] * len(models))
        with pytest.raises(DimensionError):
            walk_tables(models, tables, [range(50, 60)] * (len(models) - 1))


@pytest.mark.parametrize("kind", ["learn", "walk"])
def test_a_refused_pass_copies_no_model(setting, monkeypatch, kind):
    # a stacked pass names its own refusals: with every deep copy of a model
    # failing, a refused learning pass (a negative-definite P, in the last
    # model) and a refused strict walk (an unseen pattern) raise what the
    # models one by one raise, after the same warnings
    records = setting[0]
    if kind == "learn":
        models, tables = TestLearnTables()._models(setting)
        models[-1] = _negative_definite(models[-1], "010")
        expected = TestLearnTables._one_by_one(models, tables)
        assert len(expected[1]) > 10  # the earlier models warn before the refusal

        def run():
            learn_tables(models, tables)
    else:
        models, tables = TestWalkTables()._models(
            setting, [rec for rec in records[:100] if rec.shift_code != "N"], cold=False)
        span = range(100, len(records))
        expected = _outcome(lambda: _walks_one_by_one(models, records, span))

        def run():
            walk_tables(models, tables, [span] * len(models))
    assert expected[0][0] is (NumericError if kind == "learn" else ForecastUnavailableError)

    def copied(model, memo):
        raise AssertionError("a refused pass copied a model")
    monkeypatch.setattr(IoHmmModel, "__deepcopy__", copied, raising=False)
    assert _outcome(run) == expected


class TestCountsThatAreNotHalfIntegers:
    """A restored snapshot may hold any finite count >= 1/2. The stacked passes
    still equal the loop bit for bit: counts grow one observation at a time,
    and each row read is summed as ``expected_state_vector`` sums it."""

    @staticmethod
    def _restored(setting, clusters, q=1, seed=0):
        """A model learned from 100 records, its count rows then redrawn from
        [0.5, 3.5]."""
        records, features, _ = setting
        model = IoHmmModel(ModelConfig(features=features.with_lags(q), allow_cold_start=True),
                           clusters=copy.deepcopy(clusters))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            _learn(model, records[:100])
        doc = model.snapshot()
        rng = np.random.default_rng(seed)
        counts = doc["dirichlet"]["counts"]  # drawn in the order of the patterns' rows
        doc["dirichlet"]["counts"] = rng.uniform(0.5, 3.5, np.shape(counts)).tolist()
        restored = IoHmmModel.restore(doc)
        assert any(np.any(rows * 2 % 1) for rows in restored.dirichlet.counts.values())
        return restored

    def _assert_as_the_loop(self, setting, models):
        records, features, _ = setting
        table = build_features(records, features.with_lags(0))
        span = range(100, len(records))
        got = _walked(models, [table] * len(models), [span] * len(models))
        assert got == _walks_one_by_one(models, records, span) and all(got)
        learned, oracle = copy.deepcopy(models), copy.deepcopy(models)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            learn_tables(learned, [table] * len(models))
            for model in oracle:
                _learn_record_by_record(model, table)
        assert [m.to_json() for m in learned] == [m.to_json() for m in oracle]
        return got

    def test_a_restored_model_walks_and_learns_as_the_loop(self, setting):
        walked = self._assert_as_the_loop(setting, [self._restored(setting, setting[2])])
        assert len(walked[0]) == len(setting[0]) - 100

    def test_two_ways_of_summing_in_one_pass(self, setting):
        # numpy sums fewer than 8 counts in order and 8 or more in blocks of
        # 8: K = 4 and 9 in one count walk, each summed its own way
        records, features, states = setting
        points = states.standardizer.transform(build_features(records, features).t)
        nine = replace(states, K=9, centroids=points[5::25][:9].copy(), counts=np.ones(9))
        models = [self._restored(setting, clusters, q, seed)
                  for seed, (clusters, q) in enumerate((c, q) for c in (states, nine)
                                                       for q in (0, 2))]
        assert [m.n_states for m in models] == [states.K] * 2 + [9, 9] and states.K < 8
        self._assert_as_the_loop(setting, models)


class TestCountWalk:
    """One count walk (``_walk_counts``) against a loop of ``expected_state_vector``
    then ``observe`` per chain, on a copy of its ``DirichletTable``."""

    @pytest.mark.parametrize("K", [3, 9])  # numpy sums 8 or more counts in blocks
    def test_one_group_of_ragged_chains_as_the_loop(self, K):
        rng = np.random.default_rng(K)
        tables = [DirichletTable(K, 3) for _ in range(3)]
        for table in tables:
            for key in ("100", "011"):
                table.counts[key] = rng.uniform(0.5, 3.5, (K + 1, K))
        lengths = (40, 40, 23, 6, 1)  # longest first; the last two read one table's rows
        group = []
        for order, (length, table, key) in enumerate(zip(
                lengths, (*tables, tables[2], tables[2]), ("100", "011", "100", "011", "011"))):
            prev = rng.integers(1, K + 1, length)
            prev[rng.random(length) < 0.2] = 0  # sequences begin here
            states = PatternStates(AdaptiveState(2, 1, 1.0), AdaptiveState(K, 1, 1.0))
            group.append(_Chain(order, SimpleNamespace(dirichlet=table), key, states, None,
                                [0], np.arange(length), prev, rng.integers(1, K + 1, length)))
        before = [table.to_dict() for table in tables]
        vectors, active = _walk_counts(group)
        assert vectors.shape == (lengths[0], len(group), K)
        assert active == [sum(n > k for n in lengths) for k in range(lengths[0])]
        for j, ch in enumerate(group):
            table, expected = copy.deepcopy(ch.model.dirichlet), []
            for prev, cur in zip(ch.prev.tolist(), ch.cur.tolist()):
                expected.append(table.expected_state_vector(ch.key, prev or None))
                table.observe(ch.key, prev or None, cur)
            assert np.array_equal(vectors[:len(ch.rows), j], expected)
            assert not vectors[len(ch.rows):, j].any()  # the padding is zero
            assert np.array_equal(ch.counts, table.counts[ch.key])
        assert [table.to_dict() for table in tables] == before  # the walk counts on copies


class TestFit:
    def test_auto_state_discovery(self):
        steps = []
        for i in range(40):
            steps.append({"OpT": 2.0 + 0.01 * (i % 3) if i % 2 else
                          9.0 + 0.01 * (i % 3)})
        records = build_stream(steps)
        config = ModelConfig(features=_feature_config(q=1), lambda_u=1.0,
                             lambda_v=1.0)
        model = IoHmmModel(config).fit(records, seed=0, threshold=0.8,
                                       k_max=4)
        assert model.n_states == 2
        assert model.clusters.reached_threshold
        # learning happened: the single pattern has effective history
        assert model.params["100"].u.gamma == pytest.approx(39.0)

    @pytest.mark.parametrize("q", [0, 2])
    def test_no_base_regressors(self, q):
        records = build_stream([{"shift": f"Mo {'MAN'[(i // 4) % 3]}",
                                 "OpT": 6.0 + 0.25 * (i % 5)} for i in range(30)])
        features = FeatureConfig(response_names=("OpT", "NOpT"),
                                 z_spec=("shift_code==M", "shift_code==A",
                                         "shift_code==N"),
                                 w_spec=(), t_spec=("OpT",), q=q)
        table = build_features(records, features)
        assert table.w.shape == (30, 0)
        assert table.regressors(np.arange(q, 30), q, [0, 1]).shape == (30 - q, 2 * q)
        model = IoHmmModel(ModelConfig(features=features, allow_cold_start=True))
        model.fit(records, seed=0, k_max=3)
        assert model.u_dim == 1 + 2 * q
        results = model.run_online(records, indices=range(20, 30))
        forecasts = [r.forecast for r in results if r.forecast is not None]
        assert len(forecasts) == 10
        assert all(np.isfinite(f.y_hat).all() for f in forecasts)

    def test_attach_rejects_wrong_dimension(self):
        config = ModelConfig(features=_feature_config(t_spec=("OpT", "av")))
        with pytest.raises(DimensionError):
            IoHmmModel(config, clusters=_manual_clusters([[0.0], [1.0]]))

    @staticmethod
    def _fitted(records):
        model = IoHmmModel(ModelConfig(features=_feature_config(q=1, t_spec=("OpT", "av")),
                                       allow_cold_start=True))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ThresholdWarning)
            return model.fit(records, seed=0, k_max=3)

    def test_a_refused_refit_moves_nothing(self, monkeypatch):
        # a NaN response, which t does not hold, is refused when the records
        # are featurized, before any state discovery: the fitted model keeps
        # its states and predictors
        def forbidden(*args, **kwargs):
            raise AssertionError("states discovered for records the featurizer refuses")

        records = TestRunOnline()._records(30, seed=3)
        model = self._fitted(records[:20])
        before = model.to_json()
        monkeypatch.setattr(opcast.model, "fit_auto_k", forbidden)
        with pytest.raises(InputError, match="^record n=26 has a non-finite 'NOpT'$"):
            model.fit(_with_cells(records, {25: {"NOpT": float("nan")}}), seed=0, k_max=3)
        assert model.params and model.to_json() == before

    def test_a_featurizing_refusal_comes_before_state_discovery(self, monkeypatch):
        # an empty response cell is refused by the featurizer before any
        # k-means run, also where the state discovery would refuse too (too
        # few distinct classification points); the fitted model is kept
        def forbidden(*args, **kwargs):
            raise AssertionError("states discovered for records the featurizer refuses")

        records = TestRunOnline()._records(30, seed=3)
        model = self._fitted(records)
        before = model.to_json()
        monkeypatch.setattr(opcast.model, "fit_auto_k", forbidden)
        for bad in (_with_cells(records, {7: {"NOpT": None}}),
                    [replace(rec, NOpT=None) for rec in records[:2]]):
            with pytest.raises(ConfigurationError, match="'NOpT'"):
                model.fit(bad, seed=0, k_max=3)
        assert model.to_json() == before

    def test_records_out_of_order_are_refused_first(self, monkeypatch):
        # as leave_one_week_out does, fit checks the order before it
        # featurizes: lags of swapped records would be learned scrambled
        def forbidden(*args, **kwargs):
            raise AssertionError("records featurized out of order")

        records = TestRunOnline()._records(30, seed=3)
        model = self._fitted(records)
        before = model.to_json()
        monkeypatch.setattr(opcast.model, "build_features", forbidden)
        with pytest.raises(OrderingError, match="position 1"):
            model.fit([records[1], records[0], *records[2:]], seed=0, k_max=3)
        assert model.to_json() == before

    def test_the_classification_specs_are_evaluated_once(self, monkeypatch):
        # the states are discovered from the table's t, not from a second pass
        records = TestRunOnline()._records(30, seed=3)
        calls = featurizing_reads(monkeypatch)
        model = self._fitted(records)
        assert len(calls) == 1


class TestSnapshot:
    def _trained(self):
        records = build_stream([{"OpT": 6.0 + 0.1 * i} for i in range(12)])
        model = _model(q=1, allow_cold_start=True)
        model.run_online(records)
        return model, records

    def test_json_roundtrip_is_exact(self):
        model, records = self._trained()
        clone = IoHmmModel.restore(json.loads(model.to_json()))
        assert clone.to_json() == model.to_json()

    def test_restored_model_continues_identically(self):
        model, records = self._trained()
        clone = IoHmmModel.restore(json.loads(model.to_json()))
        more = build_stream([{"OpT": 7.0 + 0.05 * i} for i in range(12)],
                            start=dt.datetime(2022, 10, 4, 6, 0))
        res_a = model.run_online(more)
        res_b = clone.run_online(more)
        for a, b in zip(res_a, res_b):
            assert a.state == b.state
            if a.forecast is not None:
                np.testing.assert_array_equal(a.forecast.y_hat,
                                              b.forecast.y_hat)
                np.testing.assert_array_equal(a.forecast.sigma,
                                              b.forecast.sigma)

    def test_older_snapshot_with_a_cached_forecast_continues_identically(self):
        # earlier versions also stored the last forecast; restore ignores it
        model, _ = self._trained()
        doc = model.snapshot()
        doc["last_state"] = 2
        doc["last_forecast"] = model.forecast_step(
            [6.0], [1.0, 0.0, 0.0], [7.0, 0.0, 6.5, 4.0], False).to_dict(("OpT", "NOpT"))
        clone = IoHmmModel.restore(doc)
        assert clone.to_json() == model.to_json()
        more = build_stream([{"OpT": 7.0 + 0.05 * i} for i in range(12)],
                            start=dt.datetime(2022, 10, 4, 6, 0))
        for a, b in zip(model.run_online(more), clone.run_online(more)):
            assert a.state == b.state
            if a.forecast is not None:
                np.testing.assert_array_equal(a.forecast.y_hat, b.forecast.y_hat)
                np.testing.assert_array_equal(a.forecast.sigma, b.forecast.sigma)
        assert clone.to_json() == model.to_json()

    @staticmethod
    def _twice(doc):
        """The params with every pattern's states listed twice, under the same key."""
        params = doc["params"]
        for part in (params["keys"], *(params[side][name] for side in "uv"
                                       for name in ("H", "Sigma", "P", "gamma", "n_updates"))):
            part.extend(part)

    @pytest.mark.parametrize("damage", [
        lambda doc: doc["dirichlet"]["counts"][0].__setitem__(0, [np.nan, np.nan]),
        lambda doc: doc["dirichlet"]["counts"][0].__setitem__(slice(1, None),
                                                              [[0.0, 0.0], [0.0, 0.0]]),
        lambda doc: doc["dirichlet"].update(n_states=3, keys=[], counts=[]),
        lambda doc: doc["dirichlet"].update(pattern_length=2, keys=[], counts=[]),
        lambda doc: doc["params"]["keys"].__setitem__(0, "1x0"),
        lambda doc: doc["clusters"]["centroids"][0].__setitem__(0, np.nan),
        lambda doc: doc["clusters"].update(counts=[1.0, 0.0]),
        lambda doc: doc["clusters"].update(mean=[np.inf]),
        lambda doc: doc["clusters"].update(scale=[0.0]),
        lambda doc: doc["clusters"].update(scale=[np.nan]),
        lambda doc: doc["params"]["u"]["P"][0][0].__setitem__(1, 0.5),
        lambda doc: _set_state(doc, "100", "v", n_updates=-3.7),
        lambda doc: _set_state(doc, "100", "u", n_updates=2.5),
        lambda doc: TestSnapshot._twice(doc),
        lambda doc: doc["dirichlet"].update(keys=doc["dirichlet"]["keys"] * 2,
                                            counts=doc["dirichlet"]["counts"] * 2),
        lambda doc: doc["params"].update(keys="100"),
        lambda doc: doc["params"]["v"]["gamma"].append(1.0),
        lambda doc: doc["params"]["u"].pop("Sigma"),
    ], ids=["nan-counts", "zero-counts", "n-states", "pattern-length", "params-key",
            "nan-centroid", "empty-cluster", "inf-mean", "zero-scale", "nan-scale",
            "asymmetric-p", "negative-n-updates", "fractional-n-updates",
            "repeated-params-key", "repeated-counts-key", "params-keys-not-a-list",
            "one-gamma-too-many", "no-sigma-stack"])
    def test_restore_rejects_damaged_states_and_counts(self, damage):
        model, _ = self._trained()
        doc = model.snapshot()
        damage(doc)
        with pytest.raises(RestoreError):
            IoHmmModel.restore(doc)

    def test_a_repeated_pattern_key_is_refused_by_name(self):
        model, _ = self._trained()
        doc = model.snapshot()
        self._twice(doc)
        with pytest.raises(RestoreError, match=r"pattern keys repeat in \['100', '100'\]"):
            IoHmmModel.restore(doc)

    @pytest.mark.parametrize("side", ["dirichlet", "params"])
    def test_restore_refuses_pattern_keys_that_differ(self, side):
        # a pattern with predictors but no counts would restart its counts
        # from the prior at the next pass, and one with counts but no
        # predictors its predictors
        model, _ = self._trained()
        doc = model.snapshot()
        part = doc[side]
        for stack in ([part["keys"], part["counts"]] if side == "dirichlet" else
                      [part["keys"], *(part[s][name] for s in "uv"
                                       for name in ("H", "Sigma", "P", "gamma", "n_updates"))]):
            del stack[0]
        with pytest.raises(RestoreError, match="pattern keys differ"):
            IoHmmModel.restore(doc)

    @pytest.mark.parametrize("section, name, value", [
        ("config", "allow_cold_start", "false"), ("config", "allow_cold_start", 0),
        ("clusters", "reached_threshold", "false"), ("clusters", "reached_threshold", 1),
        ("clusters", "K", 2.5), ("clusters", "K", "2"),
        ("dirichlet", "n_states", 2.9), ("dirichlet", "n_states", True),
        ("dirichlet", "pattern_length", 3.5), ("dirichlet", "pattern_length", "3"),
        ("config", "lambda_u", "0.99"), ("config", "lambda_v", None),
        ("config.features", "q", 1.7), ("config.features", "q", "1"),
        ("clusters", "gof", "0.5")])
    def test_restore_rejects_scalars_of_another_kind(self, section, name, value):
        model, _ = self._trained()
        doc = model.snapshot()
        part = doc
        for key in section.split("."):
            part = part[key]
        part[name] = value
        with pytest.raises(RestoreError, match=name):
            IoHmmModel.restore(doc)

    def test_restore_takes_integral_floats(self):
        model, _ = self._trained()
        doc = model.snapshot()
        doc["clusters"]["K"] = float(doc["clusters"]["K"])
        doc["dirichlet"].update(n_states=float(doc["dirichlet"]["n_states"]),
                                pattern_length=float(doc["dirichlet"]["pattern_length"]))
        features = doc["config"]["features"]
        features.update(q=float(features["q"]))
        assert IoHmmModel.restore(doc).to_json() == model.to_json()

    def test_an_older_snapshot_with_max_lags_and_threshold_loads(self):
        # a current document that also carries the entries earlier versions
        # wrote: they are ignored
        model, _ = self._trained()
        doc = model.snapshot()
        assert "max_lags" not in doc["config"]["features"]
        assert "threshold" not in doc["clusters"]
        doc["config"]["features"]["max_lags"] = 5
        doc["clusters"]["threshold"] = 0.8
        assert IoHmmModel.restore(doc).to_json() == model.to_json()

    def test_save_load(self, tmp_path):
        model, _ = self._trained()
        path = tmp_path / "model.json"
        model.save(path)
        clone = IoHmmModel.load(path)
        assert clone.to_json() == model.to_json()

    def test_restore_rejects_foreign_documents(self):
        model, _ = self._trained()
        doc = model.snapshot()
        doc["format"] = "something-else"
        with pytest.raises(RestoreError):
            IoHmmModel.restore(doc)
        doc = model.snapshot()
        doc["version"] = 99
        with pytest.raises(RestoreError):
            IoHmmModel.restore(doc)
        doc = model.snapshot()
        del doc["config"]
        with pytest.raises(RestoreError):
            IoHmmModel.restore(doc)

    def test_a_version_1_snapshot_is_refused_with_a_call_to_refit(self):
        # version 1 kept one document per state; one reader reads version 2
        model, _ = self._trained()
        doc = model.snapshot()
        assert doc["version"] == 2
        doc["version"] = 1
        with pytest.raises(RestoreError, match="unsupported snapshot version 1: .*refit"):
            IoHmmModel.restore(doc)

    def test_the_states_and_counts_are_stacks_over_sorted_keys(self):
        model = _model(allow_cold_start=True)
        _learn(model, TestRunOnline()._records(25))
        doc = model.snapshot()
        params, keys = doc["params"], sorted(model.params)
        assert params["keys"] == doc["dirichlet"]["keys"] == keys and len(keys) == 3
        for side in "uv":
            states = [getattr(model.params[key], side) for key in keys]
            assert params[side] == {
                **{name: [getattr(st, name).tolist() for st in states]
                   for name in ("H", "Sigma", "P")},
                "gamma": [st.gamma for st in states], "n_updates": [st.n_updates for st in states]}
        assert doc["dirichlet"]["counts"] == [model.dirichlet.counts[key].tolist() for key in keys]

    def test_learning_one_restored_pattern_leaves_the_others_arrays_alone(self):
        # the restored states and count rows are views into one stack per field
        model = _model(allow_cold_start=True)
        records = TestRunOnline()._records(25)
        _learn(model, records[:20])
        doc = model.snapshot()
        clone = IoHmmModel.restore(doc)
        assert clone.params["010"].u.H.base is clone.params["100"].u.H.base is not None
        table = build_features(records, model.config.features)
        assert pattern_key(table.z[21]) == "001"
        clone.learn_step(*_row(table, 21), 1, 2)
        model.learn_step(*_row(table, 21), 1, 2)
        assert clone.to_json() == model.to_json()
        learned = clone.snapshot()
        assert learned["params"]["u"]["gamma"] != doc["params"]["u"]["gamma"]
        for key in ("010", "100"):
            i = doc["params"]["keys"].index(key)
            for side in "uv":
                for name in ("H", "Sigma", "P", "gamma", "n_updates"):
                    assert learned["params"][side][name][i] == doc["params"][side][name][i]
            assert learned["dirichlet"]["counts"][i] == doc["dirichlet"]["counts"][i]

    @pytest.mark.parametrize("clusters", [True, False], ids=["no-patterns", "unfitted"])
    def test_a_model_without_patterns_round_trips(self, clusters):
        model = _model() if clusters else IoHmmModel(ModelConfig(features=_feature_config()))
        doc = json.loads(model.to_json())
        empty = dict.fromkeys(("H", "Sigma", "P", "gamma", "n_updates"), [])
        assert doc["params"] == {"keys": [], "u": empty, "v": empty}
        assert (doc["dirichlet"] is None) is not clusters
        clone = IoHmmModel.restore(doc)
        assert clone.params == {} and clone.to_json() == model.to_json()
        if clusters:
            assert clone.dirichlet.counts == {} and clone.n_states == 2
        else:
            assert clone.clusters is None and clone.dirichlet is None

    def test_states_without_a_cluster_model_are_refused(self):
        model, _ = self._trained()
        doc = model.snapshot()
        doc["clusters"] = None
        with pytest.raises(RestoreError):
            IoHmmModel.restore(doc)

    def test_restore_checks_state_dimensions(self):
        # a regressor fewer in every u state: the stack's shape is refused
        model, _ = self._trained()
        doc = model.snapshot()
        doc["params"]["u"]["H"] = [H[1:] for H in doc["params"]["u"]["H"]]
        with pytest.raises(RestoreError, match=r"u H has shape \(1, 4, 2\), not \(1, 5, 2\)"):
            IoHmmModel.restore(doc)

    @pytest.mark.parametrize("side, more, message", [
        ("u", (1, 0), "u H has shape"), ("v", (0, 1), "v H has shape")])
    def test_restore_checks_whole_states(self, side, more, message):
        # a self-consistent stack of another shape: one regressor, or one
        # response, more than the model has
        model, _ = self._trained()
        doc = model.snapshot()
        n_predictors = model.u_dim if side == "u" else model.n_states
        doc["params"][side] = state_stacks(
            [AdaptiveState(n_predictors + more[0], model.n_responses + more[1], 0.9)])
        with pytest.raises(RestoreError, match=message):
            IoHmmModel.restore(doc)

    def test_corrupt_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(RestoreError):
            IoHmmModel.load(path)

    def test_restore_rejects_a_negative_noise_covariance(self):
        model, _ = self._trained()
        doc = model.snapshot()
        _set_state(doc, "100", "v", Sigma=[[1.0, 0.0], [0.0, -1e-6]])
        with pytest.raises(RestoreError, match="negative eigenvalues for pattern '100'"):
            IoHmmModel.restore(doc)

    def test_restore_rejects_a_regressor_repeating_the_pattern(self):
        # what earlier default configurations wrote: shift dummies in w
        model, _ = self._trained()
        doc = model.snapshot()
        doc["config"]["features"]["w_spec"] = ["shift_code==A", "shift_code==N", "ics"]
        with pytest.raises(RestoreError, match="'shift_code==A'"):
            IoHmmModel.restore(doc)


class TestLongStream:
    def test_two_years_stream_without_windup(self):
        # the default configuration, fitted on 14 days and then fed two
        # years: the regressor-side precision proxy must stay bounded
        records = generate_synthetic(SyntheticSpec(
            states=3,
            transition=((0.80, 0.15, 0.05), (0.10, 0.80, 0.10), (0.05, 0.15, 0.80)),
            state_means=((3.2, 2.9), (2.4, 2.0), (1.5, 1.1)),
            noise_cov=((0.04, 0.01), (0.01, 0.04)),
            ar=(((0.3, 0.0), (0.0, 0.3)),),
            shift_effects={"N": (-0.2, -0.2)},
            days=730, periods_per_shift=6, dt_max=0.4, qu_frac_max=0.05, seed=1))
        n_fit = 14 * 18
        model = IoHmmModel(ModelConfig(features=default_feature_config(records)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # K selection on the 14-day fit
            model.fit(records[:n_fit])
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            steps = model.run_online(records, indices=range(n_fit, len(records)))
        assert len(steps) == len(records) - n_fit
        assert all(step.forecast is not None for step in steps)
        for states in model.params.values():
            assert states.u.n_updates > 3000
            assert np.linalg.cond(states.u.P) < 1e4
            np.testing.assert_array_equal(states.u.Sigma, states.u.Sigma.T)



def _wind_up():
    """Fifty updates of a predictor that sees one direction only: the fiftieth
    checks the conditioning and warns."""
    state = AdaptiveState(2, 1, forgetting=0.6)
    for _ in range(50):
        state.update([1.0, 0.0], [1.0])


@pytest.mark.parametrize("entry", ["AdaptiveState.update", "run_online", "learn_tables",
                                   "walk_tables", "IoHmmModel.fit", "leave_one_week_out"])
def test_warnings_point_at_the_callers_line(setting, entry):
    # however deep in the package a warning arises, it is attributed to the
    # first caller outside it: this file
    records, features, states = setting
    fast = IoHmmModel(ModelConfig(features=features, lambda_u=0.7, lambda_v=0.7,
                                  allow_cold_start=True), clusters=copy.deepcopy(states))
    table = build_features(records, features)
    run, category = {
        "AdaptiveState.update": (_wind_up, ConditioningWarning),
        "run_online": (lambda: fast.run_online(records), ConditioningWarning),
        "learn_tables": (lambda: learn_tables([fast], [table]), ConditioningWarning),
        "walk_tables": (lambda: walk_tables([fast], [table], [range(len(records))]),
                        ConditioningWarning),
        "IoHmmModel.fit": (lambda: IoHmmModel(ModelConfig(features=features)).fit(
            records, threshold=0.99, k_max=3), ThresholdWarning),
        "leave_one_week_out": (lambda: leave_one_week_out(
            records, model_names=("iohmm-q1",), threshold=0.99, k_max=3), ThresholdWarning),
    }[entry]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
    assert category in {w.category for w in caught}
    assert {w.filename for w in caught} == {__file__}
