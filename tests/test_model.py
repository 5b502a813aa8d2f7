import datetime as dt

import numpy as np
import pytest

from opcast import (AdaptiveState, ClusterModel, ConfigurationError,
                    DimensionError, FeatureConfig, ForecastUnavailableError,
                    IoHmmModel, ModelConfig, NumericError, RestoreError,
                    Standardizer, build_features, classification_vector,
                    combination_weights, combine)
from opcast.model import ForecastResult

from conftest import build_stream


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


def _row(table, i):
    """(z, w, y) of one record position, the learn_step inputs."""
    return table.z[i], table.w[i], table.y[i]


class TestCombinationWeights:
    def test_share_of_competing_variance(self):
        d = combination_weights(np.array([1.0, 4.0]), np.array([3.0, 4.0]))
        np.testing.assert_allclose(d, [0.75, 0.5])

    def test_matrix_inputs_use_diagonals(self):
        su = np.array([[1.0, 9.0], [9.0, 4.0]])
        sv = np.array([[3.0, -2.0], [-2.0, 12.0]])
        np.testing.assert_allclose(combination_weights(su, sv),
                                   [0.75, 0.75])

    def test_both_zero_is_a_half(self):
        np.testing.assert_allclose(
            combination_weights(np.zeros(2), np.zeros(2)), [0.5, 0.5])

    def test_one_zero_takes_all_weight(self):
        np.testing.assert_allclose(
            combination_weights(np.array([0.0]), np.array([2.0])), [1.0])
        np.testing.assert_allclose(
            combination_weights(np.array([2.0]), np.array([0.0])), [0.0])

    def test_rounding_noise_clipped_but_real_negative_raises(self):
        d = combination_weights(np.array([-1e-12]), np.array([1.0]))
        np.testing.assert_allclose(d, [1.0])
        with pytest.raises(NumericError):
            combination_weights(np.array([-1e-6]), np.array([1.0]))

    def test_mismatched_sizes(self):
        with pytest.raises(DimensionError):
            combination_weights(np.zeros(2), np.zeros(3))


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
            model.dirichlet.initial_counts("100"), [1.5, 0.5])

    def test_transition_vs_initial_dispatch(self):
        model = _model()
        records = build_stream([{"OpT": 6.0}, {"OpT": 7.0}, {"OpT": 8.0}])
        table = build_features(records, model.config.features)
        model.learn_step(*_row(table, 1), None, 2)
        model.learn_step(*_row(table, 2), 2, 1)
        np.testing.assert_array_equal(
            model.dirichlet.initial_counts("100"), [0.5, 1.5])
        expected = np.full((2, 2), 0.5)
        expected[1, 0] += 1.0
        np.testing.assert_array_equal(
            model.dirichlet.transition_counts("100"), expected)

    def test_regressor_dimension_checked(self):
        model = _model(q=1)
        records = build_stream([{}, {}])
        table = build_features(records, _feature_config(q=0))
        with pytest.raises(DimensionError):
            model.learn_step(*_row(table, 0), None, 1)

    def test_requires_clusters(self):
        model = IoHmmModel(ModelConfig(features=_feature_config()))
        records = build_stream([{}, {}])
        table = build_features(records, _feature_config())
        with pytest.raises(ConfigurationError):
            model.learn_step(*_row(table, 1), None, 1)


class TestForecastStep:
    def test_state_lookup_happens_before_centroid_update(self):
        model = _model(centroids=((0.0,), (10.0,)), lambda_u=1.0,
                       lambda_v=1.0, allow_cold_start=True)
        records = build_stream([{"OpT": 6.0}, {"OpT": 7.0}])
        table = build_features(records, model.config.features)
        out = model.forecast_step([6.0], table.z[1], table.w[1],
                                  bool(table.begins_shift[1]))
        # nearest centroid to 6.0 is 10.0 (distance 4 vs 6)
        assert out.state == 2
        # and the centroid absorbed the point afterwards: (10+6)/2
        np.testing.assert_allclose(model.clusters.centroids[1], [8.0])
        np.testing.assert_allclose(model.clusters.centroids[0], [0.0])
        # updating first would have moved the centroid to 8 before the
        # lookup and a later point at 3.9 would then flip its state
        assert model.clusters.counts[1] == 2.0

    def test_cold_start_policy(self):
        records = build_stream([{"OpT": 6.0}, {"OpT": 7.0}])
        table = build_features(records, _feature_config())
        z, w, begins = table.z[1], table.w[1], bool(table.begins_shift[1])
        model = _model()
        with pytest.raises(ForecastUnavailableError):
            model.forecast_step([6.0], z, w, begins)
        model = _model(allow_cold_start=True)
        out = model.forecast_step([6.0], z, w, begins)
        assert out.cold_start
        np.testing.assert_allclose(out.y_hat, [0.0, 0.0])
        np.testing.assert_allclose(out.intervals, 0.0)

    def test_begins_switches_to_initial_counts(self):
        model = _model(allow_cold_start=True, lambda_u=1.0, lambda_v=1.0)
        records = build_stream([{"OpT": 6.0}, {"OpT": 7.0}, {"OpT": 8.0}])
        table = build_features(records, model.config.features)
        model.learn_step(*_row(table, 1), None, 1)
        model.learn_step(*_row(table, 2), 1, 2)
        z, w = table.z[2], table.w[2]

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

    def test_last_forecast_is_cached(self):
        model = _model(allow_cold_start=True)
        records = build_stream([{"OpT": 6.0}, {"OpT": 7.0}])
        table = build_features(records, model.config.features)
        assert model.last_forecast is None
        out = model.forecast_step([6.0], table.z[1], table.w[1],
                                  bool(table.begins_shift[1]))
        assert model.last_forecast is out
        assert model.last_state == out.state


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

    def test_forecast_from_delays_forecasting(self):
        records = self._records(20)
        model = _model(q=1, allow_cold_start=True)
        results = model.run_online(records, forecast_from=10)
        assert [r.index for r in results if r.forecast is not None] == \
            list(range(10, 20))

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
                got.append(manual.forecast_step(t_prev, table.z[i], table.w[i],
                                                begins))
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

    def test_states_are_nearest_centroids(self):
        records = self._records(15, seed=7)
        model = _model(q=1, allow_cold_start=True,
                       centroids=((5.0,), (8.0,)))
        results = model.run_online(records)
        for r in results:
            assert r.state in (1, 2)


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
        assert table.w.shape == (30, 2 * q)
        model = IoHmmModel(ModelConfig(features=features, allow_cold_start=True))
        model.fit(records, seed=0, k_max=3)
        assert model.u_dim == 1 + 2 * q
        results = model.run_online(records, forecast_from=20)
        forecasts = [r.forecast for r in results if r.forecast is not None]
        assert len(forecasts) == 10
        assert all(np.isfinite(f.y_hat).all() for f in forecasts)

    def test_attach_rejects_wrong_dimension(self):
        config = ModelConfig(features=_feature_config(t_spec=("OpT", "av")))
        with pytest.raises(DimensionError):
            IoHmmModel(config, clusters=_manual_clusters([[0.0], [1.0]]))


class TestSnapshot:
    def _trained(self):
        records = build_stream([{"OpT": 6.0 + 0.1 * i} for i in range(12)])
        model = _model(q=1, allow_cold_start=True)
        model.run_online(records)
        return model, records

    def test_json_roundtrip_is_exact(self):
        model, records = self._trained()
        clone = IoHmmModel.restore(__import__("json").loads(model.to_json()))
        assert clone.to_json() == model.to_json()

    def test_restored_model_continues_identically(self):
        model, records = self._trained()
        clone = IoHmmModel.restore(__import__("json").loads(model.to_json()))
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

    def test_restore_checks_state_dimensions(self):
        model, _ = self._trained()
        doc = model.snapshot()
        key = next(iter(doc["params"]))
        doc["params"][key]["u"]["n_predictors"] = 99
        with pytest.raises(RestoreError):
            IoHmmModel.restore(doc)

    def test_corrupt_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(RestoreError):
            IoHmmModel.load(path)


class TestForecastResultDict:
    def test_roundtrip(self):
        result = ForecastResult(y_hat=np.array([1.0, 2.0]),
                                sigma=np.array([[0.5, 0.1], [0.1, 0.4]]),
                                weights=np.array([0.6, 0.7]),
                                intervals=np.array([[0.0, 2.0], [1.0, 3.0]]),
                                cold_start=False, state=2, pattern="010",
                                begins=True)
        doc = result.to_dict(("OpT", "NOpT"))
        back = ForecastResult.from_dict(doc, ("OpT", "NOpT"))
        np.testing.assert_array_equal(back.y_hat, result.y_hat)
        np.testing.assert_array_equal(back.sigma, result.sigma)
        np.testing.assert_array_equal(back.intervals, result.intervals)
        assert back.state == 2 and back.pattern == "010" and back.begins
