import warnings

import numpy as np
import pytest

from opcast import clustering
from opcast import (ClusterModel, ConfigurationError, DegenerateDataError,
                    DimensionError, InputError, OeeBand, StateIndexError,
                    Standardizer, ThresholdWarning, fit_auto_k, oee_band)


def _blobs(rng, centers, n_per=50, spread=0.05):
    """Well separated Gaussian blobs (spread is a fraction of separation)."""
    centers = np.asarray(centers, dtype=float)
    pts = np.concatenate([c + spread * rng.normal(size=(n_per, centers.shape[1]))
                          for c in centers])
    labels = np.repeat(np.arange(1, len(centers) + 1), n_per)
    return pts, labels


class TestBands:
    def test_boundaries(self):
        assert oee_band(0.9) is OeeBand.OPTIMAL
        assert oee_band(0.85) is OeeBand.GOOD
        assert oee_band(0.61) is OeeBand.GOOD
        assert oee_band(0.60) is OeeBand.IMPROVABLE
        assert oee_band(0.41) is OeeBand.IMPROVABLE
        assert oee_band(0.40) is OeeBand.POOR
        assert oee_band(0.0) is OeeBand.POOR

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            oee_band(float("nan"))


class TestStandardizer:
    def test_transform_and_inverse(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(loc=[3.0, -1.0], scale=[2.0, 0.5], size=(200, 2))
        std = Standardizer.fit(pts)
        z = std.transform(pts)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(std.inverse(z), pts, atol=1e-12)

    def test_constant_column_gets_unit_scale(self):
        pts = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        std = Standardizer.fit(pts)
        assert std.scale[1] == 1.0
        np.testing.assert_allclose(std.transform([2.0, 5.0]), [0.0, 0.0])


class TestAutoK:
    def test_two_blobs(self):
        rng = np.random.default_rng(7)
        pts, labels = _blobs(rng, [[0.0, 0.0], [10.0, 10.0]], spread=1.0)
        model = fit_auto_k(pts, threshold=0.8, seed=0)
        assert model.K == 2
        assert model.reached_threshold
        got = np.array([model.assign(p) for p in pts])
        # same partition as the generating labels, up to label names
        mapping = {got[0]: labels[0], got[-1]: labels[-1]}
        assert len(set(mapping)) == 2
        assert all(mapping[g] == l for g, l in zip(got, labels))

    def test_three_blobs(self):
        rng = np.random.default_rng(8)
        pts, _ = _blobs(rng, [[0.0, 0.0], [10.0, 0.0], [5.0, 9.0]],
                        spread=1.0)
        model = fit_auto_k(pts, threshold=0.8, seed=0)
        assert model.K == 3

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(9)
        pts, _ = _blobs(rng, [[0.0, 0.0], [6.0, 6.0]], spread=1.5)
        a = fit_auto_k(pts, seed=3)
        b = fit_auto_k(pts, seed=3)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.gof == b.gof

    def test_threshold_not_reached_warns_and_uses_k_max(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(120, 2))  # one fat blob, no real structure
        with pytest.warns(ThresholdWarning):
            model = fit_auto_k(pts, threshold=0.995, k_min=2, k_max=3)
        assert model.K == 3
        assert not model.reached_threshold
        assert model.gof < 0.995

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(12)
        pts, _ = _blobs(rng, [[0.0, 0.0], [8.0, 8.0]], n_per=40, spread=1.0)
        model = fit_auto_k(pts, seed=1)
        assert model.counts.sum() == 80.0

    def test_too_few_distinct_points(self):
        pts = np.array([[1.0, 2.0]] * 10)
        with pytest.raises(DegenerateDataError):
            fit_auto_k(pts)

    def test_k_cap_at_distinct_points(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0]] * 20)
        model = fit_auto_k(pts, threshold=0.8, k_min=2, k_max=12, seed=0)
        assert model.K == 2
        assert model.gof == pytest.approx(1.0)

    def test_parameter_validation(self):
        pts = np.random.default_rng(0).normal(size=(30, 2))
        with pytest.raises(ConfigurationError):
            fit_auto_k(pts, threshold=0.0)
        with pytest.raises(ConfigurationError):
            fit_auto_k(pts, k_min=1)
        with pytest.raises(ConfigurationError):
            fit_auto_k(pts, k_min=5, k_max=4)
        with pytest.raises(DimensionError):
            fit_auto_k(np.ones(5))


class TestClusterModel:
    def _manual(self, centroids, counts):
        centroids = np.asarray(centroids, dtype=float)
        return ClusterModel(K=centroids.shape[0], centroids=centroids.copy(),
                            counts=np.asarray(counts, dtype=float),
                            standardizer=Standardizer(
                                mean=np.zeros(centroids.shape[1]),
                                scale=np.ones(centroids.shape[1])),
                            gof=1.0, reached_threshold=True)

    def test_assign_nearest_one_based(self):
        model = self._manual([[0.0], [10.0]], [1.0, 1.0])
        assert model.assign([1.0]) == 1
        assert model.assign([9.0]) == 2

    def test_tie_goes_to_lowest_index(self):
        model = self._manual([[0.0], [10.0]], [1.0, 1.0])
        assert model.assign([5.0]) == 1

    def test_running_mean_update(self):
        model = self._manual([[0.0], [10.0]], [1.0, 1.0])
        model.update_centroid(2, [12.0])
        np.testing.assert_allclose(model.centroids[1], [11.0])
        assert model.counts[1] == 2.0
        model.update_centroid(2, [14.0])
        np.testing.assert_allclose(model.centroids[1], [12.0])
        # untouched centroid is untouched
        np.testing.assert_allclose(model.centroids[0], [0.0])

    def test_update_respects_standardizer(self):
        model = ClusterModel(K=1, centroids=np.array([[0.0]]),
                             counts=np.array([1.0]),
                             standardizer=Standardizer(mean=np.array([10.0]),
                                                       scale=np.array([2.0])),
                             gof=1.0, reached_threshold=True)
        model.update_centroid(1, [14.0])  # standardized value 2.0
        np.testing.assert_allclose(model.centroids[0], [1.0])
        np.testing.assert_allclose(model.centroids_original()[0], [12.0])

    def test_validation(self):
        model = self._manual([[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0])
        with pytest.raises(StateIndexError):
            model.update_centroid(0, [0.0, 0.0])
        with pytest.raises(StateIndexError):
            model.update_centroid(3, [0.0, 0.0])
        with pytest.raises(DimensionError):
            model.assign([0.0])
        with pytest.raises(InputError):
            model.assign([np.nan, 0.0])

    @pytest.mark.parametrize("t, error", [([np.nan, 0.0], InputError),
                                          ([0.0, -np.inf], InputError),
                                          ([0.0], DimensionError),
                                          ([0.0, 1.0, 2.0], DimensionError)])
    def test_rejected_centroid_update_leaves_model_untouched(self, t, error):
        model = self._manual([[0.0, 0.0], [1.0, 1.0]], [3.0, 2.0])
        with pytest.raises(error):
            model.update_centroid(2, t)
        np.testing.assert_array_equal(model.centroids, [[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(model.counts, [3.0, 2.0])

    def test_dict_roundtrip(self):
        rng = np.random.default_rng(13)
        pts, _ = _blobs(rng, [[0.0, 0.0], [7.0, 7.0]], spread=1.0)
        model = fit_auto_k(pts, seed=2)
        clone = ClusterModel.from_dict(model.to_dict())
        assert clone.K == model.K
        np.testing.assert_array_equal(clone.centroids, model.centroids)
        np.testing.assert_array_equal(clone.counts, model.counts)
        assert clone.gof == model.gof
        assert [clone.assign(p) for p in pts] == [model.assign(p) for p in pts]

    def test_restore_shape_checks(self):
        model = self._manual([[0.0], [1.0]], [1.0, 1.0])
        doc = model.to_dict()
        doc["counts"] = [1.0]
        with pytest.raises(DimensionError):
            ClusterModel.from_dict(doc)


class TestEmptyClusterRepair:
    def test_forced_empty_cluster_is_repaired(self, monkeypatch):
        # heavy tails: at K=8 one restart leaves a cluster empty after an
        # assignment step. The repair must produce eight non-empty states in
        # every restart, not only in the one that is kept.
        pts = np.random.default_rng(354).standard_cauchy(size=(24, 2))
        repairs, restarts = [], []
        lloyd = clustering._lloyd

        def recorded(X, K, rng, max_iter=300):
            restarts.append(lloyd(X, K, rng, max_iter))
            return restarts[-1]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ThresholdWarning)
            monkeypatch.setattr(clustering, "_lloyd", recorded)
            model = fit_auto_k(pts, threshold=0.999, k_min=8, k_max=8, seed=0)
            monkeypatch.setattr(clustering, "_lloyd", _masked_mean_lloyd(repairs))
            ref = fit_auto_k(pts, threshold=0.999, k_min=8, k_max=8, seed=0)
        assert repairs, "the point set no longer empties a cluster"
        for centroids, assign, _ in restarts:
            assert np.isfinite(centroids).all()
            assert np.bincount(assign, minlength=8).min() > 0
        assert model.K == 8
        assert (model.counts > 0).all()
        assert model.counts.sum() == 24.0
        assert model.counts.tobytes() == ref.counts.tobytes()


def _masked_mean_lloyd(repairs):
    """Lloyd's loop with the centroid step as K masked means (the reference).

    Counts every empty-cluster repair into ``repairs``.
    """
    def lloyd(X, K, rng, max_iter=300):
        n = X.shape[0]
        centroids = clustering._plus_plus_seed(X, K, rng)
        prev = None
        for _ in range(max_iter):
            d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            assign = d2.argmin(axis=1)
            counts = np.bincount(assign, minlength=K)
            for k in np.flatnonzero(counts == 0):
                repairs.append(k)
                own = d2[np.arange(n), assign]
                movable = counts[assign] > 1
                far = int(np.where(movable, own, -np.inf).argmax())
                counts[assign[far]] -= 1
                assign[far] = k
                counts[k] = 1
                centroids[k] = X[far]
            if prev is not None and np.array_equal(assign, prev):
                break
            prev = assign
            centroids = np.array([X[assign == k].mean(axis=0) for k in range(K)])
        wss = float(((X - centroids[assign]) ** 2).sum())
        return centroids, assign, wss
    return lloyd


class TestLloydOracle:
    """The bincount centroid step reproduces the masked means bit for bit."""

    @staticmethod
    def _point_sets():
        rng = np.random.default_rng(2024)
        # heavy tails: one restart of K=8 empties a cluster
        yield "repair", np.random.default_rng(354).standard_cauchy(size=(24, 2)), 2, 8
        yield "blobs", _blobs(rng, [[0.0, 0.0], [4.0, 1.0], [1.0, 5.0]],
                              n_per=40, spread=0.4)[0], 2, 6
        yield "wide", rng.normal(size=(500, 6)) * [1.0, 3.0, 0.1, 10.0, 1.0, 50.0], 2, 8
        yield "ties", np.round(rng.normal(size=(300, 3)), 1), 2, 8

    def test_fit_auto_k_matches_masked_means(self, monkeypatch):
        for name, pts, k_min, k_max in self._point_sets():
            repairs = []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ThresholdWarning)
                fast = fit_auto_k(pts, threshold=0.999, k_min=k_min, k_max=k_max)
                with monkeypatch.context() as patch:
                    patch.setattr(clustering, "_lloyd", _masked_mean_lloyd(repairs))
                    ref = fit_auto_k(pts, threshold=0.999, k_min=k_min, k_max=k_max)
            assert fast.K == ref.K, name
            assert fast.gof == ref.gof, name
            assert fast.centroids.tobytes() == ref.centroids.tobytes(), name
            assert fast.counts.tobytes() == ref.counts.tobytes(), name
            if name == "repair":
                assert repairs, "the repair set no longer empties a cluster"
