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
            model = fit_auto_k(pts, threshold=0.995, k_max=3)
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
        with pytest.raises(DegenerateDataError, match="cannot form 2 clusters"):
            fit_auto_k(pts)
        # two distinct points whose standardized squares underflow to zero
        with pytest.raises(DegenerateDataError, match="classification points have zero spread"):
            fit_auto_k([[1e-200], [2e-200]])

    def test_k_cap_at_distinct_points(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0]] * 20)
        model = fit_auto_k(pts, threshold=0.8, k_max=12, seed=0)
        assert model.K == 2
        assert model.gof == pytest.approx(1.0)

    def test_parameter_validation(self):
        pts = np.random.default_rng(0).normal(size=(30, 2))
        with pytest.raises(ConfigurationError):
            fit_auto_k(pts, threshold=0.0)
        with pytest.raises(ConfigurationError, match="need k_max >= 2, got 1"):
            fit_auto_k(pts, k_max=1)
        with pytest.raises(ConfigurationError, match="need k_max >= 2, got -4"):
            fit_auto_k(pts, k_max=-4)
        with pytest.raises(ConfigurationError, match="need k_max >= 2, got 2.5"):
            fit_auto_k(pts, k_max=2.5)
        with pytest.raises(ConfigurationError, match="threshold must lie in"):
            fit_auto_k(pts, threshold=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ThresholdWarning)
            assert fit_auto_k(pts, k_max=4.0).to_dict() == fit_auto_k(pts, k_max=4).to_dict()
        with pytest.raises(DimensionError):
            fit_auto_k(np.ones(5))


class TestGainStop:
    """Short of the threshold, the K search stops before the first K that adds
    less than ``MIN_GAIN`` of the spread."""

    @staticmethod
    def _no_structure():
        return np.random.default_rng(2).normal(size=(200, 3))  # the step to K=9 adds 0.0027

    @staticmethod
    def _share(pts, K, seed=0):
        """The share of the fit the search makes at K: its one run, seeded
        with ``[seed, K]``, on the standardized points."""
        X = Standardizer.fit(pts).transform(pts)
        wss = clustering._lloyd(X, K, np.random.default_rng([seed, K]))[2]
        return 1.0 - wss / float(((X - X.mean(axis=0)) ** 2).sum())

    def test_the_result_is_the_search_capped_at_its_k(self):
        pts = self._no_structure()
        with pytest.warns(ThresholdWarning):
            model = fit_auto_k(pts)
            capped = fit_auto_k(pts, k_max=model.K)
        assert 2 < model.K < 12 and not model.reached_threshold
        assert model.centroids.tobytes() == capped.centroids.tobytes()
        assert model.counts.tobytes() == capped.counts.tobytes()
        assert model.gof == capped.gof == self._share(pts, model.K)
        shares = [self._share(pts, K) for K in range(2, model.K + 2)]
        steps = np.diff(shares)
        assert steps[-1] < clustering.MIN_GAIN <= steps[:-1].min()

    def test_a_threshold_reached_still_wins(self):
        # at the share of the K past the stop, the paper's rule reaches it there
        pts = self._no_structure()
        with pytest.warns(ThresholdWarning):
            stop = fit_auto_k(pts).K
        threshold = self._share(pts, stop + 1)
        assert threshold - self._share(pts, stop) < clustering.MIN_GAIN
        with warnings.catch_warnings():
            warnings.simplefilter("error", ThresholdWarning)
            model = fit_auto_k(pts, threshold=threshold)
        assert model.K == stop + 1 and model.reached_threshold

    def test_steps_at_or_above_the_least_gain_run_to_k_max(self):
        rng = np.random.default_rng(0)
        centers = rng.uniform(-50.0, 50.0, size=(6, 2))
        pts = np.concatenate([c + rng.normal(size=(30, 2)) for c in centers])
        with pytest.warns(ThresholdWarning, match=r"\(K=5 is the largest tried\); using K=5"):
            model = fit_auto_k(pts, threshold=0.9999, k_max=5)
        assert model.K == 5 and not model.reached_threshold

    def test_the_warning_names_the_stop(self):
        pts = self._no_structure()
        with pytest.warns(ThresholdWarning) as caught:
            model = fit_auto_k(pts)
        step = self._share(pts, model.K + 1) - self._share(pts, model.K)
        assert len(caught) == 1
        assert (f"(K={model.K + 1} adds {step:.4f}" in str(caught[0].message)
                and f"< {clustering.MIN_GAIN} of the spread); using K={model.K}"
                in str(caught[0].message))


class TestOneRunPerK:
    """The search makes one Lloyd run per K tried, seeded with ``[seed, K]``."""

    @staticmethod
    def _runs(monkeypatch, pts, **kwargs):
        runs, lloyd = [], clustering._lloyd

        def counted(X, K, rng):
            runs.append((K, rng.bit_generator.state))
            return lloyd(X, K, rng)
        monkeypatch.setattr(clustering, "_lloyd", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ThresholdWarning)
            model = fit_auto_k(pts, **kwargs)
        return model, runs

    @pytest.mark.parametrize("seed", [0, 5])
    def test_up_to_the_gain_stop(self, monkeypatch, seed):
        pts = TestGainStop._no_structure()
        model, runs = self._runs(monkeypatch, pts, seed=seed)
        assert not model.reached_threshold
        assert [K for K, _ in runs] == list(range(2, model.K + 2))
        assert all(state == np.random.default_rng([seed, K]).bit_generator.state
                   for K, state in runs)

    def test_up_to_the_threshold(self, monkeypatch):
        rng = np.random.default_rng(8)
        pts, _ = _blobs(rng, [[0.0, 0.0], [10.0, 0.0], [5.0, 9.0]], spread=1.0)
        model, runs = self._runs(monkeypatch, pts, seed=3)
        assert model.K == 3 and model.reached_threshold
        assert runs == [(K, np.random.default_rng([3, K]).bit_generator.state)
                        for K in (2, 3)]


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
        for label in (1.7, "2", True, 2.0):  # a label is an integer, never a float or bool
            with pytest.raises(StateIndexError):
                model.update_centroid(label, [0.5, 0.5])
        np.testing.assert_array_equal(model.centroids, [[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(model.counts, [1.0, 1.0])
        with pytest.raises(DimensionError):
            model.assign([0.0])
        for t in ([np.nan, 0.0], np.array(["0.5", "0.5"], dtype=object)):
            with pytest.raises(InputError):
                model.assign(t)

    @pytest.mark.parametrize("t, error", [([np.nan, 0.0], InputError),
                                          ([0.0, -np.inf], InputError),
                                          (np.array(["0.5", "0.5"], dtype=object),
                                           InputError),
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
        doc = model.to_dict()
        doc["mean"] = [0.0, 0.0]  # the centroids have one dimension
        with pytest.raises(DimensionError, match="serialized standardizer is inconsistent"):
            ClusterModel.from_dict(doc)


# heavy tails: signed squares of Cauchy draws in 3-D, rounded to integers.
# The K search reaches K=6 (threshold 0.999), and its one run there leaves a
# cluster empty after an assignment step.
REPAIR_POINTS = np.array([
    [-5, 0, 4], [-1, 4, 6], [-34, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, -222], [1, -1, -117],
    [0, 11, -133], [0, -1, 0], [1, 2, 0], [-2, -5, 0], [1, -30, 0], [0, -1, -12], [4, -3, -1],
    [3174, -2, -1], [-7, 0, 0], [-100, 9, 1], [-58, 14, 0], [0, 0, 0], [0, 0, 0], [-2, -1, 0],
    [2, 0, -1], [0, -5, -19], [2, 0, 56], [-3, 69, -1], [0, 0, 0], [-78, 0, 5], [-330, 0, -1]],
    dtype=float)
REPAIR_K = 6


class TestEmptyClusterRepair:
    def test_forced_empty_cluster_is_repaired(self):
        # the repair must give six non-empty states, as the masked means do
        X = Standardizer.fit(REPAIR_POINTS).transform(REPAIR_POINTS)
        repairs = []
        (centroids, assign, _), ref = (
            lloyd(X, REPAIR_K, np.random.default_rng([0, REPAIR_K]))
            for lloyd in (clustering._lloyd, _masked_mean_lloyd(repairs)))
        assert repairs, f"the point set no longer empties a cluster at K={REPAIR_K}"
        assert np.isfinite(centroids).all()
        counts = np.bincount(assign, minlength=REPAIR_K)
        assert counts.size == REPAIR_K and (counts > 0).all() and counts.sum() == 28
        assert counts.tobytes() == np.bincount(ref[1], minlength=REPAIR_K).tobytes()
        assert centroids.tobytes() == ref[0].tobytes()


def _masked_mean_lloyd(repairs):
    """Lloyd's loop with the centroid step as K masked means (the reference).

    Counts every empty-cluster repair into ``repairs``.
    """
    def lloyd(X, K, rng):
        n = X.shape[0]
        centroids = clustering._plus_plus_seed(X, K, rng)
        prev = None
        for _ in range(clustering.MAX_ITER):
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


def _reference_seed(X, K, rng):
    """Greedy k-means++ with each distance a last-axis sum over the (n, D)
    squares: of ``2 + int(log K)`` candidates drawn with the D² weights, the
    one leaving the lowest potential (the first on ties) becomes the centre."""
    trials = 2 + int(np.log(K))
    centroids = np.empty((K, X.shape[1]))
    centroids[0] = X[rng.integers(len(X))]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        cands = rng.choice(len(X), size=trials, p=d2 / d2.sum())
        reach = [np.minimum(d2, ((X - X[c]) ** 2).sum(axis=1)) for c in cands]
        best = min(range(trials), key=lambda j: reach[j].sum())
        centroids[k], d2 = X[cands[best]], reach[best]
    return centroids


class TestLloydOracle:
    """The bincount centroid step reproduces the masked means bit for bit."""

    @staticmethod
    def _point_sets():
        rng = np.random.default_rng(2024)
        yield "repair", REPAIR_POINTS, 8  # the search's run at K=6 empties a cluster
        yield "blobs", _blobs(rng, [[0.0, 0.0], [4.0, 1.0], [1.0, 5.0]],
                              n_per=40, spread=0.4)[0], 6
        yield "wide", rng.normal(size=(500, 6)) * [1.0, 3.0, 0.1, 10.0, 1.0, 50.0], 8
        yield "ties", np.round(rng.normal(size=(300, 3)), 1), 8
        # past eight columns numpy sums a distance in eight running sums
        yield "heavy-9", np.random.default_rng(909).standard_cauchy(size=(120, 9)), 6
        yield "ties-17", np.round(rng.normal(size=(200, 17)), 1), 6

    def test_fit_auto_k_matches_masked_means(self, monkeypatch):
        for name, pts, k_max in self._point_sets():
            repairs = []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ThresholdWarning)
                fast = fit_auto_k(pts, threshold=0.999, k_max=k_max)
                with monkeypatch.context() as patch:
                    patch.setattr(clustering, "_lloyd", _masked_mean_lloyd(repairs))
                    ref = fit_auto_k(pts, threshold=0.999, k_max=k_max)
            assert fast.K == ref.K, name
            assert fast.gof == ref.gof, name
            assert fast.centroids.tobytes() == ref.centroids.tobytes(), name
            assert fast.counts.tobytes() == ref.counts.tobytes(), name
            if name == "repair":
                assert repairs, "the repair set no longer empties a cluster"

    def test_seeding_matches_the_plain_distances(self):
        for name, pts, k_max in self._point_sets():
            X = Standardizer.fit(pts).transform(pts)
            for r in range(3):
                fast = clustering._plus_plus_seed(X, k_max, np.random.default_rng([7, r]))
                ref = _reference_seed(X, k_max, np.random.default_rng([7, r]))
                assert fast.tobytes() == ref.tobytes(), (name, r)

    def test_lloyd_on_decimal_lattices_follows_numpy_order(self, monkeypatch):
        # squares of one-decimal differences round, so a distance depends on
        # the order of its sum: a point that is equally far from two centroids
        # in exact arithmetic is labelled by the last bits, past 8 columns too
        def differing_runs(X):
            found = []
            for K in range(2, 9):
                for r in range(10):
                    fast = clustering._lloyd(X, K, np.random.default_rng([0, K, r]))
                    with monkeypatch.context() as patch:
                        patch.setattr(clustering, "_plus_plus_seed", _reference_seed)
                        ref = _masked_mean_lloyd([])(X, K, np.random.default_rng([0, K, r]))
                    if (fast[0].tobytes(), fast[1].tobytes()) != (ref[0].tobytes(),
                                                                  ref[1].tobytes()):
                        found.append((K, r))
            return found

        def in_column_order(XT, C):
            return sum(np.square(XT[j] - C[:, j, None]) for j in range(len(XT)))

        for D, seed in ((9, 1), (17, 2)):
            X = np.round(np.random.default_rng([D, seed]).normal(size=(150, D)), 1)
            assert differing_runs(X) == [], D
            with monkeypatch.context() as patch:
                patch.setattr(clustering, "_sq_dists", in_column_order)
                assert differing_runs(X), f"D={D} no longer tells the orders apart"


class TestSquaredDistances:
    """``_sq_dists`` equals numpy's last-axis sum of the (n, K, D) squares bit for bit."""

    @pytest.mark.parametrize("D", [*range(1, 33), 129, 300])
    def test_matches_the_three_d_sum(self, D):
        rng = np.random.default_rng([D, 5])
        heavy = rng.standard_cauchy(size=(40, D))
        tied = np.round(rng.normal(size=(40, D)) * rng.uniform(0.1, 50.0, D), 1)
        for X in (heavy, tied):
            XT = np.ascontiguousarray(X.T)
            for C in (rng.normal(size=(12, D)), X[[3, 3, 7]]):
                want = ((X[:, None] - C) ** 2).sum(axis=2)
                assert clustering._sq_dists(XT, C).T.tobytes() == want.tobytes()
            c = X[11]
            want = ((X - c) ** 2).sum(axis=1)
            assert clustering._sq_dists(XT, c[None])[0].tobytes() == want.tobytes()
            # walk_labels' form: a transposed view of the points, each with its
            # own centroids, inf where fewer states pad; D = 7 is the widest
            # fast form, D = 8 the narrowest plain one
            stack = rng.standard_cauchy(size=(40, 5, D))
            stack[::3, -1] = np.inf
            want = ((X[:, None] - stack) ** 2).sum(axis=2)
            assert clustering._sq_dists(X.T, stack).T.tobytes() == want.tobytes()


class TestNearest:
    """The vectorized labelling ``nearest`` equals ``assign`` row by row."""

    @staticmethod
    def _per_row_oracle(model, pts):
        # the nearest-centroid rule written out, one row at a time
        out = []
        for p in pts:
            z = (p - model.standardizer.mean) / model.standardizer.scale
            out.append(int(((model.centroids - z) ** 2).sum(axis=1).argmin()) + 1)
        return out

    @staticmethod
    def _labels(model, pts):
        return model.nearest(model.standardizer.transform(pts)).tolist()

    @pytest.mark.parametrize("seed, K, D", [(0, 2, 1), (1, 5, 3), (2, 12, 6),
                                            (3, 7, 9), (4, 3, 17)])
    def test_matches_per_row_assign_on_random_tables(self, seed, K, D):
        rng = np.random.default_rng(seed)
        model = ClusterModel(
            K=K, centroids=rng.normal(size=(K, D)), counts=np.ones(K),
            standardizer=Standardizer(mean=rng.normal(size=D),
                                      scale=rng.uniform(0.5, 3.0, size=D)),
            gof=1.0, reached_threshold=True)
        pts = rng.normal(scale=2.0, size=(300, D))
        labels = self._labels(model, pts)
        assert labels == [model.assign(p) for p in pts]
        assert labels == self._per_row_oracle(model, pts)

    @pytest.mark.parametrize("D", [1, 5, 8, 9, 64, 128, 129, 300])
    def test_equals_the_broadcast_form_bit_for_bit(self, D):
        # one row and a block, at D <= 8 (no pairwise block), 8 < D <= 128
        # (pairwise blocks of eight) and D > 128 (past numpy's block size);
        # midpoints of two centroids and repeated centroids make near and
        # exact ties, where a sum in another order could flip the label
        rng = np.random.default_rng([D, 9])
        C = np.concatenate((rng.normal(size=(6, D)), rng.normal(size=(1, D)).repeat(2, 0)))
        model = ClusterModel(K=8, centroids=C, counts=np.ones(8),
                             standardizer=Standardizer(mean=np.zeros(D), scale=np.ones(D)),
                             gof=1.0, reached_threshold=True)
        pairs = rng.integers(0, 8, size=(30, 2))
        block = np.concatenate((rng.standard_cauchy(size=(30, D)),
                                (C[pairs[:, 0]] + C[pairs[:, 1]]) / 2.0, C[[6, 7]]))
        for X in (block[:1], block[30:31], block):
            want = ((X[:, None, :] - C) ** 2).sum(axis=2).argmin(axis=1) + 1
            assert model.nearest(X).tobytes() == want.tobytes()

    def test_matches_a_fitted_model(self):
        rng = np.random.default_rng(21)
        pts, _ = _blobs(rng, [[0.0, 0.0], [4.0, 1.0], [1.0, 5.0]], n_per=30, spread=0.6)
        model = fit_auto_k(pts, seed=1, k_max=5)
        assert self._labels(model, pts) == [model.assign(p) for p in pts]

    def test_equidistant_row_goes_to_the_lowest_index(self):
        model = ClusterModel(K=3, centroids=np.array([[4.0, 0.0], [0.0, 0.0], [0.0, 4.0]]),
                             counts=np.ones(3),
                             standardizer=Standardizer(mean=np.zeros(2),
                                                       scale=np.ones(2)),
                             gof=1.0, reached_threshold=True)
        # (2, 2) is at distance sqrt(8) from all three centroids
        pts = np.array([[2.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
        assert self._labels(model, pts) == [1, 1, 2]
        assert [model.assign(p) for p in pts] == [1, 1, 2]


class TestWalkLabels:
    """``walk_labels`` walks runs of rows in lockstep as a loop of ``absorb``
    and one-row ``nearest`` walks each run on its own copy of the centroids."""

    @staticmethod
    def _loop(clusters, X, labels, first, stop):
        walk = ClusterModel(K=clusters.K, centroids=clusters.centroids.copy(),
                            counts=clusters.counts.copy(), standardizer=clusters.standardizer,
                            gof=clusters.gof, reached_threshold=clusters.reached_threshold)
        labels = labels.copy()
        for i in range(first, stop):
            walk.absorb(labels[i - 1], X[i - 1])
            labels[i] = walk.nearest(X[i:i + 1])[0]
        return labels

    @pytest.mark.parametrize("D", [2, 9, 130])
    def test_ragged_walks_equal_their_loops(self, D):
        # K from 2 to 12 (padded with inf up to 12), runs of every length from
        # other starts, one empty, and one run of another dimension; near ties
        # from centroids that repeat
        rng = np.random.default_rng([D, 3])
        walks = []
        for j, K in enumerate((2, 5, 12, 7, 3)):
            C = rng.normal(size=(K, D))
            C[-1] = C[0]
            clusters = ClusterModel(K=K, centroids=C, counts=rng.integers(1, 9, K).astype(float),
                                    standardizer=Standardizer(mean=np.zeros(D), scale=np.ones(D)),
                                    gof=1.0, reached_threshold=True)
            X = rng.normal(size=(60, D)) * 2.0
            first = int(rng.integers(1, 30))
            stop = int(rng.integers(30, 61)) if j != 4 else first  # the last run is empty
            walks.append((clusters, X, clusters.nearest(X), first, stop))
        other = ClusterModel(K=4, centroids=rng.normal(size=(4, 3)), counts=np.ones(4),
                             standardizer=Standardizer(mean=np.zeros(3), scale=np.ones(3)),
                             gof=1.0, reached_threshold=True)
        X3 = rng.normal(size=(40, 3))
        walks.append((other, X3, other.nearest(X3), 5, 40))
        expected = [self._loop(*walk) for walk in walks]
        before = [(c.centroids.copy(), c.counts.copy()) for c, *_ in walks]
        clustering.walk_labels(walks)
        for (clusters, _, labels, first, _), want, (C, n) in zip(walks, expected, before):
            assert labels.tolist() == want.tolist()
            assert np.array_equal(clusters.centroids, C) and np.array_equal(clusters.counts, n)
