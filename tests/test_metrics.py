import numpy as np
import pytest

import opcast.metrics
import opcast.model
from opcast import DimensionError, NumericError, coverage, interval_width, mae, rmse


class TestPointMetrics:
    def test_hand_values(self):
        assert mae([1.0, 2.0, 3.0], [2.0, 2.0, 1.0]) == pytest.approx(1.0)
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            np.sqrt(12.5))

    def test_perfect_forecast(self):
        y = np.linspace(0, 5, 20)
        assert mae(y, y) == 0.0
        assert rmse(y, y) == 0.0

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=500)
        p = rng.normal(size=500)
        assert rmse(a, p) >= mae(a, p)

    def test_validation(self):
        with pytest.raises(DimensionError):
            mae([], [])
        with pytest.raises(DimensionError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(NumericError):
            mae([np.nan], [1.0])


class TestIntervalMetrics:
    def test_coverage_counts_hits(self):
        actual = [0.0, 0.0, 0.0, 0.0]
        predicted = [0.0, 1.0, 3.0, 0.5]
        sd = [1.0, 1.0, 1.0, 0.1]
        # |a-p| <= 1.96*sd: yes, yes, no, no
        assert coverage(actual, predicted, sd) == pytest.approx(0.5)

    def test_boundary_is_inside(self):
        assert coverage([1.96], [0.0], [1.0]) == 1.0

    def test_one_95_percent_quantile(self):
        # the metrics score the band the forecasts carry
        assert opcast.metrics.Z95 == opcast.model.Z95 == 1.96
        assert coverage([1.97], [0.0], [1.0]) == 0.0
        assert coverage([1.5], [0.0], [0.75]) == 0.0
        assert coverage([1.5], [0.0], [0.8]) == 1.0

    def test_width_is_mean_half_width(self):
        assert interval_width([1.0, 2.0]) == pytest.approx(1.96 * 1.5)
        assert interval_width([0.5]) == pytest.approx(0.98)

    def test_gaussian_coverage_sanity(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=20000)
        cov = coverage(a, np.zeros_like(a), np.ones_like(a))
        assert cov == pytest.approx(0.95, abs=0.01)

    def test_validation(self):
        with pytest.raises(DimensionError):
            coverage([1.0], [1.0], [1.0, 2.0])
        with pytest.raises(NumericError):
            coverage([1.0], [1.0], [-1.0])
        with pytest.raises(NumericError):
            interval_width([np.inf])
        with pytest.raises(DimensionError):
            interval_width([])


class TestIntervalScore:
    @staticmethod
    def _is95(actual, predicted, sd):
        # one forecast at a time: the band's width plus 2 / 0.05 times the miss
        total = 0.0
        for a, p, s in zip(actual, predicted, sd):
            lo, hi = p - 1.96 * s, p + 1.96 * s
            total += (hi - lo) + 2.0 / 0.05 * (max(lo - a, 0.0) + max(a - hi, 0.0))
        return total / len(actual)

    @staticmethod
    def _scores(actual, predicted, sd):
        return opcast.metrics.scores(*opcast.metrics.checked(actual, predicted, sd))

    def test_equals_a_loop_over_the_forecasts(self):
        rng = np.random.default_rng(3)
        a, p = rng.normal(size=(2, 300))
        sd = rng.uniform(0.0, 1.5, size=300)  # some misses on either side, some zero spreads
        sd[:5] = 0.0
        out = self._scores(a, p, sd)
        assert list(out) == ["mae", "rmse", "covg", "piw", "is95"]
        assert out["is95"] == pytest.approx(self._is95(a, p, sd), rel=1e-12)

    def test_hand_values(self):
        # inside: the width 2 * 1.96; outside by 0.5: that plus 40 * 0.5
        assert self._scores([0.5], [0.0], [1.0])["is95"] == pytest.approx(3.92)
        assert self._scores([-2.46], [0.0], [1.0])["is95"] == pytest.approx(23.92)
        assert self._scores([1.0, 1.0], [0.0, 0.0], [0.0, 0.0])["is95"] == 40.0

    def test_only_with_spreads(self):
        assert "is95" not in self._scores([1.0], [0.0], None)
