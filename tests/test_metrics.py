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
