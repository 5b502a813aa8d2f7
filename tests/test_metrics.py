import numpy as np
import pytest

import opcast.metrics
import opcast.model
from opcast import DimensionError, NumericError
from opcast.metrics import cell_scores, cell_sums, checked, columns


def _scores(actual, predicted, sd=None):
    """Every score of all the pairs, as the report scores one cell."""
    arrays = checked(actual, predicted, sd)
    one = np.array([len(arrays[0])])
    scores = cell_scores(cell_sums(columns(*arrays), np.array([0]), one), one)
    return {name: value.item() for name, value in scores.items()}


class TestPointMetrics:
    def test_hand_values(self):
        assert _scores([1.0, 2.0, 3.0], [2.0, 2.0, 1.0])["mae"] == pytest.approx(1.0)
        assert _scores([0.0, 0.0], [3.0, 4.0])["rmse"] == pytest.approx(
            np.sqrt(12.5))

    def test_perfect_forecast(self):
        y = np.linspace(0, 5, 20)
        assert _scores(y, y) == {"mae": 0.0, "rmse": 0.0}

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=500)
        p = rng.normal(size=500)
        out = _scores(a, p)
        assert out["rmse"] >= out["mae"]

    def test_validation(self):
        with pytest.raises(DimensionError):
            checked([], [])
        with pytest.raises(DimensionError):
            checked([1.0], [1.0, 2.0])
        with pytest.raises(NumericError):
            checked([np.nan], [1.0])


class TestIntervalMetrics:
    def test_coverage_counts_hits(self):
        actual = [0.0, 0.0, 0.0, 0.0]
        predicted = [0.0, 1.0, 3.0, 0.5]
        sd = [1.0, 1.0, 1.0, 0.1]
        # |a-p| <= 1.96*sd: yes, yes, no, no
        assert _scores(actual, predicted, sd)["covg"] == pytest.approx(0.5)

    def test_boundary_is_inside(self):
        assert _scores([1.96], [0.0], [1.0])["covg"] == 1.0

    def test_one_95_percent_quantile(self):
        # the metrics score the band the forecasts carry
        assert opcast.metrics.Z95 == opcast.model.Z95 == 1.96
        assert _scores([1.97], [0.0], [1.0])["covg"] == 0.0
        assert _scores([1.5], [0.0], [0.75])["covg"] == 0.0
        assert _scores([1.5], [0.0], [0.8])["covg"] == 1.0

    def test_width_is_mean_half_width(self):
        assert _scores([0.0, 0.0], [0.0, 0.0], [1.0, 2.0])["piw"] == pytest.approx(1.96 * 1.5)
        assert _scores([0.0], [0.0], [0.5])["piw"] == pytest.approx(0.98)

    def test_gaussian_coverage_sanity(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=20000)
        cov = _scores(a, np.zeros_like(a), np.ones_like(a))["covg"]
        assert cov == pytest.approx(0.95, abs=0.01)

    def test_validation(self):
        with pytest.raises(DimensionError):
            checked([1.0], [1.0], [1.0, 2.0])
        with pytest.raises(NumericError):
            checked([1.0], [1.0], [-1.0])
        with pytest.raises(NumericError):
            checked([1.0], [1.0], [np.inf])
        with pytest.raises(DimensionError):
            checked([1.0], [1.0], [])
        with pytest.raises(DimensionError):  # no pair, whatever the spreads
            checked([], [], [])


class TestIntervalScore:
    @staticmethod
    def _is95(actual, predicted, sd):
        # one forecast at a time: the band's width plus 2 / 0.05 times the miss
        total = 0.0
        for a, p, s in zip(actual, predicted, sd):
            lo, hi = p - 1.96 * s, p + 1.96 * s
            total += (hi - lo) + 2.0 / 0.05 * (max(lo - a, 0.0) + max(a - hi, 0.0))
        return total / len(actual)

    def test_equals_a_loop_over_the_forecasts(self):
        rng = np.random.default_rng(3)
        a, p = rng.normal(size=(2, 300))
        sd = rng.uniform(0.0, 1.5, size=300)  # some misses on either side, some zero spreads
        sd[:5] = 0.0
        out = _scores(a, p, sd)
        assert list(out) == ["mae", "rmse", "covg", "piw", "is95"]
        assert out["is95"] == pytest.approx(self._is95(a, p, sd), rel=1e-12)

    def test_hand_values(self):
        # inside: the width 2 * 1.96; outside by 0.5: that plus 40 * 0.5
        assert _scores([0.5], [0.0], [1.0])["is95"] == pytest.approx(3.92)
        assert _scores([-2.46], [0.0], [1.0])["is95"] == pytest.approx(23.92)
        assert _scores([1.0, 1.0], [0.0, 0.0], [0.0, 0.0])["is95"] == 40.0

    def test_only_with_spreads(self):
        assert "is95" not in _scores([1.0], [0.0], None)


class TestCellSums:
    def test_grouped_cells_equal_each_slice_alone_to_the_bit(self):
        # every cell length from 1 to 300, each numpy summation regime, in a
        # shuffled layout, against each cell's own slice summed and averaged
        rng = np.random.default_rng(5)
        counts = np.concatenate([np.arange(1, 301), rng.integers(1, 301, size=100)])
        rng.shuffle(counts)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        n = int(counts.sum())
        a = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)  # order-sensitive sums
        p = rng.normal(size=n)
        sd = rng.uniform(0.0, 1.5, size=n)
        cols = columns(*checked(a, p, sd))
        got = cell_scores(cell_sums(cols, starts, counts), counts)
        assert list(got) == ["mae", "rmse", "covg", "piw", "is95"]
        for name, col in cols.items():
            want = np.array([col[s:s + k].sum() / k
                             for s, k in zip(starts.tolist(), counts.tolist())])
            if name == "rmse":
                want = np.sqrt(want)
            assert got[name].tobytes() == want.tobytes(), name

    def test_one_cell_is_its_column_sums_averaged(self):
        cols = columns(*checked([1.0, 2.0, 4.0], [2.0, 2.0, 1.0], [1.0, 0.5, 1.0]))
        sums = cell_sums(cols, np.array([0, 1]), np.array([1, 2]))
        assert sums["mae"].tolist() == [1.0, 3.0] and sums["covg"].tolist() == [1.0, 1.0]
        scores = cell_scores({name: col.sum() for name, col in cols.items()}, 3)
        assert scores["mae"] == pytest.approx(4.0 / 3.0)
        assert scores["rmse"] == pytest.approx(np.sqrt(10.0 / 3.0))
