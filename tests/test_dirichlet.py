import numpy as np
import pytest

from opcast import ConfigurationError, DirichletTable, NumericError, StateIndexError
from opcast.dirichlet import JEFFREYS


class TestCounts:
    def test_symmetric_start(self):
        table = DirichletTable(n_states=3, pattern_length=2)
        np.testing.assert_array_equal(table.count_rows("10")[0],
                                      [0.5, 0.5, 0.5])
        np.testing.assert_array_equal(table.count_rows("10")[1:],
                                      np.full((3, 3), 0.5))
        assert JEFFREYS == 0.5

    def test_golden_single_observation(self):
        # one initial observation of state 1 with two states:
        # counts [1.5, 0.5], probabilities [0.75, 0.25]
        table = DirichletTable(n_states=2, pattern_length=1)
        table.observe("1", None, 1)
        np.testing.assert_array_equal(table.count_rows("1")[0], [1.5, 0.5])
        np.testing.assert_allclose(table.expected_state_vector("1"),
                                   [0.75, 0.25])

    def test_counts_grow_by_one(self):
        table = DirichletTable(n_states=2, pattern_length=1)
        for _ in range(4):
            table.observe("0", 2, 1)
        expected = np.array([[0.5, 0.5], [4.5, 0.5]])
        np.testing.assert_array_equal(table.count_rows("0")[1:], expected)

    def test_patterns_are_independent(self):
        table = DirichletTable(n_states=2, pattern_length=2)
        table.observe("10", None, 1)
        np.testing.assert_array_equal(table.count_rows("01")[0], [0.5, 0.5])
        assert table.patterns == ["10"]  # a read of an unobserved pattern stores nothing

    def test_returned_arrays_are_copies(self):
        table = DirichletTable(n_states=2, pattern_length=1)
        table.count_rows("1")[0, 0] = 99.0
        np.testing.assert_array_equal(table.count_rows("1")[0], [0.5, 0.5])
        table.observe("1", None, 2)  # and the stored rows of an observed pattern
        table.count_rows("1")[0, 0] = 99.0
        np.testing.assert_array_equal(table.count_rows("1")[0], [0.5, 1.5])


class TestProbabilities:
    def test_rows_normalize(self):
        rng = np.random.default_rng(11)
        table = DirichletTable(n_states=4, pattern_length=1)
        for _ in range(300):
            table.observe("1", int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        probs = np.array([table.expected_state_vector("1", s) for s in range(1, 5)])
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), atol=1e-12)
        assert (probs > 0).all()

    def test_expected_state_vector_dispatch(self):
        table = DirichletTable(n_states=2, pattern_length=1)
        table.observe("1", None, 1)
        table.observe("1", 1, 2)
        np.testing.assert_allclose(table.expected_state_vector("1"),
                                   [0.75, 0.25])
        np.testing.assert_allclose(table.expected_state_vector("1", 1),
                                   [0.25, 0.75])
        # untouched row stays uniform
        np.testing.assert_allclose(table.expected_state_vector("1", 2),
                                   [0.5, 0.5])

    def test_probabilities_match_count_ratios(self):
        rng = np.random.default_rng(3)
        table = DirichletTable(n_states=3, pattern_length=2)
        for _ in range(100):
            table.observe("11", int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        counts = table.count_rows("11")[1:]
        np.testing.assert_allclose(
            [table.expected_state_vector("11", s) for s in range(1, 4)],
            counts / counts.sum(axis=1, keepdims=True))


class TestValidation:
    def test_state_bounds(self):
        table = DirichletTable(n_states=2, pattern_length=1)
        with pytest.raises(StateIndexError):
            table.observe("1", None, 0)
        with pytest.raises(StateIndexError):
            table.observe("1", None, 3)
        with pytest.raises(StateIndexError):
            table.observe("1", 1, -1)
        with pytest.raises(StateIndexError):
            table.expected_state_vector("1", 5)

    def test_state_index_error_is_an_index_error(self):
        assert issubclass(StateIndexError, IndexError)

    def test_pattern_length_checked(self):
        table = DirichletTable(n_states=2, pattern_length=2)
        with pytest.raises(ConfigurationError):
            table.observe("101", None, 1)
        with pytest.raises(ConfigurationError):
            table.count_rows("2x")

    def test_known_patterns_are_still_checked(self):
        # once "01" has counts, lookups take the fast path for it
        table = DirichletTable(n_states=2, pattern_length=2)
        table.observe("01", 1, 2)
        before = table.to_dict()
        for bad in ("011", "0", "02", "ab", ""):
            with pytest.raises(ConfigurationError):
                table.expected_state_vector(bad, 1)
        with pytest.raises(StateIndexError):
            table.expected_state_vector("01", 3)
        with pytest.raises(StateIndexError):
            table.observe("01", 1, 0)
        with pytest.raises(StateIndexError):
            table.observe("01", None, np.int64(5))
        assert table.to_dict() == before
        table.observe(np.str_("01"), 1, 2)  # a str subclass keeps the counts
        assert table.count_rows("01")[1, 1] == JEFFREYS + 2.0

    def test_a_rejected_observation_stores_no_pattern(self):
        table = DirichletTable(2, 1)
        with pytest.raises(StateIndexError):
            table.observe("1", None, 5)
        with pytest.raises(StateIndexError):
            table.observe("0", 1, 3)
        with pytest.raises(StateIndexError):
            table.observe("0", 0, 1)
        with pytest.raises(StateIndexError):
            table.observe("0", 1.0, 1)
        with pytest.raises(StateIndexError):
            table.observe("0", True, 1)
        for bad in ("01", "2", "", ("0",), ["0"]):  # a bad pattern first, whatever the states
            with pytest.raises(ConfigurationError):
                table.observe(bad, 3, 0)
        assert table.patterns == []
        table.observe("0", 2, 1)
        assert table.patterns == ["0"]
        assert table.count_rows("0")[1:].tolist() == [[JEFFREYS] * 2,
                                                      [JEFFREYS + 1, JEFFREYS]]

    def test_observe_counts_in_the_row_that_is_read(self):
        # None is the initial row, exactly as expected_state_vector reads it
        for prev, row in [(None, 0), (1, 1), (2, 2), (3, 3), (np.int64(2), 2)]:
            table = DirichletTable(3, 1)
            table.observe("1", prev, 2)
            want = np.full((4, 3), JEFFREYS)
            want[row, 1] += 1.0
            assert table.count_rows("1").tolist() == want.tolist()
            np.testing.assert_array_equal(table.expected_state_vector("1", prev),
                                          want[row] / want[row].sum())

    def test_count_rows_stack_initial_over_transitions(self):
        table = DirichletTable(2, 2)
        table.observe("01", None, 2)
        table.observe("01", 2, 1)
        rows = table.count_rows("01")
        assert rows.tolist() == [[0.5, 1.5], [0.5, 0.5], [1.5, 0.5]]
        rows[0, 0] = 9.0  # a copy
        other = DirichletTable(2, 2)
        other.counts["01"] = table.count_rows("01")
        assert other.to_dict() == table.to_dict()
        assert table.count_rows("10").tolist() == [[JEFFREYS] * 2] * 3
        assert table.patterns == ["01"]

    def test_constructor_bounds(self):
        with pytest.raises(ConfigurationError):
            DirichletTable(n_states=1, pattern_length=1)
        with pytest.raises(ConfigurationError):
            DirichletTable(n_states=2, pattern_length=0)

    def test_a_boolean_is_not_a_pattern_length(self):
        # refused here, as from_dict refuses the document it would save
        with pytest.raises(ConfigurationError, match="pattern length must be >= 1, got True"):
            DirichletTable(3, True)


class TestSerialization:
    def test_roundtrip(self):
        table = DirichletTable(n_states=3, pattern_length=2)
        table.observe("10", None, 2)
        table.observe("10", 2, 3)
        table.observe("01", 1, 1)
        clone = DirichletTable.from_dict(table.to_dict())
        assert clone.patterns == table.patterns
        for key in table.patterns:
            np.testing.assert_array_equal(clone.count_rows(key), table.count_rows(key))
        assert clone.to_dict() == table.to_dict()

    def test_one_stack_over_the_sorted_keys(self):
        table = DirichletTable(n_states=2, pattern_length=1)
        table.observe("1", None, 2)
        table.observe("0", 2, 1)
        doc = table.to_dict()
        assert doc["keys"] == ["0", "1"]
        assert doc["counts"] == [table.count_rows("0").tolist(), table.count_rows("1").tolist()]
        clone = DirichletTable.from_dict(doc)
        assert clone.counts["0"].base is clone.counts["1"].base is not None
        clone.observe("0", None, 1)  # in place, in the pattern's own rows
        assert clone.count_rows("1").tolist() == doc["counts"][1]

    def test_an_empty_table_round_trips(self):
        doc = DirichletTable(3, 2).to_dict()
        assert (doc["keys"], doc["counts"]) == ([], [])
        assert DirichletTable.from_dict(doc).to_dict() == doc

    def test_shape_mismatch_rejected(self):
        doc = DirichletTable(2, 1).to_dict()
        doc.update(keys=["1"], counts=[[[0.5, 0.5, 0.5]] * 3])  # three states, not two
        with pytest.raises(ConfigurationError, match=r"shape \(1, 3, 3\), not \(1, 3, 2\)"):
            DirichletTable.from_dict(doc)

    @pytest.mark.parametrize("counts", [
        [[[0.5, 0.5], [0.5, 0.5]]],            # no transition row of state 2
        [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],  # not a stack
        []], ids=["short", "flat", "empty"])
    def test_a_stack_that_misses_rows_is_refused(self, counts):
        doc = DirichletTable(2, 1).to_dict()
        doc.update(keys=["1"], counts=counts)
        with pytest.raises(ConfigurationError, match="count stack has shape"):
            DirichletTable.from_dict(doc)

    @pytest.mark.parametrize("cell", [float("nan"), float("inf"), 0.0, 0.49])
    def test_counts_below_the_prior_or_not_finite_are_refused(self, cell):
        table = DirichletTable(2, 1)
        for key in ("0", "1"):
            table.observe(key, None, 1)
        doc = table.to_dict()
        doc["counts"][1][2][0] = cell
        with pytest.raises(NumericError, match="counts for pattern '1' must be finite and >= 0.5"):
            DirichletTable.from_dict(doc)

    @pytest.mark.parametrize("keys, message", [
        (["1", "1"], "repeat"), (["1", "2"], "'2' is not a string"), (["1", 0], "0 is not"),
        ("10", "must be a list"), ({"1": 0, "0": 1}, "must be a list")])
    def test_keys_must_be_a_list_of_distinct_patterns(self, keys, message):
        doc = DirichletTable(2, 1).to_dict()
        doc.update(keys=keys, counts=[np.full((3, 2), JEFFREYS).tolist()] * 2)
        with pytest.raises(ConfigurationError, match=message):
            DirichletTable.from_dict(doc)
