import numpy as np
import pytest

from opcast import ConfigurationError, DirichletTable, StateIndexError
from opcast.dirichlet import JEFFREYS


class TestCounts:
    def test_symmetric_start(self):
        table = DirichletTable(n_states=3, pattern_length=2)
        np.testing.assert_array_equal(table.initial_counts("10"),
                                      [0.5, 0.5, 0.5])
        np.testing.assert_array_equal(table.transition_counts("10"),
                                      np.full((3, 3), 0.5))
        assert JEFFREYS == 0.5

    def test_golden_single_observation(self):
        # one initial observation of state 1 with two states:
        # counts [1.5, 0.5], probabilities [0.75, 0.25]
        table = DirichletTable(n_states=2, pattern_length=1)
        table.observe_initial("1", 1)
        np.testing.assert_array_equal(table.initial_counts("1"), [1.5, 0.5])
        np.testing.assert_allclose(table.expected_state_vector("1"),
                                   [0.75, 0.25])

    def test_counts_grow_by_one(self):
        table = DirichletTable(n_states=2, pattern_length=1)
        for _ in range(4):
            table.observe_transition("0", 2, 1)
        expected = np.array([[0.5, 0.5], [4.5, 0.5]])
        np.testing.assert_array_equal(table.transition_counts("0"), expected)

    def test_patterns_are_independent(self):
        table = DirichletTable(n_states=2, pattern_length=2)
        table.observe_initial("10", 1)
        np.testing.assert_array_equal(table.initial_counts("01"), [0.5, 0.5])
        assert table.patterns == ["10"]  # a read of an unobserved pattern stores nothing

    def test_returned_arrays_are_copies(self):
        table = DirichletTable(n_states=2, pattern_length=1)
        table.initial_counts("1")[0] = 99.0
        np.testing.assert_array_equal(table.initial_counts("1"), [0.5, 0.5])


class TestProbabilities:
    def test_rows_normalize(self):
        rng = np.random.default_rng(11)
        table = DirichletTable(n_states=4, pattern_length=1)
        for _ in range(300):
            table.observe_transition("1", int(rng.integers(1, 5)),
                                     int(rng.integers(1, 5)))
        probs = table.transition_probabilities("1")
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), atol=1e-12)
        assert (probs > 0).all()

    def test_expected_state_vector_dispatch(self):
        table = DirichletTable(n_states=2, pattern_length=1)
        table.observe_initial("1", 1)
        table.observe_transition("1", 1, 2)
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
            table.observe_transition("11", int(rng.integers(1, 4)),
                                     int(rng.integers(1, 4)))
        counts = table.transition_counts("11")
        np.testing.assert_allclose(
            table.transition_probabilities("11"),
            counts / counts.sum(axis=1, keepdims=True))


class TestValidation:
    def test_state_bounds(self):
        table = DirichletTable(n_states=2, pattern_length=1)
        with pytest.raises(StateIndexError):
            table.observe_initial("1", 0)
        with pytest.raises(StateIndexError):
            table.observe_initial("1", 3)
        with pytest.raises(StateIndexError):
            table.observe_transition("1", 1, -1)
        with pytest.raises(StateIndexError):
            table.expected_state_vector("1", 5)

    def test_state_index_error_is_an_index_error(self):
        assert issubclass(StateIndexError, IndexError)

    def test_pattern_length_checked(self):
        table = DirichletTable(n_states=2, pattern_length=2)
        with pytest.raises(ConfigurationError):
            table.observe_initial("101", 1)
        with pytest.raises(ConfigurationError):
            table.initial_counts("2x")

    def test_known_patterns_are_still_checked(self):
        # once "01" has counts, lookups take the fast path for it
        table = DirichletTable(n_states=2, pattern_length=2)
        table.observe_transition("01", 1, 2)
        before = table.to_dict()
        for bad in ("011", "0", "02", "ab", ""):
            with pytest.raises(ConfigurationError):
                table.expected_state_vector(bad, 1)
        with pytest.raises(StateIndexError):
            table.expected_state_vector("01", 3)
        with pytest.raises(StateIndexError):
            table.observe_transition("01", 1, 0)
        with pytest.raises(StateIndexError):
            table.observe_initial("01", np.int64(5))
        assert table.to_dict() == before
        table.observe_transition(np.str_("01"), 1, 2)  # a str subclass keeps the counts
        assert table.transition_counts("01")[0, 1] == JEFFREYS + 2.0

    def test_a_rejected_observation_stores_no_pattern(self):
        table = DirichletTable(2, 1)
        with pytest.raises(StateIndexError):
            table.observe_initial("1", 5)
        with pytest.raises(StateIndexError):
            table.observe_transition("0", 1, 3)
        with pytest.raises(StateIndexError):
            table.observe_transition("0", 0, 1)
        assert table.patterns == []
        table.observe_transition("0", 2, 1)
        assert table.patterns == ["0"]
        assert table.transition_counts("0").tolist() == [[JEFFREYS] * 2,
                                                         [JEFFREYS + 1, JEFFREYS]]

    def test_count_rows_stack_initial_over_transitions(self):
        table = DirichletTable(2, 2)
        table.observe_initial("01", 2)
        table.observe_transition("01", 2, 1)
        rows = table.count_rows("01")
        assert rows.tolist() == [[0.5, 1.5], [0.5, 0.5], [1.5, 0.5]]
        rows[0, 0] = 9.0  # a copy
        other = DirichletTable(2, 2)
        other.set_count_rows("01", table.count_rows("01"))
        assert other.to_dict() == table.to_dict()
        assert table.count_rows("10").tolist() == [[JEFFREYS] * 2] * 3
        assert table.patterns == ["01"]

    def test_constructor_bounds(self):
        with pytest.raises(ConfigurationError):
            DirichletTable(n_states=1, pattern_length=1)
        with pytest.raises(ConfigurationError):
            DirichletTable(n_states=2, pattern_length=0)


class TestSerialization:
    def test_roundtrip(self):
        table = DirichletTable(n_states=3, pattern_length=2)
        table.observe_initial("10", 2)
        table.observe_transition("10", 2, 3)
        table.observe_transition("01", 1, 1)
        clone = DirichletTable.from_dict(table.to_dict())
        assert clone.patterns == table.patterns
        for key in table.patterns:
            np.testing.assert_array_equal(clone.initial_counts(key),
                                          table.initial_counts(key))
            np.testing.assert_array_equal(clone.transition_counts(key),
                                          table.transition_counts(key))

    def test_shape_mismatch_rejected(self):
        doc = DirichletTable(2, 1).to_dict()
        doc["patterns"]["1"] = {"initial": [0.5, 0.5, 0.5],
                                "transition": [[0.5, 0.5], [0.5, 0.5]]}
        with pytest.raises(ConfigurationError):
            DirichletTable.from_dict(doc)
