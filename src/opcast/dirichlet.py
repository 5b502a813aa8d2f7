"""Pseudo-count tables for the hidden-state dynamics.

For every binary conditioning pattern there is one vector of initial-state
counts and one matrix of transition counts. All counts start at the
symmetric Jeffreys value 1/2 and grow by exactly one per observation, so
the posterior-mean state probabilities are simple count ratios and every
update is a constant-time increment.

State labels are 1-based throughout the public interface.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, StateIndexError

JEFFREYS = 0.5


class DirichletTable:
    """Per-pattern initial and transition pseudo-counts.

    Tables are materialized lazily the first time a pattern is touched, so
    only patterns that occur in the data take up space.
    """

    def __init__(self, n_states: int, pattern_length: int):
        if not isinstance(n_states, int) or n_states < 2:
            raise ConfigurationError(f"need at least 2 states, got {n_states!r}")
        if not isinstance(pattern_length, int) or pattern_length < 1:
            raise ConfigurationError(f"pattern length must be >= 1, got {pattern_length!r}")
        self.n_states = n_states
        self.pattern_length = pattern_length
        self._initial: dict[str, np.ndarray] = {}
        self._transition: dict[str, np.ndarray] = {}

    # -- helpers ---------------------------------------------------------

    def _key(self, pattern: str) -> str:
        """Checked table key of ``pattern``; its counts exist afterwards."""
        if isinstance(pattern, str) and pattern in self._initial:
            return pattern  # only checked keys enter the table
        if len(pattern) != self.pattern_length or set(pattern) - {"0", "1"}:
            raise ConfigurationError(
                f"pattern {pattern!r} does not match pattern length {self.pattern_length}")
        self._initial.setdefault(pattern, np.full(self.n_states, JEFFREYS))
        self._transition.setdefault(pattern, np.full((self.n_states, self.n_states), JEFFREYS))
        return pattern

    def _check_state(self, state: int) -> int:
        if not isinstance(state, (int, np.integer)) or not 1 <= state <= self.n_states:
            raise StateIndexError(f"state {state!r} outside 1..{self.n_states}")
        return int(state)

    # -- counts ----------------------------------------------------------

    @property
    def patterns(self) -> list[str]:
        return sorted(self._initial)

    def initial_counts(self, pattern) -> np.ndarray:
        return self._initial[self._key(pattern)].copy()

    def transition_counts(self, pattern) -> np.ndarray:
        return self._transition[self._key(pattern)].copy()

    def observe_initial(self, pattern, state: int) -> None:
        self._initial[self._key(pattern)][self._check_state(state) - 1] += 1.0

    def observe_transition(self, pattern, prev_state: int, state: int) -> None:
        key = self._key(pattern)
        i = self._check_state(prev_state) - 1
        j = self._check_state(state) - 1
        self._transition[key][i, j] += 1.0

    # -- posterior-mean probabilities -------------------------------------

    def initial_probabilities(self, pattern) -> np.ndarray:
        return self.expected_state_vector(pattern)

    def transition_probabilities(self, pattern) -> np.ndarray:
        counts = self.transition_counts(pattern)
        return counts / counts.sum(axis=1, keepdims=True)

    def expected_state_vector(self, pattern, prev_state: int | None = None) -> np.ndarray:
        """Probability vector over next states.

        With ``prev_state=None`` (a sequence begins) the initial counts are
        used, otherwise the transition-count row of the previous state.
        """
        key = self._key(pattern)
        counts = (self._initial[key] if prev_state is None
                  else self._transition[key][self._check_state(prev_state) - 1])
        return counts / counts.sum()

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n_states": self.n_states,
            "pattern_length": self.pattern_length,
            "patterns": {
                key: {
                    "initial": self._initial[key].tolist(),
                    "transition": self._transition[key].tolist(),
                }
                for key in self.patterns
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DirichletTable":
        table = cls(int(doc["n_states"]), int(doc["pattern_length"]))
        for key, entry in doc["patterns"].items():
            initial = np.asarray(entry["initial"], dtype=float)
            transition = np.asarray(entry["transition"], dtype=float)
            if initial.shape != (table.n_states,):
                raise ConfigurationError(
                    f"initial counts for pattern {key!r} have shape {initial.shape}")
            if transition.shape != (table.n_states, table.n_states):
                raise ConfigurationError(
                    f"transition counts for pattern {key!r} have shape {transition.shape}")
            key = table._key(key)
            table._initial[key] = initial
            table._transition[key] = transition
        return table
