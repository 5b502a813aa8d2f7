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

from .errors import ConfigurationError, NumericError, StateIndexError

JEFFREYS = 0.5


class DirichletTable:
    """Per-pattern initial and transition pseudo-counts.

    Tables are materialized lazily the first time a pattern is observed, so
    only patterns that occur in the data take up space; reading a pattern
    never observed gives the Jeffreys prior and stores nothing.
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

    def _counts(self, pattern, store: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Initial and transition counts of a checked ``pattern``; for a pattern
        never observed the Jeffreys prior, entered in the tables only on ``store``."""
        if isinstance(pattern, str) and pattern in self._initial:
            return self._initial[pattern], self._transition[pattern]  # keys were checked
        self.check(pattern)
        prior = np.full(self.n_states, JEFFREYS), np.full((self.n_states,) * 2, JEFFREYS)
        if store:
            self._initial[pattern], self._transition[pattern] = prior
        return prior

    def check(self, pattern, *states) -> None:
        """Raise for a pattern or state the tables cannot take; creates nothing."""
        if len(pattern) != self.pattern_length or set(pattern) - {"0", "1"}:
            raise ConfigurationError(
                f"pattern {pattern!r} does not match pattern length {self.pattern_length}")
        for state in states:
            self._check_state(state)

    def _check_state(self, state: int) -> int:
        if not isinstance(state, (int, np.integer)) or not 1 <= state <= self.n_states:
            raise StateIndexError(f"state {state!r} outside 1..{self.n_states}")
        return int(state)

    # -- counts ----------------------------------------------------------

    @property
    def patterns(self) -> list[str]:
        return sorted(self._initial)

    def initial_counts(self, pattern) -> np.ndarray:
        return self._counts(pattern)[0].copy()

    def transition_counts(self, pattern) -> np.ndarray:
        return self._counts(pattern)[1].copy()

    def observe_initial(self, pattern, state: int) -> None:
        self.check(pattern, state)  # before a new pattern's counts are stored
        self._counts(pattern, store=True)[0][state - 1] += 1.0

    def observe_transition(self, pattern, prev_state: int, state: int) -> None:
        self.check(pattern, prev_state, state)
        self._counts(pattern, store=True)[1][prev_state - 1, state - 1] += 1.0

    def count_rows(self, pattern) -> np.ndarray:
        """A ``(n_states + 1, n_states)`` copy of the counts: row 0 the initial
        counts, row ``s`` the transitions from state ``s``."""
        return np.vstack(self._counts(pattern))

    def set_count_rows(self, pattern, rows: np.ndarray) -> None:
        """Store counts laid out as ``count_rows`` returns them; the caller
        vouches for the counts, the pattern is checked here."""
        self.check(pattern)
        self._initial[pattern], self._transition[pattern] = rows[0].copy(), rows[1:].copy()

    # -- posterior-mean probabilities -------------------------------------

    def transition_probabilities(self, pattern) -> np.ndarray:
        counts = self.transition_counts(pattern)
        return counts / counts.sum(axis=1, keepdims=True)

    def expected_state_vector(self, pattern, prev_state: int | None = None) -> np.ndarray:
        """Probability vector over next states.

        With ``prev_state=None`` (a sequence begins) the initial counts are
        used, otherwise the transition-count row of the previous state.
        """
        initial, transition = self._counts(pattern)
        counts = (initial if prev_state is None
                  else transition[self._check_state(prev_state) - 1])
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
            for counts in (initial, transition):  # counts start at 1/2 and only grow
                if not (np.isfinite(counts).all() and (counts >= JEFFREYS).all()):
                    raise NumericError(
                        f"counts for pattern {key!r} must be finite and >= {JEFFREYS}")
            table.check(key)
            table._initial[key], table._transition[key] = initial, transition
        return table
