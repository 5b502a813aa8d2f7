"""Pseudo-count tables for the hidden-state dynamics.

For every binary conditioning pattern there is one ``(n_states + 1,
n_states)`` array of counts: row 0 holds the initial-state counts, row
``s`` the counts of transitions from state ``s``. All counts start at the
symmetric Jeffreys value 1/2 and grow by exactly one per observation, so
the posterior-mean state probabilities are simple count ratios and every
update is a constant-time increment, in the row a record reads once (``rows``).

State labels are 1-based throughout the public interface.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, NumericError
from .estimator import checked_state, serialized

JEFFREYS = 0.5


class DirichletTable:
    """Per-pattern initial and transition pseudo-counts: ``observe`` adds one
    to the row that ``expected_state_vector`` reads.

    ``counts`` maps each observed pattern to its count rows. A pattern's
    rows are materialized the first time it is observed, so only patterns
    that occur in the data take up space; reading a pattern never observed
    gives the Jeffreys prior and stores nothing.
    """

    def __init__(self, n_states: int, pattern_length: int):
        if not isinstance(n_states, int) or n_states < 2:
            raise ConfigurationError(f"need at least 2 states, got {n_states!r}")
        if isinstance(pattern_length, bool) or not isinstance(pattern_length, int) \
                or pattern_length < 1:
            raise ConfigurationError(f"pattern length must be >= 1, got {pattern_length!r}")
        self.n_states = n_states
        self.pattern_length = pattern_length
        self.counts: dict[str, np.ndarray] = {}

    def rows(self, pattern) -> np.ndarray:
        """The count rows of ``pattern``, to read and to count into; an unseen one's Jeffreys
        prior is checked, not stored: ``counts.setdefault`` stores it once it is counted."""
        rows = self.counts.get(pattern) if isinstance(pattern, str) else None
        if rows is None:  # known keys were checked when they were stored
            self.check(pattern)
            rows = np.full((self.n_states + 1, self.n_states), JEFFREYS)
        return rows

    def check(self, pattern, prev_state: int | None = None, state: int | None = None) -> int:
        """Raise for a pattern or state the tables cannot take; creates nothing.

        Returns the row ``prev_state`` reads: row 0 (the initial counts) when
        it is None, as a sequence begins, else its transition row.
        """
        if (not isinstance(pattern, str) or len(pattern) != self.pattern_length
                or set(pattern) - {"0", "1"}):
            raise ConfigurationError(f"pattern {pattern!r} is not a string of "
                                     f"{self.pattern_length} zeros and ones")
        row = 0 if prev_state is None else checked_state(prev_state, self.n_states)
        if state is not None:
            checked_state(state, self.n_states)
        return row

    @property
    def patterns(self) -> list[str]:
        return sorted(self.counts)

    def observe(self, pattern, prev_state: int | None, state: int) -> None:
        """Count ``state`` in the row ``expected_state_vector`` reads for ``prev_state``;
        all is checked before a new pattern's counts are stored."""
        row = self.check(pattern, prev_state, state)
        self.counts.setdefault(pattern, self.rows(pattern))[row, state - 1] += 1.0

    def count_rows(self, pattern) -> np.ndarray:
        """A copy of the counts: row 0 the initial counts, row ``s`` the
        transitions from state ``s``."""
        return self.rows(pattern).copy()

    def expected_state_vector(self, pattern, prev_state: int | None = None) -> np.ndarray:
        """Probability vector over next states.

        With ``prev_state=None`` (a sequence begins) the initial counts are
        used, otherwise the transition-count row of the previous state.
        """
        counts = self.rows(pattern)[self.check(pattern, prev_state)]
        return counts / counts.sum()

    def to_dict(self) -> dict:
        keys = self.patterns
        return {"n_states": self.n_states, "pattern_length": self.pattern_length,
                "keys": keys, "counts": [self.counts[key].tolist() for key in keys]}

    @classmethod
    def from_dict(cls, doc: dict) -> "DirichletTable":
        """The table of a ``to_dict`` document: one ``(n, n_states + 1, n_states)`` stack
        of count rows over its ``keys``, checked once, whole; the rows are views into it."""
        table = cls(serialized(doc, "n_states", int), serialized(doc, "pattern_length", int))
        keys, K = doc["keys"], table.n_states
        counts, shape = np.asarray(doc["counts"], dtype=float), (len(keys), K + 1, K)
        if counts.shape != shape and not counts.size == 0 == len(keys):  # an empty stack is []
            raise ConfigurationError(f"count stack has shape {counts.shape}, not {shape}")
        counts = counts.reshape(shape)
        ok = (np.isfinite(counts) & (counts >= JEFFREYS)).all(axis=(1, 2)).tolist()
        if not all(ok):  # counts start at 1/2 and only grow
            raise NumericError(f"counts for pattern {keys[ok.index(False)]!r} must be "
                               f"finite and >= {JEFFREYS}")
        table.counts = dict(zip(table.checked_keys(keys), counts))
        return table

    def checked_keys(self, keys: list) -> list:
        """``keys`` of a serialized stack if it is a list of distinct patterns ``check`` takes."""
        if not isinstance(keys, list):
            raise ConfigurationError(f"pattern keys must be a list, got {keys!r}")
        for key in keys:
            self.check(key)
        if len(set(keys)) < len(keys):
            raise ConfigurationError(f"pattern keys repeat in {keys!r}")
        return keys
