"""Covariate construction for the forecasting models.

Three vectors are built per record: a binary conditioning pattern ``z``
(drives the discrete state machinery), a continuous regressor vector ``w``
(drives the adaptive linear models) and a classification vector ``t``
(drives state assignment). ``build_features`` evaluates them and the
responses ``y`` for a whole record list into one lag-free ``FeatureTable``
of arrays indexed by record position; a model reads its responses' lags
from ``y`` (``FeatureTable.regressors``). The announced period is featurized
the same way, as a pseudo-record appended to the tail of the history. Specs
are parsed and checked against the record columns once, in ``FeatureConfig``,
and compiled on its first featurization into one plan that equal configs
share, so ``build_features`` reads each record once; it checks each record's
cells once, as the one place records become tables, so the passes that read
its tables check none.

Covariates are declared as small spec strings:

* ``"col"``            numeric column taken as-is (``ics``, ``rcs``, ``hum`` ...)
* ``"col==value"``     indicator that a column equals a value (``shift_code==M``)
* ``"@begins_shift"``  boundary flag: the shift label differs from the record before
* ``"@begins_order"``  boundary flag: ``pr_ord`` does; the first record begins both
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, InputError, InsufficientHistoryError
from .estimator import json_number, serialized
from .records import ProductionRecord, filled

_FLAGS = ("@begins_shift", "@begins_order")

# Record columns that hold text, dates or times rather than numbers.
_TEXT_COLUMNS = frozenset({"shift", "shift_code", "weekday", "date", "start"})
_COLUMNS = frozenset(f.name for f in fields(ProductionRecord)) | _TEXT_COLUMNS
_NUMERIC_COLUMNS = _COLUMNS - _TEXT_COLUMNS

MAX_LAGS = 5  # the largest lag order q: bounds the width of a model's regressors
_SPECS = ("response_names", "z_spec", "w_spec", "t_spec")  # a config's fields besides q


@dataclass(frozen=True)
class CovariateSpec:
    """One parsed covariate declaration."""

    expr: str
    kind: str = field(init=False)    # "flag" | "indicator" | "numeric"
    column: str = field(init=False, default="")
    value: str = field(init=False, default="")

    def __post_init__(self):
        expr = self.expr.strip()
        column, indicator, value = (part.strip() for part in expr.partition("=="))
        if expr in _FLAGS:
            kind, column = "flag", expr[1:]
        elif expr.startswith("@"):
            raise ConfigurationError(f"unknown flag covariate {expr!r}")
        elif indicator:
            if not column or not value:
                raise ConfigurationError(f"malformed indicator spec {expr!r}")
            kind = "indicator"
        elif not expr:
            raise ConfigurationError("empty covariate spec")
        else:
            kind = "numeric"
        for name, v in (("expr", expr), ("kind", kind), ("column", column), ("value", value)):
            object.__setattr__(self, name, v)
        if kind != "flag" and column not in _COLUMNS:
            raise ConfigurationError(f"unknown record column {column!r} in covariate spec")
        if kind == "numeric" and column not in _NUMERIC_COLUMNS:
            raise ConfigurationError(f"covariate {expr!r} does not evaluate to a number")

    @property
    def is_binary(self) -> bool:
        return self.kind in ("flag", "indicator")


_parsed = lru_cache(maxsize=1024)(CovariateSpec)  # specs are immutable: configs share them
_BEFORE = (object(), object())  # the shift and order before row 0: unequal to any record's


class _Plan:
    """A config's specs compiled once: ``read`` gets a record's numeric
    columns that the specs read, its indicator columns, ``shift`` and
    ``pr_ord``, and ``z`` to ``y`` place each spec group in its ``cells``."""

    def __init__(self, config: "FeatureConfig"):
        groups = (config.parsed_z, config.parsed_w, config.parsed_t, config.parsed_y)
        specs = [spec for group in groups for spec in group]
        numeric = list(dict.fromkeys(s.column for s in specs if s.kind == "numeric"))
        indicators = list(dict.fromkeys((s.column, s.value) for s in specs if s.kind == "indicator"))
        read = [*numeric, *dict.fromkeys(column for column, _ in indicators)]
        self.read, self.numeric = attrgetter(*read, "shift", "pr_ord"), len(numeric)
        self.indicators = tuple((read.index(column), value) for column, value in indicators)
        held = [*numeric, *indicators, "begins_shift", "begins_order"]  # by each cell
        self.z, self.w, self.t, self.y = (np.array(
            [held.index((s.column, s.value) if s.kind == "indicator" else s.column) for s in group],
            dtype=np.intp) for group in groups)

    def cells(self, records: Sequence[ProductionRecord]) -> np.ndarray:
        """One row per record: its numbers, each indicator's cell and its
        begins-shift and begins-order flags; an absent (``None``) number reads NaN."""
        k, indicators = self.numeric, self.indicators
        rows = list(map(self.read, records))
        return np.array([(*v[:k], *[str(v[i]) == value for i, value in indicators],
                          v[-2] != u[-2], v[-1] != u[-1])
                         for u, v in zip([_BEFORE, *rows], rows)], dtype=float)


@dataclass(frozen=True)
class FeatureConfig:
    """Declarative description of the model inputs.

    A model's regressors are ``w`` followed by ``q`` lags of its responses in
    lag-major order (all responses at lag 1, then lag 2, ...), read from ``y``.
    """

    response_names: tuple[str, ...]
    z_spec: tuple[str, ...]
    w_spec: tuple[str, ...]
    t_spec: tuple[str, ...]
    q: int = 1
    parsed_z: tuple[CovariateSpec, ...] = field(init=False, repr=False, compare=False)
    parsed_w: tuple[CovariateSpec, ...] = field(init=False, repr=False, compare=False)
    parsed_t: tuple[CovariateSpec, ...] = field(init=False, repr=False, compare=False)
    parsed_y: tuple[CovariateSpec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "response_names", tuple(self.response_names))
        for name in ("z", "w", "t"):
            exprs = tuple(s.strip() for s in getattr(self, f"{name}_spec"))
            object.__setattr__(self, f"{name}_spec", exprs)
            object.__setattr__(self, f"parsed_{name}", tuple(map(_parsed, exprs)))
        if not self.response_names:
            raise ConfigurationError("at least one response is required")
        for name in self.response_names:
            if name not in _NUMERIC_COLUMNS:
                raise ConfigurationError(f"unknown response column {name!r}")
        object.__setattr__(self, "parsed_y", tuple(map(_parsed, self.response_names)))
        if isinstance(self.q, bool) or not isinstance(self.q, int) or not 0 <= self.q <= MAX_LAGS:
            raise ConfigurationError(f"q must be an integer in 0..{MAX_LAGS}, got {self.q!r}")
        if not self.z_spec:
            raise ConfigurationError("conditioning pattern spec is empty")
        for spec in self.parsed_z:
            if not spec.is_binary:
                raise ConfigurationError(
                    f"conditioning pattern entries must be binary, got {spec.expr!r}")
        # an adaptive state is kept per pattern, so a regressor that repeats
        # a pattern entry never varies in its state and winds up P there
        pattern = {(s.kind, s.column, s.value) for s in self.parsed_z}
        for spec in self.parsed_w:
            if (spec.kind, spec.column, spec.value) in pattern:
                raise ConfigurationError(
                    f"regressor {spec.expr!r} repeats a conditioning pattern entry: "
                    "it is constant within every pattern")
        if not self.t_spec:
            raise ConfigurationError("classification spec is empty")
        for spec in self.parsed_t:
            if spec.kind != "numeric":
                raise ConfigurationError(
                    f"classification entries must be numeric columns, got {spec.expr!r}")

    # compiled on the first featurization, once per config value: equal configs share it
    _plan = cached_property(lru_cache(maxsize=256)(_Plan))

    @property
    def n_responses(self) -> int:
        return len(self.response_names)

    @property
    def pattern_length(self) -> int:
        return len(self.z_spec)

    @property
    def w_dim(self) -> int:
        return len(self.w_spec) + self.q * self.n_responses

    def with_lags(self, q: int) -> "FeatureConfig":
        return replace(self, q=q)

    def for_response(self, name: str) -> "FeatureConfig":
        if name not in self.response_names:
            raise ConfigurationError(f"{name!r} is not a configured response")
        return replace(self, response_names=(name,))

    def to_dict(self) -> dict:
        return {**{name: list(getattr(self, name)) for name in _SPECS}, "q": self.q}

    @classmethod
    def from_dict(cls, doc: dict) -> "FeatureConfig":
        """The config of a ``to_dict`` document; an older one's ``max_lags`` is ignored."""
        return cls(**{name: tuple(doc[name]) for name in _SPECS}, q=serialized(doc, "q", int))


@dataclass(frozen=True)
class FeatureTable:
    """Model inputs of one record list; row ``i`` belongs to record ``i``.

    It holds no lags: ``w`` has a column per regressor spec for any ``q``, ``y``
    one per name in ``responses``, and a model reads its lags from ``y``.
    """

    z: np.ndarray             # (n, pattern_length)
    w: np.ndarray             # (n, len(w_spec))
    t: np.ndarray             # (n, len(t_spec))
    y: np.ndarray             # (n, len(responses))
    begins_shift: np.ndarray  # (n,) bool
    responses: tuple[str, ...]  # the name of each column of y

    def regressors(self, rows: np.ndarray, q: int, columns: Sequence[int]) -> np.ndarray:
        """``[w, y[rows - 1], ..., y[rows - q]]`` of ``rows`` (>= q) for the ``y`` ``columns``."""
        y = self.y.take(columns, axis=1)  # take: cheaper than fancy indexing on a few rows
        return np.concatenate([self.w.take(rows, axis=0)]
                              + [y.take(rows - j, axis=0) for j in range(1, q + 1)], axis=1)


def pattern_key(z) -> str:
    """Canonical string form of a binary conditioning pattern; a cell that
    is not the number 0 or 1 (NaN, inf, 0.5, "1") is refused."""
    bits = []
    for v in z.tolist() if isinstance(z, np.ndarray) else z:
        if v not in (0, 1):  # checked before any conversion
            raise ConfigurationError(f"pattern entries must be 0 or 1, got {v!r}")
        bits.append("1" if v else "0")
    return "".join(bits)


def default_feature_config(records: Sequence[ProductionRecord], q: int = 1,
                           responses: Sequence[str] = ("OpT", "NOpT")) -> FeatureConfig:
    """Case-study defaults built from the shift codes present in the data.

    The conditioning pattern one-hot encodes the shift type, and that is
    the only place it is encoded: each pattern has its own adaptive
    states, so the regressor vector holds only what varies within a
    pattern, the speed column and the two boundary indicators.
    Classification uses availability, performance, the overall index,
    operating time, the realized speed and produced units.
    """
    codes = sorted({rec.shift_code for rec in records})
    if not codes:
        raise ConfigurationError("cannot infer shift codes from an empty record list")
    z_spec = tuple(f"shift_code=={c}" for c in codes)
    w_spec = ("ics", "@begins_shift", "@begins_order")
    t_spec = ("av", "pf", "oee", "OT", "rcs", "TU")
    return FeatureConfig(response_names=tuple(responses), z_spec=z_spec,
                         w_spec=w_spec, t_spec=t_spec, q=q)


def classification_vector(record: ProductionRecord, config: FeatureConfig) -> np.ndarray:
    """The record's classification vector: ``t`` as ``build_features`` gives or refuses it."""
    t = config._plan.cells([record]).take(config._plan.t, axis=1)
    if not np.isfinite(t).all():
        _refuse(config.parsed_t, [record], t)
    return t[0]


def assemble_next_features(records: Sequence[ProductionRecord],
                           config: FeatureConfig, shift_label: str,
                           ics: float | None = None, new_order: bool = False,
                           overrides: dict | None = None
                           ) -> tuple[np.ndarray, np.ndarray, bool]:
    """Covariates for the upcoming, not yet observed period.

    The period is featurized by ``build_features`` as a copy of the last
    record carrying the announced shift label, speed and order change,
    appended to the tail of the history that supplies its lags. Numeric
    covariates other than the speed must be supplied through ``overrides``
    because they are not known before the period runs.

    Returns ``(z, w, begins_shift)``, ``w`` with the ``q`` lags of the responses.
    """
    if len(records) < max(config.q, 1):
        raise InsufficientHistoryError(
            f"need at least {max(config.q, 1)} records of history")
    if not (ics is None or json_number(ics)):
        raise ConfigurationError(f"ics is not a finite number: {ics!r}")
    overrides = overrides or {}
    future = {}
    for spec in config.parsed_w:
        if spec.kind == "numeric" and spec.column != "ics":
            if spec.column not in overrides:
                raise ConfigurationError(
                    f"covariate {spec.expr!r} is unknown for a future period; "
                    "supply it explicitly")
            value = overrides[spec.column]
            if not json_number(value):
                raise ConfigurationError(
                    f"override {spec.column!r} is not a finite number: {value!r}")
            future[spec.column] = float(value)
    last = records[-1]
    announced = replace(last, shift=shift_label,
                        ics=float(ics) if ics is not None else last.ics,
                        pr_ord=last.pr_ord + bool(new_order), **future)
    table = build_features(list(records[-(config.q + 1):]) + [announced], config)
    w = table.regressors(np.array([len(table.y) - 1]), config.q, range(config.n_responses))
    return table.z[-1], w[0], bool(table.begins_shift[-1])


def _refuse(specs: Sequence[CovariateSpec], records: Sequence[ProductionRecord], cells) -> None:
    """The first numeric spec that reads an absent cell of any record, else the
    lowest record with a non-finite one of ``cells`` (a column per spec)."""
    for spec in specs:
        if spec.kind == "numeric" and any(getattr(rec, spec.column) is None for rec in records):
            raise ConfigurationError(f"covariate {spec.expr!r} does not evaluate to a number")
    row, column = np.argwhere(~np.isfinite(cells))[0]
    raise InputError(f"record n={records[row].n} has a non-finite {specs[column].expr!r}")


def build_features(records: Sequence[ProductionRecord],
                   config: FeatureConfig) -> FeatureTable:
    """Featurize a whole record list into one lag-free table of the config's responses.

    At lag order ``q`` the first ``q`` records only supply lags. Lags run
    across sequence boundaries: the previous ``q`` records are used
    regardless of shift or order changes. A numeric spec reading an absent
    cell is a ``ConfigurationError``; then the first record with a non-finite
    ``w``, ``t`` or ``y`` cell, read or not, is refused by its ``n`` and spec.
    """
    if len(records) <= config.q:
        raise InsufficientHistoryError(
            f"need more than q={config.q} records, got {len(records)}")
    plan = config._plan
    cells = plan.cells(records)
    z, w, t, y = (cells.take(columns, axis=1) for columns in (plan.z, plan.w, plan.t, plan.y))
    if not np.isfinite(cells).all():  # z and the flags are binary by construction
        _refuse(config.parsed_w + config.parsed_t + config.parsed_y, records, np.hstack((w, t, y)))
    return filled(FeatureTable, z=z, w=w, t=t, y=y, begins_shift=cells[:, -2] != 0,
                  responses=config.response_names)
