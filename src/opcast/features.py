"""Covariate construction for the forecasting models.

Three vectors are built per record: a binary conditioning pattern ``z``
(drives the discrete state machinery), a continuous regressor vector ``w``
(drives the adaptive linear models, includes lagged responses) and a
classification vector ``t`` (drives state assignment). ``build_features``
evaluates them once for a whole record list into one ``FeatureTable`` of
arrays indexed by record position; the specs are parsed once, when the
``FeatureConfig`` is built.

Covariates are declared as small spec strings:

* ``"col"``            numeric column taken as-is (``ics``, ``rcs``, ``hum`` ...)
* ``"col==value"``     indicator that a column equals a value (``shift_code==M``)
* ``"@begins_shift"``  boundary flag: first record of a shift
* ``"@begins_order"``  boundary flag: first record of a production order
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, InsufficientHistoryError
from .records import BoundaryFlags, ProductionRecord, boundary_flags

_FLAGS = ("@begins_shift", "@begins_order")

# Columns derived from the shift label rather than stored on the record.
_TEXT_COLUMNS = ("shift_code", "weekday", "shift")


def _column_value(record: ProductionRecord, name: str):
    if not hasattr(record, name):
        raise ConfigurationError(f"unknown record column {name!r} in covariate spec")
    return getattr(record, name)


@dataclass(frozen=True)
class CovariateSpec:
    """One parsed covariate declaration."""

    expr: str
    kind: str = field(init=False)    # "flag" | "indicator" | "numeric"
    column: str = field(init=False, default="")
    value: str = field(init=False, default="")

    def __post_init__(self):
        expr = self.expr.strip()
        if expr != self.expr:
            object.__setattr__(self, "expr", expr)
        if expr in _FLAGS:
            object.__setattr__(self, "kind", "flag")
            object.__setattr__(self, "column", expr[1:])
        elif expr.startswith("@"):
            raise ConfigurationError(f"unknown flag covariate {expr!r}")
        elif "==" in expr:
            column, _, value = expr.partition("==")
            column, value = column.strip(), value.strip()
            if not column or not value:
                raise ConfigurationError(f"malformed indicator spec {expr!r}")
            object.__setattr__(self, "kind", "indicator")
            object.__setattr__(self, "column", column)
            object.__setattr__(self, "value", value)
        else:
            if not expr:
                raise ConfigurationError("empty covariate spec")
            object.__setattr__(self, "kind", "numeric")
            object.__setattr__(self, "column", expr)

    @property
    def is_binary(self) -> bool:
        return self.kind in ("flag", "indicator")

    def evaluate(self, record: ProductionRecord, flags: BoundaryFlags) -> float:
        if self.kind == "flag":
            return 1.0 if getattr(flags, self.column) else 0.0
        if self.kind == "indicator":
            return 1.0 if str(_column_value(record, self.column)) == self.value else 0.0
        value = _column_value(record, self.column)
        if self.column in _TEXT_COLUMNS or value is None:
            raise ConfigurationError(
                f"covariate {self.expr!r} does not evaluate to a number")
        return float(value)


@dataclass(frozen=True)
class FeatureConfig:
    """Declarative description of the model inputs.

    ``q`` lagged copies of the response vector are appended to ``w`` in
    lag-major order (all responses at lag 1, then lag 2, ...).
    """

    response_names: tuple[str, ...]
    z_spec: tuple[str, ...]
    w_spec: tuple[str, ...]
    t_spec: tuple[str, ...]
    q: int = 1
    max_lags: int = 5
    parsed_z: tuple[CovariateSpec, ...] = field(init=False, repr=False, compare=False)
    parsed_w: tuple[CovariateSpec, ...] = field(init=False, repr=False, compare=False)
    parsed_t: tuple[CovariateSpec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "response_names", tuple(self.response_names))
        for name in ("z", "w", "t"):
            exprs = tuple(s.strip() for s in getattr(self, f"{name}_spec"))
            object.__setattr__(self, f"{name}_spec", exprs)
            object.__setattr__(self, f"parsed_{name}",
                               tuple(CovariateSpec(s) for s in exprs))
        if not self.response_names:
            raise ConfigurationError("at least one response is required")
        if not isinstance(self.q, int) or self.q < 0:
            raise ConfigurationError(f"lag order must be a non-negative integer, got {self.q!r}")
        if self.q > self.max_lags:
            raise ConfigurationError(f"lag order {self.q} exceeds max_lags {self.max_lags}")
        if not self.z_spec:
            raise ConfigurationError("conditioning pattern spec is empty")
        for spec in self.parsed_z:
            if not spec.is_binary:
                raise ConfigurationError(
                    f"conditioning pattern entries must be binary, got {spec.expr!r}")
        if not self.t_spec:
            raise ConfigurationError("classification spec is empty")
        for spec in self.parsed_t:
            if spec.kind != "numeric":
                raise ConfigurationError(
                    f"classification entries must be numeric columns, got {spec.expr!r}")

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
        return {
            "response_names": list(self.response_names),
            "z_spec": list(self.z_spec),
            "w_spec": list(self.w_spec),
            "t_spec": list(self.t_spec),
            "q": self.q,
            "max_lags": self.max_lags,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FeatureConfig":
        return cls(response_names=tuple(doc["response_names"]),
                   z_spec=tuple(doc["z_spec"]),
                   w_spec=tuple(doc["w_spec"]),
                   t_spec=tuple(doc["t_spec"]),
                   q=int(doc["q"]),
                   max_lags=int(doc.get("max_lags", 5)))


@dataclass(frozen=True)
class FeatureTable:
    """Model inputs of one record list; row ``i`` belongs to record ``i``.

    The lag cells of ``w`` in rows before ``q`` are NaN: those records only
    supply lags and are never learned from or forecast.
    """

    z: np.ndarray             # (n, pattern_length)
    w: np.ndarray             # (n, w_dim)
    t: np.ndarray             # (n, len(t_spec))
    y: np.ndarray             # (n, n_responses)
    begins_shift: np.ndarray  # (n,) bool


def pattern_key(z) -> str:
    """Canonical string form of a binary conditioning pattern."""
    bits = []
    for v in z:
        iv = int(v)
        if iv not in (0, 1) or float(v) != iv:
            raise ConfigurationError(f"pattern entries must be 0 or 1, got {v!r}")
        bits.append(str(iv))
    return "".join(bits)


def shift_codes(records: Sequence[ProductionRecord]) -> list[str]:
    return sorted({rec.shift_code for rec in records})


def default_feature_config(records: Sequence[ProductionRecord], q: int = 1,
                           responses: Sequence[str] = ("OpT", "NOpT"),
                           max_lags: int = 5) -> FeatureConfig:
    """Case-study defaults built from the shift codes present in the data.

    The conditioning pattern one-hot encodes the shift type. The regressor
    vector uses shift-type dummies with the first level dropped, the speed
    column and the two boundary indicators. Classification uses
    availability, performance, the overall index, operating time, the
    realized speed and produced units.
    """
    codes = shift_codes(records)
    if not codes:
        raise ConfigurationError("cannot infer shift codes from an empty record list")
    z_spec = tuple(f"shift_code=={c}" for c in codes)
    w_spec = tuple(f"shift_code=={c}" for c in codes[1:]) + (
        "ics", "@begins_shift", "@begins_order")
    t_spec = ("av", "pf", "oee", "OT", "rcs", "TU")
    return FeatureConfig(response_names=tuple(responses), z_spec=z_spec,
                         w_spec=w_spec, t_spec=t_spec, q=q, max_lags=max_lags)


def classification_vector(record: ProductionRecord, config: FeatureConfig) -> np.ndarray:
    flags = BoundaryFlags(False, False)  # classification columns never use flags
    return np.array([spec.evaluate(record, flags) for spec in config.parsed_t])


def response_vector(record: ProductionRecord, config: FeatureConfig) -> np.ndarray:
    return np.array([float(getattr(record, name)) for name in config.response_names])


def assemble_next_features(records: Sequence[ProductionRecord],
                           config: FeatureConfig, shift_label: str,
                           ics: float | None = None, new_order: bool = False,
                           overrides: dict | None = None
                           ) -> tuple[np.ndarray, np.ndarray, bool]:
    """Covariates for the upcoming, not yet observed period.

    Indicator covariates are evaluated against the announced shift label,
    lags come from the tail of the history. Numeric covariates other than
    the speed must be supplied through ``overrides`` because they are not
    known before the period runs.

    Returns ``(z, w, begins_shift)``.
    """
    if len(records) < max(config.q, 1):
        raise InsufficientHistoryError(
            f"need at least {max(config.q, 1)} records of history")
    last = records[-1]
    begins_shift = shift_label != last.shift
    flags = BoundaryFlags(begins_shift=begins_shift, begins_order=new_order)
    ics_value = float(ics) if ics is not None else last.ics
    pseudo = replace(last, shift=shift_label, ics=ics_value)
    overrides = overrides or {}

    def eval_spec(spec: CovariateSpec) -> float:
        if spec.kind == "numeric" and spec.column != "ics":
            if spec.column in overrides:
                return float(overrides[spec.column])
            raise ConfigurationError(
                f"covariate {spec.expr!r} is unknown for a future period; "
                "supply it explicitly")
        return spec.evaluate(pseudo, flags)

    z = np.array([eval_spec(spec) for spec in config.parsed_z])
    base = np.array([eval_spec(spec) for spec in config.parsed_w], dtype=float)
    lag_blocks = [response_vector(records[-j], config) for j in range(1, config.q + 1)]
    w = np.concatenate([base] + lag_blocks) if lag_blocks else base
    return z, w, begins_shift


def _evaluate(specs: Sequence[CovariateSpec], records: Sequence[ProductionRecord],
              flags: Sequence[BoundaryFlags]) -> np.ndarray:
    return np.array([[spec.evaluate(rec, fl) for spec in specs]
                     for rec, fl in zip(records, flags)], dtype=float)


def build_features(records: Sequence[ProductionRecord],
                   config: FeatureConfig) -> FeatureTable:
    """Featurize a whole record list into one table.

    The first ``q`` records only supply lags; learning and forecasting
    start at position ``q``. Lags run across sequence boundaries: the
    previous ``q`` records are used regardless of shift or order changes.
    """
    if len(records) <= config.q:
        raise InsufficientHistoryError(
            f"need more than q={config.q} records, got {len(records)}")
    for name in config.response_names:
        if not hasattr(records[0], name):
            raise ConfigurationError(f"unknown response column {name!r}")

    flags = boundary_flags(records)
    n, q, m = len(records), config.q, config.n_responses
    y = np.array([response_vector(rec, config) for rec in records])
    n_base = len(config.w_spec)
    w = np.full((n, config.w_dim), np.nan)
    w[:, :n_base] = _evaluate(config.parsed_w, records, flags)
    for j in range(1, q + 1):
        w[q:, n_base + (j - 1) * m:n_base + j * m] = y[q - j:n - j]
    no_flags = [BoundaryFlags(False, False)] * n  # classification never uses flags
    return FeatureTable(z=_evaluate(config.parsed_z, records, flags), w=w,
                        t=_evaluate(config.parsed_t, records, no_flags), y=y,
                        begins_shift=np.array([fl.begins_shift for fl in flags]))
