"""Synthetic production data with known hidden-state dynamics.

The generator walks a Markov chain over a shift-structured calendar and
emits full production records whose durations satisfy the time-accounting
identities by construction. Responses are the operating and net operating
productive times; they follow state-dependent means plus optional
autoregressive terms, shift effects and Gaussian noise.

The chain restarts from the initial distribution at every shift start,
matching the begins-sequence branch of the forecasting model.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .estimator import json_number, serialized
from .records import ProductionRecord, compute_indices

WEEKDAYS = ("Mo", "Tu", "We", "Th", "Fr", "Sa", "Su")

# Day layout: first shift starts at 06:00, later shifts split the day evenly.
FIRST_SHIFT_HOUR = 6.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic dataset."""

    states: int
    transition: tuple            # (K, K) row-stochastic
    state_means: tuple           # (K, 2) means of (OpT, NOpT) per state
    noise_cov: tuple = ((0.0, 0.0), (0.0, 0.0))
    initial: tuple | None = None           # default: uniform over states
    ar: tuple = ()                         # lag matrices, each (2, 2)
    shift_effects: dict = field(default_factory=dict)  # code -> (2,) offset
    days: int = 14
    periods_per_shift: int = 10
    shift_codes: tuple = ("M", "A", "N")
    start_date: dt.date = dt.date(2022, 10, 3)
    ics_levels: tuple = (1.35, 1.61, 1.88)   # one speed drawn per order
    order_every: int = 20
    dt_max: float = 1.5
    qu_frac_max: float = 0.05
    seed: int = 0

    def __post_init__(self):
        K = self.states
        if not isinstance(K, int) or K < 1:
            raise ConfigurationError(f"states must be a positive integer, got {K!r}")
        trans = np.asarray(self.transition, dtype=float)
        if trans.shape != (K, K):
            raise ConfigurationError(f"transition matrix must be {K}x{K}, got {trans.shape}")
        if (trans < 0).any() or np.abs(trans.sum(axis=1) - 1.0).max() > 1e-9:
            raise ConfigurationError("transition rows must be non-negative and sum to 1")
        means = np.asarray(self.state_means, dtype=float)
        if means.shape != (K, 2):
            raise ConfigurationError(f"state_means must be {K}x2, got {means.shape}")
        cov = np.asarray(self.noise_cov, dtype=float)
        if cov.shape != (2, 2):
            raise ConfigurationError("noise_cov must be 2x2")
        if np.abs(cov - cov.T).max() > 1e-12 or np.linalg.eigvalsh(cov).min() < -1e-10:
            raise ConfigurationError("noise_cov must be symmetric positive semidefinite")
        if self.initial is not None:
            init = np.asarray(self.initial, dtype=float)
            if init.shape != (K,) or (init < 0).any() or abs(init.sum() - 1.0) > 1e-9:
                raise ConfigurationError("initial distribution must be a length-K simplex point")
        for mat in self.ar:
            if np.asarray(mat, dtype=float).shape != (2, 2):
                raise ConfigurationError("autoregressive matrices must be 2x2")
        for code, eff in self.shift_effects.items():
            if np.asarray(eff, dtype=float).shape != (2,):
                raise ConfigurationError(f"shift effect for {code!r} must have length 2")
        if self.days < 1 or self.periods_per_shift < 1 or not self.shift_codes:
            raise ConfigurationError("calendar must have days, shifts and periods")
        if self.dt_max < 0 or not 0 <= self.qu_frac_max < 1:
            raise ConfigurationError("loss parameters out of range")
        if not self.ics_levels or any(float(v) <= 0 for v in self.ics_levels):
            raise ConfigurationError("ics_levels must be positive")

    @classmethod
    def from_dict(cls, doc: dict) -> "SyntheticSpec":
        """The spec of a JSON document of its fields, which may give one speed as
        ``ics``; unknown keys and values of another kind are refused, not cast."""
        if not isinstance(doc, dict):
            raise ConfigurationError(f"a spec must be a JSON object, not {type(doc).__name__}")
        doc = dict(doc)
        if "ics" in doc and "ics_levels" not in doc:
            doc["ics_levels"] = [doc.pop("ics")]
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown spec keys: {sorted(unknown)}")
        spec = {}
        for f in fields(cls):
            if f.name not in doc or f.name == "initial" and doc[f.name] is None:
                continue
            if f.type in ("int", "float"):
                spec[f.name] = serialized(doc, f.name, int if f.type == "int" else float)
            elif f.name == "start_date":
                spec[f.name] = dt.date.fromisoformat(doc[f.name])
            else:
                spec[f.name] = _leaves(doc[f.name], str if f.name == "shift_codes" else float)
        return cls(**spec)


def _leaves(value, kind: type):
    """``value`` with its JSON lists made tuples; each leaf must be a string
    for ``str``, else a finite number (never a boolean)."""
    if isinstance(value, (list, dict)):
        return tuple(_leaves(item, kind) for item in value) if isinstance(value, list) \
            else {key: _leaves(item, kind) for key, item in value.items()}
    if isinstance(value, str) if kind is str else json_number(value):
        return value
    raise TypeError(f"{value!r} is not {'a string' if kind is str else 'a finite number'}")


def _noise_factor(cov: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(cov)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def generate_synthetic(spec: SyntheticSpec) -> list[ProductionRecord]:
    """Simulate records; deterministic in the spec (seed included)."""
    rng = np.random.default_rng(spec.seed)
    K = spec.states
    transition = np.asarray(spec.transition, dtype=float)
    means = np.asarray(spec.state_means, dtype=float)
    initial = (np.full(K, 1.0 / K) if spec.initial is None
               else np.asarray(spec.initial, dtype=float))
    factor = _noise_factor(np.asarray(spec.noise_cov, dtype=float))
    ar = [np.asarray(m, dtype=float) for m in spec.ar]
    effects = {code: np.asarray(eff, dtype=float)
               for code, eff in spec.shift_effects.items()}

    shift_hours = 24.0 / len(spec.shift_codes)
    records: list[ProductionRecord] = []
    y_hist: list[np.ndarray] = []
    state = 0
    n = 0
    period_counter = 0
    current_order = -1
    ics = float(spec.ics_levels[0])

    for day in range(spec.days):
        day_date = spec.start_date + dt.timedelta(days=day)
        weekday = WEEKDAYS[day_date.weekday()]
        for s_idx, code in enumerate(spec.shift_codes):
            shift_start = dt.datetime.combine(day_date, dt.time(0)) + dt.timedelta(
                hours=FIRST_SHIFT_HOUR + s_idx * shift_hours)
            cursor = shift_start
            label = f"{weekday} {code}"
            for i in range(spec.periods_per_shift):
                state = int(rng.choice(K, p=initial if i == 0 else transition[state]))
                if not y_hist:
                    y_hist = [means[state].copy() for _ in range(len(ar))]
                y = means[state].copy()
                for j, mat in enumerate(ar):
                    if j < len(y_hist):
                        y = y + mat @ y_hist[-(j + 1)]
                y = y + effects.get(code, 0.0)
                y = y + factor @ rng.standard_normal(2)
                y_hist.append(y.copy())
                y_hist = y_hist[-max(len(ar), 1):]

                OpT = max(float(y[0]), 0.1)
                NOpT = float(np.clip(y[1], 0.0, OpT))
                DT = float(rng.uniform(0.0, spec.dt_max)) if spec.dt_max > 0 else 0.0
                QLT = float(rng.uniform(0.0, spec.qu_frac_max)) * NOpT
                SBT = 0.0
                LT = OpT + DT
                OT = LT + SBT
                PLT = OpT - NOpT
                VT = NOpT - QLT
                idx = compute_indices(OT, LT, OpT, NOpT, VT)
                n += 1
                pr_ord = 300 + (period_counter // spec.order_every
                                if spec.order_every > 0 else 0)
                if pr_ord != current_order:
                    current_order = pr_ord
                    ics = float(spec.ics_levels[rng.integers(len(spec.ics_levels))])
                TgU = OpT * ics
                TU = max(int(round(VT * ics)), 0)
                DU = min(int(round(QLT * ics)), TU)
                rcs = TU / LT if LT > 0 else 0.0
                records.append(ProductionRecord(
                    n=n, date=cursor.date(), start=cursor.time(), shift=label,
                    pr_ord=pr_ord, ics=ics, rcs=rcs, TU=TU, DU=DU, TgU=TgU,
                    nstops=int(rng.integers(0, 4)), OT=OT, SBT=SBT, LT=LT, DT=DT,
                    OpT=OpT, PLT=PLT, NOpT=NOpT, QLT=QLT, VT=VT,
                    lo=idx.lo, av=idx.av, pf=idx.pf, qu=idx.qu, oee=idx.oee,
                    hum=round(60.0 + 5.0 * float(rng.standard_normal()), 1),
                    temp=round(22.0 + 2.0 * float(rng.standard_normal()), 1)))
                cursor = cursor + dt.timedelta(minutes=OT)
                period_counter += 1
            if cursor > shift_start + dt.timedelta(hours=shift_hours):
                raise ConfigurationError(
                    f"shift {label!r} on {day_date} overflows its {shift_hours:.1f}h "
                    "window; reduce periods_per_shift or the state means")
    return records
