"""Production records: parsing, time-loss accounting and shift boundary flags.

A record describes one observation period of a production process. Base
durations (operating time, scheduled breaks, downtime, performance and
quality losses) are related by a fixed subtraction cascade; effectiveness
indices are ratios of consecutive levels of that cascade. Everything else
in the package consumes the record objects built here.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import OrderingError, SchemaError, TimeConsistencyError

# Canonical column order for datasets, mapped to record attribute names.
COLUMNS = (
    ("n", "n"),
    ("date", "date"),
    ("start", "start"),
    ("shift", "shift"),
    ("pr.ord", "pr_ord"),
    ("ics", "ics"),
    ("rcs", "rcs"),
    ("TU", "TU"),
    ("DU", "DU"),
    ("TgU", "TgU"),
    ("nstops", "nstops"),
    ("OT", "OT"),
    ("SBT", "SBT"),
    ("LT", "LT"),
    ("DT", "DT"),
    ("OpT", "OpT"),
    ("PLT", "PLT"),
    ("NOpT", "NOpT"),
    ("QLT", "QLT"),
    ("VT", "VT"),
    ("lo", "lo"),
    ("av", "av"),
    ("pf", "pf"),
    ("qu", "qu"),
    ("oee", "oee"),
    ("hum", "hum"),
    ("temp", "temp"),
)

ALIAS_TO_ATTR = dict(COLUMNS)

_INT_FIELDS = {"n", "pr_ord", "TU", "DU", "nstops"}

# Columns that must be present in a dataset header. Derived durations and
# indices can be recomputed, hum/temp are optional environment columns.
MANDATORY = (
    "n", "date", "start", "shift", "pr.ord", "ics", "rcs", "TU", "DU",
    "TgU", "nstops", "OT", "SBT", "DT", "PLT", "QLT",
)

_DERIVABLE = ("LT", "OpT", "NOpT", "VT", "lo", "av", "pf", "qu", "oee")
_OPTIONAL = ("hum", "temp")


@dataclass(frozen=True)
class ProductionRecord:
    """One observation period with its time breakdown and context columns."""

    n: int
    date: dt.date
    start: dt.time
    shift: str
    pr_ord: int
    ics: float
    rcs: float
    TU: int
    DU: int
    TgU: float
    nstops: int
    OT: float
    SBT: float
    LT: float
    DT: float
    OpT: float
    PLT: float
    NOpT: float
    QLT: float
    VT: float
    lo: float
    av: float
    pf: float
    qu: float
    oee: float
    hum: float | None = None
    temp: float | None = None

    @property
    def shift_code(self) -> str:
        """Shift type: the last whitespace-separated token of the label."""
        return (self.shift.split() or [self.shift])[-1]

    @property
    def weekday(self) -> str:
        """Leading token of the shift label, empty if the label has one token."""
        parts = self.shift.split()
        return parts[0] if len(parts) > 1 else ""


@dataclass(frozen=True)
class DerivedTimes:
    LT: float
    OpT: float
    NOpT: float
    VT: float


@dataclass(frozen=True)
class EffectivenessIndices:
    lo: float
    av: float
    pf: float
    qu: float
    oee: float
    degenerate: tuple[str, ...] = ()


@dataclass(frozen=True)
class RowError:
    line: int
    message: str


@dataclass(frozen=True)
class ParseResult:
    records: list[ProductionRecord]
    errors: list[RowError]


@dataclass(frozen=True)
class BoundaryFlags:
    begins_shift: bool
    begins_order: bool


def derive_time_variables(OT: float, SBT: float, DT: float, PLT: float,
                          QLT: float, tol: float = 0.01) -> DerivedTimes:
    """Apply the subtraction cascade to base durations.

    Loading time removes scheduled breaks from the operating time, then
    downtime, performance losses and quality losses are taken out in turn.
    Small negative results (rounding in source data) are clamped to zero;
    anything below -tol raises.
    """
    def _step(value: float, name: str) -> float:
        if value < -tol:
            raise TimeConsistencyError(
                f"derived {name} is negative ({value:.4f}) beyond tolerance {tol}")
        return max(value, 0.0)

    LT = _step(OT - SBT, "LT")
    OpT = _step(LT - DT, "OpT")
    NOpT = _step(OpT - PLT, "NOpT")
    VT = _step(NOpT - QLT, "VT")
    return DerivedTimes(LT, OpT, NOpT, VT)


def compute_indices(OT: float, LT: float, OpT: float, NOpT: float, VT: float,
                    degenerate_value: float = 0.0) -> EffectivenessIndices:
    """Effectiveness ratios of consecutive cascade levels.

    Each ratio with a zero denominator is replaced by ``degenerate_value``
    and flagged by name. The overall index is the product of availability,
    performance and quality.
    """
    flagged: list[str] = []

    def _ratio(num: float, den: float, name: str) -> float:
        if den == 0.0:
            flagged.append(name)
            return degenerate_value
        return num / den

    lo = _ratio(LT, OT, "lo")
    av = _ratio(OpT, LT, "av")
    pf = _ratio(NOpT, OpT, "pf")
    qu = _ratio(VT, NOpT, "qu")
    oee = av * pf * qu
    if any(name in flagged for name in ("av", "pf", "qu")):
        flagged.append("oee")
    return EffectivenessIndices(lo, av, pf, qu, oee, tuple(flagged))


def _parse_float(cell: str, name: str) -> float:
    try:
        value = float(cell)
    except ValueError as exc:
        raise ValueError(f"column {name!r}: cannot parse {cell!r} as a number") from exc
    if not math.isfinite(value):
        raise ValueError(f"column {name!r}: non-finite value {cell!r}")
    return value


def _parse_int(cell: str, name: str) -> int:
    try:
        return int(cell)
    except ValueError as exc:
        raise ValueError(f"column {name!r}: cannot parse {cell!r} as an integer") from exc


def _parse_row(row: dict[str, str], tol: float) -> ProductionRecord:
    values: dict[str, object] = {}

    def cell(alias: str) -> str | None:
        raw = row.get(alias)
        if raw is None:
            return None
        raw = raw.strip()
        return raw if raw != "" else None

    for alias in MANDATORY:
        raw = cell(alias)
        if raw is None:
            raise ValueError(f"column {alias!r}: missing value")
        attr = ALIAS_TO_ATTR[alias]
        if alias == "date":
            try:
                values[attr] = dt.date.fromisoformat(raw)
            except ValueError as exc:
                raise ValueError(f"column 'date': cannot parse {raw!r}") from exc
        elif alias == "start":
            try:
                values[attr] = dt.time.fromisoformat(raw)
            except ValueError as exc:
                raise ValueError(f"column 'start': cannot parse {raw!r}") from exc
        elif alias == "shift":
            values[attr] = raw
        elif attr in _INT_FIELDS:
            values[attr] = _parse_int(raw, alias)
        else:
            values[attr] = _parse_float(raw, alias)

    derived = None
    if any(cell(alias) is None for alias in ("LT", "OpT", "NOpT", "VT")):
        derived = derive_time_variables(values["OT"], values["SBT"], values["DT"],
                                        values["PLT"], values["QLT"], tol=tol)
    for alias in ("LT", "OpT", "NOpT", "VT"):
        raw = cell(alias)
        values[alias] = _parse_float(raw, alias) if raw is not None else getattr(derived, alias)

    indices = compute_indices(values["OT"], values["LT"], values["OpT"],
                              values["NOpT"], values["VT"])
    for alias in ("lo", "av", "pf", "qu", "oee"):
        raw = cell(alias)
        values[alias] = _parse_float(raw, alias) if raw is not None else getattr(indices, alias)

    for alias in _OPTIONAL:
        raw = cell(alias)
        values[alias] = _parse_float(raw, alias) if raw is not None else None

    return ProductionRecord(**values)


def parse_dataset(source, schema: dict[str, str] | None = None,
                  tol: float = 0.01) -> ParseResult:
    """Read a delimited dataset into records.

    ``source`` is a path or a text stream. ``schema`` optionally maps
    canonical column names to the names actually used in the file header.
    Rows that fail to parse are collected as ``RowError`` entries with
    their line numbers; parsing continues with the remaining rows.
    """
    if hasattr(source, "read"):
        stream = source
        close = False
    else:
        stream = open(source, "r", newline="")
        close = True
    try:
        reader = csv.DictReader(stream)
        fieldnames = reader.fieldnames
        if not fieldnames:
            raise SchemaError("dataset has no header row")
        rename = {}
        if schema:
            for canonical, actual in schema.items():
                if canonical not in ALIAS_TO_ATTR:
                    raise SchemaError(f"unknown canonical column {canonical!r} in schema")
                rename[actual] = canonical
        header = {rename.get(name, name) for name in fieldnames}
        missing = [alias for alias in MANDATORY if alias not in header]
        if missing:
            raise SchemaError(f"dataset header is missing mandatory columns: {missing}")

        records: list[ProductionRecord] = []
        errors: list[RowError] = []
        for row in reader:
            if rename:
                row = {rename.get(k, k): v for k, v in row.items() if k is not None}
            try:
                records.append(_parse_row(row, tol))
            except (ValueError, TimeConsistencyError) as exc:
                errors.append(RowError(reader.line_num, str(exc)))
        return ParseResult(records, errors)
    finally:
        if close:
            stream.close()


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dt.date):
        return value.isoformat()
    if isinstance(value, dt.time):
        return value.isoformat()
    return str(value)


def write_dataset(records: Sequence[ProductionRecord], target) -> None:
    """Write records with the canonical header. Floats keep full precision."""
    if hasattr(target, "write"):
        stream = target
        close = False
    else:
        stream = open(target, "w", newline="")
        close = True
    try:
        writer = csv.writer(stream)
        writer.writerow([alias for alias, _ in COLUMNS])
        for rec in records:
            writer.writerow([_fmt(getattr(rec, attr)) for _, attr in COLUMNS])
    finally:
        if close:
            stream.close()


def check_chronological(records: Sequence[ProductionRecord]) -> None:
    for i in range(1, len(records)):
        prev = (records[i - 1].date, records[i - 1].start)
        cur = (records[i].date, records[i].start)
        if cur < prev:
            raise OrderingError(
                f"records out of order at position {i}: {cur} before {prev}")


def boundary_flags(records: Sequence[ProductionRecord]) -> list[BoundaryFlags]:
    """Begins-shift / begins-order flag for every record.

    The first record carries both flags. A shift begins whenever the shift
    label changes from the previous record, an order begins whenever the
    production-order number changes.
    """
    flags: list[BoundaryFlags] = []
    for i, rec in enumerate(records):
        if i == 0:
            flags.append(BoundaryFlags(True, True))
        else:
            prev = records[i - 1]
            flags.append(BoundaryFlags(rec.shift != prev.shift,
                                       rec.pr_ord != prev.pr_ord))
    return flags


def consistency_issues(record: ProductionRecord, tol: float = 0.01,
                       rate_tol: float = 0.005,
                       check_target_units: bool = False) -> list[str]:
    """List violations of the time-accounting identities for one record.

    Returns an empty list for a consistent record. Tolerances allow for
    rounding in source files.
    """
    issues: list[str] = []
    derived = derive_time_variables(record.OT, record.SBT, record.DT,
                                    record.PLT, record.QLT, tol=tol)
    for name in ("LT", "OpT", "NOpT", "VT"):
        stored = getattr(record, name)
        expected = getattr(derived, name)
        if abs(stored - expected) > tol:
            issues.append(f"{name} stored {stored:.4f} != derived {expected:.4f}")

    chain = (("OT", record.OT), ("LT", record.LT), ("OpT", record.OpT),
             ("NOpT", record.NOpT), ("VT", record.VT))
    for (na, va), (nb, vb) in zip(chain, chain[1:]):
        if vb > va + tol:
            issues.append(f"{nb} exceeds {na} ({vb:.4f} > {va:.4f})")
    if record.VT < -tol:
        issues.append(f"VT negative ({record.VT:.4f})")

    indices = compute_indices(record.OT, record.LT, record.OpT, record.NOpT, record.VT)
    for name in ("lo", "av", "pf", "qu", "oee"):
        stored = getattr(record, name)
        expected = getattr(indices, name)
        if abs(stored - expected) > rate_tol:
            issues.append(f"{name} stored {stored:.4f} != computed {expected:.4f}")
        if not -rate_tol <= stored <= 1.0 + rate_tol:
            issues.append(f"{name} outside [0, 1] ({stored:.4f})")

    if record.DU > record.TU:
        issues.append(f"DU exceeds TU ({record.DU} > {record.TU})")
    if min(record.TU, record.DU, record.nstops) < 0:
        issues.append("negative count column")
    if check_target_units:
        expected = record.OpT * record.ics  # target units implied by the speed
        if abs(record.TgU - expected) > max(0.1, 0.01 * expected):
            issues.append(f"TgU stored {record.TgU:.3f} != OpT*ics {expected:.3f}")
    return issues
