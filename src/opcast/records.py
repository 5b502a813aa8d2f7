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
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import Sequence

from .errors import OrderingError, SchemaError, TimeConsistencyError

# Canonical column order for datasets, mapped to record attribute names.
COLUMNS = tuple((alias, alias.replace(".", "_")) for alias in (
    "n", "date", "start", "shift", "pr.ord", "ics", "rcs", "TU", "DU", "TgU", "nstops",
    "OT", "SBT", "LT", "DT", "OpT", "PLT", "NOpT", "QLT", "VT", "lo", "av", "pf", "qu",
    "oee", "hum", "temp"))

ALIAS_TO_ATTR = dict(COLUMNS)

_INT_FIELDS = {"n", "pr_ord", "TU", "DU", "nstops"}

# Columns that must be present in a dataset header. Derived durations and
# indices can be recomputed, hum/temp are optional environment columns.
MANDATORY = (
    "n", "date", "start", "shift", "pr.ord", "ics", "rcs", "TU", "DU",
    "TgU", "nstops", "OT", "SBT", "DT", "PLT", "QLT",
)

_DURATIONS = ("LT", "OpT", "NOpT", "VT")
_INDICES = ("lo", "av", "pf", "qu", "oee")
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


def compute_indices(OT: float, LT: float, OpT: float, NOpT: float,
                    VT: float) -> EffectivenessIndices:
    """Effectiveness ratios of consecutive cascade levels.

    Each ratio with a zero denominator is replaced by 0. The overall index
    is the product of availability, performance and quality.
    """
    def _ratio(num: float, den: float) -> float:
        return 0.0 if den == 0.0 else num / den

    av, pf, qu = _ratio(OpT, LT), _ratio(NOpT, OpT), _ratio(VT, NOpT)
    return EffectivenessIndices(_ratio(LT, OT), av, pf, qu, av * pf * qu)


_CONVERTERS = {**{alias: int if attr in _INT_FIELDS else float for alias, attr in COLUMNS},
               "date": dt.date.fromisoformat, "start": dt.time.fromisoformat, "shift": str}
_SLOT = {alias: i for i, (alias, _) in enumerate(COLUMNS)}
# Cell groups in parse order: a row with several faults reports the first in it.
_GROUPS = tuple(tuple((alias, _SLOT[alias], _CONVERTERS[alias]) for alias in group)
                for group in (MANDATORY, _DURATIONS, _INDICES, _OPTIONAL))
_REQUIRED = object()
_CHUNK = 256  # rows per column pass: bounds the transposed copies held at once


def _convert_cells(values: list, group, cells, fallback) -> None:
    """Convert a group's stripped cells into their ``values`` slots.

    An empty cell takes its attribute of ``fallback`` (``None`` without
    one), or is reported missing if ``fallback`` is ``_REQUIRED``.
    """
    for (alias, slot, convert), raw in zip(group, cells):
        if not raw:
            if fallback is _REQUIRED:
                raise ValueError(f"column {alias!r}: missing value")
            values[slot] = getattr(fallback, alias, None)
            continue
        try:
            value = convert(raw)
        except ValueError as exc:
            kind = {float: " as a number", int: " as an integer"}.get(convert, "")
            raise ValueError(f"column {alias!r}: cannot parse {raw!r}{kind}") from exc
        if convert is float and not math.isfinite(value):
            raise ValueError(f"column {alias!r}: non-finite value {raw!r}")
        values[slot] = value


def _parse_row(row: list[str], plan: tuple) -> ProductionRecord:
    """One record from a csv row.

    ``plan`` holds the header width and one cell picker per group. A short
    row's missing cells and the columns absent from the header read as
    empty; extra cells are ignored.
    """
    width, (mandatory, durations, indices, optional) = plan
    row = list(map(str.strip, row))
    if len(row) < width:
        row += [""] * (width - len(row))
    row.append("")
    values = [None] * len(COLUMNS)
    _convert_cells(values, _GROUPS[0], mandatory(row), _REQUIRED)
    cells, derived = durations(row), None
    if not all(cells):
        derived = derive_time_variables(
            *(values[_SLOT[a]] for a in ("OT", "SBT", "DT", "PLT", "QLT")))
    _convert_cells(values, _GROUPS[1], cells, derived)
    cells, computed = indices(row), None
    if not all(cells):
        computed = compute_indices(*(values[_SLOT[a]] for a in ("OT",) + _DURATIONS))
    _convert_cells(values, _GROUPS[2], cells, computed)
    _convert_cells(values, _GROUPS[3], optional(row), None)
    return ProductionRecord(*values)


def _build_records(columns) -> list[ProductionRecord]:
    """Records from per-field columns in ``COLUMNS`` order, each built by filling
    its ``__dict__``: with no ``__post_init__`` that is ``ProductionRecord(*values)``."""
    records = []
    for values in zip(*columns):
        record = object.__new__(ProductionRecord)
        record.__dict__.update(zip(ALIAS_TO_ATTR.values(), values))
        records.append(record)
    return records


def _column_pass(rows, position: dict, width: int) -> list[ProductionRecord] | None:
    """A chunk's records converted a column at a time, the likeliest empty groups
    first; ``None`` once a row needs the row rules: a short row, a bad or
    non-finite cell, or an empty cell or absent column other than hum/temp
    (whose empty cells and absent columns read None, as in the row rules)."""
    if min(map(len, rows)) < width:
        return None
    cells, columns = list(zip(*rows)), [[None] * len(rows)] * len(COLUMNS)
    try:
        for alias, slot, convert in chain(*reversed(_GROUPS)):
            if alias not in position:
                if alias not in _OPTIONAL:
                    return None
            elif convert is str:
                columns[slot] = list(map(str.strip, cells[position[alias]]))
                if not all(columns[slot]):
                    return None
            else:
                raw = cells[position[alias]]
                try:
                    columns[slot] = present = list(map(convert, raw))
                except ValueError:
                    if alias not in _OPTIONAL:
                        raise
                    columns[slot] = [convert(c) if c.strip() else None for c in raw]
                    present = [v for v in columns[slot] if v is not None]
                if (convert is float and not math.isfinite(sum(present))
                        and not all(map(math.isfinite, present))):
                    return None
    except ValueError:
        return None
    return _build_records(columns)


def parse_dataset(source, schema: dict[str, str] | None = None) -> ParseResult:
    """Read a delimited dataset into records.

    ``source`` is a path or a text stream. ``schema`` optionally maps
    canonical column names to the names actually used in the file header.
    Row rules:

    * the first line is the header (``SchemaError`` if it is blank or lacks
      a mandatory column); blank rows are skipped;
    * a row that fails to parse becomes a ``RowError`` with its line number
      and is skipped; parsing continues with the remaining rows;
    * cells are stripped; a short row's missing cells read as empty, extra
      cells are ignored, and a duplicated header name reads its last cell;
    * derived durations (``LT``, ``OpT``, ``NOpT``, ``VT``) and indices
      (``lo``, ``av``, ``pf``, ``qu``, ``oee``) are recomputed only when
      their cell is empty or absent; ``hum``/``temp`` are optional.

    Chunks of 256 rows are converted a column at a time; a chunk with a row
    that needs the rules above goes row by row, the only route that derives
    values and reports row errors, so both give the same results.
    """
    opened = nullcontext(source) if hasattr(source, "read") else open(source, "r", newline="")
    with opened as stream:
        reader = csv.reader(stream)
        fieldnames = next(reader, None)
        if not fieldnames:
            raise SchemaError("dataset has no header row")
        rename = {}
        for canonical, actual in (schema or {}).items():
            if canonical not in ALIAS_TO_ATTR:
                raise SchemaError(f"unknown canonical column {canonical!r} in schema")
            rename[actual] = canonical
        # as with csv.DictReader, a duplicated name reads its last cell, and
        # of names renamed onto one column the one first seen last wins
        last = {name: i for i, name in enumerate(fieldnames)}
        position = {rename.get(name, name): i for name, i in last.items()}
        missing = [alias for alias in MANDATORY if alias not in position]
        if missing:
            raise SchemaError(f"dataset header is missing mandatory columns: {missing}")
        # an absent column reads the empty cell that _parse_row appends
        plan = (len(fieldnames), tuple(
            itemgetter(*(position.get(alias, -1) for alias, _, _ in group)) for group in _GROUPS))
        records: list[ProductionRecord] = []
        errors: list[RowError] = []
        numbered = ((reader.line_num, row) for row in reader if row)
        while chunk := list(islice(numbered, _CHUNK)):
            fast = _column_pass([row for _, row in chunk], position, len(fieldnames))
            if fast is not None:
                records += fast
                continue
            for line, row in chunk:
                try:
                    records.append(_parse_row(row, plan))
                except (ValueError, TimeConsistencyError) as exc:
                    errors.append(RowError(line, str(exc)))
        return ParseResult(records, errors)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dt.date, dt.time)):
        return value.isoformat()
    return str(value)


def write_dataset(records: Sequence[ProductionRecord], target) -> None:
    """Write records with the canonical header. Floats keep full precision."""
    opened = nullcontext(target) if hasattr(target, "write") else open(target, "w", newline="")
    with opened as stream:
        writer = csv.writer(stream)
        writer.writerow([alias for alias, _ in COLUMNS])
        for rec in records:
            writer.writerow([_fmt(getattr(rec, attr)) for _, attr in COLUMNS])


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
    return [BoundaryFlags(True, True) if i == 0 else
            BoundaryFlags(rec.shift != records[i - 1].shift,
                          rec.pr_ord != records[i - 1].pr_ord)
            for i, rec in enumerate(records)]


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
