"""Production records: parsing, time-loss accounting and the chronological-order check.

A record describes one observation period of a production process. Base
durations (operating time, scheduled breaks, downtime, performance and
quality losses) are related by a fixed subtraction cascade; effectiveness
indices are ratios of consecutive levels of that cascade. One set of row
rules parses every dataset row into the records the whole package consumes.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .errors import DataError, OrderingError, SchemaError, TimeConsistencyError

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
NEGATIVE_TOLERANCE = 0.01  # how far below zero a derived duration may fall (rounding)


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


def derive_time_variables(OT: float, SBT: float, DT: float, PLT: float,
                          QLT: float) -> DerivedTimes:
    """Apply the subtraction cascade to base durations.

    Loading time removes scheduled breaks from the operating time, then
    downtime, performance losses and quality losses are taken out in turn.
    Small negative results (rounding in source data) are clamped to zero;
    anything below -NEGATIVE_TOLERANCE raises.
    """
    def _step(value: float, name: str) -> float:
        if value < -NEGATIVE_TOLERANCE:
            raise TimeConsistencyError(f"derived {name} is negative ({value:.4f}) "
                                       f"beyond tolerance {NEGATIVE_TOLERANCE}")
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
    row += [""] * (width - len(row))  # nothing for a full or long row
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
    # with no __post_init__, filling __dict__ is ProductionRecord(*values)
    record = object.__new__(ProductionRecord)
    record.__dict__.update(zip(ALIAS_TO_ATTR.values(), values))
    return record


@contextmanager
def _utf8(name):
    """Report text that is not UTF-8 as a ``DataError`` naming its file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{name} is not UTF-8 text: cannot decode byte "
                        f"{exc.object[exc.start]:#04x}") from exc


def parse_dataset(source, schema: dict[str, str] | None = None) -> ParseResult:
    """Read a delimited dataset into records.

    ``source`` is a path or a text stream; a file is read as UTF-8, with or
    without a byte-order mark, and a byte that does not decode is a
    ``DataError`` naming the file. ``schema`` optionally maps canonical column
    names to the names actually used in the file header. ``fit`` and
    ``evaluate`` parse whole files with it, and ``parse_tail`` (for
    ``forecast``) a file's header and last rows. Row rules:

    * the first line is the header (``SchemaError`` if it is blank or lacks
      a mandatory column); blank rows are skipped;
    * a row that fails to parse becomes a ``RowError`` with its line number
      and is skipped; parsing continues with the remaining rows;
    * cells are stripped; a short row's missing cells read as empty, extra
      cells are ignored, and a duplicated header name reads its last cell;
    * derived durations (``LT``, ``OpT``, ``NOpT``, ``VT``) and indices
      (``lo``, ``av``, ``pf``, ``qu``, ``oee``) are recomputed only when
      their cell is empty or absent; ``hum``/``temp`` are optional;
    * a row reports its first fault: mandatory cells, then durations (derived
      first if one is empty), indices and ``hum``/``temp``, in column order.
    """
    opened = (nullcontext(source) if hasattr(source, "read")
              else open(source, "r", newline="", encoding="utf-8-sig"))
    with opened as stream, _utf8(getattr(stream, "name", "the dataset")):
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
        for row in reader:
            if row:
                try:
                    records.append(_parse_row(row, plan))
                except (ValueError, TimeConsistencyError) as exc:
                    errors.append(RowError(reader.line_num, str(exc)))
        return ParseResult(records, errors)


_RECORD_BYTES = 512  # bytes of the file's end a tail read starts with, per record needed


def parse_tail(path, need: int, schema: dict[str, str] | None = None) -> ParseResult:
    """The last rows of a dataset file, parsed with ``parse_dataset``'s rules.

    Reads the header line, then the file's last 512 bytes per record needed,
    doubling the block until the rows after its first line break hold
    ``need`` usable records or the block reaches the header; the records are
    then those of the whole file's parse from some row on.
    Row errors keep their file line numbers, but only the rows read are
    reported, and so is a byte of them that is not UTF-8 (a ``DataError``
    naming the file). The whole file is parsed when ``path`` is not a
    seekable file, and when a row could span lines or a block holds no line
    break: a line of the header, or of the block after its cut, holds an odd
    number of ``"``, or the header or block holds a bare ``\r``.
    """
    with open(path, "rb") as fh, _utf8(path):
        if fh.seekable():
            header, size = fh.readline(), _RECORD_BYTES * need
            end = fh.seek(0, io.SEEK_END)
            while True:
                start = max(len(header), end - size)
                fh.seek(start)
                block = fh.read(end - start)
                cut = block.find(b"\n") + 1 if start > len(header) else 0
                text, rows = header + block, header + block[cut:]
                if text.count(b"\r") != text.count(b"\r\n") or start > len(header) and not cut or (
                        b'"' in rows and any(line.count(b'"') % 2 for line in rows.split(b"\n"))):
                    break
                result = parse_dataset(io.StringIO(
                    header.decode("utf-8-sig") + block[cut:].decode(), newline=""), schema)
                if len(result.records) >= need or start == len(header):
                    if not result.errors:
                        return result
                    fh.seek(len(header))  # the skipped rows' line breaks
                    skipped = fh.read(start + cut - len(header)).count(b"\n")
                    return ParseResult(result.records, [
                        RowError(e.line + skipped, e.message) for e in result.errors])
                size *= 2
            fh.seek(0)
        return parse_dataset(io.TextIOWrapper(fh, "utf-8-sig", newline=""), schema)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dt.date, dt.time)):
        return value.isoformat()
    return str(value)


def write_dataset(records: Sequence[ProductionRecord], target) -> None:
    """Write records with the canonical header, as UTF-8. Floats keep full precision."""
    opened = (nullcontext(target) if hasattr(target, "write")
              else open(target, "w", newline="", encoding="utf-8"))
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

