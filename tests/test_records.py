import csv
import dataclasses
import functools
import datetime as dt
import io
import math
import random

import numpy as np
import pytest

from opcast import (OrderingError, ParseResult, ProductionRecord, RowError,
                    SchemaError, SyntheticSpec, TimeConsistencyError,
                    boundary_flags, check_chronological, compute_indices,
                    consistency_issues, derive_time_variables,
                    generate_synthetic, parse_dataset, write_dataset)
from opcast import records as records_module
from opcast.records import ALIAS_TO_ATTR, COLUMNS, MANDATORY, _build_records
from conftest import make_record
from oracles import row_parse_oracle


# published table rows used as golden values throughout
ROW_66 = dict(OT=9.6, SBT=0.0, DT=2.62, PLT=0.05, QLT=0.53)
ROW_67 = dict(OT=9.69, SBT=0.0, DT=2.52, PLT=0.37, QLT=0.0)


class TestTimeAlgebra:
    def test_golden_row_66(self):
        d = derive_time_variables(**ROW_66)
        assert d.LT == pytest.approx(9.6, abs=0.01)
        assert d.OpT == pytest.approx(6.98, abs=0.01)
        assert d.NOpT == pytest.approx(6.93, abs=0.01)
        assert d.VT == pytest.approx(6.4, abs=0.01)

    def test_golden_row_67(self):
        d = derive_time_variables(**ROW_67)
        assert d.LT == pytest.approx(9.69, abs=0.01)
        assert d.OpT == pytest.approx(7.17, abs=0.01)
        assert d.NOpT == pytest.approx(6.8, abs=0.01)
        assert d.VT == pytest.approx(6.8, abs=0.01)

    def test_golden_indices_row_66(self):
        d = derive_time_variables(**ROW_66)
        idx = compute_indices(9.6, d.LT, d.OpT, d.NOpT, d.VT)
        assert idx.lo == pytest.approx(1.0, abs=0.005)
        assert idx.av == pytest.approx(0.73, abs=0.005)
        assert idx.pf == pytest.approx(0.99, abs=0.005)
        assert idx.qu == pytest.approx(0.92, abs=0.005)
        assert idx.oee == pytest.approx(0.67, abs=0.005)

    def test_golden_indices_row_67(self):
        d = derive_time_variables(**ROW_67)
        idx = compute_indices(9.69, d.LT, d.OpT, d.NOpT, d.VT)
        assert idx.lo == pytest.approx(1.0, abs=0.005)
        assert idx.av == pytest.approx(0.74, abs=0.005)
        assert idx.pf == pytest.approx(0.95, abs=0.005)
        assert idx.qu == pytest.approx(1.0, abs=0.005)
        assert idx.oee == pytest.approx(0.70, abs=0.005)

    def test_overall_index_is_value_share_of_loading(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            OT = rng.uniform(1.0, 20.0)
            SBT = rng.uniform(0.0, 0.2) * OT
            d0 = OT - SBT
            DT = rng.uniform(0.0, 0.5) * d0
            PLT = rng.uniform(0.0, 0.5) * (d0 - DT)
            QLT = rng.uniform(0.0, 0.5) * (d0 - DT - PLT)
            d = derive_time_variables(OT, SBT, DT, PLT, QLT)
            idx = compute_indices(OT, d.LT, d.OpT, d.NOpT, d.VT)
            assert idx.oee == pytest.approx(d.VT / d.LT, abs=1e-9)
            for rate in (idx.lo, idx.av, idx.pf, idx.qu, idx.oee):
                assert -1e-12 <= rate <= 1.0 + 1e-12

    def test_small_negative_clamps_to_zero(self):
        d = derive_time_variables(5.0, 5.005, 0.0, 0.0, 0.0)
        assert d.LT == 0.0
        assert d.VT == 0.0

    def test_negative_beyond_tolerance_raises(self):
        with pytest.raises(TimeConsistencyError, match="LT"):
            derive_time_variables(5.0, 6.0, 0.0, 0.0, 0.0)
        with pytest.raises(TimeConsistencyError, match="NOpT"):
            derive_time_variables(5.0, 0.0, 1.0, 4.5, 0.0)

    def test_zero_denominators_are_flagged(self):
        idx = compute_indices(0.0, 0.0, 0.0, 0.0, 0.0)
        assert set(idx.degenerate) == {"lo", "av", "pf", "qu", "oee"}
        assert idx.lo == 0.0 and idx.oee == 0.0


def _rows_to_csv(rows, header=None):
    from opcast.records import COLUMNS
    header = header or ",".join(alias for alias, _ in COLUMNS)
    return io.StringIO(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def _csv_text(records):
    buf = io.StringIO()
    write_dataset(records, buf)
    return buf.getvalue()


def _record_row(rec):
    return _csv_text([rec]).splitlines()[1]


class TestParsing:
    def test_roundtrip_exact(self):
        records = [make_record(n=i + 1, OpT=7.0 + 0.3 * i, hum=64.0 + i)
                   for i in range(5)]
        text = _csv_text(records)
        result = parse_dataset(io.StringIO(text))
        assert result.errors == []
        assert result.records == records

    def test_bad_cell_collected_not_fatal(self):
        good = make_record(n=1)
        bad = make_record(n=2, OT=9.6, DT=0.5, PLT=0.1, QLT=0.05)
        rows = [_record_row(good), _record_row(bad).replace("9.6", "abc", 1)]
        rows.append(_record_row(make_record(n=3)))
        result = parse_dataset(_rows_to_csv(rows))
        assert len(result.records) == 2
        assert len(result.errors) == 1
        assert result.errors[0].line == 3
        assert "abc" in result.errors[0].message

    def test_missing_mandatory_column_raises(self):
        with pytest.raises(SchemaError, match="OT"):
            parse_dataset(io.StringIO("n,date,start\n"))

    def test_empty_file_with_header_gives_no_records(self):
        text = _csv_text([])
        result = parse_dataset(io.StringIO(text))
        assert result.records == [] and result.errors == []

    def test_file_without_header_raises(self):
        with pytest.raises(SchemaError):
            parse_dataset(io.StringIO(""))

    def test_derived_columns_recomputed_when_absent(self):
        rec = make_record(n=1, OpT=7.2)
        full = _csv_text([rec]).splitlines()
        names = full[0].split(",")
        keep = [i for i, name in enumerate(names)
                if name not in ("LT", "OpT", "NOpT", "VT", "lo", "av", "pf",
                                "qu", "oee")]
        header = ",".join(names[i] for i in keep)
        row = ",".join(full[1].split(",")[i] for i in keep)
        result = parse_dataset(_rows_to_csv([row], header=header))
        assert result.errors == []
        got = result.records[0]
        assert got.OpT == pytest.approx(rec.OpT, abs=1e-12)
        assert got.oee == pytest.approx(rec.oee, abs=1e-12)

    def test_header_aliases_via_schema(self):
        rec = make_record(n=1)
        text = _csv_text([rec]).replace("OT,SBT", "opening,SBT", 1)
        result = parse_dataset(io.StringIO(text), schema={"OT": "opening"})
        assert result.errors == []
        assert result.records[0].OT == rec.OT

    def test_unknown_schema_key_raises(self):
        with pytest.raises(SchemaError, match="bogus"):
            parse_dataset(io.StringIO("x\n"), schema={"bogus": "x"})

    def test_environment_columns_optional(self):
        rec = make_record(n=1, hum=None, temp=None)
        result = parse_dataset(io.StringIO(_csv_text([rec])))
        assert result.records[0].hum is None
        assert result.records[0].temp is None

    def test_row_with_inconsistent_times_is_an_error(self):
        rec = make_record(n=1)
        row = _record_row(rec).replace(repr(rec.SBT), repr(rec.OT + 5.0), 1)
        # strip derived columns so the parser has to run the cascade
        full = _csv_text([rec]).splitlines()
        names = full[0].split(",")
        keep = [i for i, name in enumerate(names)
                if name not in ("LT", "OpT", "NOpT", "VT")]
        header = ",".join(names[i] for i in keep)
        row = ",".join(row.split(",")[i] for i in keep)
        result = parse_dataset(_rows_to_csv([row], header=header))
        assert result.records == []
        assert len(result.errors) == 1

    def test_write_dataset_to_path(self, tmp_path):
        records = [make_record(n=1), make_record(n=2, start=dt.time(6, 30))]
        path = tmp_path / "data.csv"
        write_dataset(records, path)
        result = parse_dataset(path)
        assert result.records == records


def _reference_parse(source, schema=None, tol=0.01):
    """The csv.DictReader parser with a per-row cell closure (the reference)."""
    def parse_float(cell, name):
        try:
            value = float(cell)
        except ValueError as exc:
            raise ValueError(f"column {name!r}: cannot parse {cell!r} as a number") from exc
        if not math.isfinite(value):
            raise ValueError(f"column {name!r}: non-finite value {cell!r}")
        return value

    def parse_int(cell, name):
        try:
            return int(cell)
        except ValueError as exc:
            raise ValueError(f"column {name!r}: cannot parse {cell!r} as an integer") from exc

    def parse_row(row):
        values = {}

        def cell(alias):
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
            elif attr in ("n", "pr_ord", "TU", "DU", "nstops"):
                values[attr] = parse_int(raw, alias)
            else:
                values[attr] = parse_float(raw, alias)

        derived = None
        if any(cell(alias) is None for alias in ("LT", "OpT", "NOpT", "VT")):
            derived = derive_time_variables(values["OT"], values["SBT"], values["DT"],
                                            values["PLT"], values["QLT"], tol=tol)
        for alias in ("LT", "OpT", "NOpT", "VT"):
            raw = cell(alias)
            values[alias] = parse_float(raw, alias) if raw is not None else getattr(derived, alias)
        indices = compute_indices(values["OT"], values["LT"], values["OpT"],
                                  values["NOpT"], values["VT"])
        for alias in ("lo", "av", "pf", "qu", "oee"):
            raw = cell(alias)
            values[alias] = parse_float(raw, alias) if raw is not None else getattr(indices, alias)
        for alias in ("hum", "temp"):
            raw = cell(alias)
            values[alias] = parse_float(raw, alias) if raw is not None else None
        return ProductionRecord(**values)

    reader = csv.DictReader(source)
    fieldnames = reader.fieldnames
    if not fieldnames:
        raise SchemaError("dataset has no header row")
    rename = {}
    for canonical, actual in (schema or {}).items():
        if canonical not in ALIAS_TO_ATTR:
            raise SchemaError(f"unknown canonical column {canonical!r} in schema")
        rename[actual] = canonical
    header = {rename.get(name, name) for name in fieldnames}
    missing = [alias for alias in MANDATORY if alias not in header]
    if missing:
        raise SchemaError(f"dataset header is missing mandatory columns: {missing}")
    records, errors = [], []
    for row in reader:
        if rename:
            row = {rename.get(k, k): v for k, v in row.items() if k is not None}
        try:
            records.append(parse_row(row))
        except (ValueError, TimeConsistencyError) as exc:
            errors.append(RowError(reader.line_num, str(exc)))
    return ParseResult(records, errors)


def _join(header, rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header] + rows)
    return buf.getvalue()


def _oracle_cases():
    """(name, file text, schema) covering every row rule of ``parse_dataset``."""
    records = generate_synthetic(SyntheticSpec(
        states=2, transition=((0.8, 0.2), (0.3, 0.7)),
        state_means=((3.0, 2.8), (2.0, 1.8)), days=2, periods_per_shift=4,
        order_every=5, dt_max=0.3, qu_frac_max=0.05, seed=3))
    records[1] = dataclasses.replace(records[1], hum=61.25, temp=20.5)
    yield "synthetic", _csv_text(records), None
    header, *rows = list(csv.reader(io.StringIO(_csv_text(records[:8]))))
    col = header.index

    def edit(i, **cells):
        row = list(rows[i])
        for name, value in cells.items():
            row[col(name.replace("_", "."))] = value
        return row

    def drop(names):
        keep = [j for j, name in enumerate(header) if name not in names]
        return [header[j] for j in keep], [[row[j] for j in keep] for row in rows]

    yield "padded and empty cells", _join(header, [
        [f"  {c}\t" for c in rows[0]], edit(1, LT=" "), edit(2, oee=""),
        edit(3, hum="", temp="  "), edit(4, OT=""), edit(5, shift="  "),
        edit(6, date=" 2022-10-04 ", start="\t06:30:00 ", n=" 7 "),
        edit(7, NOpT="", qu=" ")]), None
    yield "short and long rows", _join(header, [
        rows[0][:10], rows[1][:-2], rows[2][:col("VT")], rows[3] + ["x", ""],
        rows[4] + [""], rows[5][:col("hum") + 1], [rows[6][0]], rows[7]]), None
    lines = _join(header, rows).splitlines()
    bad = _join(header, [edit(3, TU="abc")]).splitlines()[1]
    yield "blank lines", "\n".join(
        lines[:2] + ["", lines[2], "", "", bad, lines[4], "   ", ",,,", "",
                     lines[5], "", ""]) + "\n", None
    yield "quoted newlines", _join(header, [
        rows[0], edit(1, shift="Mo\nM"), edit(2, OT="9.5\n1"), rows[3],
        edit(4, hum="6\n1"), edit(5, DT="x")]), None
    yield "non-finite", _join(header, [
        edit(0, ics="nan"), edit(1, OT="inf"), edit(2, LT="-inf"), edit(3, oee="1e400"),
        edit(4, hum="NaN"), edit(5, TgU="1e400"), edit(6, temp="-1e400"), rows[7]]), None
    yield "bad date, start and int", _join(header, [
        edit(0, date="2022-13-40"), edit(1, start="25:61"), edit(2, n="1.5"),
        edit(3, pr_ord="3e2"), edit(4, nstops=""), edit(5, TU="abc"),
        edit(6, date="03/10/2022"), rows[7]]), None
    for names in (("LT", "OpT", "NOpT", "VT"), ("lo", "av", "pf", "qu", "oee"),
                  ("hum", "temp"), ("LT", "OpT", "NOpT", "VT", "lo", "av", "pf",
                                    "qu", "oee", "hum", "temp")):
        yield f"absent {' '.join(names)}", _join(*drop(names)), None
    renamed = ["opening" if name == "OT" else name for name in header]
    yield "schema rename", _join(renamed, rows), {"OT": "opening"}
    both = header + ["opening"]
    body = [row + [str(9.0 + i)] for i, row in enumerate(rows)]
    body[2] = body[2][:-1]
    yield "rename onto an existing name", _join(both, body), {"OT": "opening"}
    yield "rename onto an earlier name", _join(["opening"] + header, [
        [str(9.0 + i)] + row for i, row in enumerate(rows)]), {"OT": "opening"}
    yield "swapped names", _join(header, rows), {"OT": "SBT", "SBT": "OT"}
    yield "rename hides a mandatory name", _join(header, rows), {"SBT": "OT"}
    dup = header + ["OT", "hum"]
    body = [row + [str(11.0 + i), "55"] for i, row in enumerate(rows)]
    body[3], body[4] = body[3][:-1], body[4][:-2]
    yield "duplicated header columns", _join(dup, body), None
    dropped, body = drop(("LT", "OpT", "NOpT", "VT"))
    body[1][dropped.index("SBT")] = "99.0"
    body[2][dropped.index("QLT")] = "50"
    yield "inconsistent times", _join(dropped, body), None
    yield "two faults in a row", _join(header, [
        edit(0, ics="nan", TU="abc"), edit(1, date="x", OT="y"),
        edit(2, LT="", SBT="99.0", OpT="abc"), edit(3, oee="abc", hum="x"),
        edit(4, hum="x", temp="nan"), edit(5, VT="", lo="z", QLT="50")]), None
    yield "blank first line", "\n" + _csv_text(records[:3]), None
    yield "empty file", "", None
    yield "header only", ",".join(header) + "\n", None
    yield "missing mandatory column", _join(*drop(("QLT",))), None
    yield "unknown schema name", _join(header, rows), {"bogus": "OT"}


def _outcome(parse, text, schema):
    try:
        return parse(io.StringIO(text), schema=schema)
    except SchemaError as exc:
        return f"SchemaError: {exc}"


class TestParserOracle:
    """``parse_dataset`` returns what the DictReader parser returned."""

    @pytest.mark.parametrize("text, schema", [
        pytest.param(text, schema, id=name) for name, text, schema in _oracle_cases()])
    def test_matches_reference(self, text, schema):
        got = _outcome(parse_dataset, text, schema)
        assert got == _outcome(_reference_parse, text, schema)

    def test_corpus_reaches_every_outcome(self):
        outcomes = {name: _outcome(parse_dataset, text, schema)
                    for name, text, schema in _oracle_cases()}
        assert isinstance(outcomes["empty file"], str)
        assert isinstance(outcomes["rename hides a mandatory name"], str)
        messages = [e.message for result in outcomes.values()
                    if isinstance(result, ParseResult) for e in result.errors]
        for expected in ("missing value", "as a number", "as an integer",
                         "non-finite value", "column 'date': cannot parse",
                         "column 'start': cannot parse", "derived"):
            assert any(expected in m for m in messages), expected
        blank = outcomes["blank lines"]
        assert [e.line for e in blank.errors] == [7, 9, 10]
        assert outcomes["quoted newlines"].errors[0].line == 6
        assert outcomes["duplicated header columns"].records[0].OT == 11.0
        assert outcomes["rename onto an existing name"].records[0].OT == 9.0

    def test_parsed_record_is_frozen(self):
        record = parse_dataset(io.StringIO(_csv_text([make_record()]))).records[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.OT = 1.0


_ATTRS = tuple(attr for _, attr in COLUMNS)
# empty, padded, non-finite, out of range, underscored, signed, unparseable
# and line-breaking cells
_ODD_CELLS = ("", " ", "\t ", "nan", "NaN", "inf", "-inf", "1e400", "-1e400", "1_000",
              " 7 ", "+3", "1e3", "-0.0", "abc", "\x1c2.5", "9.5\n1", "2022-13-40",
              " 2022-10-04 ", "06:30", "M")
_GROUP_NAMES = (MANDATORY, ("LT", "OpT", "NOpT", "VT"), ("lo", "av", "pf", "qu", "oee"),
                ("hum", "temp"))


@functools.cache
def _base_rows():
    records = generate_synthetic(SyntheticSpec(
        states=2, transition=((0.8, 0.2), (0.3, 0.7)),
        state_means=((3.0, 2.8), (2.0, 1.8)), days=22, periods_per_shift=10,
        order_every=5, dt_max=0.3, qu_frac_max=0.05, seed=4))
    return list(csv.reader(io.StringIO(_csv_text(records))))


def _generated_file(rng, base):
    """(file text, schema) from a random slice of ``base`` with random faults."""
    header, body = base[0], base[1:]
    n_rows = rng.randrange(41) if rng.random() < 0.85 else rng.randrange(250, 600)
    start = rng.randrange(len(body) - n_rows + 1)
    header, rows = list(header), [list(row) for row in body[start:start + n_rows]]
    if rng.random() < 0.2:
        optional = [name for name in header if name not in MANDATORY]
        keep = [j for j, name in enumerate(header)
                if name not in rng.sample(optional, rng.randint(1, 3))]
        header, rows = [header[j] for j in keep], [[row[j] for j in keep] for row in rows]
    if rng.random() < 0.15:
        header.append(rng.choice(header))
        for row in rows:
            row.append(rng.choice(("1.25", "7", "")))
    if rng.random() < 0.05:
        j = header.index(rng.choice([n for n in ("ics", "OT", "hum") if n in header]))
        for row in rows:
            row[j] = "1e308"  # finite cells whose sum overflows
    n_faults = rng.choice((0, 0, 0, 1, 2, 3)) if n_rows else 0
    faults = {rng.randrange(n_rows) for _ in range(n_faults)}
    for i in sorted(faults, reverse=True):
        kind = rng.random()
        names = [n for n in rng.choice(_GROUP_NAMES) if n in header] or header
        j = header.index(rng.choice(names))
        if kind < 0.5:
            rows[i][j] = rng.choice(_ODD_CELLS)
        elif kind < 0.7:
            rows[i][j] = f" {rows[i][j]}\t"
        elif kind < 0.8:
            rows[i] = rows[i][:rng.randrange(1, len(header))]
        elif kind < 0.85:
            rows[i] += ["x"] * rng.randint(1, 3)
        else:
            rows.insert(i, rng.choice(([], ["   "], [""] * 3)))
    schema = None
    if rng.random() < 0.2:
        schema = {name: f"col {name}" for name in rng.sample(header, rng.randint(1, 3))
                  if name in ALIAS_TO_ATTR}
        header = [f"col {name}" if name in schema else name for name in header]
    return _join(header, rows), schema


def _generated_corpus(seed, count):
    rng, base = random.Random(seed), _base_rows()
    for i in range(count):
        yield f"seed {seed} file {i}", *_generated_file(rng, base)


def _cell_corpus():
    """Three-row files with one odd cell, for every column and odd value."""
    header, *rows = _base_rows()[:4]
    for j, name in enumerate(header):
        for cell in ("", " \t", f" {rows[1][j]}\t", "nan", "inf", "1e400", "1_000", "abc"):
            odd = [list(row) for row in rows]
            odd[1][j] = cell
            yield f"{name} = {cell!r}", _join(header, odd), None


def _chunk_edge_corpus():
    """Files around the 256-row chunk: each bad row holds one row error."""
    rng, base = random.Random(99), _base_rows()
    header = base[0]
    bad_names = [name for name in MANDATORY if name != "shift"]
    yield "header only", ",".join(header) + "\n", ()
    for n_rows in (255, 256, 257, 512, 513):
        yield f"{n_rows} clean rows", _join(header, base[1:n_rows + 1]), ()
    for names in (("LT",), ("lo",), ("hum",), ("hum", "temp")):
        keep = [j for j, name in enumerate(header) if name not in names]
        yield f"300 rows without {names}", _join(
            [header[j] for j in keep], [[row[j] for j in keep] for row in base[1:301]]), ()
    for bad in ((255,), (256,), (257,), (255, 256, 257), (0, 511)):
        for n_rows in (256, 258, 600):
            if max(bad) < n_rows:
                rows = [list(row) for row in base[1:n_rows + 1]]
                for i in bad:
                    rows[i][header.index(rng.choice(bad_names))] = \
                        rng.choice(("", "abc", "nan", "1e400"))
                yield f"{n_rows} rows, bad at {bad}", _join(header, rows), bad


def _gap_corpus(seed, count):
    """Files with gaps in hum/temp: empty, whitespace-only, padded, nan or
    unparseable cells, in one row, every few rows or every row."""
    rng, base = random.Random(1000 + seed), _base_rows()
    header = base[0]
    for i in range(count):
        n_rows = rng.randrange(1, 41) if rng.random() < 0.6 else rng.randrange(250, 600)
        start = rng.randrange(len(base) - n_rows)
        rows = [list(row) for row in base[1 + start:1 + start + n_rows]]
        every = rng.choice((1, 3, 100, n_rows))
        cells = ("", " ", "\t ", " 7 ") if rng.random() < 0.7 else ("", " ", "nan", "abc")
        for r in range(rng.randrange(every), n_rows, every):
            for name in rng.sample(("hum", "temp"), rng.randint(1, 2)):
                rows[r][header.index(name)] = rng.choice(cells)
        yield f"gaps seed {seed} file {i}", _join(header, rows), None


def _field_types(result):
    return [tuple(type(getattr(rec, attr)) for attr in _ATTRS) for rec in result.records]


class TestRowOracle:
    """``parse_dataset`` gives what ``_parse_row`` gives row by row."""

    def _check(self, name, text, schema):
        got = _outcome(parse_dataset, text, schema)
        want = _outcome(row_parse_oracle, text, schema)
        assert got == want, name
        if isinstance(got, ParseResult):
            assert _field_types(got) == _field_types(want), name

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_files(self, seed):
        for case in _generated_corpus(seed, 100):
            self._check(*case)

    def test_every_column_with_each_odd_cell(self):
        for case in _cell_corpus():
            self._check(*case)

    def test_chunk_edges(self):
        for name, text, bad in _chunk_edge_corpus():
            self._check(name, text, None)
            lines = [e.line for e in parse_dataset(io.StringIO(text)).errors]
            assert lines == [i + 2 for i in bad], name

    @pytest.mark.parametrize("seed", range(3))
    def test_files_with_sensor_gaps(self, seed):
        for case in _gap_corpus(seed, 60):
            self._check(*case)

    def test_blank_sensor_cells_stay_on_the_column_pass(self, monkeypatch):
        taken = []
        column_pass = records_module._column_pass
        monkeypatch.setattr(records_module, "_column_pass",
                            lambda *args: taken.append(column_pass(*args)) or taken[-1])
        header, *rows = _base_rows()[:301]
        rows = [list(row) for row in rows]
        for r in range(0, 300, 100):
            rows[r][header.index("hum")] = ""
            rows[r + 1][header.index("temp")] = " \t"
        got = parse_dataset(io.StringIO(_join(header, rows)))
        assert [chunk is not None for chunk in taken] == [True, True]
        assert [i for i, rec in enumerate(got.records) if rec.hum is None] == [0, 100, 200]
        assert [i for i, rec in enumerate(got.records) if rec.temp is None] == [1, 101, 201]
        self._check("blank sensor cells", _join(header, rows), None)

    def test_corpus_reaches_both_routes(self, monkeypatch):
        taken = []
        column_pass = records_module._column_pass

        def spy(*args):
            result = column_pass(*args)
            taken.append(result is not None)
            return result

        monkeypatch.setattr(records_module, "_column_pass", spy)
        outcomes = [_outcome(parse_dataset, text, schema)
                    for _, text, schema in _generated_corpus(0, 100)]
        assert taken.count(True) > 30 and taken.count(False) > 30
        assert sum(isinstance(o, ParseResult) and bool(o.errors) for o in outcomes) > 20
        taken.clear()
        header, *rows = _base_rows()[:6]
        rows = [row[:5] + ["1e308"] + row[6:] for row in rows]  # ics sums to inf
        assert len(parse_dataset(io.StringIO(_join(header, rows))).records) == 5
        assert taken == [True]


class TestBuildRecords:
    def test_nothing_runs_after_init(self):
        assert not hasattr(ProductionRecord, "__post_init__")

    def test_equals_the_dataclass_init(self):
        records = [make_record(n=1), make_record(n=2, hum=55.5, temp=None),
                   make_record(n=3, hum=None, temp=20.0)]
        values = [tuple(getattr(rec, attr) for attr in _ATTRS) for rec in records]
        built = _build_records(list(zip(*values)))
        expected = [ProductionRecord(*row) for row in values]
        assert built == expected
        assert [[type(getattr(rec, attr)) for attr in _ATTRS] for rec in built] == \
            [[type(getattr(rec, attr)) for attr in _ATTRS] for rec in expected]
        assert [hash(rec) for rec in built] == [hash(rec) for rec in expected]
        with pytest.raises(dataclasses.FrozenInstanceError):
            built[0].OT = 1.0


class TestSegmentation:
    def test_golden_adjacent_shift_boundary(self):
        r66 = make_record(n=66, shift="Mo M", start=dt.time(13, 50, 24),
                          OT=9.6, DT=2.62, PLT=0.05, QLT=0.53)
        r67 = make_record(n=67, shift="Mo A", start=dt.time(14, 0, 0),
                          OT=9.69, DT=2.52, PLT=0.37, QLT=0.0)
        flags = boundary_flags([r66, r67])
        assert flags[0].begins_shift and flags[1].begins_shift
        assert flags[0].begins_order and not flags[1].begins_order

    def test_sequences_partition_the_records(self):
        rng = np.random.default_rng(7)
        labels = []
        for code in rng.choice(["Mo M", "Mo A", "Mo N", "Tu M"], size=12):
            labels.extend([str(code)] * int(rng.integers(1, 4)))
        records = []
        cursor = dt.datetime(2022, 10, 3, 6, 0)
        for i, label in enumerate(labels):
            records.append(make_record(n=i + 1, date=cursor.date(),
                                       start=cursor.time(), shift=label,
                                       pr_ord=300 + i // 5))
            cursor += dt.timedelta(minutes=15)
        flags = boundary_flags(records)
        assert len(flags) == len(records)
        for i, fl in enumerate(flags):
            # a shift begins exactly where the label changes
            assert fl.begins_shift == (i == 0 or records[i].shift
                                       != records[i - 1].shift)
            assert fl.begins_order == (i == 0 or records[i].pr_ord
                                       != records[i - 1].pr_ord)

    def test_unsorted_records_raise(self):
        r1 = make_record(n=1, start=dt.time(8, 0))
        r2 = make_record(n=2, start=dt.time(7, 0))
        with pytest.raises(OrderingError):
            check_chronological([r1, r2])

    def test_same_label_non_adjacent_is_two_sequences(self):
        recs = [make_record(n=1, shift="Mo M", start=dt.time(6, 0)),
                make_record(n=2, shift="Mo A", start=dt.time(14, 0)),
                make_record(n=3, shift="Mo M", start=dt.time(22, 0))]
        assert [fl.begins_shift for fl in boundary_flags(recs)] == [True, True, True]


class TestConsistency:
    def test_clean_record_has_no_issues(self):
        assert consistency_issues(make_record()) == []

    def test_violations_are_listed(self):
        rec = make_record()
        broken = rec.__class__(**{**rec.__dict__, "VT": rec.VT + 1.0,
                                  "qu": 1.2})
        issues = consistency_issues(broken)
        assert any("VT" in msg for msg in issues)
        assert any("qu" in msg for msg in issues)

    def test_target_units_check_is_optional(self):
        rec = make_record()
        wrong = rec.__class__(**{**rec.__dict__, "TgU": rec.TgU + 5.0})
        assert consistency_issues(wrong) == []
        assert any("TgU" in m for m in
                   consistency_issues(wrong, check_target_units=True))
        assert consistency_issues(rec, check_target_units=True) == []

    def test_shift_code_and_weekday(self):
        rec = make_record(shift="Tu N")
        assert rec.shift_code == "N"
        assert rec.weekday == "Tu"
        assert make_record(shift="NIGHT").shift_code == "NIGHT"
