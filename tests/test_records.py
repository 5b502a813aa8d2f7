import datetime as dt
import io

import numpy as np
import pytest

from opcast import (OrderingError, SchemaError, TimeConsistencyError,
                    boundary_flags, check_chronological, compute_indices,
                    consistency_issues, derive_time_variables, parse_dataset,
                    write_dataset)
from conftest import make_record


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

    def test_degenerate_value_is_configurable(self):
        idx = compute_indices(10.0, 10.0, 0.0, 0.0, 0.0, degenerate_value=1.0)
        assert idx.pf == 1.0
        assert "pf" in idx.degenerate
        assert idx.lo == 1.0 and "lo" not in idx.degenerate


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
