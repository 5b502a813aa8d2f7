import datetime as dt
import json
from collections import Counter
import warnings
from dataclasses import replace

import numpy as np
import pytest

import opcast.harness
import opcast.model
from opcast import (ConfigurationError, DEFAULT_MODELS, DegenerateDataError,
                    ForecastUnavailableError, InputError, IoHmmModel, ModelConfig,
                    NumericError, OpcastError, OrderingError, SyntheticSpec,
                    ThresholdWarning, default_feature_config, emit_report,
                    generate_synthetic, leave_one_week_out, mae,
                    parse_model_name, response_summary, week_key)
from opcast.harness import CSV_HEADER, SUMMARY_MODEL

from conftest import build_stream
from oracles import lowo_row_oracle


@pytest.fixture(scope="module")
def two_week_records():
    spec = SyntheticSpec(states=2,
                         transition=((0.85, 0.15), (0.25, 0.75)),
                         state_means=((3.0, 2.8), (2.2, 2.0)),
                         noise_cov=((0.01, 0.0), (0.0, 0.01)),
                         days=14, periods_per_shift=6, dt_max=0.4,
                         qu_frac_max=0.05, seed=4)
    return generate_synthetic(spec)


SMALL_MODELS = ("persistence", "no-lags", "iohmm-q1", "varx-q1", "iohmm-uni-q1")


@pytest.fixture(scope="module")
def small_report(two_week_records):
    return leave_one_week_out(two_week_records, model_names=SMALL_MODELS,
                              seed=0, k_max=6)


class TestModelNames:
    def test_known_identifiers(self):
        assert parse_model_name("persistence") == ("persistence", None)
        assert parse_model_name("no-lags") == ("iohmm", 0)
        assert parse_model_name("iohmm-q3") == ("iohmm", 3)
        assert parse_model_name("iohmm-uni-q4") == ("iohmm-uni", 4)
        assert parse_model_name("varx-q2") == ("varx", 2)

    def test_default_list_parses(self):
        assert len(DEFAULT_MODELS) == 17
        for name in DEFAULT_MODELS:
            parse_model_name(name)

    def test_unknown_identifiers(self):
        for bad in ("iohmm", "iohmm-qx", "varx-q", "arima-q1", ""):
            with pytest.raises(ConfigurationError):
                parse_model_name(bad)


class TestWeekKey:
    def test_iso_format(self):
        assert week_key(dt.date(2022, 10, 3)) == "2022-W40"
        assert week_key(dt.date(2022, 10, 9)) == "2022-W40"
        assert week_key(dt.date(2022, 10, 10)) == "2022-W41"

    def test_year_boundary_uses_iso_year(self):
        assert week_key(dt.date(2022, 1, 1)) == "2021-W52"
        assert week_key(dt.date(2021, 1, 1)) == "2020-W53"


class TestResponseSummary:
    def test_hand_computed_quantiles(self):
        records = build_stream([{"OpT": v} for v in
                                [1.0, 2.0, 3.0, 4.0, 100.0]])
        out = response_summary(records, ("OpT",))
        stats = out["OpT"]
        assert stats["min"] == 1.0
        assert stats["median"] == 3.0
        assert stats["max"] == 100.0
        assert stats["mean"] == pytest.approx(22.0)
        assert stats["q1"] == pytest.approx(2.0)
        assert stats["q3"] == pytest.approx(4.0)

    def test_an_empty_response_cell_is_refused_naming_the_column(self):
        records = build_stream([{"hum": 60.0}, {"hum": None}, {"hum": 61.0}])
        with pytest.raises(ConfigurationError, match="'hum'"):
            response_summary(records, ("OpT", "hum"))


class TestLeaveOneWeekOut:
    def test_folds_are_the_iso_weeks(self, two_week_records, small_report):
        weeks = sorted({week_key(r.date) for r in two_week_records})
        assert small_report.folds == weeks == ["2022-W40", "2022-W41"]
        assert small_report.n_records == len(two_week_records)

    def test_every_model_reports_in_every_fold(self, small_report):
        seen = {(r.model, r.fold) for r in small_report.rows}
        for model in small_report.models:
            for fold in small_report.folds:
                assert (model, fold) in seen

    def test_predictions_stay_inside_their_fold(self, two_week_records,
                                                small_report):
        counts = {(r.model, r.fold, r.shift_type, r.response): r.count
                  for r in small_report.rows}
        seen = Counter()
        for block in small_report.predictions:
            assert len(block.index) == len(block.actual) == len(block.mean)
            assert np.all(np.diff(block.index) > 0)  # record order
            for i in block.index.tolist():
                assert week_key(two_week_records[i].date) == block.fold
                seen[block.model, block.fold, two_week_records[i].shift_code,
                     block.response] += 1
        assert seen == counts  # each cell holds its block's records of that shift type

    def test_persistence_predicts_previous_value(self, two_week_records,
                                                 small_report):
        blocks = [b for b in small_report.predictions
                  if b.model == "persistence" and b.response == "OpT"]
        assert blocks
        for block in blocks:
            assert block.sd is None
            for i, actual, mean in zip(block.index.tolist(), block.actual, block.mean):
                assert mean == two_week_records[i - 1].OpT
                assert actual == two_week_records[i].OpT

    def test_interval_metrics_only_with_spreads(self, small_report):
        by_model = {}
        for row in small_report.rows:
            by_model.setdefault(row.model, set()).add(row.metric)
        assert by_model["persistence"] == {"mae", "rmse"}
        for model in ("no-lags", "iohmm-q1", "varx-q1", "iohmm-uni-q1"):
            assert by_model[model] == {"mae", "rmse", "covg", "piw"}

    def test_cell_values_match_their_predictions(self, two_week_records, small_report):
        blocks = {(b.model, b.fold, b.response): b for b in small_report.predictions}
        checked = 0
        for row in small_report.rows:
            if row.metric != "mae":
                continue
            block = blocks[row.model, row.fold, row.response]
            group = [j for j, i in enumerate(block.index.tolist())
                     if two_week_records[i].shift_code == row.shift_type]
            assert row.count == len(group)
            expected = mae([block.actual[j] for j in group],
                           [block.mean[j] for j in group])
            assert row.value == pytest.approx(expected, rel=1e-12)
            checked += 1
        assert checked >= 40

    def test_varx_spread_is_frozen_within_a_fold(self, small_report):
        def spreads(model, fold):
            return {round(sd, 12) for b in small_report.predictions
                    if b.model == model and b.fold == fold and b.response == "OpT"
                    for sd in b.sd.tolist()}

        for fold in small_report.folds:
            assert len(spreads("varx-q1", fold)) == 1
        # while the online model adapts its spread as the week unfolds
        assert len(spreads("iohmm-q1", small_report.folds[0])) > 1

    def test_deterministic_repeat(self, two_week_records, small_report):
        again = leave_one_week_out(two_week_records, model_names=SMALL_MODELS,
                                   seed=0, k_max=6)
        assert emit_report(again) == emit_report(small_report)

    def test_states_are_fitted_once_per_fold(self, two_week_records):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = leave_one_week_out(two_week_records,
                                        model_names=SMALL_MODELS,
                                        seed=0, k_max=6)
        threshold = [w for w in caught if w.category is ThresholdWarning]
        assert len(threshold) == len(report.folds) == 2

    def test_unrequested_kinds_do_no_work(self, two_week_records, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called for a model kind nobody asked for")

        monkeypatch.setattr(opcast.model, "fit_auto_k", forbidden)
        report = leave_one_week_out(two_week_records,
                                    model_names=("persistence", "varx-q1"))
        assert report.models == ["persistence", "varx-q1"]
        monkeypatch.setattr(opcast.harness, "build_features", forbidden)
        leave_one_week_out(two_week_records, model_names=("persistence",))

    IOHMM_NAMES = [name for name in DEFAULT_MODELS
                   if parse_model_name(name)[0] in ("iohmm", "iohmm-uni")]

    @staticmethod
    def _walks_one_by_one(records, names, base):
        """The oracle: per fold and identifier, each variant fitted on its own
        and walked through the test week by ``run_online``, in model order;
        the first refusal as (type, message)."""
        expected = {}
        try:
            for fold in sorted({week_key(r.date) for r in records}):
                test_idx = [i for i, r in enumerate(records) if week_key(r.date) == fold]
                train = [r for r in records if week_key(r.date) != fold]
                for name in names:
                    kind, q = parse_model_name(name)
                    features = base.features.with_lags(q)
                    for features in [features] if kind == "iohmm" else \
                            [features.for_response(r) for r in features.response_names]:
                        model = IoHmmModel(replace(base, features=features))
                        model.fit(train, seed=0, k_max=6)
                        for st in model.run_online(records, indices=test_idx):
                            if st.forecast is None:
                                continue
                            sd = np.sqrt(np.clip(np.diagonal(st.forecast.sigma), 0.0, None))
                            expected.setdefault((name, fold), []).extend(
                                (st.index, resp, float(st.y[j]),
                                 float(st.forecast.y_hat[j]), float(sd[j]))
                                for j, resp in enumerate(features.response_names))
        except OpcastError as exc:
            return type(exc), str(exc)
        return expected

    def test_shared_states_match_independent_fits(self, two_week_records):
        # every default IO-HMM variant learns its table derived from the
        # fold's shared one, with the shared labels, and walks the test week
        # in the table of all records derived for it, in every fold
        records = two_week_records
        assert len(self.IOHMM_NAMES) == 11
        base = ModelConfig(features=default_feature_config(records),
                           allow_cold_start=True)
        expected = self._walks_one_by_one(records, self.IOHMM_NAMES, base)
        report = leave_one_week_out(records, model_names=self.IOHMM_NAMES, seed=0, k_max=6)
        assert len(report.folds) == 2
        for fold in report.folds:
            for name in self.IOHMM_NAMES:
                got = [(i, b.response, actual, mean, sd)
                       for b in report.predictions if b.model == name and b.fold == fold
                       for i, actual, mean, sd in zip(b.index.tolist(), b.actual.tolist(),
                                                      b.mean.tolist(), b.sd.tolist())]
                assert got and sorted(got) == sorted(expected[name, fold]), (name, fold)

    @pytest.mark.parametrize("cells, error", [
        ({"av": float("nan")}, InputError),      # t
        ({"ics": float("inf")}, NumericError),   # w
        ({"OpT": float("nan")}, NumericError),   # y, and a lag of the next record
        ({"NOpT": -float("inf")}, NumericError),
    ])
    def test_a_bad_test_week_cell_is_refused_as_one_by_one(self, two_week_records,
                                                           cells, error):
        # record 20 lies in the first week, the first fold's test week
        records = list(two_week_records)
        records[20] = replace(records[20], **cells)
        base = ModelConfig(features=default_feature_config(records), allow_cold_start=True)
        expected = self._walks_one_by_one(records, self.IOHMM_NAMES, base)
        assert expected[0] is error and "record 20 " in expected[1]
        with pytest.raises(error) as refused:
            leave_one_week_out(records, model_names=self.IOHMM_NAMES, base=base,
                               seed=0, k_max=6)
        assert str(refused.value) == expected[1]

    def test_an_unseen_pattern_is_refused_as_one_by_one(self, two_week_records):
        # a shift type that only the first week has meets no training data
        # in the first fold; with cold starts refused, its first forecast is
        records = list(two_week_records)
        for i in range(24, 30):
            records[i] = replace(records[i], shift=records[i].shift[:-1] + "X")
        base = ModelConfig(features=default_feature_config(records))
        expected = self._walks_one_by_one(records, self.IOHMM_NAMES, base)
        assert expected[0] is ForecastUnavailableError
        with pytest.raises(ForecastUnavailableError) as refused:
            leave_one_week_out(records, model_names=self.IOHMM_NAMES, base=base,
                               seed=0, k_max=6)
        assert str(refused.value) == expected[1]

    def test_single_week_rejected(self):
        records = build_stream([{} for _ in range(10)])
        with pytest.raises(DegenerateDataError):
            leave_one_week_out(records, model_names=("persistence",))

    def test_unknown_model_rejected_upfront(self, two_week_records):
        with pytest.raises(ConfigurationError):
            leave_one_week_out(two_week_records, model_names=("nope",))

    def test_repeated_model_rejected_upfront(self, two_week_records, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work done for a refused model list")

        monkeypatch.setattr(opcast.model, "fit_auto_k", forbidden)
        with pytest.raises(ConfigurationError, match="repeated: iohmm-q1, persistence"):
            leave_one_week_out(two_week_records, model_names=(
                "persistence", "iohmm-q1", "varx-q1", "iohmm-q1", "persistence"))

    def test_unsorted_records_rejected(self, two_week_records):
        shuffled = [two_week_records[1], two_week_records[0]]
        with pytest.raises(OrderingError):
            leave_one_week_out(shuffled + list(two_week_records[2:]),
                               model_names=("persistence",))

    def test_empty_fold_cell_warns(self):
        # the first ISO week holds only the very first record, which no
        # model can forecast (nothing precedes it)
        first = build_stream([{"date": dt.date(2022, 10, 2)}])
        rest = build_stream([{} for _ in range(20)],
                            start=dt.datetime(2022, 10, 3, 6, 0))
        rest = rest + build_stream([{} for _ in range(20)],
                                   start=dt.datetime(2022, 10, 10, 6, 0))
        records = first + [r.__class__(**{**r.__dict__, "n": i + 2})
                           for i, r in enumerate(rest)]
        with pytest.warns(UserWarning, match="no forecasts"):
            report = leave_one_week_out(records, model_names=("persistence",))
        assert "2022-W39" in report.folds
        assert all(r.fold != "2022-W39" for r in report.rows)


def _first_week_of_one_record():
    """A first ISO week holding only the very first record, which no model
    can forecast (nothing precedes it)."""
    first = build_stream([{"date": dt.date(2022, 10, 2)}])
    rest = build_stream([{} for _ in range(20)], start=dt.datetime(2022, 10, 3, 6, 0))
    rest = rest + build_stream([{} for _ in range(20)],
                               start=dt.datetime(2022, 10, 10, 6, 0))
    return first + [r.__class__(**{**r.__dict__, "n": i + 2}) for i, r in enumerate(rest)]


def _with_nan_opt(records, i):
    records = list(records)
    records[i] = replace(records[i], OpT=float("nan"))
    return records


class TestReportOracle:
    """The columnar report against the row-by-row one of ``lowo_row_oracle``,
    byte for byte in both formats, with the same warnings and refusals."""

    @staticmethod
    def _emitted(run, records, models, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                report = run(records, model_names=models, seed=0, **kwargs)
            except OpcastError as exc:
                return type(exc), str(exc)
        return (emit_report(report, "csv"), emit_report(report, "structured-text"),
                [str(w.message) for w in caught if w.category is UserWarning])

    @pytest.fixture(scope="class")
    def datasets(self, two_week_records):
        spec = SyntheticSpec(states=3,
                             transition=((0.8, 0.15, 0.05), (0.1, 0.8, 0.1),
                                         (0.05, 0.15, 0.8)),
                             state_means=((3.2, 2.9), (2.4, 2.0), (1.5, 1.1)),
                             noise_cov=((0.04, 0.01), (0.01, 0.04)),
                             days=28, periods_per_shift=4, dt_max=0.4,
                             qu_frac_max=0.05, seed=9)
        return {"14 days": two_week_records, "28 days": generate_synthetic(spec),
                "one-record week": _first_week_of_one_record(),
                "NaN in a test week": _with_nan_opt(two_week_records, 20),
                "NaN in the last record": _with_nan_opt(two_week_records,
                                                        len(two_week_records) - 1)}

    @pytest.mark.parametrize("data, models, warned, refused", [
        ("14 days", DEFAULT_MODELS, False, False),
        ("28 days", DEFAULT_MODELS, False, False),
        ("one-record week", ("persistence",), True, False),
        ("14 days", ("persistence",), False, False),
        ("14 days", ("varx-q5", "varx-q1"), False, False),  # varx-q5 drops records 0-4
        ("NaN in a test week", ("persistence", "varx-q2"), False, True),
        ("NaN in a test week", ("varx-q2",), False, True),
        ("NaN in a test week", DEFAULT_MODELS, False, True),
        ("NaN in the last record", ("persistence",), False, True),
    ])
    def test_same_bytes_warnings_and_refusals(self, datasets, data, models, warned,
                                              refused):
        expected = self._emitted(lowo_row_oracle, datasets[data], models, k_max=4)
        got = self._emitted(leave_one_week_out, datasets[data], models, k_max=4)
        assert got == expected
        assert (len(got) == 2) == refused
        if not refused:
            assert any("no forecasts" in message for message in got[2]) == warned


class TestEmitReport:
    def test_csv_layout(self, small_report):
        text = emit_report(small_report, format="csv")
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert all(len(line.split(",")) == 7 for line in lines)
        # one row per aggregate plus the summary block
        n_summary = 6 * len(small_report.response_summary)
        assert len(lines) == 1 + len(small_report.rows) + n_summary

    def test_csv_values_roundtrip_through_repr(self, small_report):
        text = emit_report(small_report, format="csv")
        for line in text.strip().split("\n")[1:]:
            fields = line.split(",")
            assert float(fields[5]) == float(repr(float(fields[5])))
            int(fields[6])

    def test_summary_rows_embed_dataset_quantiles(self, small_report):
        text = emit_report(small_report, format="csv")
        rows = [line.split(",") for line in text.strip().split("\n")[1:]
                if line.startswith(SUMMARY_MODEL + ",")]
        assert len(rows) == 6 * 2
        stats = {(r[3], r[4]): float(r[5]) for r in rows}
        assert stats[("OpT", "median")] == \
            small_report.response_summary["OpT"]["median"]
        assert all(int(r[6]) == small_report.n_records for r in rows)

    def test_structured_text_is_sorted_json(self, small_report):
        text = emit_report(small_report, format="structured-text")
        doc = json.loads(text)
        assert doc["folds"] == small_report.folds
        assert doc["n_records"] == small_report.n_records
        assert len(doc["rows"]) == len(small_report.rows)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_unknown_format(self, small_report):
        with pytest.raises(ConfigurationError):
            emit_report(small_report, format="yaml")
        with pytest.raises(ConfigurationError, match="'json'"):  # not an alias
            emit_report(small_report, format="json")
