import datetime as dt
import json
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
        for row in small_report.predictions:
            assert week_key(two_week_records[row.index].date) == row.fold
            assert two_week_records[row.index].shift_code == row.shift_type

    def test_persistence_predicts_previous_value(self, two_week_records,
                                                 small_report):
        rows = [r for r in small_report.predictions
                if r.model == "persistence" and r.response == "OpT"]
        assert rows
        for row in rows:
            assert row.predicted == two_week_records[row.index - 1].OpT
            assert row.actual == two_week_records[row.index].OpT
            assert row.sd is None

    def test_interval_metrics_only_with_spreads(self, small_report):
        by_model = {}
        for row in small_report.rows:
            by_model.setdefault(row.model, set()).add(row.metric)
        assert by_model["persistence"] == {"mae", "rmse"}
        for model in ("no-lags", "iohmm-q1", "varx-q1", "iohmm-uni-q1"):
            assert by_model[model] == {"mae", "rmse", "covg", "piw"}

    def test_cell_values_match_their_predictions(self, small_report):
        cells = {}
        for p in small_report.predictions:
            cells.setdefault((p.model, p.fold, p.shift_type, p.response),
                             []).append(p)
        checked = 0
        for row in small_report.rows:
            if row.metric != "mae":
                continue
            group = cells[(row.model, row.fold, row.shift_type, row.response)]
            assert row.count == len(group)
            expected = mae([p.actual for p in group],
                           [p.predicted for p in group])
            assert row.value == pytest.approx(expected, rel=1e-12)
            checked += 1
        assert checked >= 40

    def test_varx_spread_is_frozen_within_a_fold(self, small_report):
        for fold in small_report.folds:
            sds = {round(p.sd, 12) for p in small_report.predictions
                   if p.model == "varx-q1" and p.fold == fold
                   and p.response == "OpT"}
            assert len(sds) == 1
        # while the online model adapts its spread as the week unfolds
        sds = {round(p.sd, 12) for p in small_report.predictions
               if p.model == "iohmm-q1" and p.fold == small_report.folds[0]
               and p.response == "OpT"}
        assert len(sds) > 1

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
                got = [(p.index, p.response, p.actual, p.predicted, p.sd)
                       for p in report.predictions if p.model == name and p.fold == fold]
                assert got and got == expected[name, fold], (name, fold)

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
        assert text == emit_report(small_report, format="json")
        doc = json.loads(text)
        assert doc["folds"] == small_report.folds
        assert doc["n_records"] == small_report.n_records
        assert len(doc["rows"]) == len(small_report.rows)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_unknown_format(self, small_report):
        with pytest.raises(ConfigurationError):
            emit_report(small_report, format="yaml")
