import csv
import datetime as dt
import io
import json
from collections import Counter
import warnings
from dataclasses import replace

import numpy as np
import pytest

import opcast.harness
import opcast.metrics
import opcast.model
from opcast import (ConditioningWarning, ConfigurationError, DEFAULT_MODELS, DegenerateDataError,
                    FittingError, ForecastUnavailableError, InputError, IoHmmModel, ModelConfig,
                    NumericError, OpcastError, OrderingError, SyntheticSpec,
                    ThresholdWarning, build_features, default_feature_config, emit_report,
                    fit_states, generate_synthetic, leave_one_week_out,
                    parse_model_name, response_summary, week_key)
from opcast.harness import CSV_HEADER, SUMMARY_MODEL, ReportRow

from conftest import build_stream, featurizing_reads
from oracles import lowo_row_oracle


def two_week_spec():
    return SyntheticSpec(states=2,
                         transition=((0.85, 0.15), (0.25, 0.75)),
                         state_means=((3.0, 2.8), (2.2, 2.0)),
                         noise_cov=((0.01, 0.0), (0.0, 0.01)),
                         days=14, periods_per_shift=6, dt_max=0.4,
                         qu_frac_max=0.05, seed=4)


@pytest.fixture(scope="module")
def two_week_records():
    return generate_synthetic(two_week_spec())


SMALL_MODELS = ("persistence", "no-lags", "iohmm-q1", "varx-q1", "iohmm-uni-q1")


def _forecasts(report, **labels):
    """The prediction columns of the forecasts with the given ``model``,
    ``fold`` and ``response`` labels, in the columns' order."""
    cols = report.predictions
    mask = np.logical_and.reduce([cols[name] == value for name, value in labels.items()])
    return {name: col[mask] for name, col in cols.items()}


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
        # the report's row order and the benchmark's model list follow this order
        assert DEFAULT_MODELS == (
            "persistence", "no-lags", "iohmm-q1", "iohmm-q2", "iohmm-q3", "iohmm-q4",
            "iohmm-q5", "varx-q1", "varx-q2", "varx-q3", "varx-q4", "varx-q5",
            "iohmm-uni-q1", "iohmm-uni-q2", "iohmm-uni-q3", "iohmm-uni-q4", "iohmm-uni-q5")
        for name in DEFAULT_MODELS:
            parse_model_name(name)

    def test_unknown_identifiers(self):
        # the listed names only: no lag order 0 but no-lags, no leading zero,
        # none above 5, no digit but ASCII ones and nothing but a string
        for bad in ("iohmm", "iohmm-qx", "varx-q", "arima-q1", "", "iohmm-q0", "varx-q0",
                    "iohmm-uni-q0", "iohmm-q01", "varx-q6", "iohmm-uni-q\u0663", ["x"], {"a"}):
            with pytest.raises(ConfigurationError, match="unknown model identifier"):
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
        out = response_summary(np.array([[1.0, 2.0, 3.0, 4.0, 100.0]]).T, ("OpT",))
        stats = out["OpT"]
        assert stats["min"] == 1.0
        assert stats["median"] == 3.0
        assert stats["max"] == 100.0
        assert stats["mean"] == pytest.approx(22.0)
        assert stats["q1"] == pytest.approx(2.0)
        assert stats["q3"] == pytest.approx(4.0)

    def test_with_no_models_an_empty_response_cell_is_refused_naming_the_column(
            self, two_week_records):
        # the summary reads the responses of the table of all records, which
        # an evaluation builds for no models too
        records = [replace(rec, hum=60.0 + i % 5) for i, rec in enumerate(two_week_records)]
        base = ModelConfig(features=default_feature_config(records, responses=("OpT", "hum")))
        report = leave_one_week_out(records, model_names=(), base=base)
        assert report.rows == [] and report.response_summary["hum"]["max"] == 64.0
        records[3] = replace(records[3], hum=None)
        with pytest.raises(ConfigurationError, match="'hum'"):
            leave_one_week_out(records, model_names=(), base=base)


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
        cols = small_report.predictions
        assert {len(col) for col in cols.values()} == {len(cols["index"])}
        seen = Counter()
        for model, fold, response in set(zip(cols["model"].tolist(), cols["fold"].tolist(),
                                              cols["response"].tolist())):
            index = _forecasts(small_report, model=model, fold=fold, response=response)["index"]
            assert np.all(np.diff(index) > 0)  # record order
            for i in index.tolist():
                assert week_key(two_week_records[i].date) == fold
                seen[model, fold, two_week_records[i].shift_code, response] += 1
        assert seen == counts  # each cell holds its forecasts' records of that shift type

    def test_persistence_predicts_previous_value(self, two_week_records,
                                                 small_report):
        got = _forecasts(small_report, model="persistence", response="OpT")
        assert len(got["index"])
        assert np.isnan(got["sd"]).all()  # no spreads
        for i, actual, mean in zip(got["index"].tolist(), got["actual"], got["mean"]):
            assert mean == two_week_records[i - 1].OpT
            assert actual == two_week_records[i].OpT

    def test_interval_metrics_only_with_spreads(self, small_report):
        by_model = {}
        for row in small_report.rows:
            by_model.setdefault(row.model, set()).add(row.metric)
        assert by_model["persistence"] == {"mae", "rmse"}
        for model in ("no-lags", "iohmm-q1", "varx-q1", "iohmm-uni-q1"):
            assert by_model[model] == {"mae", "rmse", "covg", "piw", "is95"}

    def test_cell_values_match_their_predictions(self, two_week_records, small_report):
        checked = 0
        for row in small_report.rows:
            if row.metric != "mae":
                continue
            got = _forecasts(small_report, model=row.model, fold=row.fold, response=row.response)
            group = [j for j, i in enumerate(got["index"].tolist())
                     if two_week_records[i].shift_code == row.shift_type]
            assert row.count == len(group)
            pairs = (np.asarray([got[name][j] for j in group], dtype=float)
                     for name in ("actual", "mean"))
            sums = {name: col.sum() for name, col in opcast.metrics.columns(*pairs).items()}
            expected = opcast.metrics.cell_scores(sums, len(group))["mae"]
            assert row.value == pytest.approx(expected, rel=1e-12)
            checked += 1
        assert checked >= 40

    def test_varx_spread_is_frozen_within_a_fold(self, small_report):
        def spreads(model, fold):
            return {round(sd, 12) for sd in _forecasts(
                small_report, model=model, fold=fold, response="OpT")["sd"].tolist()}

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

        def counted(records, config, build=build_features):
            built.append(len(records))
            return build(records, config)

        monkeypatch.setattr(opcast.model, "fit_auto_k", forbidden)
        report = leave_one_week_out(two_week_records,
                                    model_names=("persistence", "varx-q1"))
        assert report.models == ["persistence", "varx-q1"]
        # persistence reads the responses of the table of all records, and
        # builds no fold table
        built = []
        monkeypatch.setattr(opcast.harness, "build_features", counted)
        leave_one_week_out(two_week_records, model_names=("persistence",))
        assert built == [len(two_week_records)]

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
                cols = _forecasts(report, model=name, fold=fold)
                got = list(zip(*(cols[column].tolist()
                                 for column in ("index", "response", "actual", "mean", "sd"))))
                assert got and sorted(got) == sorted(expected[name, fold]), (name, fold)

    @pytest.mark.parametrize("cells", [  # a t, a w and two y specs
        {"av": float("nan")}, {"ics": float("inf")}, {"OpT": float("nan")},
        {"NOpT": -float("inf")}])
    def test_a_bad_test_week_cell_is_refused_at_the_first_stage_it_meets(
            self, two_week_records, cells):
        # record 20 (n = 21) lies in the first week, the first fold's test
        # week; the folds one by one refuse it when that walk featurizes its
        # records, the evaluation when it featurizes all records, first
        records = list(two_week_records)
        records[20] = replace(records[20], **cells)
        base = ModelConfig(features=default_feature_config(records), allow_cold_start=True)
        message = f"record n=21 has a non-finite {[*cells][0]!r}"
        assert self._walks_one_by_one(records, self.IOHMM_NAMES, base) == (InputError, message)
        with pytest.raises(InputError) as refused:
            leave_one_week_out(records, model_names=self.IOHMM_NAMES, base=base,
                               seed=0, k_max=6)
        assert str(refused.value) == message

    def test_a_bad_classification_cell_is_named_by_its_record(self, two_week_records):
        # a record of the second week is row i - len(first week) of the first
        # fold's training table; that table names it by its n, as the
        # evaluation does
        records = list(two_week_records)
        weeks = [week_key(rec.date) for rec in records]
        start = weeks.index(weeks[-1])
        records[start + 5] = replace(records[start + 5], av=float("nan"))
        message = f"^record n={records[start + 5].n} has a non-finite 'av'$"
        with pytest.raises(InputError, match=message):
            leave_one_week_out(records, model_names=self.IOHMM_NAMES, seed=0, k_max=6)
        with pytest.raises(InputError, match=message):
            build_features(records[start:], default_feature_config(records).with_lags(0))

    def test_bad_classification_cells_in_two_weeks_name_the_lower_record(
            self, two_week_records):
        # the first fold's training table (the second week) holds only the
        # higher record; the table of all records, built first, names the
        # lower, before any state discovery warns
        records = list(two_week_records)
        weeks = [week_key(rec.date) for rec in records]
        start = weeks.index(weeks[-1])
        for i in (7, start + 3):
            records[i] = replace(records[i], av=float("nan"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ThresholdWarning)
            with pytest.raises(InputError, match=f"^record n={records[7].n} has a non-finite "
                                                 "'av'$"):
                leave_one_week_out(records, model_names=self.IOHMM_NAMES, seed=0, k_max=6)

    def test_a_learning_stage_fault_names_the_record_not_the_fold_row(self, monkeypatch):
        # 21 days of three shifts of six periods (126 records a week), a NaN
        # NOpT in record 257 (n = 258), of the third week: it is row 131 of the
        # first fold's training table. The evaluation names the record, before
        # any fold table is built or any state discovered
        def forbidden(*args, **kwargs):
            raise AssertionError("work done for records the featurizer refuses")

        records = generate_synthetic(SyntheticSpec(
            states=3, transition=((0.80, 0.15, 0.05), (0.10, 0.80, 0.10), (0.05, 0.15, 0.80)),
            state_means=((3.2, 2.9), (2.4, 2.0), (1.5, 1.1)),
            noise_cov=((0.04, 0.01), (0.01, 0.04)), ar=(((0.3, 0.0), (0.0, 0.3)),),
            shift_effects={"N": (-0.2, -0.2)}, days=21, periods_per_shift=6,
            shift_codes=("M", "A", "N"), dt_max=0.4, qu_frac_max=0.05, seed=1))
        weeks = [week_key(rec.date) for rec in records]
        assert weeks.count(weeks[0]) == 126 and weeks[257] == weeks[-1] != weeks[126]
        records[257] = replace(records[257], NOpT=float("nan"))
        assert records[257].n == 258
        monkeypatch.setattr(opcast.harness, "fit_states", forbidden)
        monkeypatch.setattr(opcast.harness, "learn_tables", forbidden)
        with pytest.raises(InputError, match="^record n=258 has a non-finite 'NOpT'$"):
            leave_one_week_out(records)

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
        for bad in ("nope", ["x"]):
            with pytest.raises(ConfigurationError, match="unknown model identifier"):
                leave_one_week_out(two_week_records, model_names=(bad,))

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


class TestAggregate:
    """``_aggregate`` scores hand-made forecast parts against a table's
    responses and refuses only what a model computed: its means, then the
    spreads of the models that have them."""
    Y = np.arange(10.0).reshape(5, 2)
    SHIFTS = np.array(["M", "M", "A", "A", "M"])

    @classmethod
    def _aggregate(cls, *parts):
        return opcast.harness._aggregate(
            [(model, "2024-W01", range(2), np.arange(1, 5), np.asarray(mean, dtype=float), var)
             for model, mean, var in parts], cls.Y, cls.SHIFTS, ["OpT", "MaT"])

    def test_a_non_finite_mean_is_refused(self):
        mean = np.ones((4, 2))
        mean[2, 1] = np.nan
        with pytest.raises(NumericError, match="^metric inputs contain non-finite values$"):
            self._aggregate(("a", mean, np.ones((4, 2))))

    def test_a_non_finite_spread_is_refused(self):
        var = np.ones((4, 2))
        var[0, 0] = np.inf
        with pytest.raises(NumericError,
                           match="^standard deviations must be finite and non-negative$"):
            self._aggregate(("a", np.ones((4, 2)), var))

    def test_a_bad_mean_is_named_before_a_bad_spread(self):
        bad_var, bad_mean = np.ones((4, 2)), np.ones((4, 2))
        bad_var[1, 0], bad_mean[3, 1] = np.nan, np.inf
        for parts in ([("a", np.ones((4, 2)), bad_var), ("b", bad_mean, np.ones((4, 2)))],
                      [("a", bad_mean, bad_var)]):
            with pytest.raises(NumericError, match="^metric inputs contain non-finite"):
                self._aggregate(*parts)

    def test_a_model_without_spreads_is_scored_by_its_means(self):
        # persistence's sd is NaN and not refused; the actuals are the
        # table's responses of each forecast's record
        rows, cols = self._aggregate(("persistence", self.Y[:4], None))
        assert np.isnan(cols["sd"]).all()
        assert cols["actual"].tolist() == self.Y[1:, 0].tolist() + self.Y[1:, 1].tolist()
        assert {row.metric for row in rows} == {"mae", "rmse"}
        assert all(row.value == 2.0 for row in rows)  # y[t] - y[t-1] is 2 in every column


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
                "21 days, one speed": generate_synthetic(replace(  # ics repeats the intercept
                    two_week_spec(), days=21, ics_levels=(1.88,))),
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


    def test_cells_of_every_summation_length_keep_their_bytes(self):
        # a week of 20-period shifts and a day of 20, 20 and 5 records: cells
        # of 5, 20, 139 and 140 pairs, which numpy sums one by one (under 8),
        # in one unrolled block (8 to 128) and pairwise (over 128)
        records = generate_synthetic(replace(two_week_spec(), days=8, periods_per_shift=20,
                                             order_every=15))[:-15]
        models = ("persistence", "varx-q1")
        report = leave_one_week_out(records, models)
        assert {row.count for row in report.rows} == {5, 20, 139, 140}
        assert emit_report(report) == emit_report(lowo_row_oracle(records, models))

    def test_folds_of_different_k_share_one_learning_pass_and_one_walk(self, datasets):
        # at threshold 0.6 the first fold settles on five states and the others
        # on four, so the passes hold state predictors of two shapes
        records = datasets["28 days"]
        weeks = sorted({week_key(rec.date) for rec in records})
        features = default_feature_config(records)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ThresholdWarning)
            ks = [fit_states(build_features([rec for rec in records
                                             if week_key(rec.date) != week], features),
                             seed=0, threshold=0.6, k_max=6).K for week in weeks]
        assert len(weeks) == 4 and len(set(ks)) > 1
        expected = self._emitted(lowo_row_oracle, records, DEFAULT_MODELS, threshold=0.6,
                                 k_max=6)
        got = self._emitted(leave_one_week_out, records, DEFAULT_MODELS, threshold=0.6, k_max=6)
        assert got == expected and len(got) == 3

    FAST_MODELS = ("persistence", "no-lags", "iohmm-q1", "iohmm-uni-q2")

    def test_the_classification_specs_are_evaluated_once_per_table(self, datasets,
                                                                    monkeypatch):
        # once for the table of all records and once per fold's training
        # table, from whose t the fold's states are discovered
        records = datasets["28 days"]
        calls = featurizing_reads(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ThresholdWarning)
            report = leave_one_week_out(records, model_names=self.FAST_MODELS + ("varx-q1",),
                                        seed=0, k_max=4)
        assert len(report.folds) == len(report.states) == 4
        assert len(calls) == 1 + 4

    @staticmethod
    def _base(records, forgetting):
        """The default config with regressor-side ``forgetting`` (0.99 is the
        default's; a faster one winds up on one speed)."""
        return ModelConfig(features=default_feature_config(records), lambda_u=forgetting,
                           allow_cold_start=True)

    @staticmethod
    def _warned(run, records, models, **kwargs):
        """What ``run`` raises (type, message) or None, and every warning it
        issues as (category, message), in order."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                run(records, model_names=models, seed=0, k_max=4, **kwargs)
                refused = None
            except OpcastError as exc:
                refused = type(exc), str(exc)
        return refused, [(w.category, str(w.message)) for w in caught]

    @pytest.mark.parametrize("data, models, forgetting", [
        ("28 days", DEFAULT_MODELS, 0.99),
        ("14 days", SMALL_MODELS, 0.99),
        ("21 days, one speed", FAST_MODELS, 0.8),  # ConditioningWarnings in every fold
    ])
    def test_the_warnings_are_those_of_the_folds_one_by_one(self, datasets, data, models,
                                                            forgetting):
        # the same warnings, each once; the ThresholdWarnings of every fold
        # now come before the passes' ConditioningWarnings
        base = self._base(datasets[data], forgetting)
        expected = self._warned(lowo_row_oracle, datasets[data], models, base=base)
        got = self._warned(leave_one_week_out, datasets[data], models, base=base)
        assert got[0] is expected[0] is None
        assert sorted(got[1], key=str) == sorted(expected[1], key=str)
        kinds = [category for category, _ in got[1]]
        assert ThresholdWarning in kinds and (ConditioningWarning in kinds) == (forgetting < 0.9)
        assert kinds == sorted(kinds, key=lambda kind: kind is not ThresholdWarning)

    def test_a_refused_evaluation_runs_each_stage_once(self, datasets, monkeypatch):
        # the passes refuse a wound-up update after warning; nothing runs
        # again, so no warning is issued twice
        records = datasets["21 days, one speed"]
        weeks = {week_key(rec.date) for rec in records}
        fits, passes = [], []

        def fit(*args, **kwargs):
            fits.append(len(caught))
            return fit_states(*args, **kwargs)

        def learn(*args, forecasts=opcast.harness._iohmm_forecasts):
            passes.append(len(caught))
            return forecasts(*args)

        monkeypatch.setattr(opcast.harness, "fit_states", fit)
        monkeypatch.setattr(opcast.harness, "_iohmm_forecasts", learn)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError, match="gain denominator"):
                leave_one_week_out(records, model_names=self.FAST_MODELS,
                                   base=self._base(records, 0.7), seed=0, k_max=4)
        kinds = [w.category for w in caught]
        assert len(fits) == len(weeks) and len(passes) == 1  # one fit a fold, one pass
        assert kinds[:passes[0]] == [ThresholdWarning] * len(weeks)  # one a fold's fit
        assert set(kinds[passes[0]:]) == {ConditioningWarning}  # the one pass's only

    @pytest.mark.parametrize("data, models, error", [
        # the first week's fold has no forecasts, then its VARX on one speed
        # is rank deficient; no states to find; a VARX refused after every
        # fold's states are fitted; a NaN, refused before any stage runs
        ("one-record week", ("persistence", "varx-q1"), FittingError),
        ("one-record week", ("persistence", "iohmm-q1", "varx-q2"), DegenerateDataError),
        ("21 days, one speed", ("persistence", "no-lags", "varx-q1"), FittingError),
        ("NaN in a test week", ("persistence", "iohmm-q1"), InputError),
    ])
    def test_a_refused_evaluation_warns_no_warning_twice(self, datasets, data, models, error):
        # a refusal of the IO-HMM passes comes before any UserWarning, a later
        # one after the same ones as the folds one by one: here both are theirs
        expected = self._warned(lowo_row_oracle, datasets[data], models)
        got = self._warned(leave_one_week_out, datasets[data], models)
        assert got[0] == expected[0] and got[0][0] is error
        weeks = {week_key(rec.date) for rec in datasets[data]}
        assert sum(kind is ThresholdWarning for kind, _ in got[1]) <= len(weeks)  # one a fold
        assert Counter(w for w in got[1] if w[0] is not ThresholdWarning) <= Counter(expected[1])
        assert [w for w in got[1] if w[0] is UserWarning] == \
            [w for w in expected[1] if w[0] is UserWarning]


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

    @pytest.mark.parametrize("suffix", ["", ",B", '"1"', "\r\nB", "\rB"],
                             ids=["plain", "comma", "quote", "line-break", "carriage-return"])
    def test_csv_reads_back_as_the_report_rows(self, small_report, suffix):
        # a text field with a comma, a double quote or a line break is quoted
        report = replace(small_report, rows=[replace(row, shift_type=row.shift_type + suffix)
                                             for row in small_report.rows])
        table = csv.DictReader(io.StringIO(emit_report(report, format="csv"), newline=""))
        rows = [ReportRow(*(r[name] for name in table.fieldnames[:5]), float(r["value"]),
                          int(r["count"])) for r in table if r["model"] != SUMMARY_MODEL]
        assert rows == report.rows

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
