import datetime as dt
from dataclasses import replace

import numpy as np
import pytest

from opcast import (ConfigurationError, CovariateSpec, FeatureConfig, InputError,
                    InsufficientHistoryError, ModelConfig, SyntheticSpec,
                    assemble_next_features, build_features,
                    classification_vector, default_feature_config,
                    generate_synthetic, pattern_key)

from conftest import build_stream, make_record
from oracles import featurize_oracle


def _config(q=1, **kwargs):
    base = dict(response_names=("OpT", "NOpT"),
                z_spec=("shift_code==M", "shift_code==A", "shift_code==N"),
                w_spec=("ics", "@begins_shift", "@begins_order"),
                t_spec=("av", "pf", "oee", "OT", "rcs", "TU"),
                q=q)
    base.update(kwargs)
    return FeatureConfig(**base)


def _column(records, expr):
    """The table column of one ``w`` spec over ``records``."""
    cfg = _config(q=0, z_spec=("weekday==Zz",), w_spec=(expr,))
    return build_features(records, cfg).w[:, 0].tolist()


class TestCovariateSpec:
    def test_indicator_matches_string_value(self):
        spec = CovariateSpec("shift_code==A")
        records = [make_record(shift="Mo A"), make_record(shift="Mo M")]
        assert _column(records, spec.expr) == [1.0, 0.0]
        assert spec.is_binary

    def test_flags(self):
        # the first record begins both; the second a shift but not an order
        records = [make_record(shift="Mo M"), make_record(shift="Mo A")]
        assert _column(records, "@begins_shift") == [1.0, 1.0]
        assert _column(records, "@begins_order") == [1.0, 0.0]

    def test_numeric_column(self):
        spec = CovariateSpec("ics")
        assert spec.kind == "numeric"
        assert not spec.is_binary
        assert _column([make_record(ics=1.61)], "ics") == [1.61]

    def test_numeric_on_text_column_raises(self):
        # refused when the config is built, before any record is read
        with pytest.raises(ConfigurationError,
                           match="^covariate 'shift' does not evaluate to a number$"):
            _config(w_spec=("ics", "shift"))

    def test_numeric_on_missing_value_raises(self):
        with pytest.raises(ConfigurationError,
                           match="^covariate 'hum' does not evaluate to a number$"):
            _column([make_record(hum=61.0), make_record()], "hum")

    def test_unknown_column_raises(self):
        with pytest.raises(ConfigurationError):
            CovariateSpec("nope")
        with pytest.raises(ConfigurationError):
            CovariateSpec("@nope")

    @pytest.mark.parametrize("expr", ["nope", "nope==1", "shift", "shift_code",
                                      "weekday", "date", "start", "shift_code==", "   "])
    def test_bad_column_raises_when_parsed(self, expr):
        with pytest.raises(ConfigurationError):
            CovariateSpec(expr)

    def test_text_columns_serve_as_indicators(self):
        for expr in ("shift==Mo M", "weekday==Mo", "date==2022-10-10"):
            assert _column([make_record()], expr) == [1.0]


class TestFeatureConfig:
    def test_w_dim_counts_base_and_lags(self):
        assert _config(q=0).w_dim == 3
        assert _config(q=1).w_dim == 5
        assert _config(q=3).w_dim == 9

    def test_lag_bounds(self):
        with pytest.raises(ConfigurationError):
            _config(q=6)
        with pytest.raises(ConfigurationError):
            _config(q=-1)
        assert _config(q=5).q == 5

    def test_pattern_entries_must_be_binary(self):
        with pytest.raises(ConfigurationError):
            _config(z_spec=("ics",))

    @pytest.mark.parametrize("z_extra, w_spec, named", [
        ((), ("shift_code==M", "ics"), "'shift_code==M'"),
        ((), ("shift_code == A", "ics"), "'shift_code == A'"),
        (("@begins_order",), ("ics", "@begins_order"), "'@begins_order'")])
    def test_regressor_repeating_a_pattern_entry_rejected(self, z_extra, w_spec, named):
        z_spec = ("shift_code==M", "shift_code==A", "shift_code==N") + z_extra
        with pytest.raises(ConfigurationError, match="constant within every pattern") as err:
            _config(z_spec=z_spec, w_spec=w_spec)
        assert named in str(err.value)
        # an indicator on a value the pattern does not encode varies within it
        _config(z_spec=("shift_code==M",), w_spec=("shift_code==A", "ics"))

    def test_classification_entries_must_be_numeric(self):
        with pytest.raises(ConfigurationError):
            _config(t_spec=("shift_code==M",))

    @pytest.mark.parametrize("bad", [dict(w_spec=("ics", "nope")),
                                     dict(w_spec=("date",)),
                                     dict(z_spec=("nope==1",)),
                                     dict(t_spec=("av", "shift")),
                                     dict(response_names=("OpT", "XYZ")),
                                     dict(response_names=("shift_code",)),
                                     dict(response_names=()), dict(z_spec=()),
                                     dict(t_spec=())])
    def test_bad_column_or_response_raises_when_built(self, bad):
        with pytest.raises(ConfigurationError):
            _config(**bad)

    def test_for_response_narrows(self):
        cfg = _config().for_response("NOpT")
        assert cfg.response_names == ("NOpT",)
        assert cfg.w_dim == 3 + 1
        with pytest.raises(ConfigurationError):
            _config().for_response("VT")

    def test_dict_roundtrip(self):
        cfg = _config(q=2)
        assert FeatureConfig.from_dict(cfg.to_dict()) == cfg

    def test_with_lags(self):
        assert _config(q=1).with_lags(4).q == 4

    def test_configs_share_their_parsed_specs(self):
        # a restore parses no spec string a config of this process has parsed
        a, b = _config(), FeatureConfig.from_dict(_config(q=3).to_dict())
        for name in ("parsed_z", "parsed_w", "parsed_t", "parsed_y"):
            assert all(x is y for x, y in zip(getattr(a, name), getattr(b, name))), name
        for _ in range(2):  # a refused spec is refused again
            with pytest.raises(ConfigurationError, match="unknown record column 'nope'"):
                _config(w_spec=("ics", "nope"))


class TestPatternKey:
    def test_bits(self):
        assert pattern_key(np.array([1.0, 0.0, 1.0])) == "101"
        assert pattern_key([0, 0]) == "00"

    def test_non_binary_rejected(self):
        with pytest.raises(ConfigurationError):
            pattern_key([0.5, 1.0])

    @pytest.mark.parametrize("cell", [float("nan"), float("inf"), -float("inf"), 2.0, "1"])
    def test_a_non_finite_or_non_numeric_cell_is_a_configuration_error(self, cell):
        for z in ([cell, 0.0, 0.0], np.array([0.0, cell, 1.0]) if cell != "1" else [1, cell]):
            with pytest.raises(ConfigurationError, match="0 or 1"):
                pattern_key(z)


class TestDefaults:
    def test_built_from_observed_codes(self):
        records = build_stream([{"shift": "Mo M"}, {"shift": "Mo A"},
                                {"shift": "Mo N"}, {"shift": "Tu M"}])
        cfg = default_feature_config(records)
        assert cfg.z_spec == ("shift_code==A", "shift_code==M",
                              "shift_code==N")
        assert cfg.w_spec == ("ics", "@begins_shift", "@begins_order")
        assert cfg.response_names == ("OpT", "NOpT")

    def test_empty_records_raise(self):
        with pytest.raises(ConfigurationError):
            default_feature_config([])


def _lagged_row(table, i, q, columns=(0, 1)):
    """Record ``i``'s regressors, ``w`` and ``q`` lags of ``y``'s ``columns``,
    gathered one lag at a time."""
    return np.concatenate([table.w[i]] + [table.y[i - j, list(columns)]
                                          for j in range(1, q + 1)])


class TestBuildFeatures:
    def test_features_start_after_lag_window(self):
        # the table holds no lags; the regressors start at row q, none is NaN
        records = build_stream([{"OpT": 6.0 + i} for i in range(6)])
        table = build_features(records, _config(q=2))
        assert table.w.shape == (6, 3) and table.y.shape == (6, 2)
        assert np.isfinite(table.w).all()
        lagged = table.regressors(np.arange(2, 6), 2, (0, 1))
        assert lagged.shape == (4, 3 + 2 * 2)
        assert np.isfinite(lagged).all()

    def test_lag_order_is_lag_major(self):
        records = build_stream([{"OpT": 6.0, "NOpT": 5.5},
                                {"OpT": 7.0, "NOpT": 6.5},
                                {"OpT": 8.0, "NOpT": 7.5}])
        table = build_features(records, _config(q=2))
        np.testing.assert_allclose(table.regressors(np.array([2]), 2, (0, 1))[0, -4:],
                                   [7.0, 6.5, 6.0, 5.5])
        np.testing.assert_allclose(table.y[2], [8.0, 7.5])

    def test_lags_cross_shift_boundaries(self):
        records = build_stream([{"shift": "Mo M", "OpT": 6.0},
                                {"shift": "Mo A", "OpT": 9.0,
                                 "start": dt.time(14, 0)}])
        table = build_features(records, _config(q=1))
        assert table.begins_shift[1]
        np.testing.assert_allclose(table.regressors(np.array([1]), 1, (0, 1))[0, -2:],
                                   [6.0, records[0].NOpT])

    def test_pattern_and_flags(self):
        records = build_stream([
            {"shift": "Mo M", "pr_ord": 300},
            {"shift": "Mo M", "pr_ord": 301},
            {"shift": "Mo A", "pr_ord": 301, "start": dt.time(14, 0)},
        ])
        table = build_features(records, _config(q=1))
        assert pattern_key(table.z[1]) == "100"
        assert not table.begins_shift[1]
        assert pattern_key(table.z[2]) == "010"
        assert table.begins_shift[2]
        # the w indicators carry both flags: w[1] is @begins_shift and
        # w[2] is @begins_order
        assert table.w[1, 2] == 1.0 and table.w[1, 1] == 0.0
        assert table.w[2, 1] == 1.0 and table.w[2, 2] == 0.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("spec", ["ics", "av", "NOpT"])  # a w, a t and a y spec
    def test_a_non_finite_cell_is_refused_naming_the_lower_record(self, spec, value):
        # two faulty records, the higher with every spec bad: the lower is
        # named by its own n and the spec, at any lag order, read or not;
        # a slice without it names the higher record's first spec, w first
        records = build_stream([{"OpT": 6.0 + i % 3} for i in range(12)])
        records[4] = replace(records[4], **{spec: value})
        records[8] = replace(records[8], ics=value, av=value, NOpT=value)
        for q in (0, 2):
            with pytest.raises(InputError, match=f"^record n=5 has a non-finite {spec!r}$"):
                build_features(records, _config(q=q))
        with pytest.raises(InputError, match="^record n=9 has a non-finite 'ics'$"):
            build_features(records[5:], _config())

    def test_too_short_history_raises(self):
        records = build_stream([{}, {}])
        with pytest.raises(InsufficientHistoryError):
            build_features(records, _config(q=2))

    def test_unknown_response_raises(self):
        records = build_stream([{}, {}])
        with pytest.raises(ConfigurationError):
            build_features(records, _config(response_names=("XYZ",)))

    def test_q_zero_has_no_lags(self):
        records = build_stream([{}, {}])
        table = build_features(records, _config(q=0))
        assert np.isfinite(table.w).all()
        assert table.w.shape == (2, 3)

    def test_classification_rows_match_the_vector(self):
        records = build_stream([{"OpT": 6.0 + i} for i in range(4)])
        table = build_features(records, _config(q=2))
        for rec, t in zip(records, table.t):
            np.testing.assert_array_equal(t, classification_vector(rec, _config()))

    @pytest.mark.parametrize("q", [0, 1, 3])
    @pytest.mark.parametrize("columns", [(0, 1), (0,), (1,)])
    def test_regressors_equal_those_of_the_table_built_for_them(self, q, columns):
        # the table of all responses and the one built for a lag order and a
        # response subset differ only in y's columns; the regressors that a
        # model reads from either are the rows gathered one lag at a time
        records = build_stream([{"OpT": 6.0 + 0.5 * i, "NOpT": 5.0 + 0.25 * i,
                                 "shift": f"Mo {'MAN'[i // 3 % 3]}"} for i in range(9)])
        lag_free = build_features(records, _config(q=0))
        names = tuple(_config().response_names[j] for j in columns)
        built = build_features(records, _config(q=q, response_names=names))
        for name in ("z", "w", "t", "begins_shift"):
            got, want = getattr(lag_free, name), getattr(built, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert built.y.tobytes() == lag_free.y[:, list(columns)].tobytes()
        assert built.responses == names and lag_free.responses == ("OpT", "NOpT")
        rows = np.arange(q, 9)
        derived = lag_free.regressors(rows, q, columns)
        want = np.stack([_lagged_row(lag_free, i, q, columns) for i in rows])
        assert derived.shape == want.shape and derived.tobytes() == want.tobytes()
        assert built.regressors(rows, q, range(len(names))).tobytes() == want.tobytes()
        assert lag_free.w.shape == (9, 3) and lag_free.y.shape == (9, 2)


class TestVectors:
    def test_classification_vector_ignores_flags(self):
        rec = make_record(OpT=7.3)
        t = classification_vector(rec, _config())
        np.testing.assert_allclose(
            t, [rec.av, rec.pf, rec.oee, rec.OT, rec.rcs, rec.TU])

    def test_response_vector_order(self):
        rec = make_record(OpT=7.0, NOpT=6.4)
        np.testing.assert_allclose(build_features([rec], _config(q=0)).y[0],
                                   [7.0, 6.4])


class TestNextFeatures:
    def test_same_shift_continuation(self):
        records = build_stream([{"shift": "Mo M", "OpT": 6.0},
                                {"shift": "Mo M", "OpT": 7.0}])
        z, w, begins = assemble_next_features(records, _config(q=1), "Mo M")
        assert not begins
        assert pattern_key(z) == "100"
        assert w[0] == records[-1].ics
        assert w[1] == 0.0  # begins_shift indicator
        np.testing.assert_allclose(w[-2:], [7.0, records[-1].NOpT])

    def test_announced_shift_change_sets_flag(self):
        records = build_stream([{"shift": "Mo M"}])
        z, w, begins = assemble_next_features(records, _config(q=1), "Mo A",
                                              ics=1.35, new_order=True)
        assert begins
        assert pattern_key(z) == "010"
        np.testing.assert_allclose(w[:3], [1.35, 1.0, 1.0])

    def test_unknown_future_numeric_needs_override(self):
        cfg = _config(w_spec=("ics", "hum"))
        records = build_stream([{"hum": 64.0}])
        with pytest.raises(ConfigurationError, match="hum"):
            assemble_next_features(records, cfg, "Mo M")
        z, w, _ = assemble_next_features(records, cfg, "Mo M",
                                         overrides={"hum": 61.0})
        assert w[1] == 61.0

    @pytest.mark.parametrize("ics", [True, "2.5", float("nan")])
    def test_ics_must_be_a_finite_number(self, ics):
        records = build_stream([{"shift": "Mo M"}, {"shift": "Mo M"}, {"shift": "Mo M"}])
        with pytest.raises(ConfigurationError, match=r"^ics is not a finite number"):
            assemble_next_features(records, _config(q=1), "Mo M", ics=ics)

    def test_ics_takes_a_numpy_float(self):
        records = build_stream([{"shift": "Mo M"}, {"shift": "Mo M"}, {"shift": "Mo M"}])
        _, w, _ = assemble_next_features(records, _config(q=1), "Mo M", ics=np.float64(1.25))
        assert w[0] == 1.25

    def test_needs_enough_history_for_lags(self):
        records = build_stream([{}])
        with pytest.raises(InsufficientHistoryError):
            assemble_next_features(records, _config(q=2), "Mo M")

    @pytest.mark.parametrize("q", range(6))
    def test_matches_the_table_row_of_the_observed_period(self, q):
        records = generate_synthetic(SyntheticSpec(
            states=2, transition=((0.8, 0.2), (0.3, 0.7)),
            state_means=((3.0, 2.8), (2.0, 1.8)), days=2, periods_per_shift=4,
            order_every=5, dt_max=0.3, qu_frac_max=0.05, seed=3))
        base = default_feature_config(records, q=q)
        cfg = replace(base, w_spec=base.w_spec + ("rcs",))
        table = build_features(records, cfg)
        flags = table.w[q + 1:, 1:3].tolist()  # @begins_shift, @begins_order
        assert [1.0, 0.0] in flags and [0.0, 1.0] in flags
        for t in range(max(q, 1), len(records)):
            target, last = records[t], records[t - 1]
            z, w, begins = assemble_next_features(
                records[:t], cfg, target.shift, ics=target.ics,
                new_order=target.pr_ord != last.pr_ord,
                overrides={"rcs": target.rcs})
            np.testing.assert_array_equal(z, table.z[t])
            np.testing.assert_array_equal(w, _lagged_row(table, t, q))
            assert begins is bool(table.begins_shift[t])


def _same_arrays(got, want):
    """Two tables hold equal bytes in arrays of one dtype, shape and layout."""
    for name in ("z", "w", "t", "y", "begins_shift"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.flags.c_contiguous and b.flags.c_contiguous, name
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert got.responses == want.responses


def _synthetic():
    """Three days from a Monday, four periods a shift, an order every five."""
    return generate_synthetic(SyntheticSpec(
        states=2, transition=((0.8, 0.2), (0.3, 0.7)),
        state_means=((3.0, 2.8), (2.0, 1.8)), days=3, periods_per_shift=4,
        order_every=5, dt_max=0.3, qu_frac_max=0.05, seed=5))


def _rich(records, q=2):
    """The default config with w specs it never featurizes: an indicator on a
    numeric column at a value in the data, on the weekday and on the full
    shift label, a numeric hum, and both flags."""
    values = sorted({rec.TU for rec in records})
    base = default_feature_config(records, q=q)
    return replace(base, w_spec=("ics", f"TU=={values[len(values) // 2]}", "weekday==Mo",
                                 f"shift=={records[5].shift}", "hum",
                                 "@begins_shift", "@begins_order"))


class TestAgainstTheOracle:
    @pytest.mark.parametrize("q", range(6))
    def test_the_default_config_and_its_single_response_configs(self, q):
        records = _synthetic()
        base = default_feature_config(records, q=q)
        for cfg in (base, base.for_response("OpT"), base.for_response("NOpT")):
            for rows in (records, records[7:7 + q + 2]):  # a table and a step's window
                _same_arrays(build_features(rows, cfg), featurize_oracle(rows, cfg))

    def test_indicators_a_numeric_hum_and_both_flags(self):
        records = _synthetic()
        cfg = _rich(records)
        table = build_features(records, cfg)
        _same_arrays(table, featurize_oracle(records, cfg))
        for j in (1, 2, 3, 5, 6):  # each indicator and flag takes both values
            assert set(table.w[:, j].tolist()) == {0.0, 1.0}, cfg.w_spec[j]

    @pytest.mark.parametrize("rich", [False, True], ids=["default", "rich"])
    def test_the_next_period_and_the_classification_vectors(self, rich):
        # the announced period is a copy of the last record with the shift
        # label, speed, order change and hum of the period that followed it
        records = _synthetic()
        cfg = _rich(records) if rich else default_feature_config(records, q=2)
        for t in range(cfg.q, len(records)):
            target, last = records[t], records[t - 1]
            new_order = target.pr_ord != last.pr_ord
            z, w, begins = assemble_next_features(records[:t], cfg, target.shift,
                                                  ics=target.ics, new_order=new_order,
                                                  overrides={"hum": target.hum})
            announced = replace(last, shift=target.shift, ics=target.ics,
                                pr_ord=last.pr_ord + new_order, hum=target.hum)
            oracle = featurize_oracle([*records[:t], announced], cfg)
            assert z.tobytes() == oracle.z[t].tobytes()
            assert w.tobytes() == _lagged_row(oracle, t, cfg.q).tobytes()
            assert begins is bool(oracle.begins_shift[t])
        for rec, want in zip(records, featurize_oracle(records, cfg).t):
            got = classification_vector(rec, cfg)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_the_plan_is_compiled_on_the_first_featurization(self):
        # a restore builds its config without compiling it
        features = ModelConfig.from_dict(ModelConfig(features=_config()).to_dict()).features
        assert "_plan" not in vars(features)
        build_features(build_stream([{}, {}]), features)
        assert "_plan" in vars(features)

    def test_equal_configs_share_one_plan(self):
        # each restored config of a request reuses the plan of an equal one
        doc = _config(q=2, w_spec=("ics", "hum", "weekday==Mo")).to_dict()
        a, b = FeatureConfig.from_dict(doc), FeatureConfig.from_dict(doc)
        assert a is not b and a == b
        records = build_stream([{"hum": 60.0 + i} for i in range(6)])
        tables = [build_features(records, cfg) for cfg in (a, b)]
        assert a._plan is b._plan
        assert b._plan is not _config(q=2)._plan  # another value, another plan
        _same_arrays(*tables)


class TestRefusalParity:
    @pytest.mark.parametrize("lower, named", [(("NOpT", "av"), "av"), (("OpT", "ics"), "ics"),
                                              (("rcs", "oee", "NOpT"), "oee")],
                             ids=["t-before-y", "w-before-y", "t-in-spec-order"])
    def test_the_lower_record_is_named_with_its_first_spec(self, lower, named):
        records = build_stream([{"OpT": 6.0 + i % 3} for i in range(12)])
        records[4] = replace(records[4], **dict.fromkeys(lower, float("nan")))
        records[8] = replace(records[8], **dict.fromkeys(("ics", "av", "OpT", "NOpT"),
                                                         float("inf")))
        cfg = _config(q=2, response_names=("NOpT", "OpT"))
        for featurize in (build_features, featurize_oracle):
            with pytest.raises(InputError, match=f"^record n=5 has a non-finite {named!r}$"):
                featurize(records, cfg)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_a_non_finite_classification_cell_is_refused_as_the_table_refuses_it(self, value):
        records = build_stream([{} for _ in range(6)])
        records[3] = replace(records[3], av=value)
        cfg = _config()
        with pytest.raises(InputError) as table:
            build_features(records, cfg)
        with pytest.raises(InputError) as vector:
            classification_vector(records[3], cfg)
        message = f"record n={records[3].n} has a non-finite 'av'"
        assert str(vector.value) == str(table.value) == message

    @pytest.mark.parametrize("group", ["w_spec", "t_spec"])
    def test_an_absent_hum_is_a_configuration_error(self, group):
        # ahead of a non-finite cell of a lower record
        records = build_stream([{"hum": 60.0 + i} for i in range(6)])
        records[3] = replace(records[3], hum=None)
        records[1] = replace(records[1], av=float("nan"))
        cfg = _config(**{group: getattr(_config(), group) + ("hum",)})
        message = "^covariate 'hum' does not evaluate to a number$"
        for featurize in (build_features, featurize_oracle):
            with pytest.raises(ConfigurationError, match=message):
                featurize(records, cfg)
        if group == "t_spec":
            with pytest.raises(ConfigurationError, match=message):
                classification_vector(records[3], cfg)
        else:  # the vector reads no w spec
            assert np.isfinite(classification_vector(records[3], cfg)).all()

    @pytest.mark.parametrize("w_spec, t_extra, named", [
        (("ics", "hum", "temp"), (), "hum"), (("ics", "temp", "hum"), (), "temp"),
        (("ics", "temp"), ("hum",), "temp")])
    def test_of_two_absent_cells_the_first_spec_in_w_t_y_order_is_named(self, w_spec, t_extra,
                                                                          named):
        records = build_stream([{"hum": 60.0, "temp": 20.0} for _ in range(6)])
        records[4] = replace(records[4], hum=None)
        records[2] = replace(records[2], temp=None)
        cfg = _config(w_spec=w_spec, t_spec=_config().t_spec + t_extra)
        for featurize in (build_features, featurize_oracle):
            with pytest.raises(ConfigurationError,
                               match=f"^covariate {named!r} does not evaluate to a number$"):
                featurize(records, cfg)
