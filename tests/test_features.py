import datetime as dt

import numpy as np
import pytest

from opcast import (ConfigurationError, CovariateSpec, FeatureConfig,
                    InsufficientHistoryError, assemble_next_features,
                    build_features, classification_vector,
                    default_feature_config, pattern_key, response_vector)
from opcast.records import BoundaryFlags

from conftest import build_stream, make_record


def _config(q=1, **kwargs):
    base = dict(response_names=("OpT", "NOpT"),
                z_spec=("shift_code==M", "shift_code==A", "shift_code==N"),
                w_spec=("shift_code==A", "shift_code==N", "ics",
                        "@begins_shift", "@begins_order"),
                t_spec=("av", "pf", "oee", "OT", "rcs", "TU"),
                q=q)
    base.update(kwargs)
    return FeatureConfig(**base)


class TestCovariateSpec:
    def test_indicator_matches_string_value(self):
        spec = CovariateSpec("shift_code==A")
        flags = BoundaryFlags(False, False)
        assert spec.evaluate(make_record(shift="Mo A"), flags) == 1.0
        assert spec.evaluate(make_record(shift="Mo M"), flags) == 0.0
        assert spec.is_binary

    def test_flags(self):
        rec = make_record()
        assert CovariateSpec("@begins_shift").evaluate(
            rec, BoundaryFlags(True, False)) == 1.0
        assert CovariateSpec("@begins_order").evaluate(
            rec, BoundaryFlags(True, False)) == 0.0

    def test_numeric_column(self):
        spec = CovariateSpec("ics")
        assert spec.kind == "numeric"
        assert not spec.is_binary
        assert spec.evaluate(make_record(ics=1.61),
                             BoundaryFlags(False, False)) == 1.61

    def test_numeric_on_text_column_raises(self):
        with pytest.raises(ConfigurationError):
            CovariateSpec("shift").evaluate(make_record(),
                                            BoundaryFlags(False, False))

    def test_numeric_on_missing_value_raises(self):
        with pytest.raises(ConfigurationError):
            CovariateSpec("hum").evaluate(make_record(hum=None),
                                          BoundaryFlags(False, False))

    def test_unknown_column_raises(self):
        with pytest.raises(ConfigurationError):
            CovariateSpec("nope").evaluate(make_record(),
                                           BoundaryFlags(False, False))
        with pytest.raises(ConfigurationError):
            CovariateSpec("@nope")


class TestFeatureConfig:
    def test_w_dim_counts_base_and_lags(self):
        assert _config(q=0).w_dim == 5
        assert _config(q=1).w_dim == 7
        assert _config(q=3).w_dim == 11

    def test_lag_bounds(self):
        with pytest.raises(ConfigurationError):
            _config(q=6)
        with pytest.raises(ConfigurationError):
            _config(q=-1)
        assert _config(q=5).q == 5

    def test_pattern_entries_must_be_binary(self):
        with pytest.raises(ConfigurationError):
            _config(z_spec=("ics",))

    def test_classification_entries_must_be_numeric(self):
        with pytest.raises(ConfigurationError):
            _config(t_spec=("shift_code==M",))

    def test_for_response_narrows(self):
        cfg = _config().for_response("NOpT")
        assert cfg.response_names == ("NOpT",)
        assert cfg.w_dim == 5 + 1
        with pytest.raises(ConfigurationError):
            _config().for_response("VT")

    def test_dict_roundtrip(self):
        cfg = _config(q=2)
        assert FeatureConfig.from_dict(cfg.to_dict()) == cfg

    def test_with_lags(self):
        assert _config(q=1).with_lags(4).q == 4


class TestPatternKey:
    def test_bits(self):
        assert pattern_key(np.array([1.0, 0.0, 1.0])) == "101"
        assert pattern_key([0, 0]) == "00"

    def test_non_binary_rejected(self):
        with pytest.raises(ConfigurationError):
            pattern_key([0.5, 1.0])


class TestDefaults:
    def test_built_from_observed_codes(self):
        records = build_stream([{"shift": "Mo M"}, {"shift": "Mo A"},
                                {"shift": "Mo N"}, {"shift": "Tu M"}])
        cfg = default_feature_config(records)
        assert cfg.z_spec == ("shift_code==A", "shift_code==M",
                              "shift_code==N")
        assert cfg.w_spec[:2] == ("shift_code==M", "shift_code==N")
        assert "ics" in cfg.w_spec
        assert cfg.response_names == ("OpT", "NOpT")

    def test_empty_records_raise(self):
        with pytest.raises(ConfigurationError):
            default_feature_config([])


class TestBuildFeatures:
    def test_features_start_after_lag_window(self):
        records = build_stream([{"OpT": 6.0 + i} for i in range(6)])
        table = build_features(records, _config(q=2))
        lags = table.w[:, 5:]
        assert table.w.shape == (6, 5 + 2 * 2)
        assert np.isnan(lags[:2]).all()
        assert np.isfinite(table.w[2:]).all()

    def test_lag_order_is_lag_major(self):
        records = build_stream([{"OpT": 6.0, "NOpT": 5.5},
                                {"OpT": 7.0, "NOpT": 6.5},
                                {"OpT": 8.0, "NOpT": 7.5}])
        table = build_features(records, _config(q=2))
        np.testing.assert_allclose(table.w[2, -4:], [7.0, 6.5, 6.0, 5.5])
        np.testing.assert_allclose(table.y[2], [8.0, 7.5])

    def test_lags_cross_shift_boundaries(self):
        records = build_stream([{"shift": "Mo M", "OpT": 6.0},
                                {"shift": "Mo A", "OpT": 9.0,
                                 "start": dt.time(14, 0)}])
        table = build_features(records, _config(q=1))
        assert table.begins_shift[1]
        np.testing.assert_allclose(table.w[1, -2:], [6.0, records[0].NOpT])

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
        # the w indicators carry both flags: w[3] is @begins_shift and
        # w[4] is @begins_order
        assert table.w[1, 4] == 1.0 and table.w[1, 3] == 0.0
        assert table.w[2, 3] == 1.0 and table.w[2, 4] == 0.0

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
        assert table.w.shape == (2, 5)

    def test_classification_rows_match_the_vector(self):
        records = build_stream([{"OpT": 6.0 + i} for i in range(4)])
        table = build_features(records, _config(q=2))
        for rec, t in zip(records, table.t):
            np.testing.assert_array_equal(t, classification_vector(rec, _config()))


class TestVectors:
    def test_classification_vector_ignores_flags(self):
        rec = make_record(OpT=7.3)
        t = classification_vector(rec, _config())
        np.testing.assert_allclose(
            t, [rec.av, rec.pf, rec.oee, rec.OT, rec.rcs, rec.TU])

    def test_response_vector_order(self):
        rec = make_record(OpT=7.0, NOpT=6.4)
        np.testing.assert_allclose(response_vector(rec, _config()),
                                   [7.0, 6.4])


class TestNextFeatures:
    def test_same_shift_continuation(self):
        records = build_stream([{"shift": "Mo M", "OpT": 6.0},
                                {"shift": "Mo M", "OpT": 7.0}])
        z, w, begins = assemble_next_features(records, _config(q=1), "Mo M")
        assert not begins
        assert pattern_key(z) == "100"
        np.testing.assert_allclose(w[:3], [0.0, 0.0, records[-1].ics])
        assert w[3] == 0.0  # begins_shift indicator
        np.testing.assert_allclose(w[-2:], [7.0, records[-1].NOpT])

    def test_announced_shift_change_sets_flag(self):
        records = build_stream([{"shift": "Mo M"}])
        z, w, begins = assemble_next_features(records, _config(q=1), "Mo A",
                                              ics=1.35, new_order=True)
        assert begins
        assert pattern_key(z) == "010"
        np.testing.assert_allclose(w[:5], [1.0, 0.0, 1.35, 1.0, 1.0])

    def test_unknown_future_numeric_needs_override(self):
        cfg = _config(w_spec=("ics", "hum"))
        records = build_stream([{"hum": 64.0}])
        with pytest.raises(ConfigurationError, match="hum"):
            assemble_next_features(records, cfg, "Mo M")
        z, w, _ = assemble_next_features(records, cfg, "Mo M",
                                         overrides={"hum": 61.0})
        assert w[1] == 61.0

    def test_needs_enough_history_for_lags(self):
        records = build_stream([{}])
        with pytest.raises(InsufficientHistoryError):
            assemble_next_features(records, _config(q=2), "Mo M")
