import datetime as dt

import numpy as np
import pytest

from opcast import (ConfigurationError, SyntheticSpec, build_features,
                    check_chronological, compute_indices, default_feature_config,
                    derive_time_variables, generate_synthetic)

TWO_STATE = dict(
    states=2,
    transition=((0.8, 0.2), (0.3, 0.7)),
    state_means=((3.0, 2.8), (2.0, 1.8)),
)


# _spec(initial=(0.4, 0.6), ar=(((0.1, 0.0), (0.0, 0.1)),),
# shift_effects={"A": (0.2, 0.1)}) as a JSON document of every field
SPEC_DOC = {
    "states": 2, "transition": [[0.8, 0.2], [0.3, 0.7]],
    "state_means": [[3.0, 2.8], [2.0, 1.8]], "noise_cov": [[0.0, 0.0], [0.0, 0.0]],
    "initial": [0.4, 0.6], "ar": [[[0.1, 0.0], [0.0, 0.1]]],
    "shift_effects": {"A": [0.2, 0.1]}, "days": 4, "periods_per_shift": 20,
    "shift_codes": ["M", "A", "N"], "start_date": "2022-10-03",
    "ics_levels": [1.35, 1.61, 1.88], "order_every": 20, "dt_max": 0.3,
    "qu_frac_max": 0.05, "seed": 1,
}


def _assert_identities_hold(rec, tol=1e-9):
    """The stored durations and indices are the ones the cascade derives from
    the base durations, and the counts are sound."""
    derived = derive_time_variables(rec.OT, rec.SBT, rec.DT, rec.PLT, rec.QLT)
    # no step of the cascade is clamped: none falls below zero beyond rounding
    assert min(rec.OT - rec.SBT, derived.LT - rec.DT, derived.OpT - rec.PLT,
               derived.NOpT - rec.QLT) >= -tol
    for name in ("LT", "OpT", "NOpT", "VT"):
        assert getattr(rec, name) == pytest.approx(getattr(derived, name), abs=tol), name
    indices = compute_indices(rec.OT, rec.LT, rec.OpT, rec.NOpT, rec.VT)
    for name in ("lo", "av", "pf", "qu", "oee"):
        assert getattr(rec, name) == pytest.approx(getattr(indices, name), abs=tol), name
    assert rec.DU <= rec.TU
    assert min(rec.TU, rec.DU, rec.nstops) >= 0


def _spec(**kwargs):
    base = dict(TWO_STATE, days=4, periods_per_shift=20, dt_max=0.3,
                qu_frac_max=0.05, seed=1)
    base.update(kwargs)
    return SyntheticSpec(**base)


class TestGeneratedRecords:
    def test_deterministic_in_the_spec(self):
        a = generate_synthetic(_spec())
        b = generate_synthetic(_spec())
        assert a == b
        c = generate_synthetic(_spec(seed=2))
        assert a != c

    def test_identities_hold_exactly(self):
        records = generate_synthetic(_spec())
        assert len(records) == 4 * 3 * 20
        for rec in records:
            _assert_identities_hold(rec)

    def test_chronological_and_counted(self):
        records = generate_synthetic(_spec())
        check_chronological(records)
        assert [rec.n for rec in records] == list(range(1, len(records) + 1))

    def test_calendar_layout(self):
        records = generate_synthetic(_spec(days=2))
        table = build_features(records, default_feature_config(records, q=0))
        starts = np.flatnonzero(table.begins_shift).tolist()
        assert starts == list(range(0, len(records), 20))
        assert len(starts) == 2 * 3
        for i in starts:
            first = records[i]
            assert first.start in (dt.time(6, 0), dt.time(14, 0),
                                   dt.time(22, 0))
            weekday, code = first.shift.split()
            assert code in ("M", "A", "N")
            assert weekday == ("Mo", "Tu", "We", "Th", "Fr", "Sa",
                               "Su")[first.date.weekday()]

    def test_monday_start_by_default(self):
        records = generate_synthetic(_spec(days=1))
        assert records[0].shift == "Mo M"
        assert records[0].date == dt.date(2022, 10, 3)


class TestHiddenDynamics:
    def test_zero_noise_emits_state_means(self):
        records = generate_synthetic(_spec())
        opts = {round(rec.OpT, 6) for rec in records}
        assert opts == {3.0, 2.0}
        for rec in records:
            assert rec.NOpT == pytest.approx(
                {3.0: 2.8, 2.0: 1.8}[round(rec.OpT, 6)])

    def test_chain_restarts_from_initial_at_shift_starts(self):
        spec = _spec(initial=(1.0, 0.0), transition=((0.0, 1.0), (0.0, 1.0)),
                     days=2, periods_per_shift=5)
        records = generate_synthetic(spec)
        for k, rec in enumerate(records):
            expected = 3.0 if k % 5 == 0 else 2.0
            assert rec.OpT == pytest.approx(expected)

    def test_transition_frequencies_approach_the_matrix(self):
        spec = _spec(days=10, periods_per_shift=120, dt_max=0.2,
                     initial=(0.5, 0.5), seed=5)
        records = generate_synthetic(spec)
        state = [0 if rec.OpT == pytest.approx(3.0) else 1 for rec in records]
        counts = np.zeros((2, 2))
        for k in range(1, len(records)):
            if k % 120 == 0:
                continue  # shift start draws from the initial distribution
            counts[state[k - 1], state[k]] += 1
        freq = counts / counts.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(freq, np.asarray(TWO_STATE["transition"]),
                                   atol=0.04)

    def test_autoregression_enters_the_mean(self):
        spec = _spec(states=1, transition=((1.0,),),
                     state_means=((2.0, 1.5),),
                     ar=(((0.5, 0.0), (0.0, 0.5)),),
                     days=1, periods_per_shift=3, dt_max=0.0,
                     qu_frac_max=0.0)
        records = generate_synthetic(spec)
        # seeded history equals the state mean: y0 = mu + A mu
        assert records[0].OpT == pytest.approx(2.0 + 0.5 * 2.0)
        assert records[0].NOpT == pytest.approx(1.5 + 0.5 * 1.5)
        # thereafter y_{k} = mu + A y_{k-1}
        assert records[1].OpT == pytest.approx(2.0 + 0.5 * records[0].OpT)

    def test_shift_effects_offset_by_code(self):
        spec = _spec(states=1, transition=((1.0,),),
                     state_means=((2.0, 1.8),),
                     shift_effects={"N": (0.7, 0.5)},
                     days=1, periods_per_shift=4)
        records = generate_synthetic(spec)
        for rec in records:
            expected = 2.7 if rec.shift_code == "N" else 2.0
            assert rec.OpT == pytest.approx(expected)

    def test_noise_perturbs_responses(self):
        spec = _spec(noise_cov=((0.04, 0.0), (0.0, 0.04)), days=2, seed=9)
        records = generate_synthetic(spec)
        opts = np.array([rec.OpT for rec in records])
        assert np.unique(np.round(opts, 6)).size > 2
        # still consistent records
        for rec in records:
            _assert_identities_hold(rec)


class TestSpeedAndOrders:
    def test_ics_constant_within_an_order(self):
        spec = _spec(order_every=15, days=3)
        records = generate_synthetic(spec)
        by_order = {}
        for rec in records:
            by_order.setdefault(rec.pr_ord, set()).add(rec.ics)
        assert all(len(v) == 1 for v in by_order.values())
        assert len(by_order) > 3
        levels = {rec.ics for rec in records}
        assert levels <= {1.35, 1.61, 1.88}
        assert len(levels) > 1

    def test_unit_columns_follow_the_speed(self):
        records = generate_synthetic(_spec())
        for rec in records:
            assert rec.TgU == pytest.approx(rec.OpT * rec.ics)
            assert rec.TU == int(round(rec.VT * rec.ics))


class TestSpecValidation:
    def test_transition_must_be_row_stochastic(self):
        with pytest.raises(ConfigurationError):
            _spec(transition=((0.5, 0.4), (0.3, 0.7)))
        with pytest.raises(ConfigurationError):
            _spec(transition=((1.1, -0.1), (0.3, 0.7)))

    def test_shape_checks(self):
        with pytest.raises(ConfigurationError):
            _spec(states=3)
        with pytest.raises(ConfigurationError):
            _spec(state_means=((1.0,), (2.0,)))
        with pytest.raises(ConfigurationError):
            _spec(noise_cov=((1.0, 0.5), (0.4, 1.0)))
        with pytest.raises(ConfigurationError):
            _spec(initial=(0.5, 0.6))

    @pytest.mark.parametrize("fields, message", [
        (dict(states=2.0), "states must be a positive integer"),
        (dict(noise_cov=np.eye(3)), "noise_cov must be 2x2"),
        (dict(ar=(np.eye(3),)), "autoregressive matrices must be 2x2"),
        (dict(shift_effects={"A": (0.1, 0.2, 0.3)}), "shift effect for 'A' must have length 2"),
        (dict(days=0), "calendar must have days")],
        ids=["float-states", "noise-cov-3x3", "ar-3x3", "shift-effect-of-3", "no-days"])
    def test_each_field_is_checked(self, fields, message):
        with pytest.raises(ConfigurationError, match=message):
            _spec(**fields)

    def test_loss_and_speed_bounds(self):
        with pytest.raises(ConfigurationError):
            _spec(dt_max=-0.1)
        with pytest.raises(ConfigurationError):
            _spec(qu_frac_max=1.0)
        with pytest.raises(ConfigurationError):
            _spec(ics_levels=(0.0,))

    def test_shift_window_overflow_raises(self):
        with pytest.raises(ConfigurationError, match="overflow"):
            generate_synthetic(_spec(state_means=((30.0, 28.0), (25.0, 23.0)),
                                     periods_per_shift=20))

    def test_dict_roundtrip(self):
        spec = _spec(initial=(0.4, 0.6), ar=(((0.1, 0.0), (0.0, 0.1)),),
                     shift_effects={"A": (0.2, 0.1)})
        assert SyntheticSpec.from_dict(SPEC_DOC) == spec

    def test_legacy_scalar_speed_accepted(self):
        doc = dict(SPEC_DOC, initial=None, ar=[], shift_effects={})  # _spec()
        del doc["ics_levels"]
        doc["ics"] = 1.5
        spec = SyntheticSpec.from_dict(doc)
        assert spec.ics_levels == (1.5,)
