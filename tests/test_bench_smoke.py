"""The benchmark's own output checks pass on shortened workloads."""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def _check(workload, tmp_path, units):
    state = workload.setup(1, tmp_path)
    outcome = workload.run(state, time.perf_counter, units=units)
    problems, findings = workload.check(state, outcome)
    assert problems == []
    assert outcome.failed == 0 and outcome.attempted > 0, outcome.first_error
    return findings, outcome.digest


# Digest of the 20-day stream below: every step (state, forecast, pattern)
# and the final snapshot. Any change to it moves an output byte of
# `run_online` and must be declared as a behaviour change.
SHORT_STREAM_SHA256 = "3a0008e740dd886e2aeeb22397778f28a3ab14bb43d9ade1f5f144101b651346"


def test_stream_year_check_passes(workloads, tmp_path):
    class ShortStream(workloads.StreamYear):
        days = 20

    findings, digest = _check(ShortStream(), tmp_path, units=1)
    assert findings["forecasts"] > 0
    assert digest == SHORT_STREAM_SHA256


def test_cli_forecast_check_passes(workloads, tmp_path):
    class ShortForecast(workloads.CliForecast):
        fit_days = 3
        score_days = 1

    findings, _ = _check(ShortForecast(), tmp_path, units=2)
    assert findings["forecasts"] == workloads.PER_DAY


# Report of the 14-day LOWO below. Any change to it moves an output byte of
# `opcast evaluate` and must be declared as a behaviour change.
SHORT_LOWO_SHA256 = "e81dfcbee590d0fa33a463bf337c87a777f3b31b02bfce136bc97492f59fc3ab"


def test_lowo_default_check_passes(workloads, tmp_path):
    class ShortLowo(workloads.LowoDefault):
        days = 14

    findings, _ = _check(ShortLowo(), tmp_path, units=1)
    assert findings["folds"] == 2
    assert findings["report_sha256"] == SHORT_LOWO_SHA256


@pytest.mark.parametrize("days, folds", [(14, 2), (21, 3)])
def test_lowo_fold_training_runs_stacked(workloads, tmp_path, monkeypatch, days, folds):
    # the IO-HMM variants of all folds learn in one stacked pass and walk
    # their test weeks in one more, whatever the fold count, each pass one
    # ragged update per side: no record-by-record walk or update is left, and
    # the v chains that read the same bytes advance once
    import opcast.model
    from opcast.estimator import AdaptiveState
    from opcast.model import IoHmmModel

    def forbidden(*args, **kwargs):
        raise AssertionError("record-by-record work in a LOWO run")

    passes, updates, states = [], [], []

    def counted(models, tables, spans, walking, stacked=opcast.model._stacked):
        passes.append("walk" if walking else "learn")
        return stacked(models, tables, spans, walking)

    def ragged(groups, moments=False, stacked_pass=opcast.model.stacked_pass):
        updates.append(len(groups))
        states.append(sum(len(group[0]) for group in groups))
        return stacked_pass(groups, moments)

    monkeypatch.setattr(AdaptiveState, "_update", forbidden)
    monkeypatch.setattr(IoHmmModel, "run_online", forbidden)
    monkeypatch.setattr(opcast.model, "_stacked", counted)
    monkeypatch.setattr(opcast.model, "stacked_pass", ragged)

    short = type("ShortLowo", (workloads.LowoDefault,), {"days": days})
    findings, _ = _check(short(), tmp_path, units=1)
    assert findings["folds"] == folds and passes == ["learn", "walk"]
    assert len(updates) == 4 and min(updates) > 1  # 2 per pass, each of several groups
    assert states[1] < states[0] and states[3] < states[2]  # per pass: u, then fewer v
    if days == 14:
        assert findings["report_sha256"] == SHORT_LOWO_SHA256
