import csv
import functools
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import opcast
import opcast.cli
import opcast.records
from opcast import (IoHmmModel, ModelConfig, ThresholdWarning, build_features,
                    default_feature_config, fit_states, parse_dataset, week_key)
from opcast.cli import main

SIM_SPEC = {
    "states": 2,
    "transition": [[0.85, 0.15], [0.25, 0.75]],
    "state_means": [[3.0, 2.8], [2.2, 2.0]],
    "noise_cov": [[0.01, 0.0], [0.0, 0.01]],
    "days": 14,
    "periods_per_shift": 5,
    "dt_max": 0.4,
    "qu_frac_max": 0.05,
    "seed": 7,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SIM_SPEC))
    data = root / "data.csv"
    assert main(["simulate", "--spec", str(spec), "--out", str(data)]) == 0
    snapshot = root / "model.json"
    assert main(["fit", "--data", str(data), "--out", str(snapshot),
                 "--kmax", "4"]) == 0
    return root


class TestSimulate:
    def test_writes_parseable_records(self, workdir):
        result = parse_dataset(workdir / "data.csv")
        assert result.errors == []
        assert len(result.records) == 14 * 3 * 5

    def test_seed_override_changes_the_draw(self, workdir, tmp_path):
        other = tmp_path / "other.csv"
        assert main(["simulate", "--spec", str(workdir / "spec.json"),
                     "--out", str(other), "--seed", "99"]) == 0
        assert other.read_text() != (workdir / "data.csv").read_text()

    def test_same_spec_is_deterministic(self, workdir, tmp_path):
        again = tmp_path / "again.csv"
        assert main(["simulate", "--spec", str(workdir / "spec.json"),
                     "--out", str(again)]) == 0
        assert again.read_text() == (workdir / "data.csv").read_text()

    def test_bad_spec_file(self, tmp_path):
        missing = tmp_path / "none.json"
        assert main(["simulate", "--spec", str(missing),
                     "--out", str(tmp_path / "x.csv")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["simulate", "--spec", str(bad),
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("spec", [
        [SIM_SPEC], "spec", {key: v for key, v in SIM_SPEC.items() if key != "states"},
        {**SIM_SPEC, "ar": 3}, {**SIM_SPEC, "days": 2.7}, {**SIM_SPEC, "days": "2"},
        {**SIM_SPEC, "states": 2.9}, {**SIM_SPEC, "periods_per_shift": True},
        {**SIM_SPEC, "seed": 1.5}, {**SIM_SPEC, "dayz": 2}, {**SIM_SPEC, "ics": "1.5"},
        {**SIM_SPEC, "transition": [[0.85, "0.15"], [0.25, 0.75]]},
        {**SIM_SPEC, "shift_codes": ["M", 2]}, {**SIM_SPEC, "start_date": 20221003},
        {**SIM_SPEC, "shift_effects": [0.1, 0.2]}, {**SIM_SPEC, "initial": [True, False]}],
        ids=["array", "string", "no-states", "scalar-ar", "fractional-days", "string-days",
             "fractional-states", "boolean-periods", "fractional-seed", "unknown-key",
             "string-ics", "string-probability", "numeric-shift-code", "numeric-date",
             "array-shift-effects", "boolean-probability"])
    def test_malformed_spec_exits_1(self, tmp_path, capsys, spec):
        path, out = tmp_path / "spec.json", tmp_path / "x.csv"
        path.write_text(json.dumps(spec))
        # a seed flag is merged into the spec, which must then be an object too
        for seed in ([],) if isinstance(spec, dict) else ([], ["--seed", "3"]):
            assert main(["simulate", "--spec", str(path), "--out", str(out)] + seed) == 1
            assert not out.exists()
            assert capsys.readouterr().err.startswith("configuration error:")

    def test_whole_floats_are_whole_numbers(self, workdir, tmp_path):
        path, out = tmp_path / "spec.json", tmp_path / "x.csv"
        path.write_text(json.dumps({**SIM_SPEC, "days": 14.0, "seed": 7.0}))
        assert main(["simulate", "--spec", str(path), "--out", str(out)]) == 0
        assert out.read_text() == (workdir / "data.csv").read_text()


class TestFit:
    def test_snapshot_is_a_restorable_model(self, workdir):
        model = IoHmmModel.load(workdir / "model.json")
        assert model.clusters is not None
        assert model.params

    def test_progress_output(self, workdir, tmp_path, capsys):
        assert main(["fit", "--data", str(workdir / "data.csv"),
                     "--out", str(tmp_path / "m.json"), "--kmax", "4"]) == 0
        out = capsys.readouterr().out
        assert "states: K=" in out
        assert "patterns:" in out

    def test_missing_data_file(self, tmp_path):
        assert main(["fit", "--data", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_empty_dataset(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("n,date,start,shift,pr.ord,ics,rcs,TU,DU,TgU,"
                         "nstops,OT,SBT,DT,PLT,QLT\n")
        assert main(["fit", "--data", str(empty),
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_rows_out_of_order_exit_2(self, workdir, tmp_path, capsys):
        # fit refuses a row-shuffled history, as evaluate does, instead of
        # learning scrambled lags
        header, *rows = (workdir / "data.csv").read_bytes().splitlines(keepends=True)
        random.Random(0).shuffle(rows)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_bytes(b"".join([header, *rows]))
        for command in ("fit", "evaluate"):
            assert main([command, "--data", str(shuffled), "--out", str(tmp_path / "out"),
                         "--kmax", "4"]) == 2
            assert "data error: records out of order" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_and_flag_precedence(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lags": 2, "kmax": 4}))
        out = tmp_path / "m2.json"
        assert main(["fit", "--data", str(workdir / "data.csv"),
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert IoHmmModel.load(out).config.features.q == 2
        assert main(["fit", "--data", str(workdir / "data.csv"),
                     "--config", str(cfg), "--lags", "3",
                     "--out", str(out)]) == 0
        assert IoHmmModel.load(out).config.features.q == 3

    def test_unknown_config_key(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lols": 2}))
        assert main(["fit", "--data", str(workdir / "data.csv"),
                     "--config", str(cfg),
                     "--out", str(tmp_path / "m.json")]) == 1

    def test_a_config_file_holding_no_object_exits_1(self, workdir, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "m.json"
        cfg.write_text(json.dumps([{"lags": 2}]))
        assert main(["fit", "--data", str(workdir / "data.csv"), "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith(
            "configuration error: config file must hold a JSON object")

    def test_regressor_repeating_the_pattern_is_rejected(self, workdir, tmp_path,
                                                         capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"w_spec": ["shift_code==M", "ics"]}))
        out = tmp_path / "m.json"
        assert main(["fit", "--data", str(workdir / "data.csv"),
                     "--config", str(cfg), "--out", str(out)]) == 1
        assert "'shift_code==M'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_flag_value(self, workdir, tmp_path):
        assert main(["fit", "--data", str(workdir / "data.csv"),
                     "--out", str(tmp_path / "m.json"),
                     "--lambda-u", "1.2"]) == 1


class TestConfigValues:
    """Each config value has the kind its key declares; none is cast."""

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    @pytest.mark.parametrize("key, value", [
        ("lambda_u", "0.9"), ("lambda_v", True), ("lags", True), ("threshold", "0.5"),
        ("kmax", 4.5), ("kmax", -2), ("seed", 1.5), ("responses", "OpT"),
        ("models", ["persistence", 3]), ("allow_cold_start", "no"),
        ("z_spec", "shift_code==M"), ("w_spec", ["ics", None]), ("t_spec", None),
        ("schema", ["OT"]), ("threshold", float("nan")),
        ("lambda_u", float("inf")), ("seed", 10 ** 400)])
    def test_a_value_of_another_kind_exits_1(self, workdir, tmp_path, capsys, command,
                                             key, value):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps({key: value}))
        assert main([command, "--data", str(workdir / "data.csv"), "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and key in err

    def test_whole_floats_are_whole_numbers(self, workdir, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "m.json"
        cfg.write_text(json.dumps({"kmax": 4.0, "lags": 1.0, "allow_cold_start": False}))
        assert main(["fit", "--data", str(workdir / "data.csv"), "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert out.read_text() == (workdir / "model.json").read_text()

    def test_flags_are_checked_too(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["fit", "--data", str(workdir / "data.csv"), "--out", str(out),
                     "--seed=-1"]) == 1
        assert not out.exists()
        assert "seed" in capsys.readouterr().err


class TestRemovedKeys:
    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    @pytest.mark.parametrize("key, value", [("max_lags", 5), ("kmin", 3)])
    def test_a_removed_key_is_unknown(self, workdir, tmp_path, capsys, command, key, value):
        cfg, out = tmp_path / "cfg.json", tmp_path / "m.json"
        cfg.write_text(json.dumps({key: value}))
        assert main([command, "--data", str(workdir / "data.csv"), "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["fit", "--lags", "6"],
                                      ["evaluate", "--models", "iohmm-q999999999"]])
    def test_the_lag_order_stays_bounded(self, workdir, tmp_path, capsys, argv):
        # fit checks the bound on q; no model identifier names a q above 5
        message = {"fit": "q must be an integer in 0..5, got",
                   "evaluate": "unknown model identifier"}[argv[0]]
        out = tmp_path / "out"
        assert main([*argv, "--data", str(workdir / "data.csv"), "--kmax", "4",
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert message in capsys.readouterr().err


class TestEmptyResponseCells:
    """A response is read as a numeric covariate: each path that reads one
    refuses an empty cell with the column's name, as a configuration error."""

    @pytest.fixture(scope="class")
    def gappy(self, workdir, tmp_path_factory):
        root = tmp_path_factory.mktemp("gappy")
        lines = (workdir / "data.csv").read_text().splitlines()
        at = lines[0].split(",").index("hum")
        for i in (5, 6, 40, 100):
            cells = lines[i].split(",")
            cells[at] = ""
            lines[i] = ",".join(cells)
        (root / "data.csv").write_text("\n".join(lines) + "\n")
        (root / "cfg.json").write_text(json.dumps({"responses": ["hum", "OpT"]}))
        return root

    @pytest.mark.parametrize("argv", [
        ["fit"], ["evaluate", "--models", "iohmm-q1"], ["evaluate", "--models", "no-lags"],
        ["evaluate", "--models", "iohmm-uni-q1"], ["evaluate", "--models", "varx-q1"],
        ["evaluate", "--models", "persistence"]],
        ids=["fit", "iohmm", "no-lags", "iohmm-uni", "varx", "persistence"])
    def test_exits_1_naming_the_column(self, gappy, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--data", str(gappy / "data.csv"), "--config",
                     str(gappy / "cfg.json"), "--kmax", "4", "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "'hum'" in err


class TestForecast:
    def test_document_on_stdout(self, workdir, capsys):
        assert main(["forecast", "--snapshot", str(workdir / "model.json"),
                     "--data", str(workdir / "data.csv"),
                     "--shift", "Tu M"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["y_hat"]) == {"OpT", "NOpT"}
        lo, hi = doc["intervals"]["OpT"]
        assert lo <= doc["y_hat"]["OpT"] <= hi
        assert doc["state"] >= 1

    def test_document_to_file(self, workdir, tmp_path):
        out = tmp_path / "fc.json"
        assert main(["forecast", "--snapshot", str(workdir / "model.json"),
                     "--data", str(workdir / "data.csv"),
                     "--shift", "Tu M", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert "y_hat" in doc

    def test_forecast_leaves_the_snapshot_unchanged(self, workdir, tmp_path):
        snap = tmp_path / "m.json"
        snap.write_text((workdir / "model.json").read_text())
        before = snap.read_text()
        assert main(["forecast", "--snapshot", str(snap),
                     "--data", str(workdir / "data.csv"),
                     "--shift", "Tu M"]) == 0
        assert snap.read_text() == before

    @pytest.mark.parametrize("part", ["u.H", "u.P", "v.Sigma"])
    def test_non_finite_snapshot_is_a_data_error(self, workdir, tmp_path,
                                                 capsys, part):
        doc = json.loads((workdir / "model.json").read_text())
        side, name = part.split(".")
        for state in doc["params"][side][name]:
            state[0][0] = float("nan")
        snap = tmp_path / "nan.json"
        snap.write_text(json.dumps(doc))
        out = tmp_path / "fc.json"
        assert main(["forecast", "--snapshot", str(snap),
                     "--data", str(workdir / "data.csv"),
                     "--shift", "Tu M", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("damage", [
        lambda doc: [rows.__setitem__(0, [float("nan")] * len(rows[0]))
                     for rows in doc["dirichlet"]["counts"]],
        lambda doc: [rows.__setitem__(slice(1, None), [[0.0] * len(row) for row in rows[1:]])
                     for rows in doc["dirichlet"]["counts"]],
        lambda doc: doc["dirichlet"].update(n_states=doc["clusters"]["K"] + 1, keys=[],
                                            counts=[]),
        lambda doc: doc["dirichlet"].update(pattern_length=1, keys=[], counts=[]),
        lambda doc: doc["clusters"]["centroids"][0].__setitem__(0, float("nan")),
        lambda doc: doc["clusters"]["scale"].__setitem__(0, 0.0),
        lambda doc: doc["clusters"]["scale"].__setitem__(0, float("nan")),
        lambda doc: [P[0].__setitem__(1, P[0][1] + 0.5) for P in doc["params"]["u"]["P"]],
        lambda doc: doc["params"]["v"].update(n_updates=[-3.7] * len(doc["params"]["keys"])),
        lambda doc: doc["params"].update(keys=doc["params"]["keys"][:1] * len(
            doc["params"]["keys"])),
        lambda doc: doc["params"]["u"].update(P=[P[1:] for P in doc["params"]["u"]["P"]]),
        lambda doc: doc["config"].update(allow_cold_start="false"),
        lambda doc: doc["clusters"].update(reached_threshold="false"),
        lambda doc: doc["clusters"].update(K=doc["clusters"]["K"] + 0.5),
        lambda doc: doc["dirichlet"].update(n_states=doc["dirichlet"]["n_states"] + 0.9),
        lambda doc: doc["dirichlet"].update(
            pattern_length=doc["dirichlet"]["pattern_length"] + 0.5),
        lambda doc: [part.pop(0) for part in doc["dirichlet"].values() if type(part) is list],
    ], ids=["nan-counts", "zero-counts", "n-states", "pattern-length", "nan-centroid",
            "zero-scale", "nan-scale", "asymmetric-p", "negative-n-updates",
            "repeated-pattern-key", "short-p", "string-allow-cold-start",
            "string-reached-threshold", "fractional-k", "fractional-n-states",
            "fractional-pattern-length", "count-pattern-missing"])
    def test_damaged_snapshot_is_refused_at_load(self, workdir, tmp_path, capsys, damage):
        doc = json.loads((workdir / "model.json").read_text())
        damage(doc)
        snap = tmp_path / "damaged.json"
        snap.write_text(json.dumps(doc))
        out = tmp_path / "fc.json"
        assert main(["forecast", "--snapshot", str(snap),
                     "--data", str(workdir / "data.csv"),
                     "--shift", "Tu M", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("data error: ")
        assert main(["inspect", "--snapshot", str(snap)]) == 2
        assert capsys.readouterr().err.startswith("data error: ")

    def test_a_version_1_snapshot_exits_2_with_a_call_to_refit(self, workdir, tmp_path,
                                                                capsys):
        doc = json.loads((workdir / "model.json").read_text())
        assert doc["version"] == 2 and len(doc["params"]["keys"]) > 1
        doc["version"] = 1
        snap = tmp_path / "v1.json"
        snap.write_text(json.dumps(doc))
        out = tmp_path / "fc.json"
        assert main(["forecast", "--snapshot", str(snap),
                     "--data", str(workdir / "data.csv"),
                     "--shift", "Tu M", "--out", str(out)]) == 2
        assert not out.exists()
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("data error: unsupported snapshot version 1:") and "refit" in last

    def test_back_to_back_requests_share_no_state(self, workdir, capsys):
        request = ["forecast", "--snapshot", str(workdir / "model.json"),
                   "--data", str(workdir / "data.csv"), "--shift", "Tu M"]
        assert main(request + ["--new-order"]) == 0
        new_order = capsys.readouterr().out
        assert main(request) == 0
        same_order = capsys.readouterr().out
        assert new_order != same_order
        assert main(request) == 0
        assert capsys.readouterr().out == same_order

    def test_unseen_pattern_is_a_numeric_failure(self, workdir):
        # an announced label outside the learned shift codes maps to the
        # all-zeros pattern, which has no observations
        assert main(["forecast", "--snapshot", str(workdir / "model.json"),
                     "--data", str(workdir / "data.csv"),
                     "--shift", "Tu X"]) == 3

    def test_bad_next_values(self, workdir):
        assert main(["forecast", "--snapshot", str(workdir / "model.json"),
                     "--data", str(workdir / "data.csv"),
                     "--shift", "Tu M", "--next-values", "{oops"]) == 1

    @pytest.fixture(scope="class")
    def hum_snapshot(self, workdir, tmp_path_factory):
        root = tmp_path_factory.mktemp("hum")
        cfg = root / "cfg.json"
        cfg.write_text(json.dumps({"w_spec": ["ics", "hum"], "kmax": 4}))
        snapshot = root / "model.json"
        assert main(["fit", "--data", str(workdir / "data.csv"), "--config", str(cfg),
                     "--out", str(snapshot)]) == 0
        return snapshot

    def test_next_values_fill_the_announced_covariate(self, workdir, hum_snapshot,
                                                      capsys):
        assert main(["forecast", "--snapshot", str(hum_snapshot),
                     "--data", str(workdir / "data.csv"), "--shift", "Tu M",
                     "--next-values", '{"hum": 61.5}']) == 0
        assert "y_hat" in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("given, named", [
        ('{"hum": "abc"}', "'hum'"), ('{"hum": null}', "'hum'"),
        ('{"hum": NaN}', "'hum'"), ('{"hum": -Infinity}', "'hum'"),
        ('{"hum": true}', "'hum'"), ('["hum"]', "JSON object"), ('"hum"', "JSON object")])
    def test_next_values_must_be_finite_numbers(self, workdir, hum_snapshot,
                                                 capsys, given, named):
        assert main(["forecast", "--snapshot", str(hum_snapshot),
                     "--data", str(workdir / "data.csv"), "--shift", "Tu M",
                     "--next-values", given]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and named in err

    @pytest.mark.parametrize("ics", ["nan", "inf", "-inf"])
    def test_ics_must_be_finite(self, workdir, capsys, ics):
        assert main(["forecast", "--snapshot", str(workdir / "model.json"),
                     "--data", str(workdir / "data.csv"), "--shift", "Tu M",
                     f"--ics={ics}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "--ics" in err

    def test_missing_snapshot(self, workdir, tmp_path):
        assert main(["forecast", "--snapshot", str(tmp_path / "none.json"),
                     "--data", str(workdir / "data.csv"),
                     "--shift", "Tu M"]) == 2

    def test_corrupt_snapshot(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["forecast", "--snapshot", str(bad),
                     "--data", str(workdir / "data.csv"),
                     "--shift", "Tu M"]) == 2


def _spoiled(header: str, row: str, column: str, value: str) -> str:
    cells = row.split(",")
    cells[header.split(",").index(column)] = value
    return ",".join(cells)


def _history(workdir) -> list[str]:
    """Lines of a history with bad, short and blank rows: the first rows of
    data.csv, a bad row, a short row, a blank line, 14 bad rows (more than
    the first block of a tail read at any lag order up to 5), a blank line
    and a bad row before the last."""
    header, *rows = (workdir / "data.csv").read_text().splitlines()
    bad = functools.partial(_spoiled, header)
    return [header, *rows[:6], bad(rows[6], "OT", "abc"), *rows[7:10],
            ",".join(rows[10].split(",")[:6]), "", *rows[11:15],
            *(bad(row, "date", "2022-13-40") for row in rows[15:29]), *rows[29:32], "",
            bad(rows[32], "nstops", "x"), rows[33]]


class TestTailRead:
    """``forecast`` parses only the history's header and last rows."""

    @pytest.fixture(scope="class")
    def snapshots(self, workdir, tmp_path_factory):
        root = tmp_path_factory.mktemp("lags")
        paths = {1: workdir / "model.json"}
        for q in (0, 2, 3, 4, 5):
            paths[q] = root / f"model-q{q}.json"
            assert main(["fit", "--data", str(workdir / "data.csv"), "--lags", str(q),
                         "--kmax", "4", "--out", str(paths[q])]) == 0
        return dict(sorted(paths.items()))

    @pytest.mark.parametrize("variant", ["crlf-renamed", "lf", "quoted"])
    def test_every_prefix_serves_the_whole_files_document(
            self, workdir, snapshots, tmp_path, monkeypatch, capsys, variant):
        # for q = 0..5 and every prefix of the history, with and without its
        # last line break, the exit code, the document and the error are
        # those of a request that parses the whole file
        lines, request = _history(workdir), []
        if variant == "crlf-renamed":
            lines[0] = lines[0].replace(",OT,", ",opening,")
            (tmp_path / "cfg.json").write_text(json.dumps({"schema": {"OT": "opening"}}))
            request = ["--config", str(tmp_path / "cfg.json")]
        if variant == "quoted":  # near the end; its quotes balance, so it stays on the tail
            shift = lines[-4].split(",")[3]
            lines[-4] = _spoiled(lines[0], lines[-4], "shift", f'"{shift}"')
        ending = "\n" if variant == "lf" else "\r\n"
        path = tmp_path / "history.csv"
        routes, parse = [], opcast.records.parse_dataset
        monkeypatch.setattr(opcast.records, "parse_dataset", lambda source, schema=None: (
            routes.append(type(source).__name__) or parse(source, schema)))

        def outcome(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err.splitlines()[-1] if code else ""
        codes = set()
        for q, snapshot in snapshots.items():
            for k in range(1, len(lines) + 1):
                text = ending.join(lines[:k]) + ending * (k % 2)
                path.write_bytes(text.encode())
                argv = ["forecast", "--snapshot", str(snapshot), "--data", str(path),
                        "--shift", "Tu M", *request]
                tail = outcome(argv)
                with monkeypatch.context() as whole:
                    whole.setattr(opcast.cli, "parse_tail",
                                  lambda source, need, schema=None: parse(source, schema))
                    assert outcome(argv) == tail, (q, k)
                codes.add(tail[0])
        assert codes == {0, 2}
        assert set(routes) == {"StringIO"}

    def test_no_usable_record_exits_2(self, workdir, tmp_path, capsys):
        header, *rows = _history(workdir)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([header] + [_spoiled(header, row, "OT", "abc")
                                             for row in rows if row.count(",") > 6]) + "\n")
        assert path.stat().st_size > 8192  # the block grows back to the header
        assert main(["forecast", "--snapshot", str(workdir / "model.json"),
                     "--data", str(path), "--shift", "Tu M"]) == 2
        err = capsys.readouterr().err
        assert err.endswith("data error: dataset contains no usable records\n")

    def test_a_history_shorter_than_the_lags_exits_2(self, workdir, snapshots,
                                                      tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("\n".join(_history(workdir)[:3]) + "\n")
        assert main(["forecast", "--snapshot", str(snapshots[3]),
                     "--data", str(path), "--shift", "Tu M"]) == 2
        assert capsys.readouterr().err == \
            "data error: need at least 3 records of history\n"

    def test_the_skipped_row_warning(self, workdir, tmp_path, capsys):
        # fit counts every bad row of the file, forecast the bad rows it read;
        # both give the first one's line number in the file
        path = tmp_path / "history.csv"
        path.write_text("\n".join(_history(workdir)) + "\n")
        assert main(["fit", "--data", str(path), "--kmax", "4",
                     "--out", str(tmp_path / "m.json")]) == 0
        assert capsys.readouterr().err == (
            "warning: skipped 17 unparseable rows "
            "(first: line 8: column 'OT': cannot parse 'abc' as a number)\n")
        assert main(["forecast", "--snapshot", str(workdir / "model.json"),
                     "--data", str(path), "--shift", "Tu M"]) == 0
        assert capsys.readouterr().err == (
            "warning: skipped 1 unparseable rows "
            "(first: line 36: column 'nstops': cannot parse 'x' as an integer)\n")


class TestNotUtf8:
    """A byte that does not decode as UTF-8 is a data error naming its file."""

    @pytest.fixture
    def latin1(self, workdir, tmp_path):
        def history(row):  # data.csv with a Latin-1 shift cell in the given row
            header, *rows = (workdir / "data.csv").read_text().splitlines()
            rows[row] = _spoiled(header, rows[row], "shift", "Mo \xe9")
            path = tmp_path / f"latin1-{row}.csv"
            path.write_bytes("\n".join([header, *rows, ""]).encode("latin-1"))
            return path
        return history

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_fit_and_evaluate_exit_2(self, latin1, tmp_path, capsys, command):
        path, out = latin1(3), tmp_path / "out"
        assert main([command, "--data", str(path), "--kmax", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"data error: {path} is not UTF-8 text: cannot decode byte 0xe9\n"
        assert not out.exists()

    def test_forecast_exits_2_on_the_rows_it_reads(self, workdir, latin1, capsys):
        argv = ["forecast", "--snapshot", str(workdir / "model.json"), "--shift", "Tu M"]
        path = latin1(-1)
        assert main([*argv, "--data", str(path)]) == 2
        assert capsys.readouterr().err == \
            f"data error: {path} is not UTF-8 text: cannot decode byte 0xe9\n"
        assert main([*argv, "--data", str(latin1(3))]) == 0  # a row before the tail

    def test_inspect_exits_2(self, workdir, tmp_path, capsys):
        text = (workdir / "model.json").read_text().replace("opcast-model", "opcast-mod\xe9l")
        path = tmp_path / "latin1.json"
        path.write_bytes(text.encode("latin-1"))
        assert main(["inspect", "--snapshot", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "data error: snapshot is not valid JSON: 'utf-8' codec can't decode byte 0xe9")

    def test_a_config_file_exits_1(self, workdir, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes('{"schema": {"shift": "Schicht\xe9"}}'.encode("latin-1"))
        assert main(["fit", "--data", str(workdir / "data.csv"), "--config", str(path),
                     "--out", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err.startswith(
            "configuration error: config file is not valid JSON: 'utf-8' codec")


class TestUtf8Output:
    """Every file opcast writes is UTF-8, as every reader decodes, whatever the locale."""

    def test_evaluate_under_an_ascii_locale(self, workdir, tmp_path):
        header, *rows = (workdir / "data.csv").read_text(encoding="utf-8").splitlines()
        at = header.split(",").index("shift")
        rows = [_spoiled(header, row, "shift", row.split(",")[at].replace(" M", " Mañana"))
                for row in rows]
        data, out, summary = (tmp_path / name for name in ("data.csv", "r.csv", "s.json"))
        data.write_text("\n".join([header, *rows, ""]), encoding="utf-8")
        src = str(Path(opcast.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
        proc = subprocess.run(
            [sys.executable, "-m", "opcast.cli", "evaluate", "--data", str(data),
             "--out", str(out), "--summary-out", str(summary), "--models", "persistence"],
            capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        report = list(csv.DictReader(out.read_bytes().decode("utf-8").splitlines()))
        assert {r["shift_type"] for r in report if r["model"] == "persistence"} == \
            {"Mañana", "A", "N"}
        assert json.loads(summary.read_bytes().decode("utf-8"))["models"] == ["persistence"]


class TestSchema:
    """A config ``schema`` reads a file whose header uses other column names."""

    @pytest.fixture(scope="class")
    def renamed(self, workdir, tmp_path_factory):
        root = tmp_path_factory.mktemp("schema")
        header, rest = (workdir / "data.csv").read_text().split("\n", 1)
        data = root / "renamed.csv"
        data.write_text(header.replace(",OT,", ",opening,").replace(",hum,", ",humidity,")
                        + "\n" + rest)
        cfg = root / "cfg.json"
        cfg.write_text(json.dumps({"schema": {"OT": "opening", "hum": "humidity"},
                                   "kmax": 4}))
        return data, cfg

    def test_fit_reads_the_renamed_file(self, workdir, renamed, tmp_path):
        data, cfg = renamed
        out = tmp_path / "m.json"
        assert main(["fit", "--data", str(data), "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert out.read_text() == (workdir / "model.json").read_text()

    def test_forecast_reads_the_renamed_history(self, workdir, renamed, capsys):
        data, cfg = renamed
        request = ["forecast", "--snapshot", str(workdir / "model.json"), "--shift", "Tu M"]
        assert main(request + ["--data", str(workdir / "data.csv")]) == 0
        expected = capsys.readouterr().out
        assert main(request + ["--data", str(data), "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == expected
        assert main(request + ["--data", str(data)]) == 2

    def test_evaluate_reads_the_renamed_file(self, workdir, renamed, tmp_path):
        data, cfg = renamed
        request = ["evaluate", "--models", "persistence", "--kmax", "4"]
        assert main(request + ["--data", str(workdir / "data.csv"),
                               "--out", str(tmp_path / "a.csv")]) == 0
        assert main(request + ["--data", str(data), "--config", str(cfg),
                               "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()

    @pytest.mark.parametrize("schema, code", [
        (["OT"], 1), ("OT=opening", 1), (None, 1), ({"OT": 1}, 1), ({"OT": None}, 1),
        ({"bogus": "OT"}, 2)])
    def test_bad_schema(self, workdir, tmp_path, capsys, schema, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": schema}))
        for command in (["fit", "--out", str(tmp_path / "m.json")],
                        ["forecast", "--snapshot", str(workdir / "model.json"),
                         "--shift", "Tu M"],
                        ["evaluate", "--out", str(tmp_path / "r.csv")]):
            assert main(command + ["--data", str(workdir / "data.csv"),
                                   "--config", str(cfg)]) == code
            assert "schema" in capsys.readouterr().err


class TestEvaluate:
    def test_report_files_and_table(self, workdir, tmp_path, capsys):
        out = tmp_path / "report.csv"
        summary = tmp_path / "report.json"
        assert main(["evaluate", "--data", str(workdir / "data.csv"),
                     "--out", str(out), "--summary-out", str(summary),
                     "--models", "persistence,varx-q1,no-lags",
                     "--kmax", "4"]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "model,fold,shift_type,response,metric,value,count"
        assert any(line.startswith("persistence,") for line in lines)
        assert any(line.startswith("_summary,") for line in lines)
        doc = json.loads(summary.read_text())
        assert doc["models"] == ["persistence", "varx-q1", "no-lags"]
        table = capsys.readouterr().out
        assert "persistence" in table and "varx-q1" in table

    def test_the_table_pools_each_models_cells(self, workdir, tmp_path, capsys):
        out = tmp_path / "report.csv"
        models = ["persistence", "no-lags", "varx-q1", "iohmm-uni-q1"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ThresholdWarning)
            assert main(["evaluate", "--data", str(workdir / "data.csv"), "--out", str(out),
                         "--models", ",".join(models), "--kmax", "4"]) == 0
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == f"{'model':<16} {'mae':>8} {'rmse':>8} {'covg':>6}"
        for name, line in zip(models, lines[2:]):  # pooled directly from the report rows
            want = f"{name:<16}"
            for metric, width, digits in (("mae", 8, 4), ("rmse", 8, 4), ("covg", 6, 3)):
                vals = [(float(r["value"]), int(r["count"])) for r in rows
                        if r["model"] == name and r["metric"] == metric]
                if vals and metric == "rmse":  # the root of the count-weighted mean square
                    pooled = math.sqrt(sum(v * v * c for v, c in vals) / sum(c for _, c in vals))
                elif vals:  # mae and covg: the count-weighted mean
                    pooled = sum(v * c for v, c in vals) / sum(c for _, c in vals)
                want += f" {pooled:{width}.{digits}f}" if vals else " " + "-".rjust(width)
            assert line == want
        assert lines[2 + len(models)] == f"report written to {out}"

    def test_the_summary_shows_each_folds_state_search(self, workdir, tmp_path):
        records = parse_dataset(workdir / "data.csv").records
        summary = tmp_path / "report.json"
        for models, fitted in (("persistence", False), ("persistence,no-lags", True)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ThresholdWarning)
                assert main(["evaluate", "--data", str(workdir / "data.csv"),
                             "--out", str(tmp_path / "report.csv"),
                             "--summary-out", str(summary), "--models", models,
                             "--kmax", "4"]) == 0
            doc = json.loads(summary.read_text())
            weeks = doc["folds"]
            assert sorted(doc["states"]) == (weeks if fitted else [])
        features = default_feature_config(records)
        for week in weeks:  # the fold's states, as fitted on its training weeks
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ThresholdWarning)
                states = fit_states(build_features(
                    [rec for rec in records if week_key(rec.date) != week], features), k_max=4)
            assert doc["states"][week] == {"K": states.K, "gof": states.gof,
                                           "reached_threshold": states.reached_threshold}

    def test_k_range_is_checked_as_in_fit(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kmax": 1}))
        for command in ("fit", "evaluate"):
            assert main([command, "--data", str(workdir / "data.csv"), "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 1
            assert "need k_max >= 2, got 1" in capsys.readouterr().err

    def test_unknown_model_name(self, workdir, tmp_path):
        assert main(["evaluate", "--data", str(workdir / "data.csv"),
                     "--out", str(tmp_path / "r.csv"),
                     "--models", "sarimax"]) == 1

    def test_repeated_model_name(self, workdir, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["evaluate", "--data", str(workdir / "data.csv"), "--out", str(out),
                     "--models", "persistence,iohmm-q1,iohmm-q1"]) == 1
        assert not out.exists()
        assert "iohmm-q1" in capsys.readouterr().err


class TestInspect:
    def test_describes_the_snapshot(self, workdir, capsys):
        assert main(["inspect", "--snapshot",
                     str(workdir / "model.json")]) == 0
        out = capsys.readouterr().out
        assert "states: K=" in out
        assert "state 1:" in out
        assert "band=" in out
        assert "patterns:" in out

    def test_an_unfitted_snapshot_has_no_states(self, workdir, tmp_path, capsys):
        records = parse_dataset(workdir / "data.csv").records
        path = tmp_path / "unfitted.json"
        IoHmmModel(ModelConfig(features=default_feature_config(records))).save(path)
        assert main(["inspect", "--snapshot", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "no cluster state fitted" and len(out) == 3


class TestParsing:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["fit", "--out", "x.json"]) == 1

    def test_module_entry_point(self, workdir, tmp_path):
        # the child imports the package under test, also without PYTHONPATH set
        src = str(Path(opcast.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "opcast.cli", "simulate",
             "--spec", str(workdir / "spec.json"),
             "--out", str(tmp_path / "sub.csv")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "wrote" in proc.stdout
