import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opcast
from opcast import IoHmmModel, parse_dataset
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
        ("kmax", 4.5), ("kmin", -2), ("seed", 1.5), ("responses", "OpT"),
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
    def test_max_lags_is_an_unknown_key(self, workdir, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "m.json"
        cfg.write_text(json.dumps({"max_lags": 5}))
        assert main(["fit", "--data", str(workdir / "data.csv"), "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert "unknown config keys: ['max_lags']" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["fit", "--lags", "6"],
                                      ["evaluate", "--models", "iohmm-q999999999"]])
    def test_the_lag_order_stays_bounded(self, workdir, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--data", str(workdir / "data.csv"), "--kmax", "4",
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert "q must be an integer in 0..5, got" in capsys.readouterr().err


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
        for entry in doc["params"].values():
            entry[side][name][0][0] = float("nan")
        snap = tmp_path / "nan.json"
        snap.write_text(json.dumps(doc))
        out = tmp_path / "fc.json"
        assert main(["forecast", "--snapshot", str(snap),
                     "--data", str(workdir / "data.csv"),
                     "--shift", "Tu M", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("damage", [
        lambda doc: [entry.update(initial=[float("nan")] * len(entry["initial"]))
                     for entry in doc["dirichlet"]["patterns"].values()],
        lambda doc: [entry.update(transition=[[0.0] * len(row) for row in entry["transition"]])
                     for entry in doc["dirichlet"]["patterns"].values()],
        lambda doc: doc["dirichlet"].update(n_states=doc["clusters"]["K"] + 1, patterns={}),
        lambda doc: doc["dirichlet"].update(pattern_length=1, patterns={}),
        lambda doc: doc["clusters"]["centroids"][0].__setitem__(0, float("nan")),
        lambda doc: doc["clusters"]["scale"].__setitem__(0, 0.0),
        lambda doc: doc["clusters"]["scale"].__setitem__(0, float("nan")),
        lambda doc: [entry["u"]["P"][0].__setitem__(1, entry["u"]["P"][0][1] + 0.5)
                     for entry in doc["params"].values()],
        lambda doc: [entry["v"].update(n_updates=-3.7) for entry in doc["params"].values()],
        lambda doc: [entry["u"].update(forgetting=0.5) for entry in doc["params"].values()],
        lambda doc: [entry["u"].update(n_predictors=len(entry["u"]["P"]) + 0.25)
                     for entry in doc["params"].values()],
        lambda doc: doc["config"].update(allow_cold_start="false"),
        lambda doc: doc["clusters"].update(reached_threshold="false"),
        lambda doc: doc["clusters"].update(K=doc["clusters"]["K"] + 0.5),
        lambda doc: doc["dirichlet"].update(n_states=doc["dirichlet"]["n_states"] + 0.9),
        lambda doc: doc["dirichlet"].update(
            pattern_length=doc["dirichlet"]["pattern_length"] + 0.5),
    ], ids=["nan-counts", "zero-counts", "n-states", "pattern-length", "nan-centroid",
            "zero-scale", "nan-scale", "asymmetric-p", "negative-n-updates", "forgetting",
            "fractional-n-predictors", "string-allow-cold-start",
            "string-reached-threshold", "fractional-k", "fractional-n-states",
            "fractional-pattern-length"])
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
        ('["hum"]', "JSON object"), ('"hum"', "JSON object")])
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

    def test_k_range_is_checked_as_in_fit(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kmin": 5, "kmax": 3}))
        for command in ("fit", "evaluate"):
            assert main([command, "--data", str(workdir / "data.csv"), "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 1

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
