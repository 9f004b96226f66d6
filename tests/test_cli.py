"""End-to-end CLI runs against a small generated cohort."""

import csv
import json
import shutil

import pytest

import sslhop as sh
from sslhop.cli import main


def run(capsys, *argv):
    """Invoke the CLI in-process and hand back (exit code, stdout JSON)."""
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def cohort(work):
    out = work / "cohort"
    code = main(["gen-synthetic", "--out", str(out), "--classes", "3",
                 "--per-class", "6", "--dims", "12,12,6", "--seed", "5"])
    assert code == 0
    return out / "manifest.json"


@pytest.fixture(scope="module")
def config_file(work):
    cfg = sh.PipelineConfig(
        layers=(sh.LayerSpec(window=(3, 3, 4), channels=4),
                sh.LayerSpec(window=(3, 3, 3), channels=5)),
        centroids_per_class=2, seed=11)
    path = work / "tiny_config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path


@pytest.fixture(scope="module")
def fit_dir(work, cohort, config_file):
    out = work / "fit"
    code = main(["fit", "--manifest", str(cohort), "--config",
                 str(config_file), "--out", str(out)])
    assert code == 0
    return out


class TestGenSynthetic:
    def test_outputs(self, cohort, capsys):
        capsys.readouterr()
        manifest = sh.load_manifest(cohort)
        assert len(manifest.records) == 18
        assert manifest.class_count == 3
        for rec in manifest.records:
            assert rec.ed_path.is_file() and rec.es_path.is_file()

    def test_stdout_summary(self, work, capsys):
        code, doc = run(capsys, "gen-synthetic", "--out", work / "cohort2",
                        "--classes", "2", "--per-class", "3",
                        "--dims", "12,12,6", "--seed", "5")
        assert code == 0
        assert doc["subjects"] == 6
        assert doc["manifest"].endswith("manifest.json")

    def test_resolved_config_records_generation_settings(self, cohort):
        doc = json.loads((cohort.parent / "resolved_config.json").read_text())
        assert doc["command"] == "gen-synthetic"
        assert doc["synthetic"]["dims"] == [12, 12, 6]
        assert doc["synthetic"]["seed"] == 5

    def test_bad_dims_is_a_usage_error(self, work, capsys):
        code = main(["gen-synthetic", "--out", str(work / "x"),
                     "--dims", "12x12x6"])
        capsys.readouterr()
        assert code == 2


class TestFit:
    def test_artifacts(self, fit_dir):
        assert (fit_dir / "model.sslm").is_file()
        assert (fit_dir / "params.json").is_file()
        doc = json.loads((fit_dir / "resolved_config.json").read_text())
        assert doc["config"]["centroids_per_class"] == 2
        assert doc["config"]["seed"] == 11

    def test_stdout_summary(self, work, cohort, config_file, capsys):
        code, doc = run(capsys, "fit", "--manifest", cohort, "--config",
                        config_file, "--out", work / "fit2")
        assert code == 0
        model = sh.load_model(work / "fit2" / "model.sslm")
        assert doc["feature_dim"] == model.feature_dim
        assert doc["parameters"] == sh.count_parameters(model)

    def test_params_match_fitted_model(self, fit_dir):
        params = json.loads((fit_dir / "params.json").read_text())
        model = sh.load_model(fit_dir / "model.sslm")
        assert params["total"] == sh.count_parameters(model)["total"]

    def test_missing_config_file(self, work, cohort, capsys):
        code = main(["fit", "--manifest", str(cohort), "--config",
                     str(work / "nope.json"), "--out", str(work / "f")])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"]["type"] == "MissingFileError"
        assert err["error"]["exit_code"] == 3

    def test_threads_is_not_a_fit_flag(self, work, cohort, config_file,
                                       capsys):
        code = main(["fit", "--manifest", str(cohort), "--config",
                     str(config_file), "--out", str(work / "t"),
                     "--threads", "2"])
        capsys.readouterr()
        assert code == 2
        doc = json.loads((work / "fit" / "resolved_config.json").read_text())
        assert "threads" not in doc

    def test_missing_manifest(self, work, config_file, capsys):
        code = main(["fit", "--manifest", str(work / "absent.json"),
                     "--config", str(config_file), "--out", str(work / "g")])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"]["type"] == "MissingFileError"


class TestPredict:
    def test_training_set_accuracy(self, work, cohort, fit_dir, capsys):
        code, doc = run(capsys, "predict", "--model", fit_dir / "model.sslm",
                        "--manifest", cohort, "--out", work / "pred")
        assert code == 0
        assert doc["accuracy"] == 1.0

    def test_predictions_csv(self, work, cohort):
        with open(work / "pred" / "predictions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["subject_id", "label", "predicted",
                           "score_0", "score_1", "score_2"]
        manifest = sh.load_manifest(cohort)
        assert len(rows) - 1 == len(manifest.records)
        for row in rows[1:]:
            assert row[1] == row[2]          # every training subject correct
            float(row[3]), float(row[4]), float(row[5])


@pytest.fixture(scope="module")
def eval_dir(work, cohort, config_file):
    out = work / "eval"
    code = main(["evaluate", "--manifest", str(cohort), "--config",
                 str(config_file), "--out", str(out), "--folds", "2",
                 "--threads", "1"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def inspect_dir(work, fit_dir):
    out = work / "inspect"
    code = main(["inspect", "--model", str(fit_dir / "model.sslm"),
                 "--out", str(out)])
    assert code == 0
    return out


class TestEvaluate:
    def test_artifacts(self, eval_dir):
        for name in ("report.json", "roc.csv", "confusion.csv",
                     "predictions.csv", "params.json",
                     "resolved_config.json"):
            assert (eval_dir / name).is_file(), name

    def test_report_consistency(self, eval_dir, capsys):
        capsys.readouterr()
        report = json.loads((eval_dir / "report.json").read_text())
        assert report["folds"] == 2
        assert len(report["per_fold_accuracy"]) == 2
        assert 0.0 <= report["pooled_accuracy"] <= 1.0

    def test_resolved_config_captures_folds(self, eval_dir):
        doc = json.loads((eval_dir / "resolved_config.json").read_text())
        assert doc["folds"] == 2
        assert doc["fraction"] == 1.0
        assert doc["ablation"] == "none"

    def test_ablation_rewrites_config(self, work, cohort, config_file, capsys):
        code, _ = run(capsys, "evaluate", "--manifest", cohort, "--config",
                      config_file, "--out", work / "eval-ablate",
                      "--folds", "2", "--threads", "1",
                      "--ablation", "no-cefs")
        assert code == 0
        doc = json.loads(
            (work / "eval-ablate" / "resolved_config.json").read_text())
        assert doc["config"]["keep_ratio"] == 1.0
        assert doc["ablation"] == "no-cefs"

    def test_fraction_shrinks_the_cohort(self, work, cohort, config_file,
                                         capsys):
        code, _ = run(capsys, "evaluate", "--manifest", cohort, "--config",
                      config_file, "--out", work / "eval-frac",
                      "--folds", "2", "--threads", "1", "--fraction", "0.75")
        assert code == 0
        with open(work / "eval-frac" / "predictions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 12           # floor(6 * 0.75) = 4 per class

    def test_seed_override_lands_in_config(self, work, cohort, config_file,
                                           capsys):
        code, _ = run(capsys, "evaluate", "--manifest", cohort, "--config",
                      config_file, "--out", work / "eval-seed",
                      "--folds", "2", "--threads", "1", "--seed", "99")
        assert code == 0
        doc = json.loads(
            (work / "eval-seed" / "resolved_config.json").read_text())
        assert doc["config"]["seed"] == 99


class TestInspect:
    def test_artifacts(self, inspect_dir, capsys):
        capsys.readouterr()
        for name in ("energy.csv", "entropy.csv", "ledger.csv", "params.json"):
            assert (inspect_dir / name).is_file(), name

    def test_energy_rows_cover_every_stage(self, inspect_dir, fit_dir):
        model = sh.load_model(fit_dir / "model.sslm")
        with open(inspect_dir / "energy.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        expect = sum(len(stage.kernel.energy)
                     for per_dir in model.stages for stage in per_dir)
        assert len(rows) == expect

    def test_ledger_csv_matches_model(self, inspect_dir, fit_dir):
        model = sh.load_model(fit_dir / "model.sslm")
        with open(inspect_dir / "ledger.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(model.ledger)
        for row, entry in zip(rows, model.ledger):
            assert int(row[0]) == entry.layer
            assert int(row[2]) == entry.union_dim
            assert row[4] == "x".join(map(str, entry.pool_dims))

    def test_entropy_kept_flags(self, inspect_dir, fit_dir):
        model = sh.load_model(fit_dir / "model.sslm")
        with open(inspect_dir / "entropy.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        kept = sum(int(r[4]) for r in rows)
        expect = sum(len(stage.entropy.kept)
                     for per_dir in model.stages for stage in per_dir)
        assert kept == expect


# Edits of the tiny config (a dict to merge, or the whole file's text)
MALFORMED_CONFIGS = {
    "unknown-key": {"colour": 1},
    "undecodable": '{"layers": [',
    "layers-int": {"layers": 5},
    "seed-string": {"seed": "x"},
    "roi-two-values": {"roi_size": [4, 4]},
    "keep-ratio-2": {"keep_ratio": 2},
    "no-centroids": {"centroids_per_class": 0},
    "alpha-string": {"alpha": "x"},
    "svm-cost-0": {"svm_cost": 0},
    "svm-cost-negative": {"svm_cost": -1},
    "svm-cost-true": {"svm_cost": True},
    "ridge-lambda-negative": {"ridge_lambda": -1},
    "bias-scale-nan": {"bias_scale": float("nan")},
    "truncate-layer5-string": {"truncate_layer5": "x"},
}


class TestErrorSurface:
    def test_corrupt_model_is_a_data_error(self, work, cohort, capsys):
        bad = work / "bad.sslm"
        bad.write_bytes(b"NOTMODEL" + b"\x00" * 64)
        code = main(["predict", "--model", str(bad), "--manifest",
                     str(cohort), "--out", str(work / "p2")])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"]["type"] == "CorruptFileError"

    @pytest.mark.parametrize("dims", [5, [3, "a", 12, 12], [3, True, 12, 12]])
    def test_bad_field_dims_are_a_data_error(self, work, cohort, fit_dir,
                                             tmp_path, dims, capsys):
        copy = tmp_path / "cohort"
        shutil.copytree(cohort.parent, copy)
        field = sh.load_manifest(copy / "manifest.json").records[0].ed_path
        raw = field.read_bytes()
        nl = raw.index(b"\n")
        header = json.loads(raw[:nl])
        header["dims"] = dims
        field.write_bytes(json.dumps(header).encode() + raw[nl:])
        code = main(["predict", "--model", str(fit_dir / "model.sslm"),
                     "--manifest", str(copy / "manifest.json"),
                     "--out", str(tmp_path / "pred")])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"]["type"] == "BadHeaderError"

    @pytest.mark.parametrize("command", ["predict", "inspect"])
    def test_model_stages_off_the_ledger_are_a_data_error(
            self, work, cohort, fit_dir, tmp_path, edit_model_meta,
            stage_edit, command, capsys):
        bad = edit_model_meta(fit_dir / "model.sslm", tmp_path / "bad.sslm",
                              stage_edit)
        argv = [command, "--model", bad, "--out", tmp_path / "out"]
        if command == "predict":
            argv += ["--manifest", cohort]
        code = main([str(a) for a in argv])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"]["type"] == "CorruptFileError"

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("config"),
        lambda meta: meta.update(stages=5),
        lambda meta: meta["stages"][0][0]["entropy"].update(kept="ab"),
        lambda meta: meta["config"].update(layers=5),
        lambda meta: meta["stages"][0][0]["lag"].update(block_sizes=[3, 2, 1]),
        lambda meta: meta["ledger"][0].update(
            union_dim=meta["ledger"][0]["union_dim"] + 1),
        lambda meta: meta["config"]["layers"][0].update(channels=5),
        lambda meta: meta.update(class_table=["a"]),
        lambda meta: meta.update(class_table=[1, 2, 3]),
        lambda meta: meta["stages"][0][0]["saab"].update(padded=-4),
    ], ids=["no-config", "stages-int", "kept-string", "bad-config",
            "lag-blocks-off-config", "ledger-off-config", "config-off-ledger",
            "class-table-short", "class-table-ints", "padded-negative"])
    def test_metadata_off_the_schema_is_a_data_error(
            self, cohort, fit_dir, tmp_path, edit_model_meta, edit, capsys):
        bad = edit_model_meta(fit_dir / "model.sslm", tmp_path / "bad.sslm",
                              edit)
        for argv in (["inspect"], ["predict", "--manifest", str(cohort)]):
            code = main(argv + ["--model", str(bad),
                                "--out", str(tmp_path / "out")])
            err = json.loads(capsys.readouterr().err)
            assert code == 3
            assert err["error"]["type"] == "CorruptFileError"

    @pytest.mark.parametrize("command", ["predict", "inspect"])
    def test_format_1_model_is_a_data_error(self, cohort, fit_dir, tmp_path,
                                            command, capsys):
        """Major version 1 at offset 8 is refused before anything else is
        read, CRC included."""
        raw = bytearray((fit_dir / "model.sslm").read_bytes())
        raw[8:10] = (1).to_bytes(2, "little")
        bad = tmp_path / "v1.sslm"
        bad.write_bytes(bytes(raw))
        argv = [command, "--model", bad, "--out", tmp_path / "out"]
        if command == "predict":
            argv += ["--manifest", cohort]
        code = main([str(a) for a in argv])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"]["type"] == "VersionMismatchError"

    @pytest.mark.parametrize("command", ["fit", "evaluate", "predict"])
    def test_empty_manifest_is_a_data_error(self, cohort, config_file,
                                            fit_dir, tmp_path, command,
                                            capsys):
        doc = json.loads(cohort.read_text())
        doc["records"] = []
        empty = tmp_path / "manifest.json"
        empty.write_text(json.dumps(doc))
        argv = {"fit": ["fit", "--config", config_file],
                "evaluate": ["evaluate", "--config", config_file,
                             "--folds", "2", "--threads", "1"],
                "predict": ["predict", "--model", fit_dir / "model.sslm"]}
        code = main([str(a) for a in argv[command]]
                    + ["--manifest", str(empty), "--out", str(tmp_path / "out")])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"]["type"] == "TooFewSubjectsError"

    @pytest.mark.parametrize("edit", MALFORMED_CONFIGS.values(),
                             ids=MALFORMED_CONFIGS.keys())
    def test_malformed_config_file_is_a_data_error(self, cohort, config_file,
                                                   tmp_path, edit, capsys):
        text = edit
        if isinstance(edit, dict):
            doc = json.loads(config_file.read_text())
            doc.update(edit)
            text = json.dumps(doc)
        bad = tmp_path / "config.json"
        bad.write_text(text)
        code = main(["fit", "--manifest", str(cohort), "--config", str(bad),
                     "--out", str(tmp_path / "out")])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"]["type"] == "BadHeaderError"

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--fraction", "0"],
        ["evaluate", "--fraction", "1.5"],
        ["evaluate", "--threads", "0"],
        ["gen-synthetic", "--classes", "1"],
        ["gen-synthetic", "--per-class", "0"],
        ["gen-synthetic", "--dims", "0,4,4"],
        ["gen-synthetic", "--noise-sigma", "-1"],
        ["gen-synthetic", "--margin", "0"],
    ], ids=["fraction-0", "fraction-1.5", "threads-0", "classes-1",
            "per-class-0", "dims-0", "noise-negative", "margin-0"])
    def test_out_of_range_flag_is_a_usage_error(self, cohort, config_file,
                                                tmp_path, argv, capsys):
        if argv[0] == "evaluate":
            argv = argv + ["--manifest", str(cohort), "--config",
                           str(config_file), "--folds", "2"]
        code = main(argv + ["--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_missing_required_flag_is_a_usage_error(self, capsys):
        code = main(["fit", "--manifest", "m.json"])
        capsys.readouterr()
        assert code == 2

    def test_window_too_large_for_cohort(self, work, cohort, capsys):
        cfg = sh.PipelineConfig(
            layers=(sh.LayerSpec(window=(3, 3, 4), channels=4),) * 4,
            centroids_per_class=2, seed=11)
        path = work / "deep_config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        code = main(["fit", "--manifest", str(cohort), "--config", str(path),
                     "--out", str(work / "deep")])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"]["type"] == "WindowTooLargeError"
