"""End-to-end CLI runs against a small generated cohort."""

import csv
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import sslhop as sh
from conftest import assert_mutants_read_or_refused, json_mutant
from sslhop.cli import _resolve_config, build_parser, main
from sslhop.model_io import _HEADER, _layout


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
        for config in (work / "nope.json", work):    # absent, a directory
            code = main(["fit", "--manifest", str(cohort), "--config",
                         str(config), "--out", str(work / "f")])
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


def _edited_manifest(cohort, tmp_path, edit):
    """A copy of the cohort manifest, edited, with absolute paths."""
    doc = json.loads(cohort.read_text())
    for rec in doc["records"]:
        rec["ed"], rec["es"] = (str(cohort.parent / rec[k]) for k in ("ed", "es"))
    edit(doc)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


def _rename_class_0(doc):
    doc["classes"]["0"] = "CLS2"
    for rec in doc["records"]:
        if rec["label"] == 0:
            rec["label_name"] = "CLS2"


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

    @pytest.mark.parametrize("edit", [
        _rename_class_0,
        lambda doc: doc["classes"].update({"3": "CLS3"}),
    ], ids=["renamed", "extra"])
    def test_classes_the_model_lacks_are_a_data_error(
            self, cohort, fit_dir, tmp_path, edit, capsys):
        """The model was fitted on classes CLS0..CLS2; a manifest that
        names class 0 CLS2, or adds a class 3, contradicts it."""
        manifest = _edited_manifest(cohort, tmp_path, edit)
        code = main(["predict", "--model", str(fit_dir / "model.sslm"),
                     "--manifest", str(manifest), "--out",
                     str(tmp_path / "pred")])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"]["type"] == "UnknownLabelError"
        assert not (tmp_path / "pred").exists()

    def test_a_subset_of_the_classes_is_predicted(self, cohort, fit_dir,
                                                   tmp_path, capsys):
        def drop_class_2(doc):
            del doc["classes"]["2"]
            doc["records"] = [r for r in doc["records"] if r["label"] != 2]
        manifest = _edited_manifest(cohort, tmp_path, drop_class_2)
        code, doc = run(capsys, "predict", "--model", fit_dir / "model.sslm",
                        "--manifest", manifest, "--out", tmp_path / "pred")
        assert code == 0
        assert doc["accuracy"] == 1.0


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
    "window-float": {"layers": [{"window": [3.9, 3, 3], "channels": 4},
                                {"window": [3, 3, 3], "channels": 5}]},
    "channels-float": {"layers": [{"window": [3, 3, 4], "channels": 4},
                                  {"window": [3, 3, 3], "channels": 5.5}]},
    "channels-true": {"layers": [{"window": [3, 3, 4], "channels": 4},
                                 {"window": [3, 3, 3], "channels": True}]},
    # a ROI that fits the 12x12x6 cohort once truncated to ints
    "roi-float": {"roi_size": [10.7, 10, 6]},
    "roi-origin-float": {"roi_size": [10, 10, 6], "roi_origin": [1.5, 1, 0]},
    "centroids-true": {"centroids_per_class": True},
    "seed-false": {"seed": False},
    "repeated-key": '{"seed": 1, "seed": 2, "layers": [{"window": [3, 3, 4], '
                    '"channels": 4}]}',
    # an origin with no size to crop would be ignored
    "roi-origin-alone": {"roi_origin": [0, 0, 0]},
    "null": "null",
    "string": '"abc"',
    "window-int": {"layers": [{"window": 3, "channels": 4},
                              {"window": [3, 3, 3], "channels": 5}]},
    "layer-extra-key": {"layers": [{"window": [3, 3, 4], "channels": 4,
                                    "extra": 1},
                                   {"window": [3, 3, 3], "channels": 5}]},
}


def _poison_tensor(src, dst, owner, field, value):
    """Copy a model file with the first value of one tensor set to
    ``value`` and the CRC fixed up, so that only the value is wrong."""
    raw = bytearray(src.read_bytes())
    meta_len = _HEADER.unpack_from(raw)[3]
    meta = json.loads(raw[_HEADER.size:_HEADER.size + meta_len])
    cfg = sh.PipelineConfig.from_dict(meta["config"])
    ledger = sh.compute_ledger(cfg, meta["input_dims"])
    offset = _HEADER.size + meta_len
    for at, name, shape in _layout(meta, cfg, ledger):
        if (at, name) == (owner, field):
            break
        offset += 8 * math.prod(shape)
    struct.pack_into("<d", raw, offset, value)
    struct.pack_into("<I", raw, len(raw) - 4, zlib.crc32(raw[:-4]))
    dst.write_bytes(raw)
    return dst


class TestConfigMutants:
    def test_every_mutant_resolves_to_a_finite_config_or_a_typed_error(
            self, config_file, tmp_path):
        """300 seeded mutants of the tiny config file given as
        ``--config``, each with one key or item dropped or one value
        swapped (:func:`json_mutant`). Each one resolves to a config whose
        numbers are finite, or raises an :class:`SslhopError`; none fails
        any other way."""
        doc = json.loads(config_file.read_text())
        path = tmp_path / "config.json"
        args = build_parser().parse_args(["fit", "--manifest", "m.json",
                                          "--config", str(path),
                                          "--out", str(tmp_path / "out")])
        rng = np.random.default_rng(20261021)

        def read():
            cfg = _resolve_config(args)
            return all(math.isfinite(getattr(cfg, name)) for name in (
                "keep_ratio", "alpha", "ridge_lambda", "svm_cost",
                "bias_scale"))

        assert_mutants_read_or_refused(
            300, lambda: path.write_text(json.dumps(json_mutant(rng, doc))),
            read)


class TestErrorSurface:
    def test_corrupt_model_is_a_data_error(self, work, cohort, capsys):
        bad = work / "bad.sslm"
        bad.write_bytes(b"NOTMODEL" + b"\x00" * 64)
        code = main(["predict", "--model", str(bad), "--manifest",
                     str(cohort), "--out", str(work / "p2")])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"]["type"] == "CorruptFileError"

    @pytest.mark.parametrize("command", ["predict", "inspect"])
    @pytest.mark.parametrize("model", ["absent.sslm", ".", "model.sslm/x"],
                             ids=["absent", "directory", "under-a-file"])
    def test_model_path_that_names_no_file_is_a_data_error(
            self, cohort, fit_dir, tmp_path, command, model, capsys):
        argv = [command, "--model", fit_dir / model, "--out", tmp_path / "o"]
        if command == "predict":
            argv += ["--manifest", cohort]
        code = main([str(a) for a in argv])
        err = json.loads(capsys.readouterr().err)["error"]
        assert code == 3
        assert err["type"] == "MissingFileError"
        assert "does not exist" in err["message"]

    @pytest.mark.parametrize("owner,field,value",
                             [((0, 0, "kernel"), "ac", float("nan")),
                              (("svm",), "scale", float("inf"))],
                             ids=["nan-layer-1-ac", "inf-svm-scale"])
    def test_non_finite_model_tensor_is_a_data_error(self, cohort, fit_dir,
                                                     tmp_path, owner, field,
                                                     value, capsys):
        """A CRC-consistent model with one NaN or inf value is refused by
        ``predict`` and by ``inspect``, not run to NaN scores."""
        bad = _poison_tensor(fit_dir / "model.sslm", tmp_path / "bad.sslm",
                             owner, field, value)
        for argv in (["predict", "--model", bad, "--manifest", cohort,
                      "--out", tmp_path / "pred"],
                     ["inspect", "--model", bad, "--out", tmp_path / "insp"]):
            code = main([str(a) for a in argv])
            err = capsys.readouterr().err
            assert code == 3, argv[0]
            assert json.loads(err)["error"]["type"] == "CorruptFileError"
            assert not (tmp_path / "pred" / "predictions.csv").exists()

    def test_model_with_non_finite_scores_is_a_data_error(self, cohort,
                                                          fit_dir, tmp_path,
                                                          capsys):
        """A finite but denormal feature scale divides features to inf:
        ``predict`` refuses the scores instead of writing them."""
        bad = _poison_tensor(fit_dir / "model.sslm", tmp_path / "bad.sslm",
                             ("svm",), "scale", 5e-324)
        code = main(["predict", "--model", str(bad), "--manifest", str(cohort),
                     "--out", str(tmp_path / "pred")])
        err = capsys.readouterr().err
        assert code == 3
        assert json.loads(err)["error"]["type"] == "NonFiniteValuesError"
        assert not (tmp_path / "pred" / "predictions.csv").exists()

    def test_stderr_of_a_failed_command_is_one_json_document(self, cohort,
                                                             fit_dir,
                                                             tmp_path):
        """In a process of its own, where no test harness captures numpy's
        floating-point warnings, the overflow that the denormal scale
        causes reaches stderr only as the typed error."""
        bad = _poison_tensor(fit_dir / "model.sslm", tmp_path / "bad.sslm",
                             ("svm",), "scale", 5e-324)
        path = [str(Path(sh.__file__).parent.parent)]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run(
            [sys.executable, "-m", "sslhop.cli", "predict", "--model",
             str(bad), "--manifest", str(cohort), "--out",
             str(tmp_path / "pred")],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 3, done.stderr
        assert json.loads(done.stderr)["error"]["type"] \
            == "NonFiniteValuesError"

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

    @pytest.mark.parametrize("edit", ["swap-phases", "other-subject-es"])
    def test_field_of_another_record_is_a_data_error(self, cohort, fit_dir,
                                                     tmp_path, edit, capsys):
        copy = tmp_path / "cohort"
        shutil.copytree(cohort.parent, copy)
        doc = json.loads((copy / "manifest.json").read_text())
        first, second = doc["records"][:2]
        if edit == "swap-phases":
            first["ed"], first["es"] = first["es"], first["ed"]
        else:
            first["es"] = second["es"]
        (copy / "manifest.json").write_text(json.dumps(doc))
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
        lambda meta: meta["config"].update(layers=5),
        lambda meta: meta["stages"][0][0]["lag"].update(block_sizes=[3, 2, 1]),
        lambda meta: meta["config"]["layers"][0].update(channels=5),
        lambda meta: meta.update(class_table=["a"]),
        lambda meta: meta.update(class_table=[1, 2, 3]),
        lambda meta: meta.update(seed=meta["config"]["seed"]),
        lambda meta: meta.update(tensors=[]),
        lambda meta: meta["stages"][0][0].update(saab={"bias": 5.0}),
        lambda meta: meta["config"].update(roi_origin=[0, 0, 0]),
        lambda meta: meta["config"].update(seed=-1),
    ], ids=["no-config", "stages-int", "bad-config",
            "lag-blocks-off-config", "config-off-ledger",
            "class-table-short", "class-table-ints", "stray-seed",
            "stray-tensors", "stray-saab-bias", "roi-origin-alone",
            "seed-negative"])
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

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_a_class_without_subjects_is_a_data_error(
            self, cohort, config_file, tmp_path, command, capsys):
        """The manifest names class 2 but lists none of its subjects: a
        fit refuses it, and so does a cross-validation, before any fold
        is fitted."""
        def empty_class_2(doc):
            doc["records"] = [r for r in doc["records"] if r["label"] != 2]
        manifest = _edited_manifest(cohort, tmp_path, empty_class_2)
        argv = {"fit": ["fit"],
                "evaluate": ["evaluate", "--folds", "2", "--threads", "1"]}
        code = main([str(a) for a in argv[command]]
                    + ["--manifest", str(manifest), "--config",
                       str(config_file), "--out", str(tmp_path / "out")])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"]["type"] == "MissingClassError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("encode", [
        lambda text: text.replace('"classes": {', '"classes": {"0": "x", ',
                                  1).encode(),
        lambda text: text.encode("utf-16")],
        ids=["repeated-class-key", "utf-16"])
    def test_malformed_manifest_is_a_data_error(self, cohort, config_file,
                                                tmp_path, encode, capsys):
        doc = json.loads(cohort.read_text())
        for rec in doc["records"]:
            for phase in ("ed", "es"):
                rec[phase] = str(cohort.parent / rec[phase])
        bad = tmp_path / "manifest.json"
        bad.write_bytes(encode(json.dumps(doc)))
        code = main(["fit", "--manifest", str(bad), "--config",
                     str(config_file), "--out", str(tmp_path / "out")])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"]["type"] == "BadHeaderError"

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
        ["evaluate", "--folds", "1"],
        ["gen-synthetic", "--classes", "1"],
        ["gen-synthetic", "--per-class", "0"],
        ["gen-synthetic", "--dims", "0,4,4"],
        ["gen-synthetic", "--noise-sigma", "-1"],
        ["gen-synthetic", "--margin", "0"],
        ["gen-synthetic", "--seed", "-1"],
        ["fit", "--seed", "-1"],
        ["evaluate", "--seed", "-3"],
        ["evaluate", "--fraction", "0.5", "--seed", "-3"],
    ], ids=["fraction-0", "fraction-1.5", "threads-0", "folds-1",
            "classes-1", "per-class-0", "dims-0", "noise-negative",
            "margin-0", "seed-negative", "fit-seed-negative",
            "evaluate-seed-negative", "fraction-seed-negative"])
    def test_out_of_range_flag_is_a_usage_error(self, cohort, config_file,
                                                tmp_path, argv, capsys):
        if argv[0] != "gen-synthetic":
            # the flag under test comes last, so no default value follows it
            argv = [argv[0], "--manifest", str(cohort), "--config",
                    str(config_file)] + argv[1:]
        code = main(argv + ["--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, expected", [
        (["--dims", "12x12x6"], "three positive ints H,W,Z"),
        (["--classes", "x"], "at least 2"),
    ], ids=["dims-12x12x6", "classes-x"])
    def test_unparseable_flag_names_the_expected_value(self, tmp_path, argv,
                                                       expected, capsys):
        code = main(["gen-synthetic", *argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"expected {expected}, got {argv[1]!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_negative_config_seed_is_a_data_error(self, cohort, config_file,
                                                  tmp_path, command, capsys):
        doc = json.loads(config_file.read_text())
        doc["seed"] = -1
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps(doc))
        argv = {"fit": ["fit"],
                "evaluate": ["evaluate", "--folds", "2", "--threads", "1"]}
        code = main(argv[command] + ["--manifest", str(cohort), "--config",
                                     str(bad), "--out", str(tmp_path / "out")])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"]["type"] == "BadHeaderError"
        assert "seed" in err["error"]["message"]

    def test_more_folds_than_subjects_is_a_data_error(self, cohort,
                                                      config_file, tmp_path,
                                                      capsys):
        code = main(["evaluate", "--manifest", str(cohort), "--config",
                     str(config_file), "--folds", "19", "--threads", "1",
                     "--out", str(tmp_path / "out")])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"]["type"] == "TooFewSubjectsError"

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
