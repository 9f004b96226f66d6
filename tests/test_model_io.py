"""Binary model container: round trips, determinism, corruption handling."""

import dataclasses
import json
import struct
import zlib

import numpy as np
import pytest

import sslhop as sh
from sslhop.errors import (
    CorruptFileError,
    ShapeLedgerMismatchError,
    VersionMismatchError,
)
from sslhop.model_io import _HEADER, MAGIC


@pytest.fixture(scope="module")
def saved(tiny_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "tiny.sslm"
    sh.save_model(tiny_model, path)
    return path


class TestRoundTrip:
    def test_transform_agrees_exactly(self, saved, tiny_model, tiny_cohort,
                                      tiny_cfg):
        _, records = tiny_cohort
        loaded = sh.load_model(saved)
        r = records[0]
        s = sh.assemble_sample(r.ed, r.es, tiny_cfg, r.label, r.subject_id)
        np.testing.assert_array_equal(sh.transform(loaded, s),
                                      sh.transform(tiny_model, s))

    def test_every_stage_survives(self, saved, tiny_model):
        """Stored arrays and decisions come back as they were; the bias,
        alpha, cost and class ids rebuilt from the config equal the fit's."""
        loaded = sh.load_model(saved)
        assert loaded.config == tiny_model.config
        assert loaded.input_dims == tiny_model.input_dims
        assert loaded.ledger == tiny_model.ledger
        assert loaded.train_subject_ids == tiny_model.train_subject_ids
        for d in range(3):
            for a, b in zip(loaded.stages[d], tiny_model.stages[d]):
                np.testing.assert_array_equal(a.kernel.dc, b.kernel.dc)
                np.testing.assert_array_equal(a.kernel.ac, b.kernel.ac)
                assert a.kernel.bias == b.kernel.bias
                assert a.kernel.padded == b.kernel.padded
                assert a.kernel.degenerate == b.kernel.degenerate
                assert a.lag.alpha == b.lag.alpha
                for x, y in ((a.lag.classes, b.lag.classes),
                             (a.entropy.classes, b.entropy.classes)):
                    np.testing.assert_array_equal(x, y)
                    assert x.dtype == y.dtype
                np.testing.assert_array_equal(a.entropy.kept, b.entropy.kept)
                np.testing.assert_array_equal(a.lag.centroids, b.lag.centroids)
                np.testing.assert_array_equal(a.lag.weights, b.lag.weights)
                np.testing.assert_array_equal(a.lag.block_sizes,
                                              b.lag.block_sizes)
        np.testing.assert_array_equal(loaded.svm.weights,
                                      tiny_model.svm.weights)
        np.testing.assert_array_equal(loaded.svm.scale, tiny_model.svm.scale)
        assert loaded.svm.cost == tiny_model.svm.cost
        assert loaded.svm.class_count == tiny_model.svm.class_count

    def test_metadata_stores_each_fact_once(self, saved):
        """Format 2 keeps the config, class bookkeeping, the ledger and each
        stage's fitted decisions; no tensor index and no restated values."""
        raw = saved.read_bytes()
        _, major, _, meta_len = _HEADER.unpack_from(raw)
        meta = json.loads(raw[_HEADER.size:_HEADER.size + meta_len])
        assert major == 2
        assert set(meta) == {"config", "input_dims", "class_count",
                             "class_table", "train_subject_ids", "ledger",
                             "stages"}
        for per_dir in meta["stages"]:
            for sm in per_dir:
                assert {part: set(v) for part, v in sm.items()} == {
                    "saab": {"padded", "degenerate"},
                    "entropy": {"kept"},
                    "lag": {"block_sizes"}}

    def test_config_is_the_one_source(self, saved, tmp_path, edit_model_meta):
        """Editing the config's bias_scale, alpha or svm_cost in a saved
        file shows up in the loaded kernels, LAG stages and SVM."""
        def change(meta):
            meta["config"].update(bias_scale=0.5, alpha=3.0, svm_cost=2.0)
        loaded = sh.load_model(edit_model_meta(saved, tmp_path / "m.sslm",
                                               change))
        for per_dir in loaded.stages:
            for stage in per_dir:
                assert stage.kernel.bias == 0.5 * np.sqrt(stage.kernel.channels)
                assert stage.lag.alpha == 3.0
        assert loaded.svm.cost == 2.0

    def test_arrays_off_the_config_are_not_saved(self, tiny_model, tmp_path):
        """The file stores no shapes, so saving a kernel whose AC block is
        transposed would be misread on load; save_model refuses it."""
        stages = list(tiny_model.stages[0])
        kernel = stages[0].kernel
        stages[0] = dataclasses.replace(stages[0], kernel=dataclasses.replace(
            kernel, ac=np.ascontiguousarray(kernel.ac.T)))
        model = dataclasses.replace(
            tiny_model, stages=(tuple(stages),) + tiny_model.stages[1:])
        with pytest.raises(ShapeLedgerMismatchError, match="ac"):
            sh.save_model(model, tmp_path / "m.sslm")

    def test_volatile_fields_are_not_serialized(self, saved):
        loaded = sh.load_model(saved)
        assert loaded.training_features is None

    def test_repeat_save_is_byte_identical(self, saved, tiny_model, tmp_path):
        other = sh.save_model(tiny_model, tmp_path / "again.sslm")
        assert other.read_bytes() == saved.read_bytes()

    def test_save_load_save_is_byte_identical(self, saved, tmp_path):
        resaved = sh.save_model(sh.load_model(saved), tmp_path / "resaved.sslm")
        assert resaved.read_bytes() == saved.read_bytes()

    def test_reloaded_kernels_project_from_their_arrays(self, saved, rng,
                                                        tmp_path):
        """The cached projection is the kernel's arrays, bit for bit, and
        building it changes no saved byte."""
        loaded = sh.load_model(saved)
        for per_dir in loaded.stages:
            for stage in per_dir:
                k = stage.kernel
                rows = rng.normal(size=(30, k.dim))
                offset = k.bias - np.concatenate(([0.0], k.ac @ k.mean_ac))
                np.testing.assert_array_equal(
                    sh.apply_saab(k, rows),
                    rows @ np.vstack([k.dc, k.ac]).T + offset)
        resaved = sh.save_model(loaded, tmp_path / "projected.sslm")
        assert resaved.read_bytes() == saved.read_bytes()


class TestCorruption:
    def test_short_file(self, tmp_path):
        path = tmp_path / "m.sslm"
        path.write_bytes(b"SSL")
        with pytest.raises(CorruptFileError, match="shorter"):
            sh.load_model(path)

    def test_bad_magic(self, saved, tmp_path):
        raw = bytearray(saved.read_bytes())
        raw[:8] = b"NOTMODEL"
        path = tmp_path / "m.sslm"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFileError, match="magic"):
            sh.load_model(path)

    def test_future_major_version(self, saved, tmp_path):
        raw = bytearray(saved.read_bytes())
        _, major, minor, meta_len = _HEADER.unpack_from(bytes(raw))
        raw[:_HEADER.size] = _HEADER.pack(MAGIC, major + 1, minor, meta_len)
        # keep the container self-consistent so only the version differs
        body = bytes(raw[:-4])
        path = tmp_path / "m.sslm"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(VersionMismatchError):
            sh.load_model(path)

    def test_flipped_blob_byte(self, saved, tmp_path):
        raw = bytearray(saved.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path = tmp_path / "m.sslm"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFileError, match="CRC"):
            sh.load_model(path)

    def test_truncated_tensor(self, saved, tmp_path):
        raw = saved.read_bytes()
        body = raw[:-4 - 16]            # drop two float64 values
        path = tmp_path / "m.sslm"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CorruptFileError, match="truncated"):
            sh.load_model(path)

    def test_trailing_bytes(self, saved, tmp_path):
        raw = saved.read_bytes()
        body = raw[:-4] + b"\x00" * 16
        path = tmp_path / "m.sslm"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CorruptFileError, match="trailing"):
            sh.load_model(path)

    def test_meta_length_overrun(self, saved, tmp_path):
        raw = bytearray(saved.read_bytes())
        magic, major, minor, _ = _HEADER.unpack_from(bytes(raw))
        raw[:_HEADER.size] = _HEADER.pack(magic, major, minor, 1 << 40)
        body = bytes(raw[:-4])
        path = tmp_path / "m.sslm"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CorruptFileError, match="past end"):
            sh.load_model(path)

    def test_tampered_ledger_is_rejected(self, saved, tmp_path,
                                         edit_model_meta):
        """A consistent container whose stored ledger contradicts its config
        must fail the recomputation cross-check, as a data error."""
        def change(meta):
            meta["ledger"][0]["union_dim"] += 1
        path = edit_model_meta(saved, tmp_path / "m.sslm", change)
        with pytest.raises(CorruptFileError, match="ledger"):
            sh.load_model(path)

    def test_config_edited_under_the_ledger_is_rejected(self, saved, tmp_path,
                                                        edit_model_meta):
        def change(meta):
            meta["config"]["layers"][0]["channels"] += 1
        path = edit_model_meta(saved, tmp_path / "m.sslm", change)
        with pytest.raises(CorruptFileError, match="ledger"):
            sh.load_model(path)

    @pytest.mark.parametrize("table", [["a"], ["a", "b", "c", "d"], [1, 2, 3],
                                       ["a", None, "c"]],
                             ids=["short", "long", "ints", "null-name"])
    def test_class_table_must_name_every_class(self, saved, tmp_path,
                                               edit_model_meta, table):
        path = edit_model_meta(saved, tmp_path / "m.sslm",
                               lambda meta: meta.update(class_table=table))
        with pytest.raises(CorruptFileError, match="class_table"):
            sh.load_model(path)

    @pytest.mark.parametrize("padded", [-4, 4], ids=str)
    def test_padded_must_lie_below_the_channel_count(
            self, saved, tmp_path, edit_model_meta, padded):
        """Layer 1 of the tiny config has F = 4 channels: 0..3 padded."""
        def change(meta):
            meta["stages"][1][0]["saab"]["padded"] = padded
        path = edit_model_meta(saved, tmp_path / "m.sslm", change)
        with pytest.raises(CorruptFileError, match="pads"):
            sh.load_model(path)

    def test_stage_structure_must_match_ledger(self, saved, tmp_path,
                                               edit_model_meta, stage_edit):
        path = edit_model_meta(saved, tmp_path / "m.sslm", stage_edit)
        with pytest.raises(CorruptFileError, match="stages|keeps"):
            sh.load_model(path)

    def test_older_files_with_a_seed_still_load(self, saved, tmp_path,
                                                edit_model_meta):
        def change(meta):
            meta["seed"] = meta["config"]["seed"]
        path = edit_model_meta(saved, tmp_path / "m.sslm", change)
        assert sh.load_model(path).config == sh.load_model(saved).config
