"""Binary model container: round trips, determinism, corruption handling."""

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
                np.testing.assert_array_equal(a.entropy.kept, b.entropy.kept)
                np.testing.assert_array_equal(a.lag.centroids, b.lag.centroids)
                np.testing.assert_array_equal(a.lag.weights, b.lag.weights)
                np.testing.assert_array_equal(a.lag.block_sizes,
                                              b.lag.block_sizes)
        np.testing.assert_array_equal(loaded.svm.weights,
                                      tiny_model.svm.weights)
        np.testing.assert_array_equal(loaded.svm.scale, tiny_model.svm.scale)

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
        must fail the recomputation cross-check."""
        def change(meta):
            meta["ledger"][0]["union_dim"] += 1
        path = edit_model_meta(saved, tmp_path / "m.sslm", change)
        with pytest.raises(ShapeLedgerMismatchError):
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
