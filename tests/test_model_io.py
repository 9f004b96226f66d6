"""Binary model container: round trips, determinism, corruption handling."""

import dataclasses
import json
import struct
import zlib

import numpy as np
import pytest

import sslhop as sh
from conftest import assert_mutants_read_or_refused, json_mutant
from sslhop.errors import (
    CorruptFileError,
    ShapeLedgerMismatchError,
    VersionMismatchError,
)
from sslhop.model_io import _HEADER, MAGIC


def _assert_fields_equal(a, b):
    """Every compared dataclass field of ``a`` equals ``b``'s: arrays by
    dtype and value, scalars by type and value."""
    for f in dataclasses.fields(a):
        if not f.compare:
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert type(x) is type(y), f.name
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, f.name
            np.testing.assert_array_equal(x, y, err_msg=f.name)
        else:
            assert x == y, f.name


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
        np.testing.assert_array_equal(sh.transform_many(loaded, [s])[0],
                                      sh.transform_many(tiny_model, [s])[0])

    def test_every_stage_survives(self, saved, tiny_model):
        """Stored arrays and decisions come back as they were; the bias
        rebuilt from the config equals the fit's. Every field of each
        stage and of the SVM is compared, so a field added to one of them
        must be stored or rebuilt here."""
        loaded = sh.load_model(saved)
        assert loaded.config == tiny_model.config
        assert loaded.input_dims == tiny_model.input_dims
        assert loaded.class_count == tiny_model.class_count
        assert loaded.class_table == tiny_model.class_table
        assert loaded.ledger == tiny_model.ledger
        assert loaded.train_subject_ids == tiny_model.train_subject_ids
        for d in range(3):
            for a, b in zip(loaded.stages[d], tiny_model.stages[d]):
                for part in ("kernel", "entropy", "lag"):
                    _assert_fields_equal(getattr(a, part), getattr(b, part))
        _assert_fields_equal(loaded.svm, tiny_model.svm)

    def test_metadata_stores_each_fact_once(self, saved, tiny_model):
        """Format 7 keeps the config, class bookkeeping and each LAG
        stage's centroid blocks; no tensor index, no shape ledger and no
        restated values. The loaded model's ledger is the dry run of its
        config. Its payload holds the arrays that prediction and
        ``inspect`` read, and no DC anchor, no per-class entropy table and
        no LAG centroids."""
        raw = saved.read_bytes()
        _, major, _, meta_len = _HEADER.unpack_from(raw)
        meta = json.loads(raw[_HEADER.size:_HEADER.size + meta_len])
        assert major == 7
        loaded = sh.load_model(saved)
        assert loaded.ledger == sh.compute_ledger(loaded.config,
                                                  loaded.input_dims)
        arrays = [a for per_dir in tiny_model.stages for st in per_dir
                  for a in (st.kernel.ac, st.kernel.mean_ac,
                            st.kernel.energy, st.entropy.per_channel,
                            st.lag.weights)]
        svm = tiny_model.svm
        arrays += [svm.weights, svm.intercepts, svm.mean, svm.scale]
        assert len(raw) == (_HEADER.size + meta_len
                            + 8 * sum(a.size for a in arrays) + 4)
        assert set(meta) == {"config", "input_dims", "class_count",
                             "class_table", "train_subject_ids", "stages"}
        for per_dir in meta["stages"]:
            for sm in per_dir:
                assert {part: set(v) for part, v in sm.items()} == {
                    "lag": {"block_sizes"}}

    def test_derived_stage_facts_equal_the_fitted_ones(self, saved,
                                                        tiny_model):
        """The DC anchor, the padding count and the kept channels are
        derived on load, and equal the fitted ones exactly."""
        loaded = sh.load_model(saved)
        for d in range(3):
            for a, b in zip(loaded.stages[d], tiny_model.stages[d]):
                np.testing.assert_array_equal(a.kernel.dc, b.kernel.dc)
                assert a.kernel.padded == b.kernel.padded
                assert a.entropy.kept.dtype == b.entropy.kept.dtype
                np.testing.assert_array_equal(a.entropy.kept, b.entropy.kept)

    def test_padding_is_read_off_the_zero_ac_rows(self, tiny_model,
                                                  tmp_path):
        """A kernel fitted on unions of lower rank than its channel count
        keeps zero AC rows at the end; the loaded model counts them as its
        padding."""
        stages = list(tiny_model.stages[0])
        kernel = stages[1].kernel
        ac, energy = kernel.ac.copy(), kernel.energy.copy()
        ac[-2:], energy[-2:] = 0.0, 0.0
        stages[1] = dataclasses.replace(stages[1], kernel=dataclasses.replace(
            kernel, ac=ac, energy=energy))
        model = dataclasses.replace(
            tiny_model, stages=(tuple(stages),) + tiny_model.stages[1:])
        loaded = sh.load_model(sh.save_model(model, tmp_path / "m.sslm"))
        assert kernel.padded == 0
        assert loaded.stages[0][1].kernel.padded == 2

    def test_config_is_the_one_source(self, saved, tmp_path, edit_model_meta):
        """Editing the config's bias_scale in a saved file shows up in the
        loaded kernels."""
        def change(meta):
            meta["config"].update(bias_scale=0.5)
        loaded = sh.load_model(edit_model_meta(saved, tmp_path / "m.sslm",
                                               change))
        for per_dir in loaded.stages:
            for stage in per_dir:
                assert stage.kernel.bias == 0.5 * np.sqrt(stage.kernel.channels)

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

    def test_parameter_count_survives_the_round_trip(self, saved, tiny_model):
        """A loaded model has no centroid arrays; its count still includes
        the training-time centroids, from the weight shapes."""
        assert (sh.count_parameters(sh.load_model(saved))
                == sh.count_parameters(tiny_model))

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

    def test_format_2_is_refused(self, saved, tmp_path, edit_model_meta):
        """Formats 2 (which also stored ``saab.degenerate``), 3 (which also
        stored ``per_class`` entropy tensors) and 4 (which also stored
        ``saab.padded``, ``entropy.kept`` and ``dc`` tensors), 5 (which
        also stored LAG ``centroids`` tensors) and 6 (which also stored
        the shape ``ledger``) are refused on their version alone, with a
        valid CRC; there is no second read path."""
        def to_format_2(meta):
            for per_dir in meta["stages"]:
                for sm in per_dir:
                    sm["saab"] = {"degenerate": False, "padded": 0}
                    sm["entropy"] = {"kept": [0, 1]}

        def to_format_4(meta):
            for per_dir in meta["stages"]:
                for sm in per_dir:
                    sm["saab"] = {"padded": 0}
                    sm["entropy"] = {"kept": [0, 1]}

        def to_format_6(meta):
            cfg = sh.PipelineConfig.from_dict(meta["config"])
            meta["ledger"] = [dataclasses.asdict(e) for e in
                              sh.compute_ledger(cfg, meta["input_dims"])]
        for major, source in (
                (2, edit_model_meta(saved, tmp_path / "v2.sslm", to_format_2)),
                (3, saved),
                (4, edit_model_meta(saved, tmp_path / "v4.sslm", to_format_4)),
                (5, saved),
                (6, edit_model_meta(saved, tmp_path / "v6.sslm", to_format_6))):
            raw = bytearray(source.read_bytes())
            _, _, minor, meta_len = _HEADER.unpack_from(bytes(raw))
            raw[:_HEADER.size] = _HEADER.pack(MAGIC, major, minor, meta_len)
            body = bytes(raw[:-4])
            path = tmp_path / "m.sslm"
            path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
            with pytest.raises(VersionMismatchError, match=f"major {major}"):
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

    def test_config_edited_under_the_ledger_is_rejected(self, saved, tmp_path,
                                                        edit_model_meta):
        """One more layer-1 channel widens the tensors of the layout the
        config derives, so the payload no longer holds them."""
        def change(meta):
            meta["config"]["layers"][0]["channels"] += 1
        path = edit_model_meta(saved, tmp_path / "m.sslm", change)
        with pytest.raises(CorruptFileError, match="truncated at tensor"):
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

    def test_stage_structure_must_match_ledger(self, saved, tmp_path,
                                               edit_model_meta, stage_edit):
        path = edit_model_meta(saved, tmp_path / "m.sslm", stage_edit)
        with pytest.raises(CorruptFileError, match="stages"):
            sh.load_model(path)

    @pytest.mark.parametrize("edit, key", [
        (lambda meta: meta.update(seed=meta["config"]["seed"]), "seed"),
        (lambda meta: meta.update(tensors=[]), "tensors"),
        (lambda meta: meta["stages"][0][0].update(saab={"bias": 5.0}),
         "saab"),
        (lambda meta: meta["stages"][0][0].update(entropy={"kept": [0, 1]}),
         "entropy"),
        (lambda meta: meta.update(ledger=[]), "ledger"),
    ], ids=["seed", "tensors", "saab-bias", "entropy-kept", "ledger"])
    def test_unknown_metadata_keys_are_refused(self, saved, tmp_path,
                                               edit_model_meta, edit, key):
        path = edit_model_meta(saved, tmp_path / "m.sslm", edit)
        with pytest.raises(CorruptFileError, match=f"{key} is not a known key"):
            sh.load_model(path)


# Values a tensor slot of a mutant takes: finite, so the loader's NaN/inf
# check passes them, but large enough, or denormal enough, to overflow
# the transform or the SVM's scaling.
_EXTREMES = (1e300, -1e300, 1e308, -1e308, 5e-324)


@pytest.fixture()
def classify(tiny_cohort, tiny_cfg):
    """Whether the model file at a path classifies the tiny cohort to
    finite scores."""
    _, records = tiny_cohort
    samples = [sh.assemble_sample(r.ed, r.es, tiny_cfg, r.label,
                                  r.subject_id) for r in records]

    def finite(path) -> bool:
        with np.errstate(all="ignore"):
            _, scores = sh.predict_samples(sh.load_model(path), samples)
        return np.isfinite(scores).all()
    return finite


class TestTensorMutants:
    def test_every_mutant_gives_finite_scores_or_a_typed_error(
            self, saved, classify, tmp_path):
        """300 seeded mutants of the tiny model, each with 1-4 random
        tensor slots set to an extreme finite value and the CRC fixed up.
        Each one loads and classifies the tiny cohort to finite scores, or
        raises an :class:`SslhopError`; none runs to non-finite scores or
        fails any other way."""
        raw = saved.read_bytes()
        start = _HEADER.size + _HEADER.unpack_from(raw)[3]
        slots = (len(raw) - 4 - start) // 8
        rng = np.random.default_rng(20261018)
        path = tmp_path / "mutant.sslm"

        def write():
            mutant = bytearray(raw)
            for slot in rng.choice(slots, size=rng.integers(1, 5),
                                   replace=False):
                struct.pack_into("<d", mutant, start + 8 * int(slot),
                                 _EXTREMES[rng.integers(len(_EXTREMES))])
            struct.pack_into("<I", mutant, len(mutant) - 4,
                             zlib.crc32(mutant[:-4]))
            path.write_bytes(mutant)

        assert_mutants_read_or_refused(300, write, lambda: classify(path))


def _byte_mutant(rng, raw: bytes) -> bytes | None:
    """One seeded byte-level mutant of the model file ``raw``, with its CRC
    fixed up so that the mutation itself reaches the loader: 1-3 bytes
    flipped, the file cut short or extended by random bytes; or None, for
    an edit of its metadata JSON instead."""
    body = raw[:-4]
    kind = rng.integers(4)
    if kind == 3:
        return None
    if kind == 0:
        body = bytearray(body)
        for at in rng.choice(len(body), size=rng.integers(1, 4),
                             replace=False):
            body[at] ^= int(rng.integers(1, 256))
    elif kind == 1:
        body = body[:rng.integers(len(body))]
    else:
        body += rng.bytes(int(rng.integers(1, 64)))
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


class TestByteMutants:
    def test_every_mutant_gives_finite_scores_or_a_typed_error(
            self, saved, classify, tmp_path, edit_model_meta):
        """300 seeded mutants of the tiny model, their CRC fixed up: byte
        flips, truncations and extensions anywhere in the file, and
        single edits of its metadata JSON (:func:`json_mutant`). Each one
        loads and classifies the tiny cohort to finite scores, or raises
        an :class:`SslhopError`; none fails any other way."""
        raw = saved.read_bytes()
        rng = np.random.default_rng(20261022)
        path = tmp_path / "mutant.sslm"

        def edit(meta):
            mutant = json_mutant(rng, meta)
            meta.clear()
            meta.update(mutant)

        def write():
            mutant = _byte_mutant(rng, raw)
            if mutant is None:
                edit_model_meta(saved, path, edit)
            else:
                path.write_bytes(mutant)

        assert_mutants_read_or_refused(300, write, lambda: classify(path))
