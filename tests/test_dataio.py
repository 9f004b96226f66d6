"""Field files, manifests, and the synthetic cohort generator."""

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

import sslhop as sh
from conftest import BAD_SEEDS, assert_mutants_read_or_refused, json_mutant
from sslhop import dataio
from sslhop.errors import (
    BadHeaderError,
    ChecksumMismatchError,
    DuplicateSubjectError,
    MissingFileError,
    NonFiniteValuesError,
    ShapeMismatchError,
    UnknownLabelError,
)


def _sample_field(rng, dims=(4, 5, 6)):
    return rng.normal(size=(3,) + dims).astype(np.float32)


class TestFieldFiles:
    def test_round_trip_is_exact(self, rng, tmp_path):
        field = _sample_field(rng)
        path = sh.write_field(field, tmp_path / "a.fld", "ED", "subj1")
        back = sh.read_field(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, field)

    def test_float64_input_is_stored_as_f32(self, rng, tmp_path):
        field = rng.normal(size=(3, 2, 2, 2))
        path = sh.write_field(field, tmp_path / "a.fld", "ES", "s")
        np.testing.assert_array_equal(sh.read_field(path),
                                      field.astype(np.float32))

    def test_header_contents(self, rng, tmp_path):
        path = sh.write_field(_sample_field(rng), tmp_path / "a.fld", "ED", "p3")
        header = dataio._read_field(path)[0]
        assert header["dims"] == [3, 4, 5, 6]
        assert header["phase"] == "ED"
        assert header["subject_id"] == "p3"
        assert header["dtype"] == "f32" and header["endian"] == "little"

    def test_write_guards(self, rng, tmp_path):
        with pytest.raises(ShapeMismatchError):
            sh.write_field(np.zeros((2, 2, 2, 2)), tmp_path / "x.fld", "ED", "s")
        with pytest.raises(BadHeaderError):
            sh.write_field(_sample_field(rng), tmp_path / "x.fld", "MID", "s")
        bad = _sample_field(rng)
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(NonFiniteValuesError):
            sh.write_field(bad, tmp_path / "x.fld", "ED", "s")

    def test_empty_axis_is_not_written(self, tmp_path):
        """A field with an empty axis was written, and its file refused on
        read for its dims."""
        path = tmp_path / "x.fld"
        with pytest.raises(ShapeMismatchError, match="empty axis"):
            sh.write_field(np.zeros((3, 0, 4, 4)), path, "ED", "s")
        assert not path.exists()

    def test_value_past_float32_is_not_written(self, rng, tmp_path):
        """A finite float64 value of 1e39 is inf as float32: it was written
        with only numpy's overflow warning, and its file refused on read."""
        bad = _sample_field(rng).astype(np.float64)
        bad[1, 2, 3, 4] = 1e39
        path = tmp_path / "x.fld"
        with np.errstate(over="raise"), \
                pytest.raises(NonFiniteValuesError):
            sh.write_field(bad, path, "ED", "s")
        assert not path.exists()

    @pytest.mark.parametrize("kind", [str, Path], ids=["str", "Path"])
    @pytest.mark.parametrize("name", ["absent.fld", ".", "a.fld/x.fld"],
                             ids=["absent", "directory", "under-a-file"])
    def test_path_that_names_no_file(self, rng, tmp_path, name, kind):
        sh.write_field(_sample_field(rng), tmp_path / "a.fld", "ED", "s")
        with pytest.raises(MissingFileError, match="does not exist"):
            sh.read_field(kind(tmp_path / name))

    @pytest.mark.parametrize("kind", [str, Path], ids=["str", "Path"])
    @pytest.mark.parametrize("dims", [(4, 5, 6), (1, 1, 1), (3, 1, 7)])
    def test_read_array_is_writable_aligned_and_contiguous(self, rng,
                                                           tmp_path, dims,
                                                           kind):
        """The array owns a buffer the caller may write, aligned for
        float32 whatever the header's length, in C order."""
        field = _sample_field(rng, dims)
        for subject_id in ("s", "s1", "s12", "s123"):  # header lengths mod 4
            path = sh.write_field(field, tmp_path / "a.fld", "ED", subject_id)
            back = sh.read_field(kind(path))
            assert back.dtype == np.float32 and back.shape == (3,) + dims
            assert back.flags.writeable and back.flags.aligned
            assert back.flags.c_contiguous
            np.testing.assert_array_equal(back, field)
            back += 1.0
            np.testing.assert_array_equal(sh.read_field(path), field)

    def test_truncated_payload(self, rng, tmp_path):
        path = sh.write_field(_sample_field(rng), tmp_path / "a.fld", "ED", "s")
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])      # drop half the CRC plus payload tail
        with pytest.raises(ShapeMismatchError):
            sh.read_field(path)

    def test_file_that_shrinks_while_read(self, rng, tmp_path, monkeypatch):
        """The payload is read after the file's size is checked: a file
        whose size no longer holds it when read is refused."""
        path = sh.write_field(_sample_field(rng), tmp_path / "a.fld", "ED", "s")
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        stat = dataio.os.fstat
        monkeypatch.setattr(dataio.os, "fstat", lambda fd: os.stat_result(
            stat(fd)[:6] + (size,) + stat(fd)[7:]))
        with pytest.raises(ShapeMismatchError, match="changed size"):
            sh.read_field(path)

    def test_flipped_bit_fails_checksum(self, rng, tmp_path):
        path = sh.write_field(_sample_field(rng), tmp_path / "a.fld", "ED", "s")
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x20      # corrupt one payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumMismatchError):
            sh.read_field(path)

    def test_nan_payload_is_located(self, tmp_path):
        # write_field refuses NaN, so craft the file by hand with a good CRC
        dims = [3, 2, 2, 2]
        header = json.dumps({"dims": dims, "dtype": "f32", "endian": "little",
                             "phase": "ED", "subject_id": "s"},
                            sort_keys=True).encode() + b"\n"
        arr = np.zeros(dims, dtype="<f4")
        arr[1, 0, 1, 0] = np.nan
        payload = arr.tobytes()
        path = tmp_path / "nan.fld"
        path.write_bytes(header + payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(NonFiniteValuesError, match=r"\(1, 0, 1, 0\)"):
            sh.read_field(path)

    @pytest.mark.parametrize("tweaks", [
        "garbage",                   # not JSON at all
        {"dims": None},              # key removed
        {"dims": [3, 2, 2]},         # wrong rank
        {"dims": [2, 2, 2, 2]},      # wrong direction count
        {"dtype": "f64"},            # unsupported dtype
        {"endian": "big"},           # unsupported endian
        {"phase": "XX"},             # unknown phase
        {"dims": 5},                 # not a list
        {"dims": [3, "a", 2, 2]},    # non-integer entry
        {"dims": [3, True, 2, 2]},   # bool passes isinstance(v, int)
        b'"dims dtype endian phase subject_id"',  # JSON, not an object
        b"5",
    ])
    def test_bad_headers(self, rng, tmp_path, tweaks):
        path = sh.write_field(_sample_field(rng, (2, 2, 2)),
                              tmp_path / "a.fld", "ED", "s")
        raw = path.read_bytes()
        nl = raw.index(b"\n")
        if tweaks == "garbage":
            new_header = b"{broken"
        elif isinstance(tweaks, bytes):
            new_header = tweaks
        else:
            header = json.loads(raw[:nl])
            for key, value in tweaks.items():
                if value is None:
                    del header[key]
                else:
                    header[key] = value
            new_header = json.dumps(header).encode()
        path.write_bytes(new_header + raw[nl:])
        with pytest.raises(BadHeaderError):
            sh.read_field(path)

    def test_header_without_newline(self, tmp_path):
        path = tmp_path / "a.fld"
        path.write_bytes(b"{}")
        with pytest.raises(BadHeaderError):
            sh.read_field(path)


def _field_mutant(rng, raw: bytes) -> bytes:
    """One seeded mutant of the field file ``raw``: a byte flip with the
    CRC of the payload recomputed, a truncation or extension, an edit of
    the JSON header, or payload values set to NaN, an infinity, a float32
    extreme or a denormal, with the CRC recomputed."""
    nl = raw.index(b"\n") + 1
    kind = rng.integers(5)
    if kind == 4:
        mutant = bytearray(raw)
        for at in rng.choice((len(raw) - 4 - nl) // 4, size=rng.integers(1, 4),
                             replace=False):
            struct.pack_into("<f", mutant, nl + 4 * int(at), [
                float("nan"), float("inf"), -float("inf"), 3.4e38, -3.4e38,
                1e-45][rng.integers(6)])
        struct.pack_into("<I", mutant, len(mutant) - 4,
                         zlib.crc32(mutant[nl:-4]))
        return bytes(mutant)
    if kind == 0:                          # flips; the trailer fits the payload
        mutant = bytearray(raw)
        for at in rng.choice(len(raw) - 4, size=rng.integers(1, 4),
                             replace=False):
            mutant[at] ^= int(rng.integers(1, 256))
        struct.pack_into("<I", mutant, len(mutant) - 4,
                         zlib.crc32(mutant[nl:-4]))
        return bytes(mutant)
    if kind == 1:
        return raw[:rng.integers(len(raw))]
    if kind == 2:
        return raw + rng.bytes(int(rng.integers(1, 64)))
    header = json.loads(raw[:nl])
    key = sorted(header)[rng.integers(len(header))]
    edit = rng.integers(4)
    if edit == 0:
        del header[key]
    elif edit == 1:                        # a value of another JSON type
        header[key] = [None, True, 1.5, "4", [3], {"a": 1}, 7][
            rng.integers(7)]
    else:                      # one dim a bool, NaN, negative or huge int
        dims = header["dims"]
        dims[rng.integers(len(dims))] = [
            True, False, float("nan"), 2 ** 31, 2 ** 62 + dims[-1],
            2 ** 63 + 1, 10 ** 30, -1][rng.integers(8)]
    return json.dumps(header).encode() + b"\n" + raw[nl:]


class TestFieldMutants:
    def test_every_mutant_loads_a_valid_field_or_raises_a_typed_error(
            self, tmp_path):
        """400 seeded mutants of one field file. Each one either reads back
        to a field that passes ``validate_field`` or raises an
        :class:`SslhopError` (exit 3); none fails any other way."""
        rng = np.random.default_rng(20261019)
        raw = sh.write_field(_sample_field(rng), tmp_path / "a.fld", "ED",
                             "s").read_bytes()
        path = tmp_path / "mutant.fld"
        assert_mutants_read_or_refused(
            400, lambda: path.write_bytes(_field_mutant(rng, raw)),
            lambda: np.isfinite(sh.validate_field(sh.read_field(path))).all())


class TestManifestMutants:
    def test_every_mutant_loads_its_subjects_or_raises_a_typed_error(
            self, tiny_cohort, tmp_path):
        """300 seeded mutants of the tiny cohort's manifest, its field paths
        made absolute, each with one key or item dropped or one value
        swapped (:func:`json_mutant`). Each one loads, with its subjects'
        fields, to finite arrays, or raises an :class:`SslhopError`; none
        fails any other way."""
        manifest, _ = tiny_cohort
        doc = {"classes": {str(k): v for k, v in manifest.classes.items()},
               "records": [{"subject_id": r.subject_id, "ed": str(r.ed_path),
                            "es": str(r.es_path), "label": r.label,
                            "label_name": r.label_name}
                           for r in manifest.records]}
        rng = np.random.default_rng(20261020)
        path = tmp_path / "manifest.json"
        assert_mutants_read_or_refused(
            300, lambda: path.write_text(json.dumps(json_mutant(rng, doc))),
            lambda: all(np.isfinite(r.ed).all() and np.isfinite(r.es).all()
                        for r in sh.load_subjects(sh.load_manifest(path))))


class TestManifests:
    def test_save_load_round_trip(self, tmp_path, rng):
        man = sh.gen_synthetic(sh.SyntheticSpec(classes=2, per_class=2,
                                                dims=(4, 4, 4), seed=1),
                               tmp_path)
        back = sh.load_manifest(tmp_path / "manifest.json")
        assert back.classes == man.classes
        assert [r.subject_id for r in back.records] == \
            [r.subject_id for r in man.records]

    def test_paths_are_relative_to_manifest(self, tmp_path):
        sh.gen_synthetic(sh.SyntheticSpec(classes=2, per_class=1,
                                          dims=(4, 4, 4), seed=1),
                         tmp_path / "cohort")
        doc = json.loads((tmp_path / "cohort" / "manifest.json").read_text())
        for rec in doc["records"]:
            assert not Path(rec["ed"]).is_absolute()

    def _write_doc(self, tmp_path, doc):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        return path

    def _valid_doc(self, tmp_path, rng):
        for sid in ("a", "b"):
            for ph, tag in (("ED", "ed"), ("ES", "es")):
                sh.write_field(_sample_field(rng, (2, 2, 2)),
                               tmp_path / f"{sid}_{tag}.fld", ph, sid)
        return {
            "classes": {"0": "NOR", "1": "DCM"},
            "records": [
                {"subject_id": "a", "ed": "a_ed.fld", "es": "a_es.fld",
                 "label": 0, "label_name": "NOR"},
                {"subject_id": "b", "ed": "b_ed.fld", "es": "b_es.fld",
                 "label": 1, "label_name": "DCM"},
            ],
        }

    def test_duplicate_subject(self, tmp_path, rng):
        doc = self._valid_doc(tmp_path, rng)
        doc["records"][1]["subject_id"] = "a"
        with pytest.raises(DuplicateSubjectError):
            sh.load_manifest(self._write_doc(tmp_path, doc))

    def test_label_outside_table(self, tmp_path, rng):
        doc = self._valid_doc(tmp_path, rng)
        doc["records"][1]["label"] = 7
        with pytest.raises(UnknownLabelError):
            sh.load_manifest(self._write_doc(tmp_path, doc))

    def test_label_name_mismatch(self, tmp_path, rng):
        doc = self._valid_doc(tmp_path, rng)
        doc["records"][0]["label_name"] = "HCM"
        with pytest.raises(UnknownLabelError):
            sh.load_manifest(self._write_doc(tmp_path, doc))

    def test_non_contiguous_class_ids(self, tmp_path, rng):
        doc = self._valid_doc(tmp_path, rng)
        doc["classes"] = {"0": "NOR", "2": "DCM"}
        doc["records"][1]["label"] = 2
        with pytest.raises(UnknownLabelError):
            sh.load_manifest(self._write_doc(tmp_path, doc))

    def test_missing_field_file(self, tmp_path, rng):
        doc = self._valid_doc(tmp_path, rng)
        (tmp_path / "b_es.fld").unlink()
        with pytest.raises(MissingFileError):
            sh.load_manifest(self._write_doc(tmp_path, doc))

    @pytest.mark.parametrize("key,value", [
        ("label", 1.7), ("label", True), ("label", "1"), ("label", 1.0),
        ("subject_id", 12)])
    def test_label_and_id_types(self, tmp_path, rng, key, value):
        """A record's label must be an int and its id a string; neither is
        coerced from another JSON type."""
        doc = self._valid_doc(tmp_path, rng)
        doc["records"][1][key] = value
        with pytest.raises(BadHeaderError):
            sh.load_manifest(self._write_doc(tmp_path, doc))

    @pytest.mark.parametrize("classes", [
        {"00": "NOR", "01": "DCM"},
        {"0": "NOR", "00": "HCM", "1": "DCM"},
        {"0": "NOR", "+1": "DCM"},
        {"0": "NOR", " 1": "DCM"},
        {"0": "NOR", "1.0": "DCM"},
        {"0": "NOR", "\u0661": "DCM"},
    ], ids=["leading-zeros", "zero-twice", "plus", "space", "decimal-point",
            "arabic-indic-digit"])
    def test_class_ids_are_canonical_decimal_strings(self, tmp_path, rng,
                                                     classes):
        """No two spellings of a class id load as one class."""
        doc = self._valid_doc(tmp_path, rng)
        doc["classes"] = classes
        with pytest.raises(BadHeaderError, match="is not a canonical"):
            sh.load_manifest(self._write_doc(tmp_path, doc))

    @pytest.mark.parametrize("where", ["class", "label_name"])
    def test_class_names_are_strings(self, tmp_path, rng, where):
        """A name of 0 neither names a class nor matches a class named
        "0"."""
        doc = self._valid_doc(tmp_path, rng)
        doc["classes"]["0"] = 0 if where == "class" else "0"
        doc["records"][0]["label_name"] = 0 if where == "label_name" else "0"
        with pytest.raises(BadHeaderError, match="not a string"):
            sh.load_manifest(self._write_doc(tmp_path, doc))

    def test_classes_must_be_an_object(self, tmp_path, rng):
        doc = self._valid_doc(tmp_path, rng)
        doc["classes"] = ["NOR", "DCM"]
        with pytest.raises(BadHeaderError, match="malformed"):
            sh.load_manifest(self._write_doc(tmp_path, doc))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFileError):
            sh.load_manifest(tmp_path / "nope.json")
        with pytest.raises(MissingFileError, match="does not exist"):
            sh.load_manifest(tmp_path)

    def test_malformed_manifest_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{]")
        with pytest.raises(BadHeaderError):
            sh.load_manifest(path)

    @pytest.mark.parametrize("where", ["classes", "record"])
    def test_repeated_keys_are_refused(self, tmp_path, rng, where):
        """JSON keeps the last of repeated keys; a manifest must not
        repeat one, so no entry is dropped without a word."""
        text = json.dumps(self._valid_doc(tmp_path, rng))
        if where == "classes":
            text = text.replace('"classes": {', '"classes": {"0": "HCM", ', 1)
        else:
            text = text.replace('{"subject_id": "a"',
                                '{"subject_id": "c", "subject_id": "a"', 1)
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(BadHeaderError, match="repeats the key"):
            sh.load_manifest(path)

    def test_manifest_that_is_not_utf8_is_refused(self, tmp_path, rng):
        path = tmp_path / "manifest.json"
        path.write_bytes(json.dumps(self._valid_doc(tmp_path, rng))
                         .encode("utf-16"))
        assert path.read_bytes()[:2] == b"\xff\xfe"
        with pytest.raises(BadHeaderError, match="undecodable"):
            sh.load_manifest(path)


class TestSynthetic:
    def test_file_inventory(self, tmp_path):
        spec = sh.SyntheticSpec(classes=3, per_class=2, dims=(4, 4, 4), seed=5)
        man = sh.gen_synthetic(spec, tmp_path)
        assert len(man.records) == 6
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files.count("manifest.json") == 1
        assert sum(n.endswith(".fld") for n in files) == 12

    def test_regeneration_is_byte_identical(self, tmp_path):
        spec = sh.SyntheticSpec(classes=2, per_class=3, dims=(6, 6, 4), seed=9)
        sh.gen_synthetic(spec, tmp_path / "one")
        sh.gen_synthetic(spec, tmp_path / "two")
        for p in sorted((tmp_path / "one").iterdir()):
            assert p.read_bytes() == (tmp_path / "two" / p.name).read_bytes()

    def test_noise_free_fields_equal_scaled_templates(self, tmp_path):
        spec = sh.SyntheticSpec(classes=2, per_class=2, dims=(5, 5, 4),
                                noise_sigma=0.0, seed=2)
        man = sh.gen_synthetic(spec, tmp_path)
        recs = sh.load_subjects(man)
        for r in recs:
            t = sh.template_field(spec, r.label)
            # the ES contrast runs from 0.35 (class 0) to 0.9 (the last)
            contrast = 0.35 + 0.55 * r.label / (spec.classes - 1)
            np.testing.assert_array_equal(r.ed, t.astype(np.float32))
            np.testing.assert_array_equal(
                r.es, (contrast * t).astype(np.float32))

    def test_template_geometry(self):
        spec = sh.SyntheticSpec(classes=4, per_class=1, dims=(9, 9, 5),
                                margin=0.5)
        base = sh.template_field(spec, 0)   # amplitude 1, axis 0 doubled
        assert base.shape == (3, 9, 9, 5)
        # in-plane displacement vanishes at the exact center voxel
        assert base[0, 4, 4, 2] == 0.0 and base[1, 4, 4, 2] == 0.0
        # class 1: amplitude 1 + margin, axis 1 doubled instead of axis 0
        np.testing.assert_allclose(
            sh.template_field(spec, 1),
            [1.5 / 2.0 * base[0], 1.5 * 2.0 * base[1], 1.5 * base[2]],
            atol=1e-12)
        # class 3: amplitude 1 + 3 margin, and axis 0 doubled again
        np.testing.assert_allclose(sh.template_field(spec, 3), 2.5 * base,
                                   atol=1e-12)

    def test_class_names_follow_count(self):
        assert sh.SyntheticSpec().class_names() == {
            0: "NOR", 1: "MINF", 2: "DCM", 3: "HCM", 4: "RV"}
        assert sh.SyntheticSpec(classes=3, per_class=1).class_names() == {
            0: "CLS0", 1: "CLS1", 2: "CLS2"}

    @pytest.mark.parametrize("kwargs", [
        {"classes": 1},
        {"per_class": 0},
        {"noise_sigma": -0.1},
        {"margin": 0.0},
        {"dims": (0, 4, 4)},
        {"dims": (4, -1, 4)},
        {"dims": (4, 4)},
        {"dims": (4.7, 4, 4)},
        {"dims": (4, 4, True)},
        {"classes": 2.0},
        {"classes": True},
        {"per_class": 1.5},
        {"seed": 1.5},
        {"seed": "1"},
        {"noise_sigma": float("nan")},
        {"noise_sigma": float("inf")},
        {"noise_sigma": True},
        {"noise_sigma": "0.2"},
        {"margin": float("nan")},
        {"margin": "0.5"},
        {"dims": 5},
    ])
    def test_spec_validation(self, kwargs):
        base = {"classes": 2, "per_class": 1, "dims": (4, 4, 4)}
        base.update(kwargs)
        with pytest.raises(ValueError):
            sh.SyntheticSpec(**base)

    def test_subset_keeps_per_class_floors(self, tmp_path):
        spec = sh.SyntheticSpec(classes=3, per_class=4, dims=(4, 4, 4), seed=3)
        man = sh.gen_synthetic(spec, tmp_path)
        sub = sh.subset_manifest(man, 0.5, seed=0)
        labels = sub.labels()
        assert [int((labels == c).sum()) for c in range(3)] == [2, 2, 2]
        assert sub.classes == man.classes
        kept = {r.subject_id for r in sub.records}
        assert kept <= {r.subject_id for r in man.records}

    def test_subset_floor_never_empties_a_class(self, tmp_path):
        spec = sh.SyntheticSpec(classes=2, per_class=3, dims=(4, 4, 4), seed=3)
        man = sh.gen_synthetic(spec, tmp_path)
        sub = sh.subset_manifest(man, 0.1, seed=0)
        labels = sub.labels()
        assert [int((labels == c).sum()) for c in range(2)] == [1, 1]

    def test_spec_seed_is_a_non_negative_integer(self):
        for seed in BAD_SEEDS:
            with pytest.raises(ValueError, match="seed"):
                sh.SyntheticSpec(seed=seed)

    def test_seeds_past_32_bits_draw_their_own_noise(self, tmp_path):
        """SeedSequence pads a list of fewer than four 32-bit words with
        zeros, and seed 2**32 spans two words, so subject (label 3, i 0) at
        seed 2**32 and (label 1, i 3) at seed 0 would both draw from
        [0, 1, 3, 0]; each must draw its own noise."""
        noise = {}
        for seed in (0, 2**32):
            spec = sh.SyntheticSpec(classes=4, per_class=4, dims=(4, 4, 2),
                                    seed=seed)
            for r in sh.load_subjects(sh.gen_synthetic(spec,
                                                       tmp_path / str(seed))):
                noise[seed, r.subject_id] = \
                    r.ed - sh.template_field(spec, r.label)
        assert np.abs(noise[2**32, "cls3000"] - noise[0, "cls1003"]).max() \
            > 0.01

    def test_subset_seed_is_a_non_negative_integer(self, tmp_path):
        manifest = sh.gen_synthetic(
            sh.SyntheticSpec(classes=2, per_class=4, dims=(4, 4, 2)), tmp_path)
        for seed in BAD_SEEDS:
            with pytest.raises(ValueError, match="seed"):
                sh.subset_manifest(manifest, 0.5, seed)

    def test_subset_is_seeded(self, tmp_path):
        spec = sh.SyntheticSpec(classes=2, per_class=6, dims=(4, 4, 4), seed=3)
        man = sh.gen_synthetic(spec, tmp_path)
        a = sh.subset_manifest(man, 0.5, seed=1)
        b = sh.subset_manifest(man, 0.5, seed=1)
        c = sh.subset_manifest(man, 0.5, seed=2)
        assert [r.subject_id for r in a.records] == \
            [r.subject_id for r in b.records]
        assert {r.subject_id for r in a.records} != \
            {r.subject_id for r in c.records}


class TestLoadSubjects:
    def test_shapes_and_labels(self, tmp_path):
        spec = sh.SyntheticSpec(classes=2, per_class=2, dims=(5, 6, 4), seed=8)
        man = sh.gen_synthetic(spec, tmp_path)
        recs = sh.load_subjects(man)
        assert len(recs) == 4
        for r in recs:
            assert r.ed.shape == (3, 5, 6, 4)
            assert r.es.shape == (3, 5, 6, 4)
        assert sorted(r.label for r in recs) == [0, 0, 1, 1]

    def test_phase_dim_mismatch_rejected(self, tmp_path, rng):
        man_dir = tmp_path
        sh.write_field(_sample_field(rng, (4, 4, 4)), man_dir / "a_ed.fld",
                       "ED", "a")
        sh.write_field(_sample_field(rng, (4, 4, 2)), man_dir / "a_es.fld",
                       "ES", "a")
        sh.write_field(_sample_field(rng, (4, 4, 4)), man_dir / "b_ed.fld",
                       "ED", "b")
        sh.write_field(_sample_field(rng, (4, 4, 4)), man_dir / "b_es.fld",
                       "ES", "b")
        doc = {"classes": {"0": "A", "1": "B"},
               "records": [
                   {"subject_id": "a", "ed": "a_ed.fld", "es": "a_es.fld",
                    "label": 0, "label_name": "A"},
                   {"subject_id": "b", "ed": "b_ed.fld", "es": "b_es.fld",
                    "label": 1, "label_name": "B"}]}
        path = man_dir / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ShapeMismatchError):
            sh.load_subjects(sh.load_manifest(path))

    @pytest.mark.parametrize("edit", ["swap-phases", "other-subject-es"])
    def test_field_of_another_record_rejected(self, tmp_path, edit):
        """Each field file's header must name its record's subject and the
        phase the record reads it as."""
        spec = sh.SyntheticSpec(classes=2, per_class=1, dims=(4, 4, 4), seed=8)
        sh.gen_synthetic(spec, tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        first, second = doc["records"]
        if edit == "swap-phases":
            first["ed"], first["es"] = first["es"], first["ed"]
        else:
            first["es"] = second["es"]
        path.write_text(json.dumps(doc))
        with pytest.raises(BadHeaderError, match=first["subject_id"]):
            sh.load_subjects(sh.load_manifest(path))
