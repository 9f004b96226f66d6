"""Field files, manifests, and the synthetic cohort generator."""

import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

import sslhop as sh
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
        header = sh.read_field_header(path)
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

    def test_truncated_payload(self, rng, tmp_path):
        path = sh.write_field(_sample_field(rng), tmp_path / "a.fld", "ED", "s")
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])      # drop half the CRC plus payload tail
        with pytest.raises(ShapeMismatchError):
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
            sh.read_field_header(path)

    def test_header_without_newline(self, tmp_path):
        path = tmp_path / "a.fld"
        path.write_bytes(b"{}")
        with pytest.raises(BadHeaderError):
            sh.read_field_header(path)


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

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFileError):
            sh.load_manifest(tmp_path / "nope.json")

    def test_malformed_manifest_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{]")
        with pytest.raises(BadHeaderError):
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
        templates = spec.resolved_templates()
        for r in recs:
            t = sh.template_field(spec, templates[r.label])
            np.testing.assert_array_equal(r.ed, t.astype(np.float32))
            np.testing.assert_array_equal(
                r.es, (templates[r.label].contrast * t).astype(np.float32))

    def test_template_geometry(self):
        spec = sh.SyntheticSpec(classes=3, per_class=1, dims=(9, 9, 5))
        t = sh.template_field(spec, sh.ClassTemplate(1.0, axis=1, contrast=0.5))
        assert t.shape == (3, 9, 9, 5)
        # in-plane displacement vanishes at the exact center voxel
        assert t[0, 4, 4, 2] == 0.0 and t[1, 4, 4, 2] == 0.0
        # the emphasized axis carries double weight
        heavy = sh.template_field(spec, sh.ClassTemplate(1.0, 0, 0.5))
        np.testing.assert_allclose(heavy[0], 2.0 * t[0] * 1.0, atol=1e-12)

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
        {"templates": (sh.ClassTemplate(1.0, 0, 0.5),)},        # wrong count
        {"templates": (sh.ClassTemplate(1.0, 0, 0.5),
                       sh.ClassTemplate(1.2, 1, 0.6))},          # gap < margin
        {"dims": (0, 4, 4)},
        {"dims": (4, -1, 4)},
        {"dims": (4, 4)},
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
