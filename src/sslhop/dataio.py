"""Field files, dataset manifests and the synthetic cohort generator.

Field file layout:

    header   one UTF-8 JSON line terminated by ``\\n`` with keys
             dims (``[3, H, W, Z]``), dtype (``"f32"``), endian
             (``"little"``), phase (``"ED"``/``"ES"``), subject_id
    payload  raw little-endian float32, C-order, direction-major (d, y, x, z)
    trailer  CRC32 of the payload, uint32 little-endian

Manifests are JSON documents listing one record per subject (id, both
phase files, label id and name) plus the id->name class table; record
paths are resolved relative to the manifest's directory.
"""

from __future__ import annotations

import json
import math
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (BadHeaderError, ChecksumMismatchError,
                     DuplicateSubjectError, MissingFileError,
                     NonFiniteValuesError, ShapeMismatchError,
                     TooFewSubjectsError, UnknownLabelError, as_finite,
                     as_int_triple, as_integer, as_seed, seed_entropy)
from .fields import validate_field

PHASES = ("ED", "ES")
_MAX_HEADER = 4096
# class names used when generating a 5-class synthetic cohort; generic
# names are used for any other class count
CARDIAC_CLASS_NAMES = ("NOR", "MINF", "DCM", "HCM", "RV")


# -- field files -----------------------------------------------------------------

def read_bytes(path: str | Path, what: str) -> bytes:
    """The bytes of the file ``path``, a ``what`` (field file, manifest,
    config, model); a path that names no file raises MissingFileError."""
    try:
        return Path(path).read_bytes()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise MissingFileError(f"{what} {path} does not exist") from exc


def write_field(field: np.ndarray, path: str | Path, phase: str,
                subject_id: str) -> Path:
    """Write one (3, H, W, Z) field as float32; a field that
    :func:`read_field` would refuse is refused before anything is written."""
    with np.errstate(over="ignore"):     # a value past float32 casts to inf
        arr = np.ascontiguousarray(field, dtype="<f4")
    validate_field(arr)
    if phase not in PHASES:
        raise BadHeaderError(f"phase must be one of {PHASES}, got {phase!r}")
    header = json.dumps({"dims": list(arr.shape), "dtype": "f32",
                         "endian": "little", "phase": phase,
                         "subject_id": subject_id}, sort_keys=True)
    payload = arr.tobytes()
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))
    return path


def _parse_header(data: bytes, path: str | Path) -> tuple[dict, int]:
    """The validated JSON header that starts a field file's ``data``, and
    the offset of the payload after its line."""
    end = data.find(b"\n", 0, _MAX_HEADER)
    if end < 0:
        raise BadHeaderError(f"{path}: header line missing or too long")
    try:
        header = json.loads(data[:end].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadHeaderError(f"{path}: undecodable header: {exc}") from exc
    if not isinstance(header, dict):
        raise BadHeaderError(f"{path}: header is not a JSON object")
    for key in ("dims", "dtype", "endian", "phase", "subject_id"):
        if key not in header:
            raise BadHeaderError(f"{path}: header missing key {key!r}")
    dims = header["dims"]
    if (not isinstance(dims, list) or len(dims) != 4
            or any(isinstance(v, bool) or not isinstance(v, int) for v in dims)
            or dims[0] != 3 or min(dims[1:]) < 1):
        raise BadHeaderError(f"{path}: bad dims {dims}")
    if header["dtype"] != "f32" or header["endian"] != "little":
        raise BadHeaderError(f"{path}: unsupported dtype/endian tags")
    if header["phase"] not in PHASES:
        raise BadHeaderError(f"{path}: bad phase tag {header['phase']!r}")
    return header, end + 1


def read_field(path: str | Path) -> np.ndarray:
    """Read one field file back into a float32 (3, H, W, Z) array."""
    return _read_field(path)[1]


def _read_field(path: str | Path) -> tuple[dict, np.ndarray]:
    """The validated header and float32 (3, H, W, Z) array of a field file,
    read once."""
    raw = read_bytes(path, "field file")
    header, start = _parse_header(raw, path)
    body = memoryview(raw)[start:]
    dims = tuple(header["dims"])
    expected = math.prod(dims) * 4      # exact: numpy's int64 product wraps
    if len(body) != expected + 4:
        raise ShapeMismatchError(
            f"{path}: payload holds {len(body) - 4} bytes, dims {dims} "
            f"need {expected}")
    if zlib.crc32(body[:expected]) != struct.unpack("<I", body[expected:])[0]:
        raise ChecksumMismatchError(f"{path}: payload CRC mismatch")
    arr = np.frombuffer(body, dtype="<f4", count=expected // 4).reshape(dims)
    finite = np.isfinite(arr)
    if not finite.all():
        voxel = tuple(int(v) for v in np.argwhere(~finite)[0])
        raise NonFiniteValuesError(f"{path}: non-finite value at voxel {voxel}")
    return header, arr.copy()


# -- manifests --------------------------------------------------------------------

@dataclass(frozen=True)
class ManifestRecord:
    subject_id: str
    ed_path: Path
    es_path: Path
    label: int
    label_name: str


@dataclass(frozen=True)
class DatasetManifest:
    classes: dict[int, str]           # contiguous ids 0..K-1 -> names
    records: tuple[ManifestRecord, ...]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.records], dtype=np.int64)


def _validate_manifest(classes: dict[int, str],
                       records: list[ManifestRecord]) -> DatasetManifest:
    ids = sorted(classes)
    if ids != list(range(len(ids))) or not ids:
        raise UnknownLabelError(f"class ids must be contiguous from 0, got {ids}")
    if not records:
        raise TooFewSubjectsError("manifest lists no subjects")
    seen: set[str] = set()
    for rec in records:
        if rec.subject_id in seen:
            raise DuplicateSubjectError(f"duplicate subject id {rec.subject_id!r}")
        seen.add(rec.subject_id)
        if rec.label not in classes:
            raise UnknownLabelError(
                f"subject {rec.subject_id}: label {rec.label} not in class table")
        if rec.label_name != classes[rec.label]:
            raise UnknownLabelError(
                f"subject {rec.subject_id}: label name {rec.label_name!r} "
                f"!= table entry {classes[rec.label]!r}")
        for p in (rec.ed_path, rec.es_path):
            if not p.is_file():
                raise MissingFileError(f"subject {rec.subject_id}: missing {p}")
    return DatasetManifest(classes=dict(classes), records=tuple(records))


def read_json(path: Path, what: str):
    """The JSON document in the UTF-8 file ``path``, a ``what`` (manifest,
    config). Undecodable bytes, invalid JSON and a key repeated within one
    object raise BadHeaderError."""
    def unique(pairs: list) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise BadHeaderError(f"{path}: {what} repeats the key {key!r}")
            doc[key] = value
        return doc

    try:
        return json.loads(read_bytes(path, what).decode("utf-8"),
                          object_pairs_hook=unique)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadHeaderError(f"{path}: undecodable {what}: {exc}") from exc


def load_manifest(path: str | Path) -> DatasetManifest:
    """Read and fully validate a dataset manifest."""
    path = Path(path)
    doc = read_json(path, "manifest")
    try:
        classes = list(doc["classes"].items())
        root = path.parent
        records = [ManifestRecord(subject_id=r["subject_id"],
                                  ed_path=root / r["ed"], es_path=root / r["es"],
                                  label=r["label"], label_name=r["label_name"])
                   for r in doc["records"]]
    except (AttributeError, KeyError, TypeError) as exc:
        raise BadHeaderError(f"{path}: malformed manifest: {exc}") from exc
    for key, name in classes:
        if not re.fullmatch("0|[1-9][0-9]*", key):
            raise BadHeaderError(
                f"{path}: class id {key!r} is not a canonical decimal string")
        if not isinstance(name, str):
            raise BadHeaderError(f"{path}: class {key} name {name!r} is not a string")
    for rec in records:
        if not isinstance(rec.subject_id, str):
            raise BadHeaderError(f"{path}: subject id {rec.subject_id!r} is not a string")
        if isinstance(rec.label, bool) or not isinstance(rec.label, int):
            raise BadHeaderError(
                f"{path}: subject {rec.subject_id}: label {rec.label!r} is not an integer")
        if not isinstance(rec.label_name, str):
            raise BadHeaderError(f"{path}: subject {rec.subject_id}: label name "
                                 f"{rec.label_name!r} is not a string")
    return _validate_manifest({int(k): v for k, v in classes}, records)


def save_manifest(manifest: DatasetManifest, path: str | Path) -> Path:
    """Write a manifest with paths relative to its own directory."""
    path = Path(path)
    doc = {
        "classes": {str(k): v for k, v in sorted(manifest.classes.items())},
        "records": [{"subject_id": r.subject_id,
                     "ed": r.ed_path.relative_to(path.parent).as_posix(),
                     "es": r.es_path.relative_to(path.parent).as_posix(),
                     "label": r.label, "label_name": r.label_name}
                    for r in manifest.records],
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


@dataclass(frozen=True)
class SubjectRecord:
    """One subject's two phase fields loaded into memory."""

    subject_id: str
    label: int
    ed: np.ndarray
    es: np.ndarray


def load_subjects(manifest: DatasetManifest) -> list[SubjectRecord]:
    """Read every subject's phase files (validated on read), refusing a
    file whose header names another phase or subject than its record."""
    out = []
    for rec in manifest.records:
        fields = []
        for phase, path in zip(PHASES, (rec.ed_path, rec.es_path)):
            header, arr = _read_field(path)
            if (header["phase"], header["subject_id"]) != (phase, rec.subject_id):
                raise BadHeaderError(
                    f"subject {rec.subject_id}: {path} holds the "
                    f"{header['phase']} field of subject "
                    f"{header['subject_id']!r}, not its {phase} field")
            fields.append(arr)
        ed, es = fields
        if ed.shape != es.shape:
            raise ShapeMismatchError(
                f"subject {rec.subject_id}: phase dims differ "
                f"{ed.shape} vs {es.shape}")
        out.append(SubjectRecord(subject_id=rec.subject_id, label=rec.label,
                                 ed=ed, es=es))
    return out


# -- synthetic cohorts --------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic synthetic cohort."""

    classes: int = 5
    per_class: int = 20
    dims: tuple[int, int, int] = (32, 32, 16)
    noise_sigma: float = 0.2
    margin: float = 0.5           # amplitude step between class templates
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("classes", "per_class"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        object.__setattr__(self, "seed", as_seed("seed", self.seed))
        object.__setattr__(self, "dims", as_int_triple("dims", self.dims))
        if min(self.dims) < 1:
            raise ValueError(f"dims must be three positive ints, got {self.dims}")
        if self.classes < 2 or self.per_class < 1:
            raise ValueError("need at least 2 classes and 1 subject per class")
        if (as_finite("noise_sigma", self.noise_sigma) < 0
                or as_finite("margin", self.margin) <= 0):
            raise ValueError("noise_sigma must be >= 0 and margin > 0")

    def class_names(self) -> dict[int, str]:
        if self.classes == len(CARDIAC_CLASS_NAMES):
            return dict(enumerate(CARDIAC_CLASS_NAMES))
        return {k: f"CLS{k}" for k in range(self.classes)}


def template_field(spec: SyntheticSpec, label: int) -> np.ndarray:
    """Deterministic smooth radial displacement field of class ``label``.

    Displacement points radially in-plane with a sinusoidal ring profile
    (zero at center and rim), modulated smoothly along depth. The peak
    amplitude is ``1 + margin * label``, so class amplitudes are ``margin``
    apart, and the class's emphasized axis, ``label % 3``, is doubled so
    classes differ in orientation as well as amplitude.
    """
    H, W, Z = spec.dims
    y = np.arange(H)[:, None, None] - (H - 1) / 2.0
    x = np.arange(W)[None, :, None] - (W - 1) / 2.0
    z = np.arange(Z)[None, None, :]
    r = np.sqrt(y * y + x * x)
    rim = np.sqrt(((H - 1) / 2.0) ** 2 + ((W - 1) / 2.0) ** 2)
    ring = np.sin(np.pi * np.minimum(r / rim, 1.0))
    axial = 0.5 + 0.5 * np.sin(np.pi * z / max(1, Z - 1))
    with np.errstate(invalid="ignore"):
        uy = np.where(r > 0, y / np.where(r > 0, r, 1.0), 0.0)
        ux = np.where(r > 0, x / np.where(r > 0, r, 1.0), 0.0)
    profile = ring * axial
    field = np.stack([profile * uy, profile * ux,
                      profile * np.cos(np.pi * z / max(1, Z - 1))])
    weights = np.ones(3)
    weights[label % 3] = 2.0
    return (1.0 + spec.margin * label) * weights[:, None, None, None] * field


def gen_synthetic(spec: SyntheticSpec, out_dir: str | Path) -> DatasetManifest:
    """Write a full synthetic cohort (field files + manifest) under ``out_dir``.

    Noise is seeded per subject id, so regenerating any subset of the
    cohort — in any order — reproduces identical bytes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = spec.class_names()
    records = []
    for label in range(spec.classes):
        template = template_field(spec, label)
        # ES = contrast * ED template, from 0.35 (class 0) to 0.9 (the last)
        contrast = 0.35 + 0.55 * label / max(1, spec.classes - 1)
        for i in range(spec.per_class):
            subject_id = f"{names[label].lower()}{i:03d}"
            rng = np.random.default_rng(
                np.random.SeedSequence(seed_entropy(spec.seed, label, i)))
            ed = template + rng.normal(0.0, spec.noise_sigma, template.shape) \
                if spec.noise_sigma > 0 else template.copy()
            es = contrast * template
            if spec.noise_sigma > 0:
                es = es + rng.normal(0.0, spec.noise_sigma, template.shape)
            ed_path = out_dir / f"{subject_id}_ed.fld"
            es_path = out_dir / f"{subject_id}_es.fld"
            write_field(ed, ed_path, "ED", subject_id)
            write_field(es, es_path, "ES", subject_id)
            records.append(ManifestRecord(subject_id=subject_id,
                                          ed_path=ed_path, es_path=es_path,
                                          label=label, label_name=names[label]))
    manifest = _validate_manifest(names, records)
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest


def subset_manifest(manifest: DatasetManifest, fraction: float,
                    seed: int) -> DatasetManifest:
    """Uniformly keep ``fraction`` of each class's subjects (at least one).

    Selection shuffles each class's records with the seed and keeps the
    first floor(fraction * n); record order is preserved.
    """
    seed = as_seed("seed", seed)
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    if fraction == 1.0:
        return manifest
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF2AC]))
    keep_ids: set[str] = set()
    for label in sorted(manifest.classes):
        members = [r.subject_id for r in manifest.records if r.label == label]
        order = rng.permutation(len(members))
        n_keep = max(1, int(np.floor(fraction * len(members))))
        keep_ids.update(members[i] for i in order[:n_keep])
    records = tuple(r for r in manifest.records if r.subject_id in keep_ids)
    return DatasetManifest(classes=dict(manifest.classes), records=records)
