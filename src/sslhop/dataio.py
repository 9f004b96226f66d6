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
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (BadHeaderError, ChecksumMismatchError,
                     DuplicateSubjectError, MissingFileError,
                     NonFiniteValuesError, ShapeMismatchError,
                     TooFewSubjectsError, UnknownLabelError)

PHASES = ("ED", "ES")
_MAX_HEADER = 4096
# class names used when generating a 5-class synthetic cohort; generic
# names are used for any other class count
CARDIAC_CLASS_NAMES = ("NOR", "MINF", "DCM", "HCM", "RV")


# -- field files -----------------------------------------------------------------

def write_field(field: np.ndarray, path: str | Path, phase: str,
                subject_id: str) -> Path:
    """Write one (3, H, W, Z) field; values are stored as float32."""
    arr = np.asarray(field)
    if arr.ndim != 4 or arr.shape[0] != 3:
        raise ShapeMismatchError(f"expected a (3, H, W, Z) field, got {arr.shape}")
    if phase not in PHASES:
        raise BadHeaderError(f"phase must be one of {PHASES}, got {phase!r}")
    if not np.isfinite(arr).all():
        raise NonFiniteValuesError("refusing to write non-finite field values")
    header = json.dumps({"dims": list(arr.shape), "dtype": "f32",
                         "endian": "little", "phase": phase,
                         "subject_id": subject_id}, sort_keys=True)
    payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))
    return path


def read_field_header(path: str | Path) -> dict:
    """Parse and validate just the JSON header line of a field file."""
    with open(path, "rb") as fh:
        line = fh.readline(_MAX_HEADER)
    if not line.endswith(b"\n"):
        raise BadHeaderError(f"{path}: header line missing or too long")
    try:
        header = json.loads(line.decode())
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
    return header


def read_field(path: str | Path) -> np.ndarray:
    """Read one field file back into a float32 (3, H, W, Z) array."""
    header = read_field_header(path)
    raw = Path(path).read_bytes()
    body = raw[raw.index(b"\n") + 1:]
    dims = tuple(header["dims"])
    expected = int(np.prod(dims)) * 4
    if len(body) != expected + 4:
        raise ShapeMismatchError(
            f"{path}: payload holds {len(body) - 4} bytes, dims {dims} "
            f"need {expected}")
    payload, crc_bytes = body[:expected], body[expected:]
    if zlib.crc32(payload) != struct.unpack("<I", crc_bytes)[0]:
        raise ChecksumMismatchError(f"{path}: payload CRC mismatch")
    arr = np.frombuffer(payload, dtype="<f4").reshape(dims)
    finite = np.isfinite(arr)
    if not finite.all():
        voxel = tuple(int(v) for v in np.argwhere(~finite)[0])
        raise NonFiniteValuesError(f"{path}: non-finite value at voxel {voxel}")
    return arr.copy()


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


def load_manifest(path: str | Path) -> DatasetManifest:
    """Read and fully validate a dataset manifest."""
    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"manifest {path} does not exist")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise BadHeaderError(f"{path}: undecodable manifest: {exc}") from exc
    try:
        classes = {int(k): str(v) for k, v in doc["classes"].items()}
        root = path.parent
        records = [ManifestRecord(subject_id=str(r["subject_id"]),
                                  ed_path=root / r["ed"], es_path=root / r["es"],
                                  label=int(r["label"]),
                                  label_name=str(r["label_name"]))
                   for r in doc["records"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise BadHeaderError(f"{path}: malformed manifest: {exc}") from exc
    return _validate_manifest(classes, records)


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
    """Read every subject's phase files (validated on read)."""
    out = []
    for rec in manifest.records:
        ed = read_field(rec.ed_path)
        es = read_field(rec.es_path)
        if ed.shape != es.shape:
            raise ShapeMismatchError(
                f"subject {rec.subject_id}: phase dims differ "
                f"{ed.shape} vs {es.shape}")
        out.append(SubjectRecord(subject_id=rec.subject_id, label=rec.label,
                                 ed=ed, es=es))
    return out


# -- synthetic cohorts --------------------------------------------------------------

@dataclass(frozen=True)
class ClassTemplate:
    """Deformation template parameters of one synthetic class."""

    amplitude: float   # peak displacement magnitude
    axis: int          # direction component (0..2) emphasized by this class
    contrast: float    # ES field = contrast * ED template


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic synthetic cohort."""

    classes: int = 5
    per_class: int = 20
    dims: tuple[int, int, int] = (32, 32, 16)
    noise_sigma: float = 0.2
    margin: float = 0.5           # minimum amplitude separation between classes
    seed: int = 42
    templates: tuple[ClassTemplate, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(v) for v in self.dims))
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise ValueError(f"dims must be three positive ints, got {self.dims}")
        if self.classes < 2 or self.per_class < 1:
            raise ValueError("need at least 2 classes and 1 subject per class")
        if self.noise_sigma < 0 or self.margin <= 0:
            raise ValueError("noise_sigma must be >= 0 and margin > 0")
        if self.templates is not None:
            templates = tuple(self.templates)
            if len(templates) != self.classes:
                raise ValueError("one template per class is required")
            amps = sorted(t.amplitude for t in templates)
            gaps = [b - a for a, b in zip(amps, amps[1:])]
            if gaps and min(gaps) < self.margin:
                raise ValueError(
                    f"template amplitude separation {min(gaps):.3g} < "
                    f"margin {self.margin:.3g}")
            object.__setattr__(self, "templates", templates)

    def resolved_templates(self) -> tuple[ClassTemplate, ...]:
        """Explicit templates, or the default ladder derived from ``margin``."""
        if self.templates is not None:
            return self.templates
        return tuple(
            ClassTemplate(amplitude=1.0 + self.margin * k, axis=k % 3,
                          contrast=0.35 + 0.55 * k / max(1, self.classes - 1))
            for k in range(self.classes))

    def class_names(self) -> dict[int, str]:
        if self.classes == len(CARDIAC_CLASS_NAMES):
            return dict(enumerate(CARDIAC_CLASS_NAMES))
        return {k: f"CLS{k}" for k in range(self.classes)}


def template_field(spec: SyntheticSpec, template: ClassTemplate) -> np.ndarray:
    """Deterministic smooth radial displacement field of one class.

    Displacement points radially in-plane with a sinusoidal ring profile
    (zero at center and rim), modulated smoothly along depth; the class's
    emphasized axis is amplified so classes differ in orientation as well
    as amplitude.
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
    weights[template.axis] = 2.0
    return template.amplitude * weights[:, None, None, None] * field


def gen_synthetic(spec: SyntheticSpec, out_dir: str | Path) -> DatasetManifest:
    """Write a full synthetic cohort (field files + manifest) under ``out_dir``.

    Noise is seeded per subject id, so regenerating any subset of the
    cohort — in any order — reproduces identical bytes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = spec.class_names()
    templates = spec.resolved_templates()
    records = []
    for label in range(spec.classes):
        template = template_field(spec, templates[label])
        for i in range(spec.per_class):
            subject_id = f"{names[label].lower()}{i:03d}"
            rng = np.random.default_rng(
                np.random.SeedSequence([spec.seed, label, i]))
            ed = template + rng.normal(0.0, spec.noise_sigma, template.shape) \
                if spec.noise_sigma > 0 else template.copy()
            es = templates[label].contrast * template
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
