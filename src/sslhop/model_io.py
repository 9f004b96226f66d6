"""Binary container for fitted pipeline models.

Layout (all integers little-endian):

    offset  size  content
    0       8     magic ``SSLHOP01``
    8       2     format major version (uint16)
    10      2     format minor version (uint16)
    12      8     metadata length M (uint64)
    20      M     metadata, UTF-8 JSON (sorted keys)
    20+M    ...   tensor blobs, raw float64 little-endian C-order, in the
                  order and shapes :func:`_layout` derives from the metadata
    end-4   4     CRC32 (uint32) of every preceding byte

The metadata stores each fact once: the config, input dims, class
bookkeeping, the training subject ids and each LAG stage's centroid block
sizes. The fit's own functions derive the rest on load: the shape ledger
(a dry run of the config over the input dims), the Saab bias and DC
anchor, the padding (all-zero AC rows) and the kept channels (the entropy
screen of the stored entropies). There is no tensor index. Nothing
volatile is stored (no timestamps), so identical fits serialize to
identical bytes. A loader refuses files whose major version differs from
its own.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from . import classifier, saab, supervise
from .dataio import read_bytes
from .errors import (CorruptFileError, ShapeLedgerMismatchError,
                     VersionMismatchError, WindowTooLargeError)
from .pipeline import (DIRECTIONS, LayerShapes, LayerStage, PipelineConfig,
                       PipelineModel, compute_ledger)

MAGIC = b"SSLHOP01"
FORMAT_MAJOR = 7
FORMAT_MINOR = 0
_HEADER = struct.Struct("<8sHHQ")


# Metadata schema: a dict maps keys to the schemas of their values, a
# one-item list is a list whose items all follow that item, and a type or
# tuple of types is a leaf; bool never passes for a number. A dict refuses
# keys it does not name.
_SCHEMA = {
    "config": dict,
    "input_dims": [int],
    "class_count": int,
    "class_table": (list, type(None)),
    "train_subject_ids": [str],
    "stages": [[{"lag": {"block_sizes": [int]}}]],
}


def _schema_error(value, schema, where: str = "metadata") -> str | None:
    """Where ``value`` first departs from ``schema``, or None."""
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            return f"{where} is not an object"
        unknown = sorted(set(value) - set(schema))
        if unknown:
            return f"{where}.{unknown[0]} is not a known key"
        for key, sub in schema.items():
            if key not in value:
                return f"{where}.{key} is missing"
            error = _schema_error(value[key], sub, f"{where}.{key}")
            if error:
                return error
        return None
    if isinstance(schema, list):
        if not isinstance(value, list):
            return f"{where} is not a list"
        for i, item in enumerate(value):
            error = _schema_error(item, schema[0], f"{where}[{i}]")
            if error:
                return error
        return None
    ok = isinstance(value, schema) and (
        schema is bool or not isinstance(value, bool))
    return None if ok else f"{where} has the wrong type"


def _layout(meta: dict, cfg: PipelineConfig, ledger: tuple[LayerShapes, ...]):
    """Yield ``(owner, field, shape)`` of every stored tensor in file order.

    ``owner`` is ``(direction, layer, part)`` with ``part`` one of the
    :class:`LayerStage` fields, or ``("svm",)``. Shapes follow from the
    config, the ledger, the class count and each LAG stage's centroid
    blocks.
    """
    k = meta["class_count"]
    feature_dim = 0
    for d, dir_meta in enumerate(meta["stages"]):
        for li, (sm, entry) in enumerate(zip(dir_meta, ledger)):
            union, channels = entry.union_dim, cfg.layers[li].channels
            lag_in = entry.lag_input_dim
            centroids = sum(sm["lag"]["block_sizes"])
            for part, field, shape in (
                    ("kernel", "ac", (channels - 1, union)),
                    ("kernel", "mean_ac", (union,)),
                    ("kernel", "energy", (channels - 1,)),
                    ("entropy", "per_channel", (channels,)),
                    ("lag", "weights", (lag_in + 1, centroids))):
                yield (d, li, part), field, shape
            feature_dim += centroids
    for field, shape in (("weights", (k, feature_dim)), ("intercepts", (k,)),
                         ("mean", (feature_dim,)), ("scale", (feature_dim,))):
        yield ("svm",), field, shape


def save_model(model: PipelineModel, path: str | Path) -> Path:
    """Serialize a fitted model; identical fits produce identical bytes."""
    path = Path(path)
    meta = {
        "config": model.config.to_dict(),
        "input_dims": list(model.input_dims),
        "class_count": model.class_count,
        "class_table": list(model.class_table) if model.class_table else None,
        "train_subject_ids": list(model.train_subject_ids),
        "stages": [[{"lag": {"block_sizes": stage.lag.block_sizes.tolist()}}
                    for stage in per_dir]
                   for per_dir in model.stages],
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    parts = [_HEADER.pack(MAGIC, FORMAT_MAJOR, FORMAT_MINOR, len(meta_bytes)),
             meta_bytes]
    for owner, field, shape in _layout(meta, model.config, model.ledger):
        obj = (model.svm if owner == ("svm",)
               else getattr(model.stages[owner[0]][owner[1]], owner[2]))
        arr = np.ascontiguousarray(getattr(obj, field), dtype="<f8")
        if arr.shape != shape:
            raise ShapeLedgerMismatchError(
                f"{owner} {field} has shape {arr.shape}, its config implies "
                f"{shape}")
        parts.append(arr.tobytes())
    body = b"".join(parts)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return path


def load_model(path: str | Path) -> PipelineModel:
    """Read a model container, verifying structure, version and checksum;
    a tensor holding NaN or inf is refused like a corrupt file."""
    raw = read_bytes(path, "model")
    if len(raw) < _HEADER.size + 4:
        raise CorruptFileError(f"{path}: file shorter than the fixed header")
    magic, major, minor, meta_len = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CorruptFileError(f"{path}: bad magic {magic!r}")
    if major != FORMAT_MAJOR:
        raise VersionMismatchError(
            f"{path}: format major {major}.{minor} unsupported "
            f"(reader is {FORMAT_MAJOR}.{FORMAT_MINOR})")
    meta_end = _HEADER.size + meta_len
    if meta_end + 4 > len(raw):
        raise CorruptFileError(f"{path}: metadata extends past end of file")
    stored_crc = struct.unpack("<I", raw[-4:])[0]
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise CorruptFileError(f"{path}: CRC mismatch")
    try:
        meta = json.loads(raw[_HEADER.size:meta_end].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFileError(f"{path}: undecodable metadata: {exc}") from exc
    error = _schema_error(meta, _SCHEMA)
    if error:
        raise CorruptFileError(f"{path}: {error}")

    try:
        cfg = PipelineConfig.from_dict(meta["config"])
    except (TypeError, ValueError) as exc:
        raise CorruptFileError(f"{path}: invalid config: {exc}") from exc
    try:
        input_dims = tuple(meta["input_dims"])
        ledger = compute_ledger(cfg, input_dims)
    except (ValueError, WindowTooLargeError) as exc:
        raise CorruptFileError(
            f"{path}: invalid input_dims {meta['input_dims']}: {exc}") from exc
    k, table = meta["class_count"], meta["class_table"]
    if table is not None and (len(table) != k or not all(
            isinstance(name, str) for name in table)):
        raise CorruptFileError(
            f"{path}: class_table must be null or {k} class names")
    if (len(meta["stages"]) != DIRECTIONS
            or any(len(dir_meta) != len(ledger) for dir_meta in meta["stages"])):
        raise CorruptFileError(
            f"{path}: stages must hold {DIRECTIONS} directions x "
            f"{len(ledger)} layers")
    cap = cfg.centroids_per_class
    for d, dir_meta in enumerate(meta["stages"]):
        for li, sm in enumerate(dir_meta):
            blocks = sm["lag"]["block_sizes"]
            if len(blocks) != k or any(not 1 <= b <= cap for b in blocks):
                raise CorruptFileError(
                    f"{path}: direction {d} layer {li + 1} centroid blocks "
                    f"{blocks} do not give 1..{cap} centroids to each of "
                    f"{k} classes")

    arrays: dict = {}
    offset = meta_end
    for owner, field, shape in _layout(meta, cfg, ledger):
        count, name = math.prod(shape), "/".join(map(str, owner + (field,)))
        if offset + count * 8 > len(raw) - 4:
            raise CorruptFileError(f"{path}: truncated at tensor {name}")
        tensor = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        if not np.isfinite(tensor).all():
            raise CorruptFileError(f"{path}: tensor {name} holds NaN or inf")
        arrays.setdefault(owner, {})[field] = tensor.reshape(shape).copy()
        offset += count * 8
    if offset != len(raw) - 4:
        raise CorruptFileError(f"{path}: {len(raw) - 4 - offset} trailing bytes")

    stages = tuple(tuple(
        LayerStage(
            kernel=saab.SaabKernel(
                **arrays[(d, li, "kernel")],
                bias=saab.shared_bias(cfg.bias_scale, cfg.layers[li].channels)),
            entropy=supervise.screen_channels(
                arrays[(d, li, "entropy")]["per_channel"],
                ledger[li].kept_channels),
            lag=supervise.LagModel(
                **arrays[(d, li, "lag")],
                block_sizes=np.asarray(sm["lag"]["block_sizes"],
                                       dtype=np.int64)))
        for li, sm in enumerate(dir_meta))
        for d, dir_meta in enumerate(meta["stages"]))
    return PipelineModel(
        config=cfg, input_dims=input_dims, class_count=k,
        class_table=tuple(table) if table else None, stages=stages,
        svm=classifier.SvmModel(**arrays[("svm",)]),
        train_subject_ids=tuple(meta["train_subject_ids"]))
