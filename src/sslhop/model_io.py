"""Binary container for fitted pipeline models.

Layout (all integers little-endian):

    offset  size  content
    0       8     magic ``SSLHOP01``
    8       2     format major version (uint16)
    10      2     format minor version (uint16)
    12      8     metadata length M (uint64)
    20      M     metadata, UTF-8 JSON (sorted keys)
    20+M    ...   tensor blobs, raw float64 little-endian C-order,
                  in metadata["tensors"] order
    end-4   4     CRC32 (uint32) of every preceding byte

The metadata holds the config, the shape ledger, class bookkeeping and
the shape of every blob; nothing volatile (no timestamps), so identical
fits serialize to identical bytes. A loader refuses files whose major
version differs from its own.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from . import classifier, saab, supervise
from .errors import (CorruptFileError, ShapeLedgerMismatchError,
                     VersionMismatchError)
from .pipeline import (DIRECTIONS, LayerShapes, LayerStage, PipelineConfig,
                       PipelineModel, compute_ledger)

MAGIC = b"SSLHOP01"
FORMAT_MAJOR = 1
FORMAT_MINOR = 0
_HEADER = struct.Struct("<8sHHQ")


# Metadata schema: a dict maps keys to the schemas of their values, a
# one-item list is a list whose items all follow that item, and a type or
# tuple of types is a leaf; bool never passes for a number.
_NUMBER = (int, float)
_SCHEMA = {
    "config": dict,
    "input_dims": [int],
    "class_count": int,
    "class_table": (list, type(None)),
    "train_subject_ids": [str],
    "ledger": [{"layer": int, "input_dims": [int], "union_dim": int,
                "conv_dims": [int], "pool_dims": [int], "kept_channels": int,
                "lag_input_dim": int}],
    "stages": [[{"saab": {"bias": _NUMBER, "padded": int, "degenerate": bool},
                 "entropy": {"kept": [int], "classes": [int]},
                 "lag": {"alpha": _NUMBER, "classes": [int],
                         "block_sizes": [int]}}]],
    "svm": {"cost": _NUMBER, "class_count": int},
    "tensors": [{"name": str, "shape": [int]}],
}


def _schema_error(value, schema, where: str = "metadata") -> str | None:
    """Where ``value`` first departs from ``schema``, or None."""
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            return f"{where} is not an object"
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


def _check_tensor_shapes(path, meta: dict, cfg: PipelineConfig,
                         ledger: tuple[LayerShapes, ...], tensor) -> None:
    """Check every stored tensor's shape against the config, the ledger,
    the class count and each LAG stage's centroid blocks, which hold
    1..centroids_per_class centroids per class."""
    k, cap = meta["class_count"], cfg.centroids_per_class
    expected: dict[str, tuple] = {}
    feature_dim = 0
    for d, dir_meta in enumerate(meta["stages"]):
        for li, (sm, entry) in enumerate(zip(dir_meta, ledger)):
            blocks = sm["lag"]["block_sizes"]
            if len(blocks) != k or any(not 1 <= b <= cap for b in blocks):
                raise CorruptFileError(
                    f"{path}: direction {d} layer {li + 1} centroid blocks "
                    f"{blocks} do not give 1..{cap} centroids to each of "
                    f"{k} classes")
            prefix = f"d{d}/l{li}"
            union, channels = entry.union_dim, cfg.layers[li].channels
            lag_in, centroids = entry.lag_input_dim, sum(blocks)
            expected.update({
                f"{prefix}/saab/dc": (union,),
                f"{prefix}/saab/ac": (channels - 1, union),
                f"{prefix}/saab/mean_ac": (union,),
                f"{prefix}/saab/energy": (channels - 1,),
                f"{prefix}/entropy/per_channel": (channels,),
                f"{prefix}/entropy/per_class": (k, channels),
                f"{prefix}/lag/centroids": (centroids, lag_in),
                f"{prefix}/lag/weights": (lag_in + 1, centroids),
            })
            feature_dim += centroids
    expected.update({"svm/weights": (k, feature_dim), "svm/intercepts": (k,),
                     "svm/mean": (feature_dim,), "svm/scale": (feature_dim,)})
    for name, shape in expected.items():
        if tensor(name).shape != shape:
            raise CorruptFileError(
                f"{path}: tensor {name} has shape {list(tensor(name).shape)}, "
                f"expected {list(shape)}")


def _collect(model: PipelineModel) -> tuple[dict, list[tuple[str, np.ndarray]]]:
    tensors: list[tuple[str, np.ndarray]] = []

    def add(name: str, arr: np.ndarray) -> None:
        tensors.append((name, np.ascontiguousarray(arr, dtype=np.float64)))

    stages_meta = []
    for d, per_dir in enumerate(model.stages):
        dir_meta = []
        for li, stage in enumerate(per_dir):
            prefix = f"d{d}/l{li}"
            add(f"{prefix}/saab/dc", stage.kernel.dc)
            add(f"{prefix}/saab/ac", stage.kernel.ac)
            add(f"{prefix}/saab/mean_ac", stage.kernel.mean_ac)
            add(f"{prefix}/saab/energy", stage.kernel.energy)
            add(f"{prefix}/entropy/per_channel", stage.entropy.per_channel)
            add(f"{prefix}/entropy/per_class", stage.entropy.per_class)
            add(f"{prefix}/lag/centroids", stage.lag.centroids)
            add(f"{prefix}/lag/weights", stage.lag.weights)
            dir_meta.append({
                "saab": {"bias": stage.kernel.bias,
                         "padded": stage.kernel.padded,
                         "degenerate": stage.kernel.degenerate},
                "entropy": {"kept": stage.entropy.kept.tolist(),
                            "classes": stage.entropy.classes.tolist()},
                "lag": {"alpha": stage.lag.alpha,
                        "classes": stage.lag.classes.tolist(),
                        "block_sizes": stage.lag.block_sizes.tolist()},
            })
        stages_meta.append(dir_meta)
    add("svm/weights", model.svm.weights)
    add("svm/intercepts", model.svm.intercepts)
    add("svm/mean", model.svm.mean)
    add("svm/scale", model.svm.scale)

    meta = {
        "config": model.config.to_dict(),
        "input_dims": list(model.input_dims),
        "class_count": model.class_count,
        "class_table": list(model.class_table) if model.class_table else None,
        "train_subject_ids": list(model.train_subject_ids),
        "ledger": [e.to_dict() for e in model.ledger],
        "stages": stages_meta,
        "svm": {"cost": model.svm.cost, "class_count": model.svm.class_count},
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in tensors],
    }
    return meta, tensors


def save_model(model: PipelineModel, path: str | Path) -> Path:
    """Serialize a fitted model; identical fits produce identical bytes."""
    meta, tensors = _collect(model)
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    parts = [_HEADER.pack(MAGIC, FORMAT_MAJOR, FORMAT_MINOR, len(meta_bytes)),
             meta_bytes]
    parts.extend(a.tobytes() for _, a in tensors)
    body = b"".join(parts)
    payload = body + struct.pack("<I", zlib.crc32(body))
    path = Path(path)
    path.write_bytes(payload)
    return path


def load_model(path: str | Path) -> PipelineModel:
    """Read a model container, verifying structure, version and checksum."""
    raw = Path(path).read_bytes()
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

    arrays: dict[str, np.ndarray] = {}
    offset = meta_end
    for decl in meta["tensors"]:
        shape = tuple(decl["shape"])
        if any(v < 0 for v in shape):
            raise CorruptFileError(
                f"{path}: tensor {decl['name']} has shape {list(shape)}")
        count = math.prod(shape)
        if offset + count * 8 > len(raw) - 4:
            raise CorruptFileError(f"{path}: truncated at tensor {decl['name']}")
        arrays[decl["name"]] = np.frombuffer(
            raw, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += count * 8
    if offset != len(raw) - 4:
        raise CorruptFileError(f"{path}: {len(raw) - 4 - offset} trailing bytes")

    def tensor(name: str) -> np.ndarray:
        if name not in arrays:
            raise CorruptFileError(f"{path}: no tensor {name}")
        return arrays[name]

    try:
        cfg = PipelineConfig.from_dict(meta["config"])
        input_dims = tuple(meta["input_dims"])
        expected = compute_ledger(cfg, input_dims)
    except (TypeError, ValueError) as exc:
        raise CorruptFileError(f"{path}: invalid config: {exc}") from exc
    ledger = tuple(LayerShapes.from_dict(d) for d in meta["ledger"])
    if expected != ledger:
        raise ShapeLedgerMismatchError(
            f"{path}: stored ledger disagrees with its config")
    if (len(meta["stages"]) != DIRECTIONS
            or any(len(dir_meta) != len(ledger) for dir_meta in meta["stages"])):
        raise CorruptFileError(
            f"{path}: stages must hold {DIRECTIONS} directions x "
            f"{len(ledger)} layers")

    _check_tensor_shapes(path, meta, cfg, ledger, tensor)

    stages = []
    for d, dir_meta in enumerate(meta["stages"]):
        per_dir = []
        for li, sm in enumerate(dir_meta):
            prefix = f"d{d}/l{li}"
            if len(sm["entropy"]["kept"]) != ledger[li].kept_channels:
                raise CorruptFileError(
                    f"{path}: direction {d} layer {li + 1} keeps "
                    f"{len(sm['entropy']['kept'])} channels, ledger says "
                    f"{ledger[li].kept_channels}")
            kernel = saab.SaabKernel(
                dc=tensor(f"{prefix}/saab/dc"),
                ac=tensor(f"{prefix}/saab/ac"),
                bias=sm["saab"]["bias"],
                mean_ac=tensor(f"{prefix}/saab/mean_ac"),
                energy=tensor(f"{prefix}/saab/energy"),
                padded=sm["saab"]["padded"],
                degenerate=sm["saab"]["degenerate"])
            entropy = supervise.ChannelEntropy(
                per_channel=tensor(f"{prefix}/entropy/per_channel"),
                per_class=tensor(f"{prefix}/entropy/per_class"),
                kept=np.asarray(sm["entropy"]["kept"], dtype=np.int64),
                classes=np.asarray(sm["entropy"]["classes"], dtype=np.int64))
            lag = supervise.LagModel(
                centroids=tensor(f"{prefix}/lag/centroids"),
                weights=tensor(f"{prefix}/lag/weights"),
                alpha=sm["lag"]["alpha"],
                classes=np.asarray(sm["lag"]["classes"], dtype=np.int64),
                block_sizes=np.asarray(sm["lag"]["block_sizes"], dtype=np.int64))
            per_dir.append(LayerStage(kernel=kernel, entropy=entropy, lag=lag))
        stages.append(tuple(per_dir))

    svm = classifier.SvmModel(
        weights=tensor("svm/weights"), intercepts=tensor("svm/intercepts"),
        mean=tensor("svm/mean"), scale=tensor("svm/scale"),
        cost=meta["svm"]["cost"], class_count=meta["svm"]["class_count"])
    table = tuple(meta["class_table"]) if meta["class_table"] else None
    return PipelineModel(
        config=cfg, input_dims=input_dims, class_count=meta["class_count"],
        class_table=table, stages=tuple(stages), svm=svm, ledger=ledger,
        train_subject_ids=tuple(meta["train_subject_ids"]))
