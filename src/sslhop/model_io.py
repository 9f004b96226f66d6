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

    arrays: dict[str, np.ndarray] = {}
    offset = meta_end
    for decl in meta["tensors"]:
        shape = tuple(decl["shape"])
        nbytes = int(np.prod(shape)) * 8
        if offset + nbytes > len(raw) - 4:
            raise CorruptFileError(f"{path}: truncated at tensor {decl['name']}")
        arrays[decl["name"]] = np.frombuffer(
            raw, dtype="<f8", count=int(np.prod(shape)), offset=offset
        ).reshape(shape).copy()
        offset += nbytes
    if offset != len(raw) - 4:
        raise CorruptFileError(f"{path}: {len(raw) - 4 - offset} trailing bytes")

    cfg = PipelineConfig.from_dict(meta["config"])
    input_dims = tuple(meta["input_dims"])
    ledger = tuple(LayerShapes.from_dict(d) for d in meta["ledger"])
    if compute_ledger(cfg, input_dims) != ledger:
        raise ShapeLedgerMismatchError(
            f"{path}: stored ledger disagrees with its config")
    if (len(meta["stages"]) != DIRECTIONS
            or any(len(dir_meta) != len(ledger) for dir_meta in meta["stages"])):
        raise CorruptFileError(
            f"{path}: stages must hold {DIRECTIONS} directions x "
            f"{len(ledger)} layers")

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
                dc=arrays[f"{prefix}/saab/dc"],
                ac=arrays[f"{prefix}/saab/ac"],
                bias=sm["saab"]["bias"],
                mean_ac=arrays[f"{prefix}/saab/mean_ac"],
                energy=arrays[f"{prefix}/saab/energy"],
                padded=sm["saab"]["padded"],
                degenerate=sm["saab"]["degenerate"])
            entropy = supervise.ChannelEntropy(
                per_channel=arrays[f"{prefix}/entropy/per_channel"],
                per_class=arrays[f"{prefix}/entropy/per_class"],
                kept=np.asarray(sm["entropy"]["kept"], dtype=np.int64),
                classes=np.asarray(sm["entropy"]["classes"], dtype=np.int64))
            lag = supervise.LagModel(
                centroids=arrays[f"{prefix}/lag/centroids"],
                weights=arrays[f"{prefix}/lag/weights"],
                alpha=sm["lag"]["alpha"],
                classes=np.asarray(sm["lag"]["classes"], dtype=np.int64),
                block_sizes=np.asarray(sm["lag"]["block_sizes"], dtype=np.int64))
            per_dir.append(LayerStage(kernel=kernel, entropy=entropy, lag=lag))
        stages.append(tuple(per_dir))

    svm = classifier.SvmModel(
        weights=arrays["svm/weights"], intercepts=arrays["svm/intercepts"],
        mean=arrays["svm/mean"], scale=arrays["svm/scale"],
        cost=meta["svm"]["cost"], class_count=meta["svm"]["class_count"])
    table = tuple(meta["class_table"]) if meta["class_table"] else None
    return PipelineModel(
        config=cfg, input_dims=input_dims, class_count=meta["class_count"],
        class_table=table, stages=tuple(stages), svm=svm, ledger=ledger,
        train_subject_ids=tuple(meta["train_subject_ids"]))
