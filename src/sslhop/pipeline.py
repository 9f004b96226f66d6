"""End-to-end feature pipeline: stacked union->subspace->pool layers per
direction, a supervised reduction branch per layer, and a final linear SVM.

The three direction components of an assembled sample are processed
independently through the same layer plan; each layer contributes one
reduced feature block per direction, and the final per-sample feature is
the concatenation over layers (outer) then directions (inner).

Every fit is preceded by a dry-run shape pass producing a ledger of the
expected map dimensions; any disagreement during the real pass raises
ShapeLedgerMismatchError rather than silently continuing. Fit and transform
run the same batched per-layer steps, so both check the same ledger entries
and transforming the training samples reproduces the training features.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from . import classifier, saab, supervise
from .errors import (MissingClassError, ShapeLedgerMismatchError,
                     ShapeMismatchError, SingleClassError, WindowTooLargeError)
from .fields import DIRECTIONS, DeformationSample, centered_origin, \
    crop_roi, interlace_concat, plain_concat, validate_field
from .neighborhood import max_pool, pooled_dims, union_count, union_slabs

CONCAT_MODES = ("interlaced", "plain")


@dataclass(frozen=True)
class LayerSpec:
    """Window geometry and output channel count of one layer."""

    window: tuple[int, int, int]
    channels: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "window", tuple(int(v) for v in self.window))
        object.__setattr__(self, "channels", int(self.channels))
        if len(self.window) != 3 or min(self.window) < 1:
            raise ValueError(f"window must be three positive ints, got {self.window}")
        if self.channels < 1:
            raise ValueError(f"channels must be positive, got {self.channels}")


@dataclass(frozen=True)
class PipelineConfig:
    """Complete, serializable description of a pipeline fit."""

    layers: tuple[LayerSpec, ...]
    keep_ratio: float = 0.5
    centroids_per_class: int = 5
    alpha: float = 10.0
    ridge_lambda: float = 1e-3
    svm_cost: float = 1.0
    bias_scale: float = 0.0
    concat_mode: str = "interlaced"
    roi_size: tuple[int, int, int] | None = None
    roi_origin: tuple[int, int, int] | None = None
    seed: int = 0
    truncate_layer5: bool = False

    def __post_init__(self) -> None:
        layers = tuple(l if isinstance(l, LayerSpec) else LayerSpec(**l)
                       for l in self.layers)
        if not layers:
            raise ValueError("at least one layer is required")
        object.__setattr__(self, "layers", layers)
        for name in ("keep_ratio", "alpha", "ridge_lambda", "svm_cost",
                     "bias_scale"):
            val = getattr(self, name)
            if (isinstance(val, bool) or not isinstance(val, numbers.Real)
                    or not math.isfinite(val)):
                raise ValueError(f"{name} must be a finite number, got {val!r}")
        if not 0.0 < self.keep_ratio <= 1.0:
            raise ValueError(f"keep_ratio must lie in (0, 1], got {self.keep_ratio}")
        if self.alpha <= 0 or self.svm_cost <= 0:
            raise ValueError("alpha and svm_cost must be > 0, got "
                             f"{self.alpha} and {self.svm_cost}")
        if self.ridge_lambda < 0:
            raise ValueError(f"ridge_lambda must be >= 0, got {self.ridge_lambda}")
        if not isinstance(self.truncate_layer5, bool):
            raise ValueError("truncate_layer5 must be true or false, "
                             f"got {self.truncate_layer5!r}")
        for name in ("centroids_per_class", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.centroids_per_class < 1:
            raise ValueError("centroids_per_class must be positive, "
                             f"got {self.centroids_per_class}")
        if self.concat_mode not in CONCAT_MODES:
            raise ValueError(f"concat_mode must be one of {CONCAT_MODES}")
        for name in ("roi_size", "roi_origin"):
            val = getattr(self, name)
            if val is not None:
                val = tuple(int(v) for v in val)
                if len(val) != 3:
                    raise ValueError(f"{name} must have 3 values, got {val}")
                object.__setattr__(self, name, val)

    def to_dict(self) -> dict:
        return {
            "layers": [{"window": list(l.window), "channels": l.channels}
                       for l in self.layers],
            "keep_ratio": self.keep_ratio,
            "centroids_per_class": self.centroids_per_class,
            "alpha": self.alpha,
            "ridge_lambda": self.ridge_lambda,
            "svm_cost": self.svm_cost,
            "bias_scale": self.bias_scale,
            "concat_mode": self.concat_mode,
            "roi_size": list(self.roi_size) if self.roi_size else None,
            "roi_origin": list(self.roi_origin) if self.roi_origin else None,
            "seed": self.seed,
            "truncate_layer5": self.truncate_layer5,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def full_config(seed: int = 0) -> PipelineConfig:
    """Five-layer plan for full-resolution cardiac fields (256x256x64 in,
    100x100 in-plane crop, full depth)."""
    return PipelineConfig(
        layers=(LayerSpec((3, 3, 6), 5), LayerSpec((3, 3, 3), 5),
                LayerSpec((3, 3, 3), 15), LayerSpec((3, 3, 3), 20),
                LayerSpec((3, 3, 3), 25)),
        roi_size=(100, 100, 64),
        seed=seed,
    )


def small_config(seed: int = 0) -> PipelineConfig:
    """Three-layer plan sized for desk-scale volumes (e.g. 32x32x16 fields)."""
    return PipelineConfig(
        layers=(LayerSpec((3, 3, 6), 5), LayerSpec((3, 3, 3), 5),
                LayerSpec((3, 3, 3), 15)),
        seed=seed,
    )


PRESETS = {"full": full_config, "small": small_config}


# -- shape ledger --------------------------------------------------------------

@dataclass(frozen=True)
class LayerShapes:
    """Expected map geometry of one layer, from the dry-run pass."""

    layer: int                               # 1-based
    input_dims: tuple[int, int, int, int]    # (H, W, Z, C) entering the layer
    union_dim: int                           # h*w*z*C
    conv_dims: tuple[int, int, int, int]     # after projection (and truncation)
    pool_dims: tuple[int, int, int, int]
    kept_channels: int
    lag_input_dim: int

    def to_dict(self) -> dict:
        return {"layer": self.layer, "input_dims": list(self.input_dims),
                "union_dim": self.union_dim, "conv_dims": list(self.conv_dims),
                "pool_dims": list(self.pool_dims),
                "kept_channels": self.kept_channels,
                "lag_input_dim": self.lag_input_dim}

    @classmethod
    def from_dict(cls, d: dict) -> "LayerShapes":
        return cls(layer=d["layer"], input_dims=tuple(d["input_dims"]),
                   union_dim=d["union_dim"], conv_dims=tuple(d["conv_dims"]),
                   pool_dims=tuple(d["pool_dims"]),
                   kept_channels=d["kept_channels"],
                   lag_input_dim=d["lag_input_dim"])


def _truncated_depth(cfg: PipelineConfig, layer_1based: int, depth: int) -> int:
    # optional compatibility mode: some deployments of the five-layer plan
    # run layer 5 one depth slice short of stride-1 window arithmetic
    if cfg.truncate_layer5 and layer_1based == 5 and depth > 1:
        return depth - 1
    return depth


def compute_ledger(cfg: PipelineConfig,
                   input_dims: tuple[int, int, int]) -> tuple[LayerShapes, ...]:
    """Dry-run shape pass over the layer plan for a (H, W, Z) input."""
    dims = tuple(int(v) for v in input_dims)
    channels_in = 1
    entries = []
    for i, layer in enumerate(cfg.layers, start=1):
        h, w, z = layer.window
        H, W, Z = dims
        if h > H or w > W or z > Z:
            raise WindowTooLargeError(
                f"layer {i} window {layer.window} exceeds its input dims {dims}")
        conv = (H - h + 1, W - w + 1, Z - z + 1)
        conv = conv[:2] + (_truncated_depth(cfg, i, conv[2]),)
        pool = pooled_dims(conv)
        kept = max(1, int(np.floor(layer.channels * cfg.keep_ratio)))
        entries.append(LayerShapes(
            layer=i,
            input_dims=dims + (channels_in,),
            union_dim=h * w * z * channels_in,
            conv_dims=conv + (layer.channels,),
            pool_dims=pool + (layer.channels,),
            kept_channels=kept,
            lag_input_dim=int(np.prod(pool)) * kept,
        ))
        dims, channels_in = pool, layer.channels
    return tuple(entries)


# -- sample assembly -----------------------------------------------------------

def assemble_sample(ed: np.ndarray, es: np.ndarray, cfg: PipelineConfig,
                    label: int, subject_id: str) -> DeformationSample:
    """Crop both phases to the configured ROI and merge them along depth."""
    ed, es = validate_field(ed), validate_field(es)
    if cfg.roi_size is not None:
        origin = cfg.roi_origin
        if origin is None:
            origin = centered_origin(ed.shape[1:], cfg.roi_size)
        ed = crop_roi(ed, origin, cfg.roi_size)
        es = crop_roi(es, origin, cfg.roi_size)
    merge = interlace_concat if cfg.concat_mode == "interlaced" else plain_concat
    return DeformationSample(interlaced=merge(ed, es), label=label,
                             subject_id=subject_id)


# -- fitted model ---------------------------------------------------------------

@dataclass(frozen=True)
class LayerStage:
    """Fitted state of one layer for one direction."""

    kernel: saab.SaabKernel
    entropy: supervise.ChannelEntropy
    lag: supervise.LagModel


@dataclass(frozen=True)
class PipelineModel:
    """Read-only fitted pipeline; refitting requires :func:`fit_pipeline`."""

    config: PipelineConfig
    input_dims: tuple[int, int, int]             # assembled (H, W, 2Z)
    class_count: int
    class_table: tuple[str, ...] | None
    stages: tuple[tuple[LayerStage, ...], ...]   # [direction][layer]
    svm: classifier.SvmModel
    ledger: tuple[LayerShapes, ...]
    train_subject_ids: tuple[str, ...]
    # in-memory diagnostics; never serialized
    training_features: np.ndarray | None = field(default=None, compare=False)

    @property
    def feature_dim(self) -> int:
        return sum(stage.lag.output_dim
                   for per_dir in self.stages for stage in per_dir)


def _lag_seed(seed: int, layer: int, direction: int) -> int:
    # stable derivation so per-layer/direction clustering is independent of
    # execution order and thread scheduling
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFF, 7, layer, direction])
    return int(ss.generate_state(1)[0])


def _direction_maps(samples: list[DeformationSample],
                    direction: int) -> list[np.ndarray]:
    """One-channel (H, W, Z, 1) input maps of one direction of every sample."""
    return [np.ascontiguousarray(s.interlaced[direction])[..., None]
            for s in samples]


def _project(kernel: saab.SaabKernel, fmap: np.ndarray, window) -> np.ndarray:
    """Project the unions of one map, slab by slab, into a preallocated
    (H-h+1, W-w+1, Z-z+1, F) conv map. Returning frees the last slab
    before the caller pools."""
    (H, W, Z, _), (h, w, z) = fmap.shape, window
    conv = np.empty((H - h + 1, W - w + 1, Z - z + 1, kernel.channels))
    rows, start = conv.reshape(-1, kernel.channels), 0
    for unions in union_slabs(fmap, window):
        rows[start:start + len(unions)] = saab.apply_saab(kernel, unions)
        start += len(unions)
    return conv


def _run_layer(kernel: saab.SaabKernel, fmap: np.ndarray, window,
               shapes: LayerShapes) -> tuple[np.ndarray, np.ndarray]:
    """Apply one fitted layer to one map; returns (conv, pooled)."""
    if fmap.shape != shapes.input_dims:
        raise ShapeLedgerMismatchError(
            f"layer {shapes.layer} input {fmap.shape}, "
            f"ledger says {shapes.input_dims}")
    conv = _project(kernel, fmap, window)
    conv = conv[:, :, :shapes.conv_dims[2]]           # optional depth truncation
    if conv.shape != shapes.conv_dims:
        raise ShapeLedgerMismatchError(
            f"projection produced {conv.shape}, ledger says {shapes.conv_dims}")
    pooled = max_pool(conv)
    if pooled.shape != shapes.pool_dims:
        raise ShapeLedgerMismatchError(
            f"pooling produced {pooled.shape}, ledger says {shapes.pool_dims}")
    return conv, pooled


def _pool_layer(kernel: saab.SaabKernel, maps, window,
                shapes: LayerShapes) -> np.ndarray:
    """Apply one fitted layer to every map; stacked (N, H, W, Z, C)."""
    return np.stack([_run_layer(kernel, m, window, shapes)[1] for m in maps])


def _reduce(pooled: np.ndarray, kept: np.ndarray,
            shapes: LayerShapes) -> np.ndarray:
    """Flattened (N, D) kept channels of stacked pooled maps."""
    flat = supervise.select_channels(pooled, kept).reshape(len(pooled), -1)
    if flat.shape[1] != shapes.lag_input_dim:
        raise ShapeLedgerMismatchError(
            f"layer {shapes.layer} reduced width {flat.shape[1]}, "
            f"ledger says {shapes.lag_input_dim}")
    return flat


def _features(blocks: list[list[np.ndarray]]) -> np.ndarray:
    """Concatenate [layer][direction] blocks, layer-major, direction-minor."""
    return np.concatenate([b for per_layer in blocks for b in per_layer], axis=1)


def _union_moments(maps, window):
    """Per-map moments of every map's neighborhood unions, one map at a
    time; a map's moments are the in-order merge of its slabs' moments."""
    return (saab.merge_moments(saab.union_moments(unions)
                               for unions in union_slabs(m, window))
            for m in maps)


def first_layer_moments(samples: list[DeformationSample],
                        cfg: PipelineConfig) -> list[saab.Moments]:
    """Layer-1 union moments of each direction, merged in subject order.

    Layer-1 input is the raw field, so these statistics do not depend on
    anything fitted and can be computed once per set of subjects.
    """
    window = cfg.layers[0].window
    return [saab.merge_moments(
                _union_moments(_direction_maps(samples, d), window))
            for d in range(DIRECTIONS)]


def fit_pipeline(samples: list[DeformationSample], cfg: PipelineConfig,
                 class_count: int | None = None,
                 class_table: dict[int, str] | None = None, *,
                 layer1=None) -> PipelineModel:
    """Fit every layer, the per-layer supervised branches, and the SVM.

    ``layer1`` optionally gives, per direction, a sequence of layer-1
    :class:`~sslhop.saab.Moments` that together cover exactly ``samples``;
    they are merged in the given order. By default they are computed from
    ``samples`` by :func:`first_layer_moments`.
    """
    if not samples:
        raise ShapeMismatchError("no training samples")
    dims = samples[0].dims
    for s in samples:
        if s.dims != dims:
            raise ShapeMismatchError(
                f"sample {s.subject_id} dims {s.dims} != {dims}")
    labels = np.array([s.label for s in samples], dtype=np.int64)
    present = np.unique(labels)
    k = int(class_count) if class_count is not None else int(present.max()) + 1
    if k < 2:
        raise SingleClassError("training data must contain at least two classes")
    missing = sorted(set(range(k)) - set(present.tolist()))
    if missing or present.max() >= k:
        raise MissingClassError(f"labels must cover 0..{k - 1}; missing {missing}")

    ledger = compute_ledger(cfg, dims)
    if layer1 is None:
        layer1 = [[m] for m in first_layer_moments(samples, cfg)]
    expected = len(samples) * union_count(dims, cfg.layers[0].window)
    for d, moments in enumerate(layer1):
        count = sum(m.count for m in moments)
        if count != expected:
            raise ShapeLedgerMismatchError(
                f"direction {d} layer-1 statistics cover {count} unions, "
                f"{len(samples)} samples give {expected}")
    stages: list[tuple[LayerStage, ...]] = []
    blocks = [[None] * DIRECTIONS for _ in cfg.layers]
    for d in range(DIRECTIONS):
        maps = _direction_maps(samples, d)
        per_dir = []
        for li, (layer, shapes) in enumerate(zip(cfg.layers, ledger)):
            moments = (layer1[d] if li == 0
                       else _union_moments(maps, layer.window))
            kernel = saab.fit_saab_batches(moments, layer.channels,
                                           cfg.bias_scale)
            maps = _pool_layer(kernel, maps, layer.window, shapes)
            entropy = supervise.channel_entropy(maps, labels, cfg.keep_ratio)
            flat = _reduce(maps, entropy.kept, shapes)
            lag = supervise.fit_lag(flat, labels, cfg.centroids_per_class,
                                    cfg.alpha, cfg.ridge_lambda,
                                    seed=_lag_seed(cfg.seed, li, d))
            blocks[li][d] = supervise.apply_lag(lag, flat)
            per_dir.append(LayerStage(kernel=kernel, entropy=entropy, lag=lag))
        stages.append(tuple(per_dir))

    features = _features(blocks)
    svm = classifier.fit_svm(features, labels, cost=cfg.svm_cost, class_count=k)

    table = None
    if class_table is not None:
        table = tuple(class_table[i] for i in range(k))
    return PipelineModel(
        config=cfg, input_dims=dims, class_count=k, class_table=table,
        stages=tuple(stages), svm=svm, ledger=ledger,
        train_subject_ids=tuple(s.subject_id for s in samples),
        training_features=features)


def transform_many(model: PipelineModel,
                   samples: list[DeformationSample]) -> np.ndarray:
    """Final (N, feature_dim) feature vectors of assembled samples, computed
    by the same batched layer steps as :func:`fit_pipeline`."""
    if not samples:
        raise ShapeMismatchError("no samples to transform")
    for s in samples:
        if s.dims != model.input_dims:
            raise ShapeMismatchError(
                f"sample {s.subject_id} dims {s.dims} != model input "
                f"{model.input_dims}")
    layers = model.config.layers
    blocks = [[None] * DIRECTIONS for _ in layers]
    for d in range(DIRECTIONS):
        maps = _direction_maps(samples, d)
        for li, (stage, shapes) in enumerate(zip(model.stages[d], model.ledger)):
            maps = _pool_layer(stage.kernel, maps, layers[li].window, shapes)
            blocks[li][d] = supervise.apply_lag(
                stage.lag, _reduce(maps, stage.entropy.kept, shapes))
    features = _features(blocks)
    if features.shape[1] != model.feature_dim:
        raise ShapeLedgerMismatchError(
            f"feature length {features.shape[1]} != ledger {model.feature_dim}")
    return features


def transform(model: PipelineModel, sample: DeformationSample) -> np.ndarray:
    """Compute the final feature vector of one assembled sample."""
    return transform_many(model, [sample])[0]


def forward_maps(model: PipelineModel, sample: DeformationSample,
                 direction: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Diagnostic: (conv, pooled) maps of every layer for one direction."""
    fmap = _direction_maps([sample], direction)[0]
    out = []
    for li, stage in enumerate(model.stages[direction]):
        conv, fmap = _run_layer(stage.kernel, fmap, model.config.layers[li].window,
                                model.ledger[li])
        out.append((conv, fmap))
    return out


def predict_samples(model: PipelineModel,
                    samples: list[DeformationSample]) -> tuple[np.ndarray, np.ndarray]:
    """Transform then classify; returns (labels, decision scores)."""
    return classifier.predict(model.svm, transform_many(model, samples))


# -- parameter accounting --------------------------------------------------------

def parameter_breakdown(cfg: PipelineConfig, input_dims: tuple[int, int, int],
                        class_count: int) -> dict:
    """Exact integer parameter counts implied by a config and input size."""
    ledger = compute_ledger(cfg, input_dims)
    block = class_count * cfg.centroids_per_class
    per_layer = []
    saab_total = 0
    lag_total = 0
    for shapes, layer in zip(ledger, cfg.layers):
        anchors = DIRECTIONS * layer.channels * shapes.union_dim
        biases = DIRECTIONS * layer.channels if cfg.bias_scale != 0.0 else 0
        lag = DIRECTIONS * ((shapes.lag_input_dim + 1) * block
                            + block * shapes.lag_input_dim)
        per_layer.append({"layer": shapes.layer, "saab": anchors + biases,
                          "lag": lag})
        saab_total += anchors + biases
        lag_total += lag
    feature_dim = len(cfg.layers) * DIRECTIONS * block
    svm_total = class_count * (feature_dim + 1)
    return {"saab": saab_total, "lag": lag_total, "svm": svm_total,
            "total": saab_total + lag_total + svm_total,
            "per_layer": per_layer}


def count_parameters(model: PipelineModel) -> dict:
    """Exact integer parameter counts of a fitted model's stored arrays."""
    saab_total = 0
    lag_total = 0
    for per_dir in model.stages:
        for stage in per_dir:
            saab_total += stage.kernel.dc.size + stage.kernel.ac.size
            if model.config.bias_scale != 0.0:
                saab_total += stage.kernel.channels
            lag_total += stage.lag.centroids.size + stage.lag.weights.size
    svm_total = model.svm.weights.size + model.svm.intercepts.size
    return {"saab": saab_total, "lag": lag_total, "svm": svm_total,
            "total": saab_total + lag_total + svm_total}
