"""End-to-end feature pipeline: stacked union->subspace->pool layers per
direction, a supervised reduction branch per layer, and a final linear SVM.

The three direction components of an assembled sample are processed
independently through the same layer plan, each with its own fitted
stages; a transform runs them side by side, as one stack with a leading
direction axis, so each layer is one step for all three. Each layer
contributes one reduced feature block per direction, and the final
per-sample feature is the concatenation over layers (outer) then
directions (inner).

Every fit is preceded by a dry-run shape pass producing a ledger of the
expected map dimensions; any disagreement during the real pass raises
ShapeLedgerMismatchError rather than silently continuing. Fit and transform
run the same batched per-layer steps, so both check the same ledger entries
and transforming the training samples reproduces the training features.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import classifier, saab, supervise
from .errors import (MissingClassError, NonFiniteValuesError,
                     ShapeLedgerMismatchError, ShapeMismatchError,
                     SingleClassError, WindowTooLargeError, as_integer)
from .fields import CONCAT_MODES, DIRECTIONS, DeformationSample, crop_phases
from .neighborhood import extract_unions, max_pool, pooled_dims, slab_plan, \
    union_count


@dataclass(frozen=True)
class LayerSpec:
    """Window geometry and output channel count of one layer."""

    window: tuple[int, int, int]
    channels: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "window",
                           tuple(as_integer("window", v) for v in self.window))
        object.__setattr__(self, "channels", as_integer("channels", self.channels))
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
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.centroids_per_class < 1:
            raise ValueError("centroids_per_class must be positive, "
                             f"got {self.centroids_per_class}")
        if self.concat_mode not in CONCAT_MODES:
            raise ValueError(f"concat_mode must be one of {CONCAT_MODES}")
        for name in ("roi_size", "roi_origin"):
            val = getattr(self, name)
            if val is not None:
                val = tuple(as_integer(name, v) for v in val)
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
        kept = supervise.keep_count(layer.channels, cfg.keep_ratio)
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
    """Validate both phases and crop them to the configured ROI; they merge
    along depth, in the configured order, whenever a map is built."""
    if cfg.roi_size is not None:
        ed, es = crop_phases(ed, es, cfg.roi_origin, cfg.roi_size)
    return DeformationSample(ed, es, cfg.concat_mode, label, subject_id)


def common_dims(samples: list[DeformationSample]) -> tuple[int, int, int]:
    """The (H, W, 2Z) dims every sample shares."""
    if not samples:
        raise ShapeMismatchError("no training samples")
    dims = samples[0].dims
    for s in samples:
        if s.dims != dims:
            raise ShapeMismatchError(
                f"sample {s.subject_id} dims {s.dims} != {dims}")
    return dims


# -- fitted model ---------------------------------------------------------------

@dataclass(frozen=True)
class LayerStage:
    """Fitted state of one layer for one direction."""

    kernel: saab.SaabKernel
    entropy: supervise.ChannelEntropy
    lag: supervise.LagModel


@dataclass(frozen=True)
class FittedStages:
    """All of a fit but its SVM: every direction's fitted layer stages, the
    LAG feature blocks they give the subjects they were fitted on, in
    subject order, and those they give the samples held out of the fit, in
    sample order (none for a plain fit)."""

    subject_ids: tuple[str, ...]
    stages: tuple[tuple[LayerStage, ...], ...]   # [direction][layer]
    blocks: tuple[tuple[np.ndarray, ...], ...]   # [direction][layer], (N, B)
    held_blocks: tuple[tuple[np.ndarray, ...], ...]  # [direction][layer], (M, B)


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


class _DirectionMaps:
    """The one-channel float64 input maps of some directions of every
    sample, as a (G, N, H, W, Z, 1) stack, one row of maps per direction
    in ``directions`` (a slice of the three), whose runs of maps are built
    when they are taken (``maps[:, start:stop]``)."""

    def __init__(self, samples: list[DeformationSample], directions: slice):
        self.samples, self.directions = samples, directions
        self.shape = ((len(range(DIRECTIONS)[directions]), len(samples))
                      + samples[0].dims + (1,))

    def __getitem__(self, index: tuple[slice, slice]) -> np.ndarray:
        _, run = index           # maps[:, run]: every direction of a run
        samples = self.samples[run]
        out = np.empty(self.shape[:1] + (len(samples),) + self.shape[2:])
        for i, sample in enumerate(samples):
            sample.direction(self.directions, out=out[:, i, ..., 0])
        return out


def _projections(kernels) -> tuple[list[np.ndarray], np.ndarray]:
    """The projections of ``kernels``, G lists of K kernels: for each
    position k, the (G, D, F) stack of its kernels' matrices, each in the
    layout of its kernel's own, and the (G, K, F) offsets."""
    matrices = [np.stack([k.projection[0].T for k in group]).transpose(0, 2, 1)
                for group in zip(*kernels)]
    return matrices, np.array([[k.projection[1] for k in group]
                               for group in kernels])


def _project(matrices, maps: np.ndarray, window, ys) -> list[np.ndarray]:
    """Project the unions of one run of :func:`slab_plan`, a (G, N, H, W, Z,
    C) stack of maps read in the slabs of input y-rows ``ys``, onto each
    (G, D, F) stack of ``matrices``, group by group, into a preallocated
    (G, N, H-h+1, W-w+1, Z-z+1, F) conv stack of its own; no offset is
    added. Each slab is extracted once, and one batched product per
    matrix stack writes its projection in place, at the slab's rows of
    each group's conv maps. Returning frees the last slab before the
    caller pools."""
    (G, N, H, W, Z, _), (h, w, z) = maps.shape, window
    convs = [np.empty((G, N, H - h + 1, W - w + 1, Z - z + 1, m.shape[-1]))
             for m in matrices]
    rows = [conv.reshape(G, -1, conv.shape[-1]) for conv in convs]
    start = 0
    for y in ys:
        unions = extract_unions(maps[:, :, y], window)
        unions = unions.reshape(G, -1, unions.shape[1])   # a view per group
        stop = start + unions.shape[1]
        for matrix, out in zip(matrices, rows):
            np.matmul(unions, matrix, out=out[:, start:stop])
        start = stop
    return convs


def _pool_layer(kernels, maps, window, shapes: LayerShapes,
                rows: np.ndarray | None = None, map_fn=map) -> np.ndarray:
    """Apply one layer to a (G, N, H, W, Z, C) stack of maps, G groups of N
    maps, with ``kernels``, G lists of K kernels: group ``g``'s maps are
    projected with each kernel of ``kernels[g]``. Returns the pooled maps
    as a (G, K, N, H', W', Z', F) array. Map ``i`` goes to row
    ``rows[k, i]`` of the stacks of kernel position ``k`` (row ``i`` by
    default).

    The maps run in the runs of :func:`slab_plan`, so a run's conv stacks
    take about a slab: the conv maps of the whole stack are never held at
    once. Each kernel's offset is added to its pooled maps, not to its
    conv maps: rounding is monotone, so ``max(fl(x_i + c))`` is
    ``fl(max(x_i) + c)`` and the pooled maps are those of
    :func:`saab.apply_saab`'s conv maps, bit for bit. ``map_fn`` runs the
    per-run work; each run writes only its own rows, so a thread pool's
    ``map`` may run them side by side."""
    if maps.shape[2:] != shapes.input_dims:
        raise ShapeLedgerMismatchError(
            f"layer {shapes.layer} input {maps.shape[2:]}, "
            f"ledger says {shapes.input_dims}")
    plan = slab_plan(maps.shape, window)
    matrices, offsets = _projections(kernels)
    out = np.empty(offsets.shape[:2] + maps.shape[1:2] + shapes.pool_dims)

    def run(plan_run) -> None:
        group, ys = plan_run
        for k, conv in enumerate(_project(matrices, maps[:, group], window,
                                          ys)):
            conv = conv[..., :shapes.conv_dims[2], :]  # optional depth truncation
            if conv.shape[2:] != shapes.conv_dims:
                raise ShapeLedgerMismatchError(
                    f"projection produced {conv.shape[2:]}, "
                    f"ledger says {shapes.conv_dims}")
            pooled = max_pool(conv)
            if pooled.shape[2:] != shapes.pool_dims:
                raise ShapeLedgerMismatchError(
                    f"pooling produced {pooled.shape[2:]}, "
                    f"ledger says {shapes.pool_dims}")
            out[:, k, group if rows is None else rows[k, group]] = pooled

    for _ in map_fn(run, plan):
        pass
    out += offsets[:, :, None, None, None, None]
    return out


def _reduce(pooled: np.ndarray, kept: np.ndarray,
            shapes: LayerShapes) -> np.ndarray:
    """Flattened (N, D) kept channels of stacked pooled maps; ``kept``
    comes from a :class:`supervise.ChannelEntropy`, which checked it."""
    flat = pooled[..., kept].reshape(len(pooled), -1)
    if flat.shape[1] != shapes.lag_input_dim:
        raise ShapeLedgerMismatchError(
            f"layer {shapes.layer} reduced width {flat.shape[1]}, "
            f"ledger says {shapes.lag_input_dim}")
    return flat


def concat_features(blocks) -> np.ndarray:
    """Concatenate [direction][layer] LAG blocks into (N, feature_dim)
    features, layer-major, direction-minor."""
    return np.concatenate([b for per_layer in zip(*blocks) for b in per_layer],
                          axis=1)


def _union_moments(maps: np.ndarray, window):
    """Yield the moments of the unions of each run of a (N, H, W, Z, C)
    stack of maps, in the order of :func:`slab_plan`; merged in order,
    they are the moments of the whole stack's unions.

    Each channel's mean over the run is subtracted from its maps once, a
    copy D/C times smaller than their unions; the run's slabs of the
    shifted maps add up raw sums and Gram matrices, corrected once per
    run (the shifted-data algorithm of Chan, Golub & LeVeque 1983). The
    mean is taken about the run's first voxel, so a constant channel
    shifts to exact zeros and adds exactly nothing to the scatter. A map
    whose unions fill a slab is a run of its own.
    """
    per_map = union_count(maps.shape[1:], window)
    for group, ys in slab_plan(maps.shape, window):
        fmaps = maps[group]
        first = fmaps[0, 0, 0, 0]
        shifted = np.subtract(fmaps, first, dtype=np.float64)
        shift = shifted.mean(axis=(0, 1, 2, 3))
        shifted -= shift
        total = gram = 0.0
        for y in ys:
            unions = extract_unions(shifted[:, y], window)
            total += unions.sum(axis=0)
            gram += unions.T @ unions
        n = per_map * len(fmaps)
        mean = total / n
        shift += first
        yield saab.Moments(n, mean + np.tile(shift, math.prod(window)),
                           gram - n * np.outer(mean, mean))


def _fit_direction(pooled: np.ndarray, kernel: saab.SaabKernel,
                   labels: np.ndarray, cfg: PipelineConfig,
                   ledger: tuple[LayerShapes, ...], direction: int):
    """Fit one direction's layer stages from its layer-1 pooled maps.

    ``pooled`` stacks the maps that layer-1 ``kernel`` gave the subjects:
    first the ``len(labels)`` training subjects the stages are fitted on,
    with their ``labels``, then any held-out subjects, which only run
    through each fitted layer beside them. Returns the stages, then the
    LAG blocks of the training rows and of the held-out rows (empty when
    there are none), one per layer.
    """
    n = len(labels)
    stages, train_blocks, held_blocks = [], [], []
    for li, (layer, shapes) in enumerate(zip(cfg.layers, ledger)):
        if li:
            kernel = saab.fit_saab_batches(
                _union_moments(pooled[:n], layer.window), layer.channels,
                cfg.bias_scale)
            pooled = _pool_layer([[kernel]], pooled[None], layer.window,
                                 shapes)[0, 0]
        entropy = supervise.channel_entropy(pooled[:n], labels, cfg.keep_ratio)
        flat = _reduce(pooled, entropy.kept, shapes)
        lag = supervise.fit_lag(flat[:n], labels, cfg.centroids_per_class,
                                cfg.alpha, cfg.ridge_lambda,
                                seed=_lag_seed(cfg.seed, li, direction))
        train_blocks.append(supervise.apply_lag(lag, flat[:n]))
        if len(pooled) > n:
            held_blocks.append(supervise.apply_lag(lag, flat[n:]))
        stages.append(LayerStage(kernel=kernel, entropy=entropy, lag=lag))
    return tuple(stages), tuple(train_blocks), tuple(held_blocks)


def fit_folds(samples: list[DeformationSample], cfg: PipelineConfig,
              train: list[np.ndarray], threads: int = 1) -> list[FittedStages]:
    """Fit one set of layer stages per index array in ``train``, each on
    those samples, in that order; the other samples are held out of it.

    Direction by direction: each sample's layer-1 union moments are taken
    once, and each set's layer-1 kernel merges those of its training
    samples in their order, so its stages are those of a fit of its
    training samples alone, bit for bit. The moments are freed before one
    slab pass, over runs of whole maps (:func:`slab_plan`), projects every
    sample's map with every set's kernel, into a stack per set that holds
    its training samples, then its held-out ones; :func:`_fit_direction`
    then fits each set's layers from its stack.

    With ``threads`` > 1, the per-sample, per-run and per-set work runs on
    a pool of at most one worker per set. Each piece of work writes only
    its own results, so the output does not depend on the thread count.
    """
    ledger = compute_ledger(cfg, common_dims(samples))
    labels = np.array([s.label for s in samples], dtype=np.int64)
    held = [np.setdiff1d(np.arange(len(samples)), t) for t in train]
    rows = np.argsort([np.concatenate(p) for p in zip(train, held)], axis=1)
    layer, shapes = cfg.layers[0], ledger[0]
    fits = []                                    # [direction][set]
    with ThreadPoolExecutor(max_workers=max(1, min(threads,
                                                   len(train)))) as pool:
        map_fn = pool.map if threads > 1 else map
        for d in range(DIRECTIONS):
            # one direction at a time: each holds every set's pooled maps
            maps = _DirectionMaps(samples, slice(d, d + 1))
            # one run per sample: each set merges its samples' moments
            moments = list(map_fn(
                lambda i: next(_union_moments(maps[:, i:i + 1][0],
                                              layer.window)),
                range(len(samples))))
            kernels = [saab.fit_saab_batches([moments[i] for i in t],
                                             layer.channels, cfg.bias_scale)
                       for t in train]
            del moments
            pooled = _pool_layer([kernels], maps, layer.window, shapes, rows,
                                 map_fn)[0]
            fits.append(list(map_fn(lambda f: _fit_direction(
                pooled[f], kernels[f], labels[train[f]], cfg, ledger, d),
                range(len(train)))))
            del pooled
    return [FittedStages(tuple(samples[i].subject_id for i in t),
                         *zip(*(per_set[f] for per_set in fits)))
            for f, t in enumerate(train)]


def fit_pipeline(samples: list[DeformationSample], cfg: PipelineConfig,
                 class_count: int | None = None,
                 class_table: dict[int, str] | None = None, *,
                 fitted: FittedStages | None = None) -> PipelineModel:
    """Fit every layer, the per-layer supervised branches, and the SVM.

    ``fitted`` optionally hands over the layer stages, fitted on exactly
    ``samples`` in the same order (cross-validation fits every fold's
    stages in one :func:`fit_folds` call); only the SVM is then fitted
    here. By default they come from :func:`fit_folds` of ``samples``.
    """
    dims = common_dims(samples)
    labels = np.array([s.label for s in samples], dtype=np.int64)
    present = np.unique(labels)
    k = int(class_count) if class_count is not None else int(present.max()) + 1
    if k < 2:
        raise SingleClassError("training data must contain at least two classes")
    missing = sorted(set(range(k)) - set(present.tolist()))
    if missing or present.max() >= k:
        raise MissingClassError(f"labels must cover 0..{k - 1}; missing {missing}")

    ledger = compute_ledger(cfg, dims)
    ids = tuple(s.subject_id for s in samples)
    if fitted is None:
        (fitted,) = fit_folds(samples, cfg, [np.arange(len(samples))])
    elif fitted.subject_ids != ids:
        raise ShapeLedgerMismatchError(
            f"stages were fitted on {len(fitted.subject_ids)} subjects, not "
            f"on the {len(ids)} training samples in their order")
    features = concat_features(fitted.blocks)
    svm = classifier.fit_svm(features, labels, cost=cfg.svm_cost, class_count=k)

    table = None
    if class_table is not None:
        table = tuple(class_table[i] for i in range(k))
    return PipelineModel(
        config=cfg, input_dims=dims, class_count=k, class_table=table,
        stages=fitted.stages, svm=svm, ledger=ledger,
        train_subject_ids=ids, training_features=features)


def transform_many(model: PipelineModel,
                   samples: list[DeformationSample]) -> np.ndarray:
    """Final (N, feature_dim) feature vectors of assembled samples, computed
    by the same layer steps as :func:`fit_pipeline`, each layer one step
    for the three directions' maps, stacked."""
    if not samples:
        raise ShapeMismatchError("no samples to transform")
    for s in samples:
        if s.dims != model.input_dims:
            raise ShapeMismatchError(
                f"sample {s.subject_id} dims {s.dims} != model input "
                f"{model.input_dims}")
    maps, blocks = _DirectionMaps(samples, slice(None)), []
    for layer, shapes, stages in zip(model.config.layers, model.ledger,
                                     zip(*model.stages)):
        maps = _pool_layer([[stage.kernel] for stage in stages], maps,
                           layer.window, shapes)[:, 0]
        blocks.append([supervise.apply_lag(
                           stage.lag, _reduce(pooled, stage.entropy.kept,
                                              shapes))
                       for stage, pooled in zip(stages, maps)])
    features = concat_features(zip(*blocks))
    if features.shape[1] != model.feature_dim:
        raise ShapeLedgerMismatchError(
            f"feature length {features.shape[1]} != ledger {model.feature_dim}")
    return features


def predict_samples(model: PipelineModel,
                    samples: list[DeformationSample]) -> tuple[np.ndarray, np.ndarray]:
    """Transform then classify; returns (labels, decision scores). A
    score that is not finite, from a model whose values overflow, raises
    :class:`NonFiniteValuesError`."""
    labels, scores = classifier.predict(model.svm,
                                        transform_many(model, samples))
    if not np.isfinite(scores).all():
        raise NonFiniteValuesError(
            "the model gives non-finite decision scores")
    return labels, scores


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
    """Exact integer parameter counts of a fitted model's arrays."""
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
