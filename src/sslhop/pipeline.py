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

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass

import numpy as np

from . import classifier, neighborhood, saab, supervise
from .errors import (IndexOutOfRangeError, NonFiniteValuesError,
                     ShapeLedgerMismatchError, ShapeMismatchError,
                     WindowTooLargeError, as_finite, as_int_triple,
                     as_integer, as_seed)
from .fields import CONCAT_MODES, DIRECTIONS, DeformationSample, crop_phases
from .neighborhood import extract_unions, max_pool, pooled_dims, slab_plan, \
    union_count


def _keywords(cls, data, what: str) -> dict:
    """``data``, a JSON object, as the keyword arguments of the dataclass
    ``cls``: it must give every field without a default, and no other."""
    if not isinstance(data, dict):
        raise ValueError(f"a {what} must be a JSON object, got {data!r}")
    fields = cls.__dataclass_fields__
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    missing = [name for name, f in fields.items()
               if name not in data and f.default is MISSING]
    if missing:
        raise ValueError(f"{what} keys missing: {missing}")
    return data


@dataclass(frozen=True)
class LayerSpec:
    """Window geometry and output channel count of one layer."""

    window: tuple[int, int, int]
    channels: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "window", as_int_triple("window", self.window))
        object.__setattr__(self, "channels", as_integer("channels", self.channels))
        if min(self.window) < 1:
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
        if not isinstance(self.layers, (list, tuple)):
            raise ValueError(f"layers must be a list, got {self.layers!r}")
        layers = tuple(l if isinstance(l, LayerSpec)
                       else LayerSpec(**_keywords(LayerSpec, l, "layer"))
                       for l in self.layers)
        if not layers:
            raise ValueError("at least one layer is required")
        object.__setattr__(self, "layers", layers)
        for name in ("keep_ratio", "alpha", "ridge_lambda", "svm_cost",
                     "bias_scale"):
            as_finite(name, getattr(self, name))
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
        object.__setattr__(self, "centroids_per_class", as_integer(
            "centroids_per_class", self.centroids_per_class))
        object.__setattr__(self, "seed", as_seed("seed", self.seed))
        if self.centroids_per_class < 1:
            raise ValueError("centroids_per_class must be positive, "
                             f"got {self.centroids_per_class}")
        if self.concat_mode not in CONCAT_MODES:
            raise ValueError(f"concat_mode must be one of {CONCAT_MODES}")
        for name in ("roi_size", "roi_origin"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, as_int_triple(name, val))
        if self.roi_origin is not None and self.roi_size is None:
            raise ValueError("roi_origin needs a roi_size: without one no crop "
                             "is taken")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        return cls(**_keywords(cls, data, "config"))


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


def _truncated_depth(cfg: PipelineConfig, layer_1based: int, depth: int) -> int:
    # optional compatibility mode: some deployments of the five-layer plan
    # run layer 5 one depth slice short of stride-1 window arithmetic
    if cfg.truncate_layer5 and layer_1based == 5 and depth > 1:
        return depth - 1
    return depth


def compute_ledger(cfg: PipelineConfig,
                   input_dims: tuple[int, int, int]) -> tuple[LayerShapes, ...]:
    """Dry-run shape pass over the layer plan for a (H, W, Z) input."""
    dims = as_int_triple("input_dims", input_dims)
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
    sample order (zero rows for a plain fit)."""

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
    train_subject_ids: tuple[str, ...]

    @functools.cached_property
    def ledger(self) -> tuple[LayerShapes, ...]:
        """The dry run of the config over the input dims; derived, never
        stored, so it cannot disagree with the config."""
        return compute_ledger(self.config, self.input_dims)

    @functools.cached_property
    def feature_dim(self) -> int:
        return sum(stage.lag.output_dim
                   for per_dir in self.stages for stage in per_dir)

    @functools.cached_property
    def projections(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each layer's :func:`_projections` of its three direction
        kernels, built on the first transform and held with the model;
        not a field, so equality and saved bytes ignore it."""
        return tuple(_projections([stage.kernel for stage in stages],
                                  layer.window, shapes.input_dims)
                     for layer, shapes, stages in zip(
                         self.config.layers, self.ledger, zip(*self.stages)))


def _lag_seed(seed: int, layer: int, direction: int) -> int:
    # stable derivation so per-layer/direction clustering is independent of
    # execution order and thread scheduling
    ss = np.random.SeedSequence([seed, 7, layer, direction])
    return int(ss.generate_state(1)[0])


class _DirectionMaps:
    """The one-channel float32 input maps of some directions of every
    sample, as a (G, N, H, W, Z, 1) stack, one row of maps per direction
    in ``directions`` (a slice of the three), whose runs of maps are built
    when they are taken (``maps[:, start:stop]``). Maps are float32 at
    every layer: the layer step projects them as they are, and the union
    statistics widen them, as they do the float32 pooled maps of the
    layers after."""

    def __init__(self, samples: list[DeformationSample], directions: slice):
        self.samples, self.directions = samples, directions
        self.shape = ((len(range(DIRECTIONS)[directions]), len(samples))
                      + samples[0].dims + (1,))

    def __getitem__(self, index: tuple[slice, slice]) -> np.ndarray:
        _, run = index           # maps[:, run]: every direction of a run
        samples = self.samples[run]
        out = np.empty(self.shape[:1] + (len(samples),) + self.shape[2:],
                       np.float32)
        for i, sample in enumerate(samples):
            sample.direction(self.directions, out=out[:, i, ..., 0])
        return out


def _z_block(window, dims) -> int:
    """The z-block the layer steps project maps of ``dims``, a ledger
    entry's (H, W, Z, C) input dims, in under ``window``: block 1, plain
    im2col, for one-channel maps (layer 1's) and for maps whose flat (x, z)
    plane holds fewer than 32 window positions, L = (W-w)*Z + Z-z+1; else
    the largest ``b`` whose banded Toeplitz matrix is at least 3/4
    non-zero, 4z >= 3(b + z - 1), that is b <= 1 + z/3.

    A block of ``b`` gathers (z+b-1)/(b*z) of block 1's union elements,
    and its GEMM takes (z+b-1)/z times block 1's products, so it pays
    where the gather leads: on wide planes, not on small ones, where
    per-call set-up and the slack copy of an L that is no whole number of
    blocks lead. In timed layer steps (CHANGES.md) block 1 was faster at
    the presets' and workloads' L = 13, 16 and 28, block 2 at their 180,
    658 and 2,912, and the two tied at 124; on five-channel maps block 2
    was faster from L = 40. The block rests on the ledger's shapes alone,
    so a fit, a fold fit and a transform of the layer project in the same
    block."""
    (_, W, Z, C), (_, w, z) = dims, window
    if C == 1 or (W - w) * Z + Z - z + 1 < 32:
        return 1
    return 1 + z // 3


def _bands(kernels, window, block: int) -> np.ndarray:
    """The (G, D', block*F) float64 stack of the banded block-Toeplitz
    matrices of ``kernels``, one per group, in z-blocks of ``block``
    origins, D' = h*w*(z+block-1)*C. Column block j of a matrix holds its
    kernel's (D, F) matrix at the rows of window depths j .. j+z-1, so a
    row of :func:`_plane_unions` gives the block's ``block`` conv voxels,
    z-origin fastest; block 1 is the kernel's own matrix. The stack is the
    transpose of a C-order (G, block*F, D') one, the layout of a kernel's
    own matrix (see :func:`extract_unions`)."""
    h, w, z = window
    F, D = kernels[0].projection[0].shape[::-1]
    bands = np.zeros((len(kernels), block, F, h, w, z + block - 1,
                      D // (h * w * z)))
    for band, kernel in zip(bands, kernels):
        rows = kernel.projection[0].T.reshape(band.shape[1:4] + (z, -1))
        for j in range(block):
            band[j, :, :, :, j:j + z] = rows
    return bands.reshape(len(kernels), block * F, -1).transpose(0, 2, 1)


def _projections(kernels, window, dims) -> tuple[np.ndarray, np.ndarray]:
    """The projection a layer step takes for ``kernels``, one per group:
    the :func:`_bands` stack in the z-block of :func:`_z_block` for the
    layer's input ``dims``, cast to float32, and the kernels' offsets
    rounded to float32, as a (G, 1, 1, 1, 1, F) array that adds to their
    pooled maps. A fit builds one per layer from its fresh kernels; a
    loaded model holds one per layer (:attr:`PipelineModel.projections`)."""
    # order K keeps the transposed layout (see :func:`_bands`)
    matrix = _bands(kernels, window, _z_block(window, dims)).astype(
        np.float32, order="K")
    offsets = np.array([k.projection[1] for k in kernels], np.float32)
    return matrix, offsets[:, None, None, None, None]


def _plane_unions(maps, y: slice, window, block: int) -> np.ndarray:
    """The z-block rows of the input y-rows ``y`` of a (G, N, H, W, Z, C)
    stack of maps, per group, map and y-origin: the h*w*(z+block-1)*C
    window at each ``block``-th position p = x*Z + z' of the flattened
    (x, z) plane below L = (W-w)*Z + Z-z+1 (z' >= Z-z+1 wraps into the
    next x-row), rounded up to whole blocks, as (G, rows, D') views of one
    column-major buffer (see :func:`extract_unions`), in the maps' dtype.
    When L is not a whole number of blocks, the last block reads up to
    (block-1)*C elements past a map's plane, so such slabs, and maps not
    C-contiguous, are copied first beside that many zeros: numpy refuses
    a view that reaches past its buffer. Block 1, layer 1's, never takes
    that copy of C-contiguous maps."""
    (G, N, H, W, Z, C), (h, w, z) = maps.shape, window
    item = maps.dtype.itemsize
    L, sz, sy = (W - w) * Z + Z - z + 1, C * item, W * Z * C * item
    blocks, slack, offset = -(-L // block), -L % block * C, y.start * sy
    if slack or not maps.flags.c_contiguous:
        slab = maps[:, :, y]
        maps, H, offset = (np.zeros(slab.size + slack, maps.dtype),
                           slab.shape[2], 0)
        maps[:slab.size].reshape(slab.shape)[...] = slab
    view = np.ndarray(
        (h, w, z + block - 1, C, G, N, y.stop - y.start - h + 1, blocks),
        maps.dtype, memoryview(maps).toreadonly(), offset,
        (sy, Z * sz, sz, item, N * H * sy, H * sy, sy, block * sz))
    return view.copy().reshape(math.prod(view.shape[:4]), G, -1) \
        .transpose(1, 2, 0)


def _project(matrix, maps: np.ndarray, window, block: int,
             ys) -> np.ndarray:
    """Project the unions of one run of :func:`slab_plan`, a (G, N, H, W,
    Z, C) stack of maps read in the slabs of input y-rows ``ys``, onto the
    (G, D', block*F) stack of :func:`_bands` ``matrix``, group by
    group; a stack of one group (G = 1) is projected onto every matrix. No
    offset is added. One batched product per slab writes its
    :func:`_plane_unions` rows in place into the run's (G, N, H-h+1,
    ceil(L/block)*block, F) conv buffer of flat positions, in the matrix's
    dtype, returned as its (G, N, H-h+1, W-w+1, Z-z+1, F) view. A run's
    conv maps are one array, which the heap reuses from run to run;
    returning frees the last slab before pooling."""
    (_, N, H, W, Z, _), (h, w, z) = maps.shape, window
    positions = -(-((W - w) * Z + Z - z + 1) // block) * block
    F = matrix.shape[-1] // block
    conv = np.empty((len(matrix), N, H - h + 1, positions, F), matrix.dtype)
    rows = conv.reshape(len(matrix), -1, block * F)
    start = 0
    for y in ys:
        unions = _plane_unions(maps, y, window, block)
        stop = start + unions.shape[1]
        np.matmul(unions, matrix, out=rows[:, start:stop])
        start = stop
    return np.ndarray(conv.shape[:3] + (W - w + 1, Z - z + 1, F), conv.dtype,
                      conv, 0, conv.strides[:3] + (Z * conv.strides[3],)
                      + conv.strides[3:])


def _pool_layer(projection, maps, window, shapes: LayerShapes,
                rows: np.ndarray | None = None, map_fn=map,
                out: np.ndarray | None = None) -> np.ndarray:
    """Apply one layer to a (G, N, H, W, Z, C) float32 stack of maps, G
    groups of N maps, with ``projection``, the :func:`_projections` of
    one kernel per group: group ``g``'s maps are projected with kernel
    ``g``, and a stack of one group with every kernel. Returns the pooled
    maps as a float32 (kernels, N, H', W', Z', F) array. Map ``i`` goes
    to row ``rows[g, i]`` of kernel ``g``'s stack (row ``i`` by default).
    The pooled maps are written into ``out`` when it is given, an array of
    that shape and dtype, and into a fresh one otherwise.

    The maps run in the runs of :func:`slab_plan`, so a run's conv stacks
    take about a slab: the conv maps of the whole stack are never held at
    once. A run is projected in float32, on the float32 band stacks, in
    the z-block the band stacks were built in, and the conv stacks of
    every kernel are pooled in one call, straight into the run's rows of
    the output; only a step given ``rows`` pools a run into a temporary
    and scatters it into those rows in one assignment. Each kernel's
    float32 offset is added to its pooled maps, not to its conv maps:
    rounding is monotone, so ``max(fl(x_i + c))`` is ``fl(max(x_i) + c)``
    and the pooled maps are those of the conv maps with the offset added
    before the pool, bit for bit. ``map_fn`` runs the per-run work; each
    run writes only its own rows, so a thread pool's ``map`` may run them
    side by side."""
    if maps.shape[2:] != shapes.input_dims:
        raise ShapeLedgerMismatchError(
            f"layer {shapes.layer} input {maps.shape[2:]}, "
            f"ledger says {shapes.input_dims}")
    plan = slab_plan(maps.shape, window)
    matrix, offsets = projection
    block = matrix.shape[-1] // offsets.shape[-1]
    if out is None:
        out = np.empty((len(matrix),) + maps.shape[1:2] + shapes.pool_dims,
                       np.float32)

    def run(plan_run) -> None:
        group, ys = plan_run
        conv = _project(matrix, maps[:, group], window, block, ys)
        conv = conv[..., :shapes.conv_dims[2], :]  # optional depth truncation
        if conv.shape[2:] != shapes.conv_dims:
            raise ShapeLedgerMismatchError(
                f"projection produced {conv.shape[2:]}, "
                f"ledger says {shapes.conv_dims}")
        if rows is None:
            max_pool(conv, out=out[:, group])
        else:
            out[np.arange(len(out))[:, None], rows[:, group]] = \
                max_pool(conv)

    for _ in map_fn(run, plan):
        pass
    out += offsets
    return out


def _reduce(pooled: np.ndarray, kept: np.ndarray,
            shapes: LayerShapes) -> np.ndarray:
    """Flattened (N, D) kept channels of stacked pooled maps, float32 as
    the maps are (LAG widens them); ``kept`` comes from a
    :class:`supervise.ChannelEntropy`, which checked it."""
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


# cached: built on each call, it took about a third of the per-subject
# statistics of a 12x12x12 map
@functools.lru_cache(maxsize=None)
def _lag_layout(dims: tuple[int, ...], span: tuple[int, ...]):
    """Index layout of :func:`_lagged_sums` for maps of ``dims`` input rows
    (and columns) under a window of ``span`` rows (and columns).

    Returns three tuples. The lags, as ``(d, shape, left, right,
    columns)``: each lag ``d`` that is lexicographically >= 0; the shape
    of its kept products, one per input row ``p`` whose row ``p + d`` lies
    in the maps (and one per window column offset ``a`` that has ``a + d``
    in the window: the sum over its box of origin columns); the column
    slices of the positions ``p``, from ``max(0, -d)``, and ``p + d`` of
    the left and right factors; and those boxes of columns, as slices of
    the left ones. The Gram blocks, as ``(lag, ab, ba, kept)``: the index
    of lag ``d = b - a``, the indices of blocks (a, b) and (b, a), and the
    kept products summed into (a, b). The boxes of positions whose sums
    each window offset takes, in C order of the offsets.
    """
    origins = tuple(n - s + 1 for n, s in zip(dims, span))
    lags, blocks = [], []
    for d in itertools.product(*(range(1 - s, s) for s in span)):
        if d < (0,) * len(d):
            continue
        low = tuple(max(0, -v) for v in d)
        offsets = [range(l, s - l - v) for l, s, v in zip(low, span, d)]
        cols = list(zip(dims[1:], low[1:], d[1:]))
        lags.append((d, (dims[0] - d[0],) + tuple(map(len, offsets[1:])),
                     tuple(slice(l, n - l - v) for n, l, v in cols),
                     tuple(slice(l + v, n - l) for n, l, v in cols),
                     tuple(slice(a - l, a - l + o) for r, l, o in
                           zip(offsets[1:], low[1:], origins[1:])
                           for a in r)))
        for a in itertools.product(*offsets):
            b = tuple(p + v for p, v in zip(a, d))
            blocks.append((len(lags) - 1, a + (slice(None),) + b,
                           b + (slice(None),) + a,
                           (slice(a[0], a[0] + origins[0]),)
                           + tuple(p - l for p, l in zip(a[1:], low[1:]))))
    boxes = tuple(tuple(slice(p, p + o) for p, o in zip(a, origins))
                  for a in itertools.product(*map(range, span)))
    return tuple(lags), tuple(blocks), boxes


def _lagged_sums(shifted: np.ndarray, window, ys, axes: int):
    """Raw sums and Gram matrices of the unions of a (n, H, W, Z, C) stack
    of whole maps read in the row slabs ``ys``, from their partial unions
    over the rest of the window once its first ``axes`` axes are lagged:
    ``R_p``, the (1, w, z) unions of input row ``p`` (``axes`` 1, K = D/h
    columns) or the (1, 1, z) unions of input row and column ``p``
    (``axes`` 2, K = D/(h*w)). Row lags keep the run's map axis: they
    return each map's (n, D) sums and (n, D, D) Gram matrices. Row and
    column lags sum over the run's maps, whose origins widen their GEMMs:
    they return the run's, as a stack of one.

    A union at origin ``o`` is the ``R_{o+a}`` side by side, for the
    lagged window offsets ``a`` in C order, so Gram block (a, a+d) is the
    sum of ``R_p^T R_{p+d}`` over ``p`` in the box of origins shifted by
    ``a``, and block (a+d, a) its transpose: the terms of the unions' Gram
    matrix, grouped by position. Each lagged product is formed once, for
    each lag ``d`` that is lexicographically >= 0 (3 row lags, or 13
    row-and-column lags, of a 3x3 window), by one batched product per lag
    and slab, with one GEMM per position and map (or run); a slab takes
    the products of its origin rows, and the last (or only) one also those
    of its halo rows, which no later slab reads. Each map's products and
    sums are taken alone, in the same order, whatever the run and slabs it
    is read in, so they do not depend on them. Row-and-column products are
    summed over each box of origin columns as they come, so a run keeps at
    most h*(2w-1) (row, column-offset) sums of K x K per input row, as row
    lags keep h products of (wK) x (wK) per input row and map.
    """
    span, part = tuple(window[:axes]), (1,) * axes + tuple(window[axes:])
    dims = shifted.shape[1:1 + axes]
    lags, blocks, boxes = _lag_layout(dims, span)
    K = math.prod(part) * shifted.shape[-1]
    batch = len(shifted) if axes == 1 else 1   # maps kept apart
    lead = tuple(range(axes))
    lagged = [np.empty(shape + (batch, K, K)) for _, shape, _, _, _ in lags]
    sums = np.empty(dims + (batch, K))
    # the slab's input positions lead, before the maps
    front = tuple(range(1, axes + 1)) + (0,)
    for y in ys:
        count = y.stop - y.start
        own = count if y.stop == dims[0] else count - (span[0] - 1)
        stack = shifted[(slice(None), y) + (slice(None),) * (axes - 1)
                        + (None,) * axes]
        stack = stack.transpose(front + tuple(range(axes + 1, stack.ndim)))
        # (rows, [columns,] maps, K, origins): each position's R_p^T over
        # each map, or over the run's, a view of the gathered slab
        rows = extract_unions(stack, part).T.reshape(
            (K, count) + dims[1:] + (batch, -1)).transpose(
            tuple(range(1, axes + 2)) + (0, axes + 2))
        sums[y.start:y.start + own] = rows[:own].sum(axis=-1)
        for (d, _, left, right, columns), kept in zip(lags, lagged):
            n = min(own, count - d[0])
            out = kept[y.start:y.start + n]
            products = np.matmul(
                rows[(slice(0, n),) + left],
                rows[(slice(d[0], d[0] + n),) + right].swapaxes(-1, -2),
                out=None if columns else out)
            for c, box in enumerate(columns):
                products[:, box].sum(axis=1, out=out[:, c])
    gram = np.empty((batch,) + span + (K,) + span + (K,))
    for lag, ab, ba, kept in blocks:
        gram[(slice(None),) + ab] = block = lagged[lag][kept].sum(axis=0)
        gram[(slice(None),) + ba] = block.swapaxes(-1, -2)
    total = np.concatenate([sums[box].sum(axis=lead) for box in boxes],
                           axis=-1)
    D = math.prod(span) * K
    return total, gram.reshape(batch, D, D)


def _map_moments(maps, window, map_fn=map) -> saab.Moments:
    """The moments of the unions of each map of a (1, N, H, W, Z, C) stack
    of maps, stacked: the count each map shares, (N, D) means and (N, D,
    D) scatters.

    The maps are read in the runs and slabs of :func:`lag_plan`, sized by
    the (1, w, z) partial unions whose row-lagged products give each map's
    raw sums and Gram matrix (:func:`_lagged_sums`). Each map is shifted
    by its first voxel and then by its channels' means, taken map by map,
    so a constant channel shifts to exact zeros and adds exactly nothing
    to the scatter, and its sums are corrected for the shift once (the
    shifted-data algorithm of Chan, Golub & LeVeque 1983). No step takes
    its order from the run: a map's moments are the same bits alone, in a
    run of several, in a ragged last run and in row slabs, which is what
    lets a fold's kernel merge moments taken beside its held-out maps.
    ``map_fn`` runs the per-run work; each run writes only its own rows.
    """
    plan = neighborhood.lag_plan(maps.shape, window)   # checks the window
    N, dims = maps.shape[1], maps.shape[2:]
    count, D = union_count(dims, window), math.prod(window) * dims[-1]
    means, scatters = np.empty((N, D)), np.empty((N, D, D))

    def run(plan_run) -> None:
        group, ys = plan_run
        fmaps = maps[:, group][0]
        first = fmaps[:, :1, :1, :1]
        shifted = np.subtract(fmaps, first, dtype=np.float64)
        shift = np.array([m.mean(axis=(0, 1, 2)) for m in shifted])
        shifted -= shift[:, None, None, None]
        total, gram = _lagged_sums(shifted, window, ys, 1)
        mean = total / count
        shift += first[:, 0, 0, 0]
        means[group] = mean + np.tile(shift, math.prod(window))
        scatters[group] = gram - count * (mean[:, :, None] * mean[:, None])

    for _ in map_fn(run, plan):
        pass
    return saab.Moments(count, means, scatters)


def _union_moments(maps: np.ndarray, window):
    """Yield the moments of the unions of each run of a (N, H, W, Z, C)
    stack of maps, in order; merged in order, they are the moments of the
    whole stack's unions.

    A run holds as many whole maps as fit in ``SLAB_BYTES`` of float64
    input maps. Each channel's mean over a run of several maps is
    subtracted from its maps once, a copy D/C times smaller than their
    unions, taken about the run's first voxel, so a constant channel
    shifts to exact zeros; the run's raw sums and Gram matrix of the
    shifted maps' unions, summed from the row-and-column lagged products
    of its (1, 1, z) partial unions, whose GEMMs widen with the run, are
    corrected once per run (:func:`_lagged_sums`). A run of one map, one
    that fills the budget or a ragged last one, takes the moments of
    :func:`_map_moments`, from row-lagged products, which take fewer GEMM
    calls for the same map.
    """
    N, H = maps.shape[:2]
    neighborhood.lag_plan((1,) + maps.shape[1:], window)  # checks the window
    per_run = max(1, neighborhood.SLAB_BYTES
                  // (8 * math.prod(maps.shape[1:])))
    per_map = union_count(maps.shape[1:], window)
    for start in range(0, N, per_run):
        fmaps = maps[start:start + per_run]
        if len(fmaps) == 1:
            count, (mean,), (scatter,) = _map_moments(fmaps[None], window)
            yield saab.Moments(count, mean, scatter)
            continue
        first = fmaps[0, 0, 0, 0]
        shifted = np.subtract(fmaps, first, dtype=np.float64)
        shift = shifted.mean(axis=(0, 1, 2, 3))
        shifted -= shift
        (total,), (gram,) = _lagged_sums(shifted, window, (slice(0, H),), 2)
        n = per_map * len(fmaps)
        mean = total / n
        shift += first
        yield saab.Moments(n, mean + np.tile(shift, math.prod(window)),
                           gram - n * np.outer(mean, mean))


def _stacked_rows(moments: saab.Moments, index):
    """Yield the stacked moments of the maps ``index`` lists, in its order,
    in about sqrt(n) chunks of sqrt(n) of the n maps: a merge of them so
    holds a copy of sqrt(n) scatters beside the stack it reads, not one of
    all n, and makes about sqrt(n) calls, not n. (Chunks of a slab of
    scatters, 101 maps at D = 36, raised cv-many-small's peak RSS by 1 MB;
    chunks of 20 did not.)"""
    step = max(1, math.isqrt(len(index)))
    for k in range(0, len(index), step):
        rows = index[k:k + step]
        yield saab.Moments(moments.count, moments.mean[rows],
                           moments.scatter[rows])


def fit_folds(samples: list[DeformationSample], cfg: PipelineConfig,
              train: list[np.ndarray], threads: int = 1) -> list[FittedStages]:
    """Fit one set of layer stages per index array in ``train``, each on
    those samples, in that order; the other samples are held out of it.
    An array that is not 1-D integer indices of distinct samples is an
    :class:`IndexOutOfRangeError`.

    Direction by direction, each layer is one step for every set's stack
    of maps, its training samples followed by its held-out ones. Layer 1
    reads the samples' shared maps: each map's union moments are taken
    once, in runs of whole maps (:func:`_map_moments`), and each set's
    kernel merges those of its training samples in their order, in one
    closed-form step (:func:`saab.merge_moments`) that gathers about
    sqrt(n) of their n scatters at a time (:func:`_stacked_rows`). A map's
    moments are the same bits in any run, so a set's stages are those of a
    fit of its training samples alone, bit for bit. The moments are freed
    before one :func:`_pool_layer` call projects every map with every
    set's kernel into that set's stack.
    Each later layer fits a kernel per set on its training maps and pools
    all the stacks in one call, as :func:`transform_many` pools the three
    directions. Every set's pooled maps are float32; layer 1's are the
    largest array a fit holds, and the three directions pool theirs into
    one buffer, allocated once, so that a fit's peak does not rest on
    where the heap places a fresh one per direction. Each set's entropy
    screen and LAG are then fitted on its training rows, widening them to
    float64, and give the blocks of both its training and held-out rows;
    none keeps a view of the pooled maps.

    With ``threads`` > 1, the per-run and per-set work runs on a pool of
    at most one worker per set, under the caller's numpy error state.
    Each piece of work writes only its own results, so the output does
    not depend on the thread count.
    """
    threads = as_integer("threads", threads)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    ledger = compute_ledger(cfg, common_dims(samples))
    for t in map(np.asarray, train):
        if (t.ndim != 1 or t.dtype.kind not in "iu"
                or not np.all((t >= 0) & (t < len(samples)))
                or len(np.unique(t)) != len(t)):
            raise IndexOutOfRangeError(
                f"a training set must list distinct sample indices in "
                f"[0, {len(samples)}), got {t!r}")
    labels = [np.array([samples[i].label for i in t], dtype=np.int64)
              for t in train]
    held = [np.setdiff1d(np.arange(len(samples)), t) for t in train]
    rows = np.argsort([np.concatenate(p) for p in zip(train, held)], axis=1)
    sets = range(len(train))
    # layer 1's pooled maps, each direction's in turn
    first = np.empty((len(train), len(samples)) + ledger[0].pool_dims,
                     np.float32)
    fits = []                  # [direction][layer][set]: one stage's fit
    state = np.geterr()              # per thread: the pool's workers take it
    with ThreadPoolExecutor(max(1, min(threads, len(train))),
                            initializer=lambda: np.seterr(**state)) as pool:
        map_fn = pool.map if threads > 1 else map
        for d in range(DIRECTIONS):
            # one direction at a time: each holds every set's pooled maps
            maps, per_layer = _DirectionMaps(samples, slice(d, d + 1)), []
            for li, (layer, shapes) in enumerate(zip(cfg.layers, ledger)):
                if li == 0:
                    moments = _map_moments(maps, layer.window, map_fn)
                    kernels = [saab.fit_saab_batches(
                                   _stacked_rows(moments, t), layer.channels,
                                   cfg.bias_scale) for t in train]
                    del moments
                    order, out = rows, first
                else:
                    kernels = list(map_fn(lambda f: saab.fit_saab_batches(
                        _union_moments(maps[f, :len(train[f])], layer.window),
                        layer.channels, cfg.bias_scale), sets))
                    order, out = None, None
                maps = _pool_layer(
                    _projections(kernels, layer.window, shapes.input_dims),
                    maps, layer.window, shapes, order, map_fn, out)

                def stage(f: int):
                    n = len(train[f])
                    entropy = supervise.channel_entropy(maps[f, :n], labels[f],
                                                        cfg.keep_ratio)
                    flat = _reduce(maps[f], entropy.kept, shapes)
                    lag = supervise.fit_lag(
                        flat[:n], labels[f], cfg.centroids_per_class,
                        cfg.alpha, cfg.ridge_lambda,
                        seed=_lag_seed(cfg.seed, li, d))
                    return (LayerStage(kernel=kernels[f], entropy=entropy,
                                       lag=lag),
                            supervise.apply_lag(lag, flat[:n]),
                            supervise.apply_lag(lag, flat[n:]))

                per_layer.append(list(map_fn(stage, sets)))
            fits.append(per_layer)
    # per set: its stages, blocks and held blocks, each [direction][layer]
    return [FittedStages(tuple(samples[i].subject_id for i in t),
                         *zip(*(zip(*(fit[f] for fit in per_dir))
                                for per_dir in fits)))
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
    k = classifier.checked_class_count(labels, class_count)
    ids = tuple(s.subject_id for s in samples)
    if fitted is None:
        (fitted,) = fit_folds(samples, cfg, [np.arange(len(samples))])
    elif fitted.subject_ids != ids:
        raise ShapeLedgerMismatchError(
            f"stages were fitted on {len(fitted.subject_ids)} subjects, not "
            f"on the {len(ids)} training samples in their order")
    svm = classifier.fit_svm(concat_features(fitted.blocks), labels,
                             cost=cfg.svm_cost, class_count=k)

    table = None
    if class_table is not None:
        table = tuple(class_table[i] for i in range(k))
    return PipelineModel(
        config=cfg, input_dims=dims, class_count=k, class_table=table,
        stages=fitted.stages, svm=svm, train_subject_ids=ids)


def transform_many(model: PipelineModel,
                   samples: list[DeformationSample]) -> np.ndarray:
    """Final (N, feature_dim) feature vectors of assembled samples, computed
    by the same layer steps as :func:`fit_pipeline`, each layer one step
    for the three directions' maps, stacked and carried to the next layer
    in float32; LAG gives the float64 features."""
    if not samples:
        raise ShapeMismatchError("no samples to transform")
    for s in samples:
        if s.dims != model.input_dims:
            raise ShapeMismatchError(
                f"sample {s.subject_id} dims {s.dims} != model input "
                f"{model.input_dims}")
    maps, blocks = _DirectionMaps(samples, slice(None)), []
    for layer, shapes, stages, projection in zip(
            model.config.layers, model.ledger, zip(*model.stages),
            model.projections):
        maps = _pool_layer(projection, maps, layer.window, shapes)
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
    """Exact integer parameter counts of a fitted model's arrays; the LAG
    count includes the training-time centroids, which are not stored: one
    of ``weights.shape[0] - 1`` features per weight column."""
    saab_total = 0
    lag_total = 0
    for per_dir in model.stages:
        for stage in per_dir:
            saab_total += stage.kernel.dc.size + stage.kernel.ac.size
            if model.config.bias_scale != 0.0:
                saab_total += stage.kernel.channels
            rows, cols = stage.lag.weights.shape
            lag_total += (rows - 1) * cols + rows * cols
    svm_total = model.svm.weights.size + model.svm.intercepts.size
    return {"saab": saab_total, "lag": lag_total, "svm": svm_total,
            "total": saab_total + lag_total + svm_total}
