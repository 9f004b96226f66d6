"""Label-guided dimension reduction applied to each layer's pooled maps.

Two stages:

* cross-entropy channel screening — per class, a channel's voxel values
  (pooled over all of that class's samples) are shifted to be
  non-negative, epsilon-guarded and L1-normalized into a discrete
  distribution whose entropy is summed over classes; the lowest-entropy
  (most concentrated) channels are kept;
* label-assisted regression — per-class k-means centroids define soft
  targets exp(-alpha * distance), block-normalized per class, and a
  ridge-regularized least squares maps flattened maps onto them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ClusterCollapseWarning, IndexOutOfRangeError,
                     ShapeMismatchError, SingleClassError, TooFewSamplesError,
                     as_features, as_labels, as_seed, seed_entropy)

ENTROPY_EPS = 1e-12


@dataclass(frozen=True)
class ChannelEntropy:
    """Per-channel class-summed entropies and the retained channel ids."""

    per_channel: np.ndarray   # (C,) summed over classes
    kept: np.ndarray          # strictly increasing channel ids

    def __post_init__(self) -> None:
        # checked once here, so the layer steps index maps with it as is
        kept = np.asarray(self.kept)
        if (kept.ndim != 1 or kept.size == 0 or kept.dtype.kind not in "iu"
                or np.any(kept[1:] <= kept[:-1]) or kept[0] < 0
                or kept[-1] >= len(self.per_channel)):
            raise IndexOutOfRangeError(
                f"kept channel ids {kept.tolist()} are not strictly "
                f"increasing ints in [0, {len(self.per_channel)})")
        object.__setattr__(self, "kept", kept)


def _class_entropies(feats: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(K, C) entropy of each channel within each class, one row per
    sorted distinct label, of (N, H, W, Z, C) maps, float32 or float64:
    each class's values are widened to float64 as they are copied into
    its pool, so the stack itself is never widened."""
    classes = np.unique(labels)
    n_channels = feats.shape[-1]
    voxels = feats.reshape(len(feats), -1, n_channels)
    per_class = np.empty((classes.size, n_channels))
    for row, cls in enumerate(classes):
        members = np.flatnonzero(labels == cls)
        # the class's values channel-first, in one copy, so each channel's
        # pool is one contiguous row that is shifted and normalised in place
        pool = np.empty((n_channels, members.size, voxels.shape[1]))
        for j, i in enumerate(members):
            pool[:, j] = voxels[i].T
        p = pool.reshape(n_channels, -1)
        p -= p.min(axis=1, keepdims=True)
        p += ENTROPY_EPS
        p /= p.sum(axis=1, keepdims=True)
        per_class[row] = [-(q * np.log(q)).sum() for q in p]
    return per_class


def keep_count(channels: int, keep_ratio: float) -> int:
    """How many of ``channels`` channels the screen keeps at ``keep_ratio``."""
    return max(1, int(np.floor(channels * keep_ratio)))


def screen_channels(per_channel: np.ndarray, count: int) -> ChannelEntropy:
    """Keep the ``count`` smallest-entropy channels of ``per_channel``,
    breaking ties toward lower channel ids."""
    order = np.argsort(per_channel, kind="stable")   # stable: ties -> lower id
    return ChannelEntropy(per_channel=per_channel, kept=np.sort(order[:count]))


def channel_entropy(features: np.ndarray, labels: np.ndarray,
                    keep_ratio: float = 0.5) -> ChannelEntropy:
    """Rank channels of stacked (N, H, W, Z, C) maps by class-summed entropy
    and keep the :func:`keep_count` lowest (:func:`screen_channels`). The
    entropies are float64 whatever the maps' dtype; float32 maps give
    those of their float64 widening, bit for bit."""
    feats = np.asarray(features)
    if feats.ndim != 5:
        raise ShapeMismatchError(f"expected stacked (N, H, W, Z, C) maps, got {feats.shape}")
    labels = as_labels(labels, len(feats))
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError(f"keep_ratio must lie in (0, 1], got {keep_ratio}")
    if np.unique(labels).size < 2:
        raise SingleClassError("channel screening needs at least two classes")

    per_channel = _class_entropies(feats, labels).sum(axis=0)
    return screen_channels(per_channel, keep_count(feats.shape[-1], keep_ratio))


# -- label-assisted regression -------------------------------------------------

@dataclass(frozen=True)
class LagModel:
    """The ridge regressor onto per-class centroid soft targets. The
    centroids shape the targets only, so the fitted stage keeps none."""

    weights: np.ndarray       # (D+1, total_centroids), last row = bias
    block_sizes: np.ndarray   # centroids per class block, sorted label order

    @property
    def output_dim(self) -> int:
        return self.weights.shape[1]


def _kmeans_plusplus(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Standard D^2-weighted seeding."""
    n = X.shape[0]
    norms = np.einsum("nd,nd->n", X, X)

    def sq_dist(center):
        # ||x||^2 - 2 x.c + ||c||^2, clamped at 0 against roundoff
        return np.maximum(norms - 2.0 * (X @ center) + center @ center, 0.0)

    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = sq_dist(centers[0])
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centers[i:] = X[rng.integers(n, size=k - i)]
            break
        centers[i] = X[rng.choice(n, p=closest / total)]
        np.minimum(closest, sq_dist(centers[i]), out=closest)
    return centers


def _lloyd(X: np.ndarray, centers: np.ndarray, max_iter: int,
           tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations, updating ``centers`` in place; returns (centers,
    cluster sizes at convergence)."""
    k = centers.shape[0]
    sizes = np.zeros(k, dtype=np.int64)
    for _ in range(max_iter):
        # squared distances ||x||^2 - 2 x.c + ||c||^2 less ||x||^2, which
        # is the same for every centre of a row and so moves no argmin
        d2 = np.einsum("kd,kd->k", centers, centers) - 2.0 * (X @ centers.T)
        assign = np.argmin(d2, axis=1)
        shift = 0.0
        for j in range(k):
            members = X[assign == j]
            sizes[j] = members.shape[0]
            if members.shape[0]:
                mean = members.mean(axis=0)
                # the centre's squared shift, in its spent row: no k x D
                # copy of the centres, and the bits of a row of
                # ((new - old) ** 2).sum(axis=1)
                row = centers[j]
                np.square(np.subtract(mean, row, out=row), out=row)
                shift = max(shift, math.sqrt(row.sum()))
                centers[j] = mean
        if shift <= tol:
            break
    return centers, sizes


def _kmeans(X: np.ndarray, k: int, seed_keys: list[int],
            max_iter: int = 300, tol: float = 1e-6) -> np.ndarray:
    """k-means with one re-seed on empty clusters, then cluster dropping."""
    for attempt in range(2):
        rng = np.random.default_rng(
            np.random.SeedSequence(seed_entropy(*seed_keys, attempt)))
        centers, sizes = _lloyd(X, _kmeans_plusplus(X, k, rng), max_iter, tol)
        if sizes.min() > 0:
            return centers
    warnings.warn(f"empty cluster persisted after re-seed; keeping "
                  f"{int((sizes > 0).sum())} of {k} centroids", ClusterCollapseWarning)
    return centers[sizes > 0]


def class_centroids(X: np.ndarray, labels: np.ndarray,
                    centroids_per_class: int = 5,
                    seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """k-means centroids of each class of (N, D) features, stacked in
    sorted label order, and the number each class kept. Features that are
    not float64 are widened first."""
    seed = as_seed("seed", seed)
    X = as_features(X)
    labels = as_labels(labels, len(X))
    classes = np.unique(labels)
    if classes.size < 2:
        raise SingleClassError("label-assisted regression needs at least two classes")

    blocks = []
    for row, cls in enumerate(classes):
        in_class = labels == cls
        count = int(np.count_nonzero(in_class))
        if count < centroids_per_class:
            raise TooFewSamplesError(
                f"class {cls} has {count} samples < "
                f"{centroids_per_class} centroids")
        # the class's rows live while their k-means runs, not beside the
        # stacked centroids
        blocks.append(_kmeans(X[in_class], centroids_per_class, [seed, row]))
    return (np.vstack(blocks),
            np.array([b.shape[0] for b in blocks], dtype=np.int64))


def fit_lag(X: np.ndarray, labels: np.ndarray, centroids_per_class: int = 5,
            alpha: float = 10.0, ridge_lambda: float = 1e-3,
            seed: int = 0) -> LagModel:
    """Fit the ridge regressor onto the soft targets of
    :func:`class_centroids`.

    The regression solves min_W ||X~ W - Y||^2 + lambda ||W||^2 with X~
    bias-augmented; when features outnumber samples the equivalent dual
    form W = X~^T (X~ X~^T + lambda I)^-1 Y is used. Float32 features are
    widened to float64 once, here, and the centroids are taken from that
    widening.
    """
    X = np.asarray(X, dtype=np.float64)
    centroids, block_sizes = class_centroids(X, labels, centroids_per_class,
                                             seed)
    labels = np.asarray(labels)
    classes = np.unique(labels)

    # Soft targets: nonzero only inside the sample's own class block. The
    # squared distances are ||x||^2 - 2 x.c + ||c||^2, clamped at 0 against
    # roundoff, from one product of X with every centroid.
    sq_dist = (np.einsum("nd,nd->n", X, X)[:, None] - 2.0 * (X @ centroids.T)
               + np.einsum("kd,kd->k", centroids, centroids))
    targets = np.zeros((X.shape[0], centroids.shape[0]))
    offsets = np.concatenate([[0], np.cumsum(block_sizes)])
    for row, cls in enumerate(classes):
        idx = np.flatnonzero(labels == cls)
        dist = np.sqrt(np.maximum(
            sq_dist[idx, offsets[row]:offsets[row + 1]], 0.0))
        # subtract the row-min before exp so large alpha*dist cannot
        # underflow an entire block; the normalization cancels the shift
        t = np.exp(-alpha * (dist - dist.min(axis=1, keepdims=True)))
        targets[idx, offsets[row]:offsets[row + 1]] = t / t.sum(axis=1, keepdims=True)

    n, d = X.shape[0], X.shape[1] + 1
    if d <= n:
        aug = np.hstack([X, np.ones((n, 1))])
        weights = np.linalg.solve(aug.T @ aug + ridge_lambda * np.eye(d),
                                  aug.T @ targets)
    else:
        # X~ X~^T is X X^T + 1, and X~^T a is X^T a over 1^T a, so the
        # bias-augmented copy of X is never built; both parts are written
        # into the weights, so the D x k product is never copied
        dual = np.linalg.solve(X @ X.T + (1.0 + ridge_lambda * np.eye(n)),
                               targets)
        weights = np.empty((d, dual.shape[1]))
        np.matmul(X.T, dual, out=weights[:-1])
        dual.sum(axis=0, out=weights[-1])
    return LagModel(weights=weights, block_sizes=block_sizes)


def apply_lag(model: LagModel, X: np.ndarray) -> np.ndarray:
    """Map (N, D) features, float32 or float64, through the fitted
    regressor in float64."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] + 1 != model.weights.shape[0]:
        raise ShapeMismatchError(
            f"expected (N, {model.weights.shape[0] - 1}) features, got {X.shape}")
    out = X @ model.weights[:-1]
    out += model.weights[-1]
    return out
