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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ClusterCollapseWarning, IndexOutOfRangeError,
                     NonFiniteValuesError, ShapeMismatchError,
                     SingleClassError, TooFewSamplesError)

ENTROPY_EPS = 1e-12


@dataclass(frozen=True)
class ChannelEntropy:
    """Per-channel class-summed entropies and the retained channel ids."""

    per_channel: np.ndarray   # (C,) summed over classes
    per_class: np.ndarray     # (K, C), class rows in ``classes`` order
    kept: np.ndarray          # strictly increasing channel ids
    classes: np.ndarray       # sorted distinct labels the rows refer to


def channel_entropy(features: np.ndarray, labels: np.ndarray,
                    keep_ratio: float = 0.5) -> ChannelEntropy:
    """Rank channels of stacked (N, H, W, Z, C) maps by class-summed entropy.

    Keeps the max(1, floor(C * keep_ratio)) smallest-entropy channels,
    breaking ties toward lower channel ids.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 5:
        raise ShapeMismatchError(f"expected stacked (N, H, W, Z, C) maps, got {feats.shape}")
    labels = np.asarray(labels)
    if labels.shape != (feats.shape[0],):
        raise ShapeMismatchError(f"labels shape {labels.shape} != ({feats.shape[0]},)")
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError(f"keep_ratio must lie in (0, 1], got {keep_ratio}")
    classes = np.unique(labels)
    if classes.size < 2:
        raise SingleClassError("channel screening needs at least two classes")

    n_channels = feats.shape[-1]
    per_class = np.empty((classes.size, n_channels))
    for row, cls in enumerate(classes):
        pooled = feats[labels == cls].reshape(-1, n_channels)
        shifted = pooled - pooled.min(axis=0) + ENTROPY_EPS
        p = shifted / shifted.sum(axis=0)
        per_class[row] = -(p * np.log(p)).sum(axis=0)
    per_channel = per_class.sum(axis=0)

    n_keep = max(1, int(np.floor(n_channels * keep_ratio)))
    order = np.argsort(per_channel, kind="stable")   # stable: ties -> lower id
    kept = np.sort(order[:n_keep])
    return ChannelEntropy(per_channel=per_channel, per_class=per_class,
                          kept=kept, classes=classes)


def select_channels(fmap: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Restrict the channel axis of a (H, W, Z, C) map, or of stacked
    (N, H, W, Z, C) maps, to ``kept`` ids."""
    arr = np.asarray(fmap)
    if arr.ndim not in (4, 5):
        raise ShapeMismatchError(
            f"expected (H, W, Z, C) or (N, H, W, Z, C) maps, got {arr.shape}")
    kept = np.asarray(kept, dtype=np.int64)
    if kept.size == 0 or np.any(np.diff(kept) <= 0):
        raise IndexOutOfRangeError("kept channel ids must be strictly increasing")
    if kept[0] < 0 or kept[-1] >= arr.shape[-1]:
        raise IndexOutOfRangeError(
            f"kept ids {kept.tolist()} outside [0, {arr.shape[-1]})")
    return arr[..., kept]


# -- label-assisted regression -------------------------------------------------

@dataclass(frozen=True)
class LagModel:
    """Per-class centroids and the ridge regressor onto their soft targets."""

    centroids: np.ndarray     # (total_centroids, D) stacked class blocks
    weights: np.ndarray       # (D+1, total_centroids), last row = bias
    alpha: float
    classes: np.ndarray       # sorted distinct labels, block order
    block_sizes: np.ndarray   # centroids per class block

    @property
    def output_dim(self) -> int:
        return self.centroids.shape[0]

    def block_slice(self, row: int) -> slice:
        start = int(self.block_sizes[:row].sum())
        return slice(start, start + int(self.block_sizes[row]))


def _kmeans_plusplus(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Standard D^2-weighted seeding."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = ((X - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centers[i:] = X[rng.integers(n, size=k - i)]
            break
        probs = closest / total
        centers[i] = X[rng.choice(n, p=probs)]
        dist = ((X - centers[i]) ** 2).sum(axis=1)
        np.minimum(closest, dist, out=closest)
    return centers


def _lloyd(X: np.ndarray, centers: np.ndarray, max_iter: int,
           tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations; returns (centers, cluster sizes at convergence)."""
    k = centers.shape[0]
    sizes = np.zeros(k, dtype=np.int64)
    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = X[assign == j]
            sizes[j] = members.shape[0]
            if members.shape[0]:
                new_centers[j] = members.mean(axis=0)
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift <= tol:
            break
    return centers, sizes


def _class_centroids(X: np.ndarray, k: int, seed_keys: list[int],
                     max_iter: int = 300, tol: float = 1e-6) -> np.ndarray:
    """k-means with one re-seed on empty clusters, then cluster dropping."""
    for attempt in range(2):
        rng = np.random.default_rng(np.random.SeedSequence(seed_keys + [attempt]))
        centers, sizes = _lloyd(X, _kmeans_plusplus(X, k, rng), max_iter, tol)
        if sizes.min() > 0:
            return centers
    warnings.warn(f"empty cluster persisted after re-seed; keeping "
                  f"{int((sizes > 0).sum())} of {k} centroids", ClusterCollapseWarning)
    return centers[sizes > 0]


def fit_lag(X: np.ndarray, labels: np.ndarray, centroids_per_class: int = 5,
            alpha: float = 10.0, ridge_lambda: float = 1e-3,
            seed: int = 0) -> LagModel:
    """Fit centroid soft-targets and the ridge regressor onto them.

    The regression solves min_W ||X~ W - Y||^2 + lambda ||W||^2 with X~
    bias-augmented; when features outnumber samples the equivalent dual
    form W = X~^T (X~ X~^T + lambda I)^-1 Y is used.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatchError(f"expected (N, D) features, got {X.shape}")
    if not np.isfinite(X).all():
        raise NonFiniteValuesError("features contain non-finite values")
    labels = np.asarray(labels)
    if labels.shape != (X.shape[0],):
        raise ShapeMismatchError(f"labels shape {labels.shape} != ({X.shape[0]},)")
    classes = np.unique(labels)
    if classes.size < 2:
        raise SingleClassError("label-assisted regression needs at least two classes")

    blocks = []
    for row, cls in enumerate(classes):
        members = X[labels == cls]
        if members.shape[0] < centroids_per_class:
            raise TooFewSamplesError(
                f"class {cls} has {members.shape[0]} samples < "
                f"{centroids_per_class} centroids")
        blocks.append(_class_centroids(members, centroids_per_class,
                                       [int(seed), row]))
    centroids = np.vstack(blocks)
    block_sizes = np.array([b.shape[0] for b in blocks], dtype=np.int64)

    # Soft targets: nonzero only inside the sample's own class block.
    targets = np.zeros((X.shape[0], centroids.shape[0]))
    offsets = np.concatenate([[0], np.cumsum(block_sizes)])
    for row, cls in enumerate(classes):
        idx = np.flatnonzero(labels == cls)
        block = centroids[offsets[row]:offsets[row + 1]]
        dist = np.sqrt(((X[idx, None, :] - block[None, :, :]) ** 2).sum(axis=2))
        # subtract the row-min before exp so large alpha*dist cannot
        # underflow an entire block; the normalization cancels the shift
        t = np.exp(-alpha * (dist - dist.min(axis=1, keepdims=True)))
        targets[idx, offsets[row]:offsets[row + 1]] = t / t.sum(axis=1, keepdims=True)

    aug = np.hstack([X, np.ones((X.shape[0], 1))])
    n, d = aug.shape
    if d <= n:
        weights = np.linalg.solve(aug.T @ aug + ridge_lambda * np.eye(d),
                                  aug.T @ targets)
    else:
        weights = aug.T @ np.linalg.solve(aug @ aug.T + ridge_lambda * np.eye(n),
                                          targets)
    return LagModel(centroids=centroids, weights=weights, alpha=float(alpha),
                    classes=classes, block_sizes=block_sizes)


def apply_lag(model: LagModel, X: np.ndarray) -> np.ndarray:
    """Map (N, D) features through the fitted regressor."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] + 1 != model.weights.shape[0]:
        raise ShapeMismatchError(
            f"expected (N, {model.weights.shape[0] - 1}) features, got {X.shape}")
    return X @ model.weights[:-1] + model.weights[-1]
