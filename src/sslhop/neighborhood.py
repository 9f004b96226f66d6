"""Neighborhood-union extraction and ceil-mode max-pooling.

A neighborhood union is the flattened content of an h*w*z window over a
(H, W, Z, C) feature map, all C channels included. Windows slide with
stride 1 and no padding, so a map yields
(H-h+1)*(W-w+1)*(Z-z+1) unions of length h*w*z*C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeMismatchError, WindowTooLargeError


@dataclass(frozen=True)
class UnionMatrix:
    """Flattened neighborhood windows of one feature map.

    ``data`` has one row per window origin, ordered lexicographically over
    (y, x, z); within a row, elements run (y-offset, x-offset, z-offset,
    channel), channel fastest.
    """

    data: np.ndarray                          # (n_unions, h*w*z*C)
    source_dims: tuple[int, int, int, int]    # (H, W, Z, C)
    window: tuple[int, int, int]

    @property
    def out_dims(self) -> tuple[int, int, int]:
        """Spatial grid of window origins (H-h+1, W-w+1, Z-z+1)."""
        H, W, Z, _ = self.source_dims
        h, w, z = self.window
        return (H - h + 1, W - w + 1, Z - z + 1)


def union_count(dims: tuple[int, ...], window: tuple[int, int, int]) -> int:
    """Number of stride-1 window placements: (H-h+1)(W-w+1)(Z-z+1)."""
    H, W, Z = dims[:3]
    h, w, z = window
    return (H - h + 1) * (W - w + 1) * (Z - z + 1)


def extract_unions(fmap: np.ndarray, window: tuple[int, int, int]) -> UnionMatrix:
    """Gather every neighborhood union of ``fmap`` into a dense matrix."""
    arr = np.asarray(fmap)
    if arr.ndim != 4:
        raise ShapeMismatchError(f"expected a (H, W, Z, C) map, got shape {arr.shape}")
    H, W, Z, C = arr.shape
    h, w, z = (int(v) for v in window)
    if min(h, w, z) < 1:
        raise WindowTooLargeError(f"window must be positive, got {window}")
    if h > H or w > W or z > Z:
        raise WindowTooLargeError(f"window {window} exceeds map dims {(H, W, Z)}")
    view = sliding_window_view(arr, (h, w, z), axis=(0, 1, 2))
    # view: (H-h+1, W-w+1, Z-z+1, C, h, w, z) -> put channel last within a row
    rows = view.transpose(0, 1, 2, 4, 5, 6, 3).reshape(
        union_count(arr.shape, (h, w, z)), h * w * z * C)
    return UnionMatrix(np.ascontiguousarray(rows), (H, W, Z, C), (h, w, z))


def max_pool(fmap: np.ndarray) -> np.ndarray:
    """Max-pool each spatial axis of a (H, W, Z, C) map over 2x2x2 blocks.

    Ceil mode: the trailing partial block on an odd axis is kept (max over
    the remaining elements), so output dims are ceil(dim / 2).
    """
    out = np.asarray(fmap)
    if out.ndim != 4:
        raise ShapeMismatchError(f"expected a (H, W, Z, C) map, got shape {out.shape}")
    for ax in range(3):
        if out.shape[ax] % 2:
            pad = [(0, 0)] * 4
            pad[ax] = (0, 1)
            out = np.pad(out, pad, constant_values=-np.inf)
        out = out.reshape(out.shape[:ax] + (out.shape[ax] // 2, 2)
                          + out.shape[ax + 1:]).max(axis=ax + 1)
    return out


def pooled_dims(dims: tuple[int, int, int]) -> tuple[int, int, int]:
    """Spatial dims produced by :func:`max_pool` (shape arithmetic only)."""
    return tuple(-(-d // 2) for d in dims)
