"""Neighborhood-union extraction and ceil-mode max-pooling.

A neighborhood union is the flattened content of an h*w*z window over a
(H, W, Z, C) feature map, all C channels included. Windows slide with
stride 1 and no padding, so a map yields
(H-h+1)*(W-w+1)*(Z-z+1) unions of length h*w*z*C. Layers read them in
slabs of whole y-rows of window origins (:func:`union_slabs`), so they
never hold the union matrix of a whole map, only about ``SLAB_BYTES`` of it.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeMismatchError, WindowTooLargeError

# Budget of one slab's union matrix; a slab holds at least one y-row of
# window origins even when that row alone is larger.
SLAB_BYTES = 1 << 20


def union_count(dims: tuple[int, ...], window: tuple[int, int, int]) -> int:
    """Number of stride-1 window placements: (H-h+1)(W-w+1)(Z-z+1)."""
    H, W, Z = dims[:3]
    h, w, z = window
    return (H - h + 1) * (W - w + 1) * (Z - z + 1)


def extract_unions(fmap: np.ndarray, window: tuple[int, int, int]) -> np.ndarray:
    """Gather every neighborhood union of ``fmap`` into an
    (n_unions, h*w*z*C) row matrix.

    Rows run over window origins lexicographically in (y, x, z); within a
    row, elements run (y-offset, x-offset, z-offset, channel), channel
    fastest. The matrix is a transposed view of a column-major buffer, in
    which each union element is one contiguous run over the origins.
    """
    arr = np.asarray(fmap)
    if arr.ndim != 4:
        raise ShapeMismatchError(f"expected a (H, W, Z, C) map, got shape {arr.shape}")
    H, W, Z, C = arr.shape
    h, w, z = (int(v) for v in window)
    if min(h, w, z) < 1:
        raise WindowTooLargeError(f"window must be positive, got {window}")
    if h > H or w > W or z > Z:
        raise WindowTooLargeError(f"window {window} exceeds map dims {(H, W, Z)}")
    # read-only (h, w, z, C, Y, X, Z') view from the map's own strides: the
    # window offsets and the origins step alike, so its C-order copy is
    # column-major and every union element is one run over the origins
    origins = (H - h + 1, W - w + 1, Z - z + 1)
    sy, sx, sz, sc = arr.strides
    view = as_strided(arr, (h, w, z, C) + origins,
                      (sy, sx, sz, sc, sy, sx, sz), writeable=False)
    return view.copy().reshape(h * w * z * C, math.prod(origins)).T


def union_slabs(fmap: np.ndarray, window: tuple[int, int, int]):
    """Yield the union row matrices of slabs of whole y-rows of window
    origins, in origin order; a slab takes at most ``SLAB_BYTES``, unless
    one row alone takes more.

    Stacking the slabs in order gives :func:`extract_unions` of the whole
    map, whose rows are the C-order rows of the (y, x, z) origin grid.
    """
    arr = np.asarray(fmap)
    if arr.ndim != 4:
        raise ShapeMismatchError(f"expected a (H, W, Z, C) map, got shape {arr.shape}")
    H, W, Z, C = arr.shape
    h, w, z = (int(v) for v in window)
    row_bytes = (W - w + 1) * (Z - z + 1) * h * w * z * C * arr.itemsize
    step = max(1, SLAB_BYTES // max(1, row_bytes))
    # an invalid window still yields one slab, whose extraction raises
    for y0 in range(0, max(1, H - h + 1), step):
        yield extract_unions(arr[y0:y0 + step + h - 1], (h, w, z))


def max_pool(fmap: np.ndarray) -> np.ndarray:
    """Max-pool each spatial axis of a (H, W, Z, C) map over 2x2x2 blocks.

    Ceil mode: the trailing partial block on an odd axis is kept (max over
    the remaining elements), so output dims are ceil(dim / 2).
    """
    arr = np.asarray(fmap)
    if arr.ndim != 4:
        raise ShapeMismatchError(f"expected a (H, W, Z, C) map, got shape {arr.shape}")
    # max of strided even/odd slices, taken in place in the even-even one;
    # on an odd axis the last even slice has no odd partner and is kept
    yx = arr[::2, ::2].copy()
    for dy, dx in ((0, 1), (1, 0), (1, 1)):
        part = arr[dy::2, dx::2]
        head = yx[:part.shape[0], :part.shape[1]]
        np.maximum(head, part, out=head)
    pooled = yx[:, :, ::2].copy()
    head = pooled[:, :, :yx.shape[2] // 2]
    np.maximum(head, yx[:, :, 1::2], out=head)
    return pooled


def pooled_dims(dims: tuple[int, int, int]) -> tuple[int, int, int]:
    """Spatial dims produced by :func:`max_pool` (shape arithmetic only)."""
    return tuple(-(-d // 2) for d in dims)
