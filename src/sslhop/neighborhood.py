"""Neighborhood-union extraction and ceil-mode max-pooling.

A neighborhood union is the flattened content of an h*w*z window over a
(H, W, Z, C) feature map, all C channels included. Windows slide with
stride 1 and no padding, so a map yields
(H-h+1)*(W-w+1)*(Z-z+1) unions of length h*w*z*C. A layer carries its maps
as one (..., N, H, W, Z, C) stack, with leading axes (such as one per
direction) before the map axis, and reads their unions in slabs of about
``SLAB_BYTES``, as :func:`slab_plan` lays them out: runs of whole maps when
one map's unions, across the leading axes, fit in a slab, or else runs of
whole y-rows of window origins of one map. So it never holds the union
matrix of the whole stack, nor of one large map.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeMismatchError, WindowTooLargeError, as_int_triple

# Budget of one slab's union matrix, counted in float64, and of the float64
# input maps of a run of union statistics; a slab holds at least one y-row
# of window origins even when that row alone is larger.
SLAB_BYTES = 1 << 20


def union_count(dims: tuple[int, ...], window: tuple[int, int, int]) -> int:
    """Number of stride-1 window placements: (H-h+1)(W-w+1)(Z-z+1)."""
    H, W, Z = dims[:3]
    h, w, z = window
    return (H - h + 1) * (W - w + 1) * (Z - z + 1)


def _stack(maps) -> np.ndarray:
    """A (..., N, H, W, Z, C) stack of ``maps``; one (H, W, Z, C) map is a
    stack of one."""
    arr = np.asarray(maps)
    if arr.ndim == 4:
        arr = arr[None]
    if arr.ndim < 5:
        raise ShapeMismatchError(
            f"expected a (H, W, Z, C) map or a stack of them, got shape {arr.shape}")
    return arr


def _window(shape: tuple[int, ...], window) -> tuple[int, int, int]:
    """``window`` as three ints that fit the maps of a stack of ``shape``."""
    h, w, z = as_int_triple("window", window)
    if min(h, w, z) < 1:
        raise WindowTooLargeError(f"window must be positive, got {window}")
    if h > shape[-4] or w > shape[-3] or z > shape[-2]:
        raise WindowTooLargeError(
            f"window {window} exceeds map dims {tuple(shape[-4:-1])}")
    return h, w, z


def extract_unions(maps, window: tuple[int, int, int]) -> np.ndarray:
    """Gather every neighborhood union of a map, or of a (..., N, H, W, Z, C)
    stack of maps, into an (L * N * n_unions, h*w*z*C) row matrix, where L
    is the product of the leading axes.

    Rows run over the leading axes, then maps, then window origins
    lexicographically in (y, x, z); within a row, elements run (y-offset,
    x-offset, z-offset, channel), channel fastest. The matrix is a
    transposed view of a column-major buffer, in which each union element
    is one contiguous run over the leading axes, maps and origins, so the
    rows of each leading index are a view of the same layout.

    That a fold model is a fit of its training subjects, byte for byte,
    rests on this layout, which the layer steps' z-block gather shares:
    they project slabs whose rows sit at other offsets of the GEMM call in
    a fold than in a fit, and with a row-major (C-order) union matrix the
    BLAS may round a row differently at another offset. Do not gather
    row-major; the README's "A fold model is a fit" gives the measurement.
    """
    arr = _stack(maps)
    *lead, H, W, Z, C = arr.shape
    h, w, z = _window(arr.shape, window)
    # read-only (h, w, z, C, ..., N, Y, X, Z') view from the stack's own
    # strides: the window offsets and the origins step alike, and the
    # leading and map axes sit between them, so its C-order copy is
    # column-major and every union element is one run over the rows
    origins = (H - h + 1, W - w + 1, Z - z + 1)
    *sl, sy, sx, sz, sc = arr.strides
    view = as_strided(arr, (h, w, z, C, *lead) + origins,
                      (sy, sx, sz, sc, *sl, sy, sx, sz), writeable=False)
    return view.copy().reshape(h * w * z * C,
                               math.prod(lead) * math.prod(origins)).T


def slab_plan(shape: tuple[int, ...], window) -> list[tuple[slice, tuple]]:
    """The slabs a (..., N, H, W, Z, C) stack of maps is read in, as
    ``(maps, ys)`` pairs in order: a run of whole maps (a slice of the N
    axis), and the slices of input y-rows its slabs take, so that
    :func:`extract_unions` of ``stack[..., maps, :, :, :, :][..., y, :, :,
    :]`` for each ``y`` in ``ys``, stacked in order, is that of the run.

    A slab takes its maps or rows across every leading axis, so the plan
    counts their bytes across them: a run holds as many whole maps as fit
    in ``SLAB_BYTES`` of float64 unions, in one slab. A map whose unions
    fill a slab runs alone, in slabs of as many whole y-rows of window
    origins as fit (at least one).

    The plan counts 8-byte unions whatever the maps' dtype, so the layer
    steps' float32 slabs hold half of ``SLAB_BYTES``. Slabs of 64 to 512
    KB ran within noise of 1 MB, so the budget takes no dtype.
    """
    if len(shape) < 5:
        raise ShapeMismatchError(
            f"expected the shape of a (..., N, H, W, Z, C) stack, got {shape}")
    *lead, N, H, W, Z, C = shape
    h, w, z = _window(shape, window)
    origins = H - h + 1
    row_bytes = math.prod(lead) * (W - w + 1) * (Z - z + 1) * h * w * z * C * 8
    rows = SLAB_BYTES // max(1, row_bytes)
    per_run, step = max(1, rows // origins), max(1, rows)
    ys = tuple(slice(y0, min(H, y0 + step + h - 1))
               for y0 in range(0, origins, step))
    return [(slice(k, k + per_run), ys) for k in range(0, N, per_run)]


def max_pool(fmap: np.ndarray) -> np.ndarray:
    """Max-pool each spatial axis of a (..., H, W, Z, C) map, or stack of
    maps, over 2x2x2 blocks.

    Ceil mode: the trailing partial block on an odd axis is kept (max over
    the remaining elements), so output dims are ceil(dim / 2).
    """
    arr = np.asarray(fmap)
    if arr.ndim < 4:
        raise ShapeMismatchError(
            f"expected a (..., H, W, Z, C) map, got shape {arr.shape}")
    # max of strided even/odd slices, taken in place in the even-even one;
    # on an odd axis the last even slice has no odd partner and is kept
    yx = arr[..., ::2, ::2, :, :].copy()
    for dy, dx in ((0, 1), (1, 0), (1, 1)):
        part = arr[..., dy::2, dx::2, :, :]
        head = yx[..., :part.shape[-4], :part.shape[-3], :, :]
        np.maximum(head, part, out=head)
    pooled = yx[..., ::2, :].copy()
    head = pooled[..., :yx.shape[-2] // 2, :]
    np.maximum(head, yx[..., 1::2, :], out=head)
    return pooled


def pooled_dims(dims: tuple[int, int, int]) -> tuple[int, int, int]:
    """Spatial dims produced by :func:`max_pool` (shape arithmetic only)."""
    return tuple(-(-d // 2) for d in dims)
