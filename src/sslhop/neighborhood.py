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

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeMismatchError, WindowTooLargeError, as_int_triple

# Budget of one slab's union matrix, counted in float64, of the float64
# input maps of a run of several maps' union statistics, and of the float64
# partial unions a run of row-lagged statistics gathers; a slab holds at
# least one y-row of window origins even when that row alone is larger.
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

    The maps per run and the y slices are memoized per shape without N,
    window and budget, so the cache does not grow with the number of
    distinct batch sizes; the runs are sliced per call, and a bad window
    raises on every call. The plan is a fresh list of immutable pairs.
    """
    return _plan(shape, window, partial=False)


def lag_plan(shape: tuple[int, ...], window) -> list[tuple[slice, tuple]]:
    """The runs and slabs of :func:`slab_plan`, budgeted for the row-lagged
    union statistics, which gather the (1, w, z) partial unions of every
    input row of a map, not the full unions of its origin rows: H rows of
    (W-w+1)*(Z-z+1) partial unions of w*z*C per map, h times fewer bytes
    per row. A run holds as many whole maps as fit in ``SLAB_BYTES`` of
    float64 partial unions; a map that fills a slab runs alone, in slabs
    of as many origin rows as there are input rows that fit (at least
    one), each with the h-1 halo rows its row lags read. So a 12x12x12
    map under a (3, 3, 4) window shares a run with nine others, and a
    32x32x32 one under (3, 3, 6) takes 4 slabs, where its full unions
    take 15."""
    return _plan(shape, window, partial=True)


def _plan(shape, window, partial: bool) -> list[tuple[slice, tuple]]:
    if len(shape) < 5:
        raise ShapeMismatchError(
            f"expected the shape of a (..., N, H, W, Z, C) stack, got {shape}")
    per_run, ys = _slab_rows(tuple(shape[:-5]) + tuple(shape[-4:]),
                             as_int_triple("window", window), SLAB_BYTES,
                             partial)
    return [(slice(k, k + per_run), ys)
            for k in range(0, shape[-5], per_run)]


# cached: rebuilt on each call, the two plans of a one-subject transform
# of 12x12x12 maps took about 5% of it
@functools.lru_cache(maxsize=None)
def _slab_rows(shape: tuple[int, ...], window: tuple[int, int, int],
               budget: int, partial: bool) -> tuple[int, tuple[slice, ...]]:
    """The maps per run and the y slices of :func:`slab_plan`, or with
    ``partial`` of :func:`lag_plan`, for a stack of ``shape``, its (..., H,
    W, Z, C) shape without the N axis, under a slab budget of ``budget``
    bytes. A gathered row holds span = h window rows of each full union,
    or 1 of each partial one, and a map H-span+1 such rows."""
    *lead, H, W, Z, C = shape
    h, w, z = _window(shape, window)
    span = 1 if partial else h
    row_bytes = (math.prod(lead) * (W - w + 1) * (Z - z + 1)
                 * span * w * z * C * 8)
    rows = budget // max(1, row_bytes)
    per_run, step = max(1, rows // (H - span + 1)), max(1, rows)
    return per_run, tuple(slice(y0, min(H, y0 + step + h - 1))
                          for y0 in range(0, H - h + 1, step))


def max_pool(fmap: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Max-pool each spatial axis of a (..., H, W, Z, C) map, or stack of
    maps, over 2x2x2 blocks, into ``out`` when it is given, an array (or
    view) of the pooled shape and the maps' dtype, and into a fresh array
    otherwise; returns the pooled maps.

    Ceil mode: the trailing partial block on an odd axis is kept (max over
    the remaining elements), so output dims are ceil(dim / 2).

    Two passes: the (y, x) quarter, from the even input rows' column
    pairs, into a fresh array that its first ``np.maximum`` writes, then
    the odd rows' maxima taken into it; and the pooled maps, the quarter's
    z pairs, written into ``out``. An odd axis's last slice has no partner
    and is copied beside the first maximum. Beside the input and ``out``
    the pool holds the quarter, 1/4 of the input (and the pooled maps, 1/8
    more, without ``out``); a max of elements is exact in any order.
    """
    arr = np.asarray(fmap)
    if arr.ndim < 4:
        raise ShapeMismatchError(
            f"expected a (..., H, W, Z, C) map, got shape {arr.shape}")
    *lead, H, W, Z, C = arr.shape
    Y, X, Zh = H // 2, W // 2, Z // 2     # whole pairs per axis
    shape = (*lead, H - Y, W - X, Z - Zh, C)
    if out is None:
        out = np.empty(shape, arr.dtype)
    elif out.shape != shape or out.dtype != arr.dtype:
        raise ShapeMismatchError(
            f"max_pool of {arr.dtype} maps {arr.shape} pools into {shape}, "
            f"not into {out.dtype} {out.shape}")
    yx = np.empty((*lead, H - Y, W - X, Z, C), arr.dtype)
    np.maximum(arr[..., ::2, :2 * X:2, :, :], arr[..., ::2, 1::2, :, :],
               out=yx[..., :X, :, :])
    if W % 2:
        yx[..., X, :, :] = arr[..., ::2, -1, :, :]
    head = yx[..., :Y, :, :, :]
    np.maximum(head, arr[..., 1::2, ::2, :, :], out=head)
    head = head[..., :X, :, :]
    np.maximum(head, arr[..., 1::2, 1::2, :, :], out=head)
    np.maximum(yx[..., :2 * Zh:2, :], yx[..., 1::2, :], out=out[..., :Zh, :])
    if Z % 2:
        out[..., Zh, :] = yx[..., -1, :]
    return out


def pooled_dims(dims: tuple[int, int, int]) -> tuple[int, int, int]:
    """Spatial dims produced by :func:`max_pool` (shape arithmetic only)."""
    return tuple(-(-d // 2) for d in dims)
