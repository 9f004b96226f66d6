"""Window extraction, slab plans and ceil-mode pooling against
brute-force oracles."""

import math

import numpy as np
import pytest

import sslhop.neighborhood
import sslhop.pipeline
from conftest import plan_project, plan_unions
from sslhop import (apply_saab, extract_unions, fit_saab, max_pool,
                    pooled_dims, slab_plan, union_count)
from sslhop.errors import ShapeMismatchError, WindowTooLargeError


def _coded(H, W, Z, C):
    """fmap[y,x,z,c] encodes its own index, one decimal digit per axis."""
    y, x, z, c = np.ix_(np.arange(H), np.arange(W), np.arange(Z), np.arange(C))
    return (((y * 10.0 + x) * 10 + z) * 10 + c)


def _brute_unions(fmap, window):
    H, W, Z, C = fmap.shape
    h, w, z = window
    rows = []
    for oy in range(H - h + 1):
        for ox in range(W - w + 1):
            for oz in range(Z - z + 1):
                row = []
                for dy in range(h):
                    for dx in range(w):
                        for dz in range(z):
                            for c in range(C):
                                row.append(fmap[oy + dy, ox + dx, oz + dz, c])
                rows.append(row)
    return np.asarray(rows)


def _brute_pool(fmap, kernel):
    """Ceil-mode max over kernel-sized blocks, partial edge blocks included."""
    H, W, Z, C = fmap.shape
    kh, kw, kz = kernel
    oh, ow, oz = -(-H // kh), -(-W // kw), -(-Z // kz)
    out = np.empty((oh, ow, oz, C))
    for i in range(oh):
        for j in range(ow):
            for k in range(oz):
                block = fmap[i * kh:(i + 1) * kh,
                             j * kw:(j + 1) * kw,
                             k * kz:(k + 1) * kz]
                out[i, j, k] = block.max(axis=(0, 1, 2))
    return out


class TestUnions:
    def test_count_8_cube(self):
        assert union_count((8, 8, 8, 1), (3, 3, 3)) == 216

    def test_matrix_shape_and_grid(self):
        u = extract_unions(np.zeros((8, 8, 8, 1)), (3, 3, 3))
        assert u.shape == (216, 27)
        # a transposed view of the column-major gather
        assert u.T.flags.c_contiguous

    def test_row_and_element_order(self):
        """Origins run lexicographic (y,x,z); inside a row, channel fastest."""
        fmap = _coded(4, 3, 5, 2)
        window = (2, 1, 3)
        u = extract_unions(fmap, window)
        np.testing.assert_array_equal(u, _brute_unions(fmap, window))

    def test_random_maps_match_oracle(self, rng):
        for _ in range(10):
            dims = tuple(rng.integers(2, 7, size=3)) + (int(rng.integers(1, 4)),)
            fmap = rng.normal(size=dims)
            h = int(rng.integers(1, dims[0] + 1))
            w = int(rng.integers(1, dims[1] + 1))
            z = int(rng.integers(1, dims[2] + 1))
            u = extract_unions(fmap, (h, w, z))
            np.testing.assert_array_equal(u, _brute_unions(fmap, (h, w, z)))

    @pytest.mark.parametrize("view", [lambda m: m[:, ::-1],
                                      lambda m: m[..., 1:4],
                                      lambda m: m.transpose(1, 0, 2, 3)],
                             ids=["reversed-axis", "channel-slice",
                                  "transposed"])
    def test_non_contiguous_maps_match_oracle(self, rng, view):
        fmap = view(rng.normal(size=(5, 6, 7, 5)))
        assert not fmap.flags.c_contiguous
        for window in ((1, 1, 1), (2, 3, 4), (4, 5, 6)):
            np.testing.assert_array_equal(extract_unions(fmap, window),
                                          _brute_unions(fmap, window))

    def test_unions_are_a_copy(self, rng):
        fmap = rng.normal(size=(5, 6, 7, 2))
        u = extract_unions(fmap, (2, 3, 4))
        expect = u.copy()
        fmap[...] = 0.0
        np.testing.assert_array_equal(u, expect)

    def test_window_larger_than_map(self):
        with pytest.raises(WindowTooLargeError):
            extract_unions(np.zeros((4, 4, 4, 1)), (5, 3, 3))

    @pytest.mark.parametrize("window", [(3.7, 3, 3), (3, 3.0, 3),
                                        (3, 3, False), (3, 3)],
                             ids=["fraction", "float", "bool", "two"])
    def test_window_must_be_three_integers(self, window):
        """Window 3.7 was taken as 3."""
        with pytest.raises(ValueError, match="window"):
            extract_unions(np.zeros((4, 4, 4, 1)), window)


def _assert_plane_rows_match_oracle(maps, y, window, block):
    """Each conv voxel a row of the layer steps' gather gives at a valid
    origin reads, in its column block, that origin's brute-force union:
    block ``j`` of the row at flat position p = x*Z + z' of a slab's
    y-origin holds the (h, w, z) window at p + j."""
    G, N, _, W, Z, C = maps.shape
    h, w, z = window
    rows = sslhop.pipeline._plane_unions(maps, y, window, block)
    assert rows.dtype == maps.dtype
    origins = y.stop - y.start - h + 1
    L = (W - w) * Z + Z - z + 1
    blocks = -(-L // block)
    assert rows.shape == (G, N * origins * blocks,
                          h * w * (z + block - 1) * C)
    # one column-major buffer: each union element is one run of the rows
    assert rows.transpose(2, 0, 1).flags.c_contiguous
    rows = rows.reshape((G, N, origins, blocks, h, w, z + block - 1, C))
    grid = (origins, W - w + 1, Z - z + 1, h, w, z, C)
    checked = 0
    for g in range(G):
        for n in range(N):
            brute = _brute_unions(maps[g, n, y], window).reshape(grid)
            for p in range(blocks * block):
                x, zz = divmod(p, Z)
                if zz >= grid[2]:
                    continue            # a wrapped position: never read
                j, k = divmod(p, block)
                np.testing.assert_array_equal(
                    rows[g, n, :, j, :, :, k:k + z], brute[:, x, zz])
                checked += origins
    assert checked == G * N * math.prod(grid[:3])


# the layer steps gather and project in float32; the gather takes either
DTYPES = [np.float32, np.float64]
# a conv voxel's distance from its float64 product: a dot product of 36
# terms, a union of unit-variance values times a unit-norm kernel column,
# within gamma_36 * |x| * |k| (Higham 2002, 3.1), about 5e-5 in float32
ATOL = {np.float32: 1e-4, np.float64: 1e-12}


class TestPlaneUnions:
    """The layer steps' gather of z-blocks over each map's flattened (x, z)
    plane, against the brute-force union oracle."""

    # (H, W, Z) and windows whose L = (W-w)*Z + Z-z+1 flat positions are
    # 22 (a whole number of blocks of 1 and 2; blocks of 3 read 2 past a
    # map's plane) and 19 (blocks of 2 and 3 read past it)
    PLANES = {"L22": ((4, 5, 8), (2, 3, 3)), "L19": ((4, 5, 7), (2, 3, 3))}

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("slabs", ["whole-maps", "one-row"])
    @pytest.mark.parametrize("groups", [1, 3])
    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("channels", [1, 5])
    @pytest.mark.parametrize("plane", PLANES.values(), ids=PLANES.keys())
    def test_valid_voxels_read_their_unions(self, rng, plane, channels,
                                            block, groups, slabs, dtype):
        """Runs of three whole maps, and slabs of one origin row at each
        offset, with one group or three."""
        dims, window = plane
        maps = rng.normal(size=(groups, 3) + dims + (channels,)).astype(dtype)
        H = dims[0]
        ys = [slice(0, H)] if slabs == "whole-maps" else \
            [slice(y0, y0 + window[0]) for y0 in range(H - window[0] + 1)]
        for y in ys:
            _assert_plane_rows_match_oracle(maps, y, window, block)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_non_contiguous_maps_match_oracle(self, rng, dtype):
        """Maps that are a strided view (here, reversed in x) are gathered
        from a copy."""
        maps = rng.normal(size=(2, 2, 4, 5, 8, 3)).astype(dtype)[:, :, :, ::-1]
        assert not maps.flags.c_contiguous
        for block in (1, 2, 3):
            _assert_plane_rows_match_oracle(maps, slice(0, 4), (2, 3, 3),
                                            block)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("slabs", ["whole-maps", "one-row"])
    @pytest.mark.parametrize("groups", [1, 3])
    @pytest.mark.parametrize("plane", PLANES.values(), ids=PLANES.keys())
    def test_poisoned_neighbours_reach_no_valid_voxel(
            self, rng, monkeypatch, plane, groups, slabs, dtype):
        """The maps are a view of a buffer that is NaN after them: each
        map's next one in memory (with several groups) or, after the last,
        the rest of the buffer. A GEMM multiplies a row's every element,
        so a NaN gathered beside a valid voxel's union would reach it;
        every valid conv voxel must equal its union times the kernel, at
        the roundoff of the maps' dtype."""
        dims, window = plane
        buffer = np.full((groups, 4) + dims + (2,), np.nan, dtype)
        maps = buffer[:, :3]
        maps[...] = rng.normal(size=maps.shape)
        kernels = [fit_saab(rng.normal(size=(40, 2 * math.prod(window))), 4)
                   for _ in range(groups)]
        if slabs == "one-row":
            monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES", 1)
        grid = tuple(d - k + 1 for d, k in zip(dims, window))
        for block in (1, 2, 3):
            conv = plan_project(kernels, maps, window, block)
            # the conv maps take the matrix's dtype, here the maps'
            assert conv.dtype == dtype
            for g, kernel in enumerate(kernels):
                for n in range(3):
                    expect = (extract_unions(maps[g, n], window)
                              @ kernel.projection[0]).reshape(grid + (4,))
                    np.testing.assert_allclose(conv[g, n], expect, rtol=0,
                                               atol=ATOL[dtype])


def _row_bytes(dims, window):
    """Bytes of the unions of one y-row of window origins."""
    H, W, Z, C = dims
    h, w, z = window
    return (W - w + 1) * (Z - z + 1) * h * w * z * C * 8


# SLAB_BYTES in units of one origin row: one row per slab, two rows per
# slab, the whole map in one slab, and a row larger than the budget
BUDGETS = {"one-row": 1.0, "multi-row": 2.5, "single-slab": None,
           "row-over-budget": 0.5}


def _odd_case(rng, channels):
    """A random map with odd spatial dims and a random window that fits."""
    dims = tuple(int(2 * v + 1) for v in rng.integers(1, 4, size=3))
    window = tuple(int(rng.integers(1, d + 1)) for d in dims)
    return rng.normal(size=dims + (channels,)), window


def _set_budget(monkeypatch, fmap, window, budget):
    """Patch SLAB_BYTES; return the origin rows each full slab holds."""
    rows = fmap.shape[0] - window[0] + 1
    if budget is None:
        monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES", 1 << 40)
        return rows
    row = _row_bytes(fmap.shape, window)
    monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES", int(budget * row))
    return max(1, int(budget))


class TestUnionSlabs:
    @pytest.mark.parametrize("channels", [1, 5])
    @pytest.mark.parametrize("budget", BUDGETS.values(), ids=BUDGETS.keys())
    def test_slabs_concatenate_to_brute_unions(self, rng, monkeypatch,
                                               channels, budget):
        for _ in range(6):
            fmap, window = _odd_case(rng, channels)
            per = _set_budget(monkeypatch, fmap, window, budget)
            slabs = plan_unions(fmap[None], window)
            rows = fmap.shape[0] - window[0] + 1
            per_row = ((fmap.shape[1] - window[1] + 1)
                       * (fmap.shape[2] - window[2] + 1))
            assert [len(u) for u in slabs] == [
                min(per, rows - y0) * per_row for y0 in range(0, rows, per)]
            np.testing.assert_array_equal(np.concatenate(slabs),
                                          _brute_unions(fmap, window))

    @pytest.mark.parametrize("channels", [1, 5])
    @pytest.mark.parametrize("budget", BUDGETS.values(), ids=BUDGETS.keys())
    def test_slab_conv_map_matches_dense_projection(self, rng, monkeypatch,
                                                    channels, budget):
        for _ in range(6):
            fmap, window = _odd_case(rng, channels)
            dense = extract_unions(fmap, window)
            dim = dense.shape[1]
            kernel = fit_saab(rng.normal(size=(40, dim)), min(4, dim))
            _set_budget(monkeypatch, fmap, window, budget)
            (conv,) = plan_project([kernel], fmap[None, None], window)
            grid = tuple(d - k + 1 for d, k in zip(fmap.shape, window))
            expect = apply_saab(kernel, dense).reshape(
                (1,) + grid + (kernel.channels,))
            # the layer steps add the offset after the pool
            np.testing.assert_allclose(conv + kernel.projection[1], expect,
                                       rtol=0, atol=1e-12)

    def test_invalid_window_raises_on_first_slab(self):
        with pytest.raises(WindowTooLargeError):
            slab_plan((1, 4, 4, 4, 1), (5, 3, 3))

    @pytest.mark.parametrize("window", [(5, 3, 3), (3, 0, 3)])
    def test_plan_refuses_a_bad_window_before_any_gather(self, monkeypatch,
                                                         window):
        """The layer steps' plan checks the window, so neither the moments
        nor the projection of a map gathers a slab with it."""
        gathered = []
        monkeypatch.setattr(sslhop.pipeline, "extract_unions",
                            lambda *args: gathered.append(args))
        maps = np.zeros((2, 4, 4, 4, 1))
        with pytest.raises(WindowTooLargeError):
            next(sslhop.pipeline._union_moments(maps, window))
        # a ledger entry the maps pass; the plan fails before its output
        shapes = sslhop.pipeline.LayerShapes(1, (4, 4, 4, 1), 27, (2, 2, 2, 3),
                                             (1, 1, 1, 3), 3, 3)
        with pytest.raises(WindowTooLargeError):
            sslhop.pipeline._pool_layer([None], maps[None], window, shapes)
        with pytest.raises(ShapeMismatchError):
            slab_plan((4, 4, 4, 1), (3, 3, 3))
        assert gathered == []


class TestMaxPool:
    def test_even_dims_exact(self):
        fmap = _coded(4, 4, 4, 1)
        out = max_pool(fmap)
        np.testing.assert_array_equal(out, _brute_pool(fmap, (2, 2, 2)))

    def test_ceil_keeps_partial_blocks(self):
        """An odd trailing slab still contributes a (smaller) block max."""
        fmap = _coded(5, 4, 3, 2)
        out = max_pool(fmap)
        assert out.shape == (3, 2, 2, 2)
        np.testing.assert_array_equal(out, _brute_pool(fmap, (2, 2, 2)))

    def test_negative_values_survive_padding(self):
        # all-negative input: no fill value may leak into the max
        fmap = -1.0 - _coded(3, 3, 3, 1)
        out = max_pool(fmap)
        np.testing.assert_array_equal(out, _brute_pool(fmap, (2, 2, 2)))
        assert np.all(np.isfinite(out))

    def test_random_maps_match_oracle(self, rng):
        for _ in range(10):
            dims = tuple(rng.integers(1, 9, size=3)) + (int(rng.integers(1, 3)),)
            fmap = rng.normal(size=dims)
            np.testing.assert_array_equal(max_pool(fmap),
                                          _brute_pool(fmap, (2, 2, 2)))

    @pytest.mark.parametrize("dims", [
        (1, 1, 1, 1), (1, 5, 3, 2), (7, 1, 5, 1), (3, 3, 1, 4), (5, 7, 9, 3),
        (9, 3, 7, 5)])
    def test_odd_and_unit_axes_match_oracle(self, rng, dims):
        for fmap in (rng.normal(size=dims), -1.0 - np.exp(rng.normal(size=dims))):
            before = fmap.copy()
            np.testing.assert_array_equal(max_pool(fmap),
                                          _brute_pool(fmap, (2, 2, 2)))
            np.testing.assert_array_equal(fmap, before)

    @pytest.mark.parametrize("offset", [1e6, -1e6, 1e-300, -1e-300])
    @pytest.mark.parametrize("dims", [(1, 1, 1, 1), (1, 5, 3, 2), (7, 1, 5, 1),
                                      (5, 7, 9, 3)])
    def test_offset_after_the_pool_is_exact(self, rng, dims, offset):
        """Rounding is monotone, so a per-channel offset added after the
        pool gives the pool of the offset maps bit for bit, as the layer
        steps rely on. The maps mix signs and magnitudes from 1e-12 to
        1e12 times the offset's, so that many of the sums round."""
        shape = (8,) + dims
        conv = (rng.normal(size=shape) * abs(offset)
                * 10.0 ** rng.integers(-12, 13, shape))
        channel = offset * np.arange(1, dims[-1] + 1)
        assert np.any(conv + channel - channel != conv)
        np.testing.assert_array_equal(
            max_pool(conv + channel).view(np.int64),
            (max_pool(conv) + channel).view(np.int64))

    @pytest.mark.parametrize("dims,expect", [
        ((98, 98, 123), (49, 49, 62)),
        ((47, 47, 60), (24, 24, 30)),
        ((22, 22, 28), (11, 11, 14)),
        ((9, 9, 12), (5, 5, 6)),
        ((3, 3, 4), (2, 2, 2)),
    ])
    def test_pooled_dims_reference_points(self, dims, expect):
        assert pooled_dims(dims) == expect
