"""Window extraction, slab plans and ceil-mode pooling against
brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

import sslhop.neighborhood
import sslhop.pipeline
from conftest import map_major, plan_project, plan_unions
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


def _plane_positions(dims, window) -> int:
    """L = (W-w)*Z + Z-z+1, the flat (x, z) positions of an origin row."""
    (_, W, Z), (_, w, z) = dims, window
    return (W - w) * Z + Z - z + 1


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
    blocks = _plane_positions(maps.shape[2:5], window) // block
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

# (H, W, Z) and windows whose L = (W-w)*Z + Z-z+1 flat positions are 22
# (whole numbers of blocks of 1, 2, 11 and 22) and 24 (of its eight
# divisors)
PLANES = {"L22": ((4, 5, 8), (2, 3, 3)), "L24": ((4, 4, 13), (2, 3, 3))}


def _dividing_blocks(plane) -> list[int]:
    """Every block that divides the plane's L."""
    L = _plane_positions(*plane)
    return [b for b in range(1, L + 1) if L % b == 0]


# every (plane, block) pair whose block divides the plane's L
PLANE_BLOCKS = {f"{name}-b{block}": (plane, block)
                for name, plane in PLANES.items()
                for block in _dividing_blocks(plane)}


class TestPlaneUnions:
    """The layer steps' gather of z-blocks over each map's flattened (x, z)
    plane, from map-major stacks as the layer steps hold them, against the
    brute-force union oracle."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("slabs", ["whole-maps", "one-row"])
    @pytest.mark.parametrize("groups", [1, 3])
    @pytest.mark.parametrize("channels", [1, 5])
    @pytest.mark.parametrize("plane,block", PLANE_BLOCKS.values(),
                             ids=PLANE_BLOCKS.keys())
    def test_valid_voxels_read_their_unions(self, rng, plane, block,
                                            channels, groups, slabs, dtype):
        """Runs of three whole maps, and slabs of one origin row at each
        offset, with one group or three, in every block that divides L."""
        dims, window = plane
        maps = map_major(rng.normal(size=(groups, 3) + dims + (channels,))
                         .astype(dtype))
        H = dims[0]
        ys = [slice(0, H)] if slabs == "whole-maps" else \
            [slice(y0, y0 + window[0]) for y0 in range(H - window[0] + 1)]
        for y in ys:
            _assert_plane_rows_match_oracle(maps, y, window, block)

    @pytest.mark.parametrize("plane", PLANES.values(), ids=PLANES.keys())
    def test_a_block_that_does_not_divide_the_plane_is_refused(
            self, rng, monkeypatch, plane):
        """The smallest block that leaves L a remainder, 3 for L22 and 5
        for L24, would read past each map's plane: the projection refuses
        it before it gathers a slab."""
        dims, window = plane
        L = _plane_positions(dims, window)
        block = min(b for b in range(2, L) if L % b)
        maps = map_major(rng.normal(size=(2, 3) + dims + (2,)))
        kernels = [fit_saab(rng.normal(size=(40, 2 * math.prod(window))), 4)
                   for _ in range(2)]
        gathered = []
        monkeypatch.setattr(sslhop.pipeline, "memoryview", gathered.append,
                            raising=False)
        with pytest.raises(ShapeMismatchError, match="does not divide"):
            plan_project(kernels, maps, window, block)
        assert gathered == []

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("slabs", ["whole-maps", "one-row"])
    @pytest.mark.parametrize("groups", [1, 3])
    @pytest.mark.parametrize("plane", PLANES.values(), ids=PLANES.keys())
    def test_poisoned_neighbours_reach_no_valid_voxel(
            self, rng, monkeypatch, plane, groups, slabs, dtype):
        """The maps are a view of a map-major buffer that is NaN after
        them: each map's next one in memory (the next group's map of the
        same index, or the first group's of the next) or, after the last,
        the rest of the buffer. A GEMM
        multiplies a row's every element, so a NaN gathered beside a valid
        voxel's union would reach it; every valid conv voxel, in every
        block that divides L, must equal its union times the kernel, at
        the roundoff of the maps' dtype."""
        dims, window = plane
        buffer = np.full((4, groups) + dims + (2,), np.nan, dtype)
        maps = buffer[:3].swapaxes(0, 1)
        maps[...] = rng.normal(size=maps.shape)
        kernels = [fit_saab(rng.normal(size=(40, 2 * math.prod(window))), 4)
                   for _ in range(groups)]
        if slabs == "one-row":
            monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES", 1)
        grid = tuple(d - k + 1 for d, k in zip(dims, window))
        for block in _dividing_blocks(plane):
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

    @pytest.mark.parametrize("dims,window,runs,slabs,full", [
        ((12, 12, 12, 1), (3, 3, 4), 10, 1, 1),
        ((32, 32, 32, 1), (3, 3, 6), 1, 4, 15)])
    def test_lag_plan_counts_partial_unions(self, dims, window, runs, slabs,
                                            full):
        """The statistics' plan budgets the (1, w, z) partial unions of a
        map's H input rows, where the projection's budgets the full unions
        of its origin rows: ten 12x12x12 maps to a run, where the
        projection takes four, and four row slabs of a 32x32x32 map, where
        it takes 15, each with its h-1 halo rows."""
        (run, ys), *_ = sslhop.neighborhood.lag_plan((1, 25) + dims, window)
        assert len(range(25)[run]) == runs
        assert len(ys) == slabs
        assert all(a.stop - b.start == window[0] - 1
                   for a, b in zip(ys, ys[1:]))
        assert ys[-1].stop == dims[0]
        (_, full_ys), *_ = slab_plan((1, 1) + dims, window)
        assert len(full_ys) == full

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
        with pytest.raises(WindowTooLargeError):
            sslhop.pipeline._map_moments(maps[None], window)
        # a ledger entry the maps pass; the plan fails before its output
        shapes = sslhop.pipeline.LayerShapes(1, (4, 4, 4, 1), 27, (2, 2, 2, 3),
                                             (1, 1, 1, 3), 3, 3)
        with pytest.raises(WindowTooLargeError):
            sslhop.pipeline._pool_layer(None, maps[None], window, shapes)
        with pytest.raises(ShapeMismatchError):
            slab_plan((4, 4, 4, 1), (3, 3, 3))
        assert gathered == []


class TestMemoizedSlabPlan:
    """The plan's memo keeps its contract: it takes list windows, refuses
    bad ones on every call, hands out plans no caller can use to alter a
    later one, and holds one entry per shape without N."""

    SHAPE, WINDOW = (3, 40, 12, 12, 12, 1), (3, 3, 4)

    def test_list_window_gives_the_tuple_plan(self):
        assert slab_plan(self.SHAPE, list(self.WINDOW)) == \
            slab_plan(self.SHAPE, self.WINDOW)

    @pytest.mark.parametrize("shape, window, error", [
        ((1, 4, 4, 4, 1), (5, 3, 3), WindowTooLargeError),
        ((1, 4, 4, 4, 1), [3, 0, 3], WindowTooLargeError),
        ((4, 4, 4, 1), (3, 3, 3), ShapeMismatchError)])
    def test_bad_window_raises_on_every_call(self, shape, window, error):
        for _ in range(3):
            with pytest.raises(error):
                slab_plan(shape, window)
            # a good plan of the same maps between does not hide the error
            slab_plan((1, 4, 4, 4, 1), (2, 2, 2))

    def test_returned_plan_cannot_alter_later_calls(self):
        plan = slab_plan(self.SHAPE, self.WINDOW)
        expect = list(plan)
        assert all(isinstance(ys, tuple) for _, ys in plan)
        plan[0] = (slice(0, 0), ())
        plan.append(plan[0])
        assert slab_plan(self.SHAPE, self.WINDOW) == expect

    def test_cache_does_not_grow_across_batch_sizes(self):
        memo = sslhop.neighborhood._slab_rows
        slab_plan(self.SHAPE, self.WINDOW)
        size = memo.cache_info().currsize
        for n in range(1, 60):
            plan = slab_plan(self.SHAPE[:1] + (n,) + self.SHAPE[2:],
                             self.WINDOW)
            # whole runs of the maps, in order, every map once
            assert [m for run, _ in plan for m in range(n)[run]] == \
                list(range(n))
        assert memo.cache_info().currsize == size


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

    AXES = {"unit": 1, "odd": 5, "even": 4}

    @pytest.mark.parametrize("kinds", itertools.product(AXES, repeat=3),
                             ids="-".join)
    def test_every_axis_combination_matches_oracle(self, rng, kinds):
        """Each of H, W and Z unit, odd or even, on float64 maps of mixed
        signs, all-negative ones, and a float32 stack of maps whose (x, z)
        plane is padded, as a layer step's conv view is; the input is
        left as it was."""
        H, W, Z = (self.AXES[k] for k in kinds)
        plane = rng.normal(size=(2, 3, H, W * Z + 3, 2)).astype(np.float32)
        padded = plane[:, :, :, :W * Z].reshape(2, 3, H, W, Z, 2)
        assert not padded.flags.c_contiguous
        for fmap in (rng.normal(size=(H, W, Z, 3)),
                     -1.0 - np.exp(rng.normal(size=(H, W, Z, 3))), padded):
            before = fmap.copy()
            out = max_pool(fmap)
            assert out.shape == fmap.shape[:-4] + (-(-H // 2), -(-W // 2),
                                                   -(-Z // 2), fmap.shape[-1])
            assert out.dtype == fmap.dtype
            for idx in np.ndindex(fmap.shape[:-4]):
                np.testing.assert_array_equal(
                    out[idx], _brute_pool(fmap[idx], (2, 2, 2)))
            np.testing.assert_array_equal(fmap, before)
            # into a given array, and into a strided view of a larger one,
            # as a layer step pools a run into its rows; the rest stays
            given = np.full_like(out, np.nan)
            assert max_pool(fmap, out=given) is given
            np.testing.assert_array_equal(given, out)
            wider = np.full(out.shape[:-1] + (out.shape[-1] + 2,), np.nan,
                            out.dtype)
            max_pool(fmap, out=wider[..., 1:-1])
            np.testing.assert_array_equal(wider[..., 1:-1], out)
            assert np.isnan(wider[..., [0, -1]]).all()
            np.testing.assert_array_equal(fmap, before)

    @pytest.mark.parametrize("kinds", itertools.product(AXES, repeat=3),
                             ids="-".join)
    def test_wrong_out_is_a_shape_mismatch(self, kinds):
        """An ``out`` one longer or shorter on any axis, without the map's
        leading axis, or of another dtype is refused with a typed error,
        never numpy's ValueError, and left as it was."""
        H, W, Z = (self.AXES[k] for k in kinds)
        fmap = np.zeros((2, H, W, Z, 3), np.float32)
        shape = (2, -(-H // 2), -(-W // 2), -(-Z // 2), 3)
        wrong = [shape[1:], shape[:1] + (2,) + shape[1:]]
        for axis in range(5):
            for step in (-1, 1):
                bad = list(shape)
                bad[axis] += step
                if bad[axis] > 0:
                    wrong.append(tuple(bad))
        outs = [np.ones(s, np.float32) for s in wrong]
        outs += [np.ones(shape, np.float64), np.ones(shape, np.int32)]
        for out in outs:
            with pytest.raises(ShapeMismatchError, match="pools into"):
                max_pool(fmap, out=out)
            assert (out == 1).all()

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
