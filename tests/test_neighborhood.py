"""Window extraction, slab streaming and ceil-mode pooling against
brute-force oracles."""

import numpy as np
import pytest

import sslhop.neighborhood
import sslhop.pipeline
from sslhop import (apply_saab, extract_unions, fit_saab, max_pool,
                    pooled_dims, union_count, union_slabs)
from sslhop.errors import WindowTooLargeError


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

    def test_window_larger_than_map(self):
        with pytest.raises(WindowTooLargeError):
            extract_unions(np.zeros((4, 4, 4, 1)), (5, 3, 3))


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
            slabs = list(union_slabs(fmap, window))
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
            conv = sslhop.pipeline._project(kernel, fmap, window)
            grid = tuple(d - k + 1 for d, k in zip(fmap.shape, window))
            expect = apply_saab(kernel, dense).reshape(
                grid + (kernel.channels,))
            np.testing.assert_allclose(conv, expect, rtol=0, atol=1e-12)

    def test_invalid_window_raises_on_first_slab(self):
        with pytest.raises(WindowTooLargeError):
            list(union_slabs(np.zeros((4, 4, 4, 1)), (5, 3, 3)))


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

    @pytest.mark.parametrize("dims,expect", [
        ((98, 98, 123), (49, 49, 62)),
        ((47, 47, 60), (24, 24, 30)),
        ((22, 22, 28), (11, 11, 14)),
        ((9, 9, 12), (5, 5, 6)),
        ((3, 3, 4), (2, 2, 2)),
    ])
    def test_pooled_dims_reference_points(self, dims, expect):
        assert pooled_dims(dims) == expect
