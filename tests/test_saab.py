"""Subspace-approximation kernel: anchors, energies, batching, edge cases."""

import warnings

import numpy as np
import pytest

from sslhop import (
    Moments,
    SaabKernel,
    apply_saab,
    extract_unions,
    fit_saab,
    fit_saab_batches,
    merge_moments,
    union_moments,
)
from sslhop.errors import (
    DegenerateInputError,
    DegenerateInputWarning,
    ShapeMismatchError,
)


def _oracle_eig(X):
    """Reference residual-covariance eigendecomposition.

    Deliberately built from the generic (non-symmetric) ``np.linalg.eig``
    path so it shares no code with the fitted kernel.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    dc = np.ones(d) / np.sqrt(d)
    resid = X - np.outer(X @ dc, dc)
    centered = resid - resid.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    evals, evecs = np.linalg.eig(cov)
    evals = evals.real
    evecs = evecs.real
    order = np.argsort(-evals)
    return evals[order], evecs[:, order].T


class TestAnchors:
    def test_dc_is_unit_constant(self, rng):
        k = fit_saab(rng.normal(size=(40, 9)), channels=4)
        np.testing.assert_allclose(k.dc, np.full(9, 1 / 3.0), atol=1e-15)

    def test_constant_patch_dc_response(self):
        """A length-4 all-fours union projects onto DC as 4 * (1/2) * 4 = 8."""
        k = fit_saab(np.array([[4.0, 4, 4, 4], [1.0, 2, 3, 4], [0.0, 1, 0, 1]]),
                     channels=1)
        out = apply_saab(k, np.array([[4.0, 4, 4, 4]]))
        assert out[0, 0] == pytest.approx(8.0, abs=1e-12)

    def test_gram_matrix_is_identity(self, rng):
        X = rng.normal(size=(120, 12))
        k = fit_saab(X, channels=7)
        basis = np.vstack([k.dc, k.ac])
        np.testing.assert_allclose(basis @ basis.T, np.eye(7), atol=1e-10)

    def test_ac_matches_eig_oracle(self, rng):
        for _ in range(5):
            X = rng.normal(size=(80, 10)) * rng.uniform(0.5, 3.0, size=10)
            k = fit_saab(X, channels=6)
            _, oracle = _oracle_eig(X)
            dots = np.abs(np.sum(k.ac * oracle[:5], axis=1))
            np.testing.assert_allclose(dots, 1.0, atol=1e-8)

    def test_sign_convention(self, rng):
        k = fit_saab(rng.normal(size=(60, 8)), channels=8)
        for row in k.ac:
            assert row[np.argmax(np.abs(row))] > 0

    def test_energy_is_eigenvalue_ratio(self, rng):
        X = rng.normal(size=(100, 6))
        k = fit_saab(X, channels=6)
        evals, _ = _oracle_eig(X)
        np.testing.assert_allclose(k.energy, evals[:5] / evals.sum(), atol=1e-10)
        assert np.all(np.diff(k.energy) <= 1e-15)
        assert np.cumsum(k.energy)[-1] <= 1.0 + 1e-12

    def test_isotropic_energy_split(self, rng):
        """i.i.d. unions spread residual energy evenly over the D-1 AC axes."""
        X = rng.normal(size=(10_000, 8))
        k = fit_saab(X, channels=8)
        np.testing.assert_allclose(k.energy, np.full(7, 1 / 7.0), atol=0.05)


class TestApply:
    def test_column_semantics(self, rng):
        X = rng.normal(size=(50, 6))
        k = fit_saab(X, channels=4, bias_scale=0.25)
        out = apply_saab(k, X)
        assert k.bias == pytest.approx(0.25 * 2.0)
        np.testing.assert_allclose(out[:, 0], X @ k.dc + k.bias, atol=1e-12)
        np.testing.assert_allclose(
            out[:, 1:], (X - k.mean_ac) @ k.ac.T + k.bias, atol=1e-12)

    def test_accepts_union_matrix(self, rng):
        fmap = rng.normal(size=(5, 5, 5, 2))
        unions = extract_unions(fmap, (3, 3, 3))
        k = fit_saab(unions, channels=5)
        out = apply_saab(k, unions)
        assert out.shape == (27, 5)

    def test_width_mismatch(self, rng):
        k = fit_saab(rng.normal(size=(20, 6)), channels=3)
        with pytest.raises(ShapeMismatchError):
            apply_saab(k, rng.normal(size=(4, 7)))


def _offset_rows(rng):
    return 1e3 + rng.normal(loc=rng.uniform(-5, 5, size=10),
                            scale=np.linspace(0.5, 3.0, 10), size=(200, 10))


def _uneven_blocks(X):
    """Blocks of 1, 0, 37, 5, 90, 2 and 65 rows."""
    bounds = np.cumsum([0, 1, 0, 37, 5, 90, 2, 65])
    return [X[a:b] for a, b in zip(bounds, bounds[1:])]


def _equal_count_items(rng):
    """400 items of 24 rows of 36, the layer-1 shape of a 5-fold training
    set of a 500-subject cohort: per-item means about 1e3 +- 50, far from
    zero, as one stacked item."""
    levels = 1e3 + rng.uniform(-50, 50, size=(400, 1, 1))
    X = levels + rng.normal(scale=np.linspace(0.5, 3.0, 36), size=(400, 24, 36))
    items = [union_moments(x) for x in X]
    return X.reshape(-1, 36), [Moments(24, np.array([m.mean for m in items]),
                                       np.array([m.scatter for m in items]))]


class TestMoments:
    @pytest.mark.parametrize("case", ["uneven-blocks", "400-equal-items"])
    def test_merge_matches_two_pass_oracle(self, rng, case):
        if case == "uneven-blocks":
            X = _offset_rows(rng)
            items = (union_moments(b) for b in _uneven_blocks(X))
        else:
            X, items = _equal_count_items(rng)
        merged = merge_moments(items)
        rows = X.astype(np.longdouble)
        mean = rows.mean(axis=0)
        centered = rows - mean
        scatter = centered.T @ centered
        assert merged.count == len(X)
        # measured over rng seeds 0-19 against this long double oracle: mean
        # within 3.8e-16 relative, scatter within 2.7e-14 of its largest
        # entry (uneven blocks), and 8.0e-17 and 2.9e-15 (400 items)
        np.testing.assert_allclose(merged.mean, mean, rtol=1e-14, atol=0)
        err = np.abs(merged.scatter - scatter).max() / np.abs(scatter).max()
        assert err <= 1e-12

    def test_stacked_items_merge_as_the_items_one_by_one(self, rng):
        """A stack's scatters are summed in its row order, as the items'
        are in theirs, and its means held as theirs are."""
        _, (stacked,) = _equal_count_items(rng)
        items = [Moments(stacked.count, mean, scatter)
                 for mean, scatter in zip(stacked.mean, stacked.scatter)]
        one, each = merge_moments([stacked]), merge_moments(items)
        assert one.count == each.count == 400 * 24
        assert np.array_equal(one.mean, each.mean)
        assert np.array_equal(one.scatter, each.scatter)

    def test_single_item_merge_is_exact(self, rng):
        X = _offset_rows(rng)
        item = union_moments(X)
        empty = union_moments(X[:0])
        for items in ([item], [empty, item, empty]):
            merged = merge_moments(items)
            assert merged.count == item.count
            assert np.array_equal(merged.mean, item.mean)
            assert np.array_equal(merged.scatter, item.scatter)

    def test_merge_leaves_its_inputs_alone(self, rng):
        items = [union_moments(b) for b in _uneven_blocks(_offset_rows(rng))]
        before = [Moments(m.count, m.mean.copy(), m.scatter.copy())
                  for m in items]
        merge_moments(items)
        for a, b in zip(items, before):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.scatter, b.scatter)

    def test_width_mismatch_rejected(self, rng):
        with pytest.raises(ShapeMismatchError):
            merge_moments([union_moments(rng.normal(size=(4, 3))),
                           union_moments(rng.normal(size=(4, 5)))])


class TestBatching:
    def test_batches_match_dense_fit(self, rng):
        X = rng.normal(size=(97, 11))
        dense = fit_saab(X, channels=6)
        split = fit_saab_batches(
            [union_moments(b) for b in (X[:13], X[13:60], X[60:])], channels=6)
        np.testing.assert_allclose(split.ac, dense.ac, atol=1e-10)
        np.testing.assert_allclose(split.mean_ac, dense.mean_ac, atol=1e-12)
        np.testing.assert_allclose(split.energy, dense.energy, atol=1e-12)

    def test_uneven_offset_batches_match_two_pass_oracle(self, rng):
        # a common offset of 1e3 and batches of 0 and 1 rows stress the
        # merge; the oracle removes DC row by row in two passes
        X = _offset_rows(rng)
        k = fit_saab_batches((union_moments(b) for b in _uneven_blocks(X)),
                             channels=6)
        _, oracle = _oracle_eig(X)
        dots = np.abs(np.sum(k.ac * oracle[:5], axis=1))
        np.testing.assert_allclose(dots, 1.0, atol=1e-10, rtol=0)
        dc = np.ones(10) / np.sqrt(10)
        mean_ac = (X - np.outer(X @ dc, dc)).mean(axis=0)
        err = np.linalg.norm(k.mean_ac - mean_ac) / np.linalg.norm(mean_ac)
        assert err <= 1e-12

    def test_one_shot_generator_is_accepted(self, rng):
        X = rng.normal(size=(40, 6))
        k = fit_saab_batches((union_moments(X[i:i + 8])
                              for i in range(0, 40, 8)), channels=4)
        np.testing.assert_allclose(k.ac, fit_saab(X, channels=4).ac, atol=1e-10)

    def test_row_order_permutation_invariance(self, rng):
        X = rng.normal(size=(64, 9))
        perm = rng.permutation(64)
        a = fit_saab(X, channels=5)
        b = fit_saab(X[perm], channels=5)
        np.testing.assert_allclose(a.ac, b.ac, atol=1e-10)
        np.testing.assert_allclose(a.energy, b.energy, atol=1e-12)

    def test_refit_is_bit_identical(self, rng):
        X = rng.normal(size=(30, 7))
        a = fit_saab(X, channels=4)
        b = fit_saab(X.copy(), channels=4)
        assert np.array_equal(a.ac, b.ac)
        assert np.array_equal(a.mean_ac, b.mean_ac)


class TestEdgeCases:
    def test_channel_bounds(self, rng):
        X = rng.normal(size=(10, 5))
        with pytest.raises(DegenerateInputError):
            fit_saab(X, channels=0)
        with pytest.raises(DegenerateInputError):
            fit_saab(X, channels=6)

    @pytest.mark.parametrize("channels", [3.9, 3.0, True, "3"])
    def test_channels_must_be_an_integer(self, rng, channels):
        """3.9 channels were taken as 3."""
        with pytest.raises(ValueError, match="channels"):
            fit_saab(rng.normal(size=(10, 5)), channels)

    def test_single_union_rejected(self):
        with pytest.raises(DegenerateInputError):
            fit_saab(np.ones((1, 4)), channels=2)

    def test_empty_iterable_rejected(self):
        with pytest.raises(DegenerateInputError):
            fit_saab_batches(iter(()), channels=2)

    def test_rank_deficit_pads_with_zeros(self, rng):
        # three distinct rows span a residual space of rank <= 2
        X = np.vstack([rng.normal(size=(3, 8))] * 10)
        with pytest.warns(DegenerateInputWarning):
            k = fit_saab(X, channels=6)
        assert k.padded >= 3
        np.testing.assert_array_equal(k.ac[-k.padded:], 0.0)
        np.testing.assert_array_equal(k.energy[-k.padded:], 0.0)

    def test_constant_rows_are_degenerate(self):
        # every union on the DC axis: no residual variance at all
        X = np.outer(np.arange(1.0, 7.0), np.ones(5))
        with pytest.warns(DegenerateInputWarning, match="no residual variance"):
            k = fit_saab(X, channels=3)
        assert k.padded == 2
        np.testing.assert_array_equal(k.ac, 0.0)
        np.testing.assert_array_equal(k.energy, 0.0)
        out = apply_saab(k, X)
        np.testing.assert_allclose(out[:, 1:], k.bias)

    @pytest.mark.parametrize("dim", [7, 54])
    def test_dc_roundoff_is_not_residual_variance(self, dim):
        # 1/sqrt(dim) is inexact, so DC removal leaves roundoff that must
        # not be kept as an AC component
        X = np.outer(np.arange(1.0, 21.0), np.ones(dim))
        with pytest.warns(DegenerateInputWarning, match="no residual variance"):
            k = fit_saab(X, channels=4)
        assert k.padded == 3
        np.testing.assert_array_equal(k.energy, 0.0)

    def test_tied_eigenvalues_are_deterministic(self):
        # two orthogonal +/- pairs of equal norm: the residual covariance has
        # one eigenvalue of multiplicity two, exactly tied in floating point
        X = np.array([[1.0, -1, 0, 0], [-1.0, 1, 0, 0],
                      [0.0, 0, 1, -1], [0.0, 0, -1, 1]])
        fits = [fit_saab(X, channels=3) for _ in range(3)]
        assert fits[0].energy[0] == fits[0].energy[1]
        for later in fits[1:]:
            assert np.array_equal(fits[0].ac, later.ac)
            assert np.array_equal(fits[0].energy, later.energy)

    def test_non_2d_rejected(self):
        with pytest.raises(ShapeMismatchError):
            fit_saab(np.zeros((4, 4, 4)), channels=2)

    def test_kernel_is_frozen(self, rng):
        k = fit_saab(rng.normal(size=(20, 4)), channels=2)
        assert isinstance(k, SaabKernel)
        with pytest.raises(AttributeError):
            k.bias = 1.0
