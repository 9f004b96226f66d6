"""Entropy-guided channel screening and label-assisted regression."""

import math

import numpy as np
import pytest

from sslhop import apply_lag, channel_entropy, fit_lag, select_channels
from sslhop.errors import (
    ClusterCollapseWarning,
    IndexOutOfRangeError,
    NonFiniteValuesError,
    ShapeMismatchError,
    SingleClassError,
    TooFewSamplesError,
)

# Hand-computed with an independent pure-python loop (shift each class pool
# by its min, add 1e-12, L1-normalize, natural-log entropy, sum classes):
#   class 0: chan0 [0,1,2,3]      chan1 [5,5,5,5]
#   class 1: chan0 [1,1,4,2]      chan1 [0,10,0,0]
#   class 2: chan0 [2,2,2,2]      chan1 [3,1,4,1]
MICRO_PER_CLASS = np.array([
    [1.0114042647123451, 1.3862943611198906],
    [0.5623351446336732, 9.280064123926979e-12],
    [1.3862943611198906, 0.6730116670210996],
])
MICRO_PER_CHANNEL = np.array([2.960033770465909, 2.0593060281502704])


def _micro_features():
    feats = np.zeros((3, 2, 2, 1, 2))
    feats[0, :, :, 0, 0] = [[0.0, 1.0], [2.0, 3.0]]
    feats[1, :, :, 0, 0] = [[1.0, 1.0], [4.0, 2.0]]
    feats[2, :, :, 0, 0] = [[2.0, 2.0], [2.0, 2.0]]
    feats[0, :, :, 0, 1] = [[5.0, 5.0], [5.0, 5.0]]
    feats[1, :, :, 0, 1] = [[0.0, 10.0], [0.0, 0.0]]
    feats[2, :, :, 0, 1] = [[3.0, 1.0], [4.0, 1.0]]
    return feats, np.array([0, 1, 2])


class TestChannelEntropy:
    def test_micro_case(self):
        feats, labels = _micro_features()
        ent = channel_entropy(feats, labels, keep_ratio=0.5)
        np.testing.assert_allclose(ent.per_class, MICRO_PER_CLASS, atol=1e-12)
        np.testing.assert_allclose(ent.per_channel, MICRO_PER_CHANNEL,
                                   atol=1e-12)
        np.testing.assert_array_equal(ent.kept, [1])

    def test_constant_pool_hits_log_v_exactly(self):
        """A constant class pool of V voxels is uniform: entropy == ln V."""
        feats = np.zeros((2, 2, 2, 1, 1))
        feats[0] = 7.5
        feats[1] = -3.25
        ent = channel_entropy(feats, np.array([0, 1]), keep_ratio=1.0)
        assert ent.per_class[0, 0] == math.log(4)
        assert ent.per_class[1, 0] == math.log(4)

    def test_concentrated_channel_wins(self, rng):
        """One-spike-per-class maps carry less entropy than i.i.d. noise."""
        n, shape = 9, (4, 4, 2)
        feats = np.zeros((n,) + shape + (2,))
        feats[..., 0] = rng.uniform(size=(n,) + shape)     # noise channel
        for i in range(n):
            feats[i, i % 4, (i // 4) % 4, 0, 1] = 50.0     # concentrated
        labels = np.repeat([0, 1, 2], 3)
        ent = channel_entropy(feats, labels, keep_ratio=0.5)
        assert ent.per_channel[1] < ent.per_channel[0]
        np.testing.assert_array_equal(ent.kept, [1])

    def test_keep_count_floor(self, rng):
        feats = rng.normal(size=(4, 2, 2, 2, 5))
        labels = np.array([0, 0, 1, 1])
        assert channel_entropy(feats, labels, 0.5).kept.size == 2
        assert channel_entropy(feats, labels, 1.0).kept.size == 5
        assert channel_entropy(feats, labels, 0.05).kept.size == 1  # max(1, .)

    def test_ties_prefer_lower_channel_id(self, rng):
        base = rng.normal(size=(4, 3, 3, 2, 1))
        feats = np.concatenate([base, base, base], axis=-1)  # identical chans
        ent = channel_entropy(feats, np.array([0, 0, 1, 1]), keep_ratio=2 / 3)
        np.testing.assert_array_equal(ent.kept, [0, 1])

    def test_shift_and_scale_invariance(self, rng):
        """Per-channel affine reparameterization must not reorder channels."""
        feats = rng.normal(size=(6, 3, 3, 2, 4))
        labels = np.repeat([0, 1], 3)
        moved = feats * 3.5 - 12.0
        a = channel_entropy(feats, labels)
        b = channel_entropy(moved, labels)
        np.testing.assert_allclose(a.per_channel, b.per_channel, atol=1e-6)
        np.testing.assert_array_equal(a.kept, b.kept)

    def test_entropy_bounded_by_log_pool_size(self, rng):
        feats = rng.normal(size=(8, 3, 3, 2, 6))
        labels = np.repeat([0, 1], 4)
        ent = channel_entropy(feats, labels)
        pool = 4 * 3 * 3 * 2
        assert np.all(ent.per_class >= 0.0)
        assert np.all(ent.per_class <= math.log(pool) + 1e-9)

    def test_single_class_rejected(self, rng):
        with pytest.raises(SingleClassError):
            channel_entropy(rng.normal(size=(3, 2, 2, 2, 2)), np.zeros(3))

    def test_bad_inputs(self, rng):
        feats = rng.normal(size=(4, 2, 2, 2, 3))
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(ShapeMismatchError):
            channel_entropy(feats[0], labels)
        with pytest.raises(ShapeMismatchError):
            channel_entropy(feats, labels[:3])
        with pytest.raises(ValueError):
            channel_entropy(feats, labels, keep_ratio=0.0)
        with pytest.raises(ValueError):
            channel_entropy(feats, labels, keep_ratio=1.5)


class TestSelectChannels:
    def test_picks_requested_channels(self, rng):
        fmap = rng.normal(size=(3, 3, 2, 5))
        out = select_channels(fmap, np.array([0, 3]))
        np.testing.assert_array_equal(out, fmap[..., [0, 3]])

    def test_stacked_maps(self, rng):
        maps = rng.normal(size=(4, 3, 3, 2, 5))
        out = select_channels(maps, np.array([1, 4]))
        np.testing.assert_array_equal(out, maps[..., [1, 4]])
        with pytest.raises(ShapeMismatchError):
            select_channels(maps[0, 0], np.array([1, 4]))

    @pytest.mark.parametrize("kept", [[3, 1], [1, 1], [-1, 2], [0, 5], []])
    def test_rejects_bad_id_lists(self, kept, rng):
        with pytest.raises(IndexOutOfRangeError):
            select_channels(rng.normal(size=(2, 2, 2, 5)), np.array(kept))


class TestLag:
    def test_single_centroid_is_class_mean(self, rng):
        X = rng.normal(size=(12, 3)) + np.repeat([[0.0], [8.0]], 6, axis=0)
        labels = np.repeat([0, 1], 6)
        model = fit_lag(X, labels, centroids_per_class=1, seed=3)
        np.testing.assert_allclose(model.centroids[0], X[:6].mean(axis=0),
                                   atol=1e-12)
        np.testing.assert_allclose(model.centroids[1], X[6:].mean(axis=0),
                                   atol=1e-12)
        np.testing.assert_array_equal(model.block_sizes, [1, 1])

    def test_normal_equations_primal(self, rng):
        X = rng.normal(size=(40, 6))
        labels = rng.integers(0, 3, size=40)
        lam = 1e-3
        model = fit_lag(X, labels, centroids_per_class=2, ridge_lambda=lam,
                        seed=5)
        aug = np.hstack([X, np.ones((40, 1))])
        # recover the targets implied by the fitted system: with
        # (A^T A + lam I) W = A^T Y the residual of the normal equations
        # against a reconstructed Y must vanish; reconstruct Y through the
        # same centroid/soft-target rule
        Y = _soft_targets(X, labels, model)
        lhs = (aug.T @ aug + lam * np.eye(7)) @ model.weights
        np.testing.assert_allclose(lhs, aug.T @ Y, atol=1e-8)

    def test_normal_equations_dual_path(self, rng):
        X = rng.normal(size=(10, 50))           # features outnumber samples
        labels = np.repeat([0, 1], 5)
        lam = 1e-3
        model = fit_lag(X, labels, centroids_per_class=2, ridge_lambda=lam,
                        seed=5)
        aug = np.hstack([X, np.ones((10, 1))])
        Y = _soft_targets(X, labels, model)
        lhs = (aug.T @ aug + lam * np.eye(51)) @ model.weights
        np.testing.assert_allclose(lhs, aug.T @ Y, atol=1e-8)

    def test_own_block_scores_dominate(self, rng):
        X = np.vstack([rng.normal(size=(15, 4)) - 5.0,
                       rng.normal(size=(15, 4)) + 5.0])
        labels = np.repeat([0, 1], 15)
        model = fit_lag(X, labels, centroids_per_class=3, seed=1)
        out = apply_lag(model, X)
        b0, b1 = model.block_slice(0), model.block_slice(1)
        assert out[:15, b0].sum(axis=1).mean() > out[:15, b1].sum(axis=1).mean()
        assert out[15:, b1].sum(axis=1).mean() > out[15:, b0].sum(axis=1).mean()

    def test_seed_determinism(self, rng):
        X = rng.normal(size=(30, 5))
        labels = np.tile([0, 1, 2], 10)
        a = fit_lag(X, labels, centroids_per_class=3, seed=9)
        b = fit_lag(X, labels, centroids_per_class=3, seed=9)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.weights, b.weights)

    def test_collapsed_cluster_is_dropped(self, rng):
        # class 0 is a single repeated point: a second centroid can never
        # own any member, so it must be dropped after the one re-seed
        X = np.vstack([np.ones((4, 3)), rng.normal(size=(4, 3)) + 10.0])
        labels = np.repeat([0, 1], 4)
        with pytest.warns(ClusterCollapseWarning):
            model = fit_lag(X, labels, centroids_per_class=2, seed=0)
        assert model.block_sizes[0] == 1
        assert model.output_dim == model.block_sizes.sum()
        out = apply_lag(model, X)
        assert out.shape == (8, model.output_dim)

    def test_too_few_samples(self, rng):
        X = rng.normal(size=(5, 3))
        labels = np.array([0, 0, 0, 1, 1])
        with pytest.raises(TooFewSamplesError):
            fit_lag(X, labels, centroids_per_class=3)

    def test_single_class_rejected(self, rng):
        with pytest.raises(SingleClassError):
            fit_lag(rng.normal(size=(6, 3)), np.zeros(6),
                    centroids_per_class=2)

    def test_non_finite_rejected(self):
        X = np.ones((6, 3))
        X[2, 1] = np.nan
        with pytest.raises(NonFiniteValuesError):
            fit_lag(X, np.repeat([0, 1], 3), centroids_per_class=1)

    def test_apply_shape_guard(self, rng):
        model = fit_lag(rng.normal(size=(10, 4)), np.repeat([0, 1], 5),
                        centroids_per_class=1)
        with pytest.raises(ShapeMismatchError):
            apply_lag(model, rng.normal(size=(3, 5)))


def _soft_targets(X, labels, model):
    """Re-derive the soft targets from the fitted centroids."""
    targets = np.zeros((X.shape[0], model.output_dim))
    for row, cls in enumerate(model.classes):
        idx = np.flatnonzero(labels == cls)
        block = model.centroids[model.block_slice(row)]
        dist = np.sqrt(((X[idx, None, :] - block[None, :, :]) ** 2).sum(axis=2))
        t = np.exp(-model.alpha * (dist - dist.min(axis=1, keepdims=True)))
        targets[idx, model.block_slice(row)] = t / t.sum(axis=1, keepdims=True)
    return targets
