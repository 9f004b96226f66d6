"""Entropy-guided channel screening and label-assisted regression."""

import math
import tracemalloc

import numpy as np
import pytest

import sslhop.supervise
from sslhop import (ChannelEntropy, LayerShapes, apply_lag, channel_entropy,
                    class_centroids, fit_lag)
from conftest import BAD_SEEDS
from sslhop.errors import (
    ClusterCollapseWarning,
    IndexOutOfRangeError,
    NonFiniteValuesError,
    ShapeLedgerMismatchError,
    ShapeMismatchError,
    SingleClassError,
    TooFewSamplesError,
)
from sslhop.pipeline import _reduce
from sslhop.supervise import _class_entropies

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
        per_class = _class_entropies(feats, labels)
        np.testing.assert_allclose(per_class, MICRO_PER_CLASS, atol=1e-12)
        np.testing.assert_array_equal(ent.per_channel, per_class.sum(axis=0))
        np.testing.assert_allclose(ent.per_channel, MICRO_PER_CHANNEL,
                                   atol=1e-12)
        np.testing.assert_array_equal(ent.kept, [1])

    def test_constant_pool_hits_log_v_exactly(self):
        """A constant class pool of V voxels is uniform: entropy == ln V."""
        feats = np.zeros((2, 2, 2, 1, 1))
        feats[0] = 7.5
        feats[1] = -3.25
        ent = channel_entropy(feats, np.array([0, 1]), keep_ratio=1.0)
        per_class = _class_entropies(feats, np.array([0, 1]))
        assert per_class[0, 0] == math.log(4)
        assert per_class[1, 0] == math.log(4)
        assert ent.per_channel[0] == per_class[0, 0] + per_class[1, 0]

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
        per_class = _class_entropies(feats, labels)
        pool = 4 * 3 * 3 * 2
        assert np.all(per_class >= 0.0)
        assert np.all(per_class <= math.log(pool) + 1e-9)
        np.testing.assert_array_equal(channel_entropy(feats, labels).per_channel,
                                      per_class.sum(axis=0))

    def test_float32_maps_give_their_float64_widenings_entropies(self, rng):
        """Float32 maps are widened one class at a time, exactly, so the
        screen equals that of the widened stack bit for bit."""
        feats = rng.normal(size=(9, 3, 3, 2, 6)).astype(np.float32)
        labels = np.array([0, 1, 2] * 3)
        narrow = channel_entropy(feats, labels)
        wide = channel_entropy(feats.astype(np.float64), labels)
        assert narrow.per_channel.dtype == np.float64
        np.testing.assert_array_equal(narrow.per_channel, wide.per_channel)
        np.testing.assert_array_equal(narrow.kept, wide.kept)

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
    """The layer steps pick the kept channels in :func:`pipeline._reduce`,
    with ids that only a :class:`ChannelEntropy` hands them."""

    @staticmethod
    def _shapes():
        return LayerShapes(layer=1, input_dims=(4, 4, 3, 1), union_dim=4,
                           conv_dims=(3, 3, 2, 5), pool_dims=(3, 3, 2, 5),
                           kept_channels=2, lag_input_dim=3 * 3 * 2 * 2)

    def test_picks_requested_channels(self, rng):
        fmap = rng.normal(size=(3, 3, 2, 5))
        out = _reduce(fmap[None], np.array([0, 3]), self._shapes())
        np.testing.assert_array_equal(out, fmap[..., [0, 3]].reshape(1, -1))

    def test_stacked_maps(self, rng):
        """Stacked pooled maps are indexed with the checked ids as is, and
        a width the ledger does not give is refused."""
        maps = rng.normal(size=(4, 3, 3, 2, 5))
        out = _reduce(maps, np.array([1, 4]), self._shapes())
        np.testing.assert_array_equal(out, maps[..., [1, 4]].reshape(4, -1))
        with pytest.raises(ShapeLedgerMismatchError):
            _reduce(maps, np.array([0, 1, 4]), self._shapes())

    @pytest.mark.parametrize("kept", [[3, 1], [1, 1], [-1, 2], [0, 5], []])
    def test_rejects_bad_id_lists(self, kept, rng):
        """A bad id list for 5-channel maps never reaches the picking: its
        entropy record refuses it."""
        with pytest.raises(IndexOutOfRangeError):
            ChannelEntropy(per_channel=rng.random(5), kept=np.array(kept))


class TestKeptIds:
    @pytest.mark.parametrize("kept", [[3, 1], [1, 1], [-1, 2], [0, 5], [],
                                      [0.0, 2.0]],
                             ids=["unsorted", "repeated", "negative",
                                  "past-the-end", "empty", "float"])
    def test_channel_entropy_refuses_bad_kept_ids(self, kept):
        """Fitted kept ids are checked once, when their entropy record is
        made, since the layer steps index maps with them unchecked."""
        with pytest.raises(IndexOutOfRangeError):
            ChannelEntropy(per_channel=np.zeros(5), kept=np.array(kept))


class TestLag:
    def test_single_centroid_is_class_mean(self, rng):
        X = rng.normal(size=(12, 3)) + np.repeat([[0.0], [8.0]], 6, axis=0)
        labels = np.repeat([0, 1], 6)
        centroids, block_sizes = class_centroids(X, labels,
                                                 centroids_per_class=1, seed=3)
        np.testing.assert_allclose(centroids[0], X[:6].mean(axis=0),
                                   atol=1e-12)
        np.testing.assert_allclose(centroids[1], X[6:].mean(axis=0),
                                   atol=1e-12)
        np.testing.assert_array_equal(block_sizes, [1, 1])
        model = fit_lag(X, labels, centroids_per_class=1, seed=3)
        np.testing.assert_array_equal(model.block_sizes, [1, 1])

    def test_normal_equations_primal(self, rng):
        X = rng.normal(size=(40, 6))
        labels = rng.integers(0, 3, size=40)
        lam = 1e-3
        model = fit_lag(X, labels, centroids_per_class=2, alpha=10.0,
                        ridge_lambda=lam, seed=5)
        aug = np.hstack([X, np.ones((40, 1))])
        # recover the targets implied by the fitted system: with
        # (A^T A + lam I) W = A^T Y the residual of the normal equations
        # against a reconstructed Y must vanish; reconstruct Y through the
        # same centroid/soft-target rule
        Y = _soft_targets(X, labels, model, alpha=10.0, seed=5)
        lhs = (aug.T @ aug + lam * np.eye(7)) @ model.weights
        np.testing.assert_allclose(lhs, aug.T @ Y, atol=1e-8)

    def test_normal_equations_dual_path(self, rng):
        X = rng.normal(size=(10, 50))           # features outnumber samples
        labels = np.repeat([0, 1], 5)
        lam = 1e-3
        model = fit_lag(X, labels, centroids_per_class=2, alpha=10.0,
                        ridge_lambda=lam, seed=5)
        aug = np.hstack([X, np.ones((10, 1))])
        Y = _soft_targets(X, labels, model, alpha=10.0, seed=5)
        lhs = (aug.T @ aug + lam * np.eye(51)) @ model.weights
        np.testing.assert_allclose(lhs, aug.T @ Y, atol=1e-8)

    def test_own_block_scores_dominate(self, rng):
        X = np.vstack([rng.normal(size=(15, 4)) - 5.0,
                       rng.normal(size=(15, 4)) + 5.0])
        labels = np.repeat([0, 1], 15)
        model = fit_lag(X, labels, centroids_per_class=3, seed=1)
        out = apply_lag(model, X)
        b0, b1 = slice(0, 3), slice(3, 6)
        np.testing.assert_array_equal(model.block_sizes, [3, 3])
        assert out[:15, b0].sum(axis=1).mean() > out[:15, b1].sum(axis=1).mean()
        assert out[15:, b1].sum(axis=1).mean() > out[15:, b0].sum(axis=1).mean()

    def test_seed_determinism(self, rng):
        X = rng.normal(size=(30, 5))
        labels = np.tile([0, 1, 2], 10)
        a = fit_lag(X, labels, centroids_per_class=3, seed=9)
        b = fit_lag(X, labels, centroids_per_class=3, seed=9)
        assert np.array_equal(class_centroids(X, labels, 3, seed=9)[0],
                              class_centroids(X, labels, 3, seed=9)[0])
        assert np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("shape", [(30, 5), (12, 40)],
                             ids=["primal", "dual"])
    def test_float32_features_fit_and_apply_as_their_widening(self, rng,
                                                              shape):
        X = rng.normal(size=shape).astype(np.float32)
        labels = np.tile([0, 1, 2], shape[0] // 3)
        narrow = fit_lag(X, labels, centroids_per_class=2, seed=9)
        wide = fit_lag(X.astype(np.float64), labels, centroids_per_class=2,
                       seed=9)
        np.testing.assert_array_equal(narrow.weights, wide.weights)
        out = apply_lag(narrow, X)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, apply_lag(wide, X.astype(np.float64)))

    def test_seeds_past_32_bits_draw_their_own_centroids(self, rng,
                                                         monkeypatch):
        """Class row 0's k-means stream at seed 2**32 and row 1's at seed 0
        would both be [0, 1, 0] padded with a zero; each must be its own."""
        states = []
        plusplus = sslhop.supervise._kmeans_plusplus

        def spy(X, k, generator):
            states.append(generator.bit_generator.state["state"]["state"])
            return plusplus(X, k, generator)

        monkeypatch.setattr(sslhop.supervise, "_kmeans_plusplus", spy)
        X = rng.normal(size=(12, 3))
        labels = np.repeat([0, 1], 6)
        for seed in (2**32, 0):
            class_centroids(X, labels, 2, seed=seed)
        assert len(states) == len(set(states)) == 4

    def test_seed_is_a_non_negative_integer(self, rng):
        X = rng.normal(size=(12, 3))
        labels = np.repeat([0, 1], 6)
        for seed in BAD_SEEDS:
            with pytest.raises(ValueError, match="seed"):
                fit_lag(X, labels, centroids_per_class=2, seed=seed)

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

    def test_centroids_peak_below_the_arrays_they_must_hold(self, rng):
        """Ten layer-1 rows of the ``full`` preset, 297,724 float32
        features each, in two classes of five, five centroids per class:
        the step holds the float64 widening of the rows (two k x D
        arrays), both classes' centroid blocks and their stack (two each),
        and under a quarter of one more in single rows. With the centres
        copied on each Lloyd step, their shift in a k x D temporary and a
        class's rows held beside the stack, it peaked at 7.29 k x D, over
        one more than this bound."""
        k, D = 5, 297_724
        X = rng.normal(size=(10, D)).astype(np.float32)
        kd = k * D * 8
        tracemalloc.start()
        try:
            class_centroids(X, np.repeat([0, 1], 5), k, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * kd + kd // 4

    @pytest.mark.parametrize("tol", [1e-6, 0.0])
    def test_lloyd_equals_a_copying_reference(self, rng, tol):
        """Lloyd's in-place update gives the centres and sizes of the
        plain form that takes each step's centres into a fresh copy and
        their shift from ``((new - old) ** 2).sum(axis=1)``, bit for bit,
        over runs of many steps."""
        for _ in range(10):
            X = rng.normal(size=(60, 7)) + rng.integers(0, 3, (60, 1)) * 1.5
            start = X[rng.choice(60, size=4, replace=False)]
            centers, sizes = sslhop.supervise._lloyd(X, start.copy(), 300,
                                                     tol)
            expect, expect_sizes = _reference_lloyd(X, start, 300, tol)
            np.testing.assert_array_equal(centers, expect)
            np.testing.assert_array_equal(sizes, expect_sizes)

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


def _reference_lloyd(X, centers, max_iter, tol):
    """Lloyd iterations that copy the centres on every step."""
    k = centers.shape[0]
    sizes = np.zeros(k, dtype=np.int64)
    for _ in range(max_iter):
        d2 = np.einsum("kd,kd->k", centers, centers) - 2.0 * (X @ centers.T)
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


def _soft_targets(X, labels, model, alpha, seed):
    """Re-derive the soft targets from the centroids of
    :func:`class_centroids` at the two centroids per class, ``seed`` and
    ``alpha`` the fit was given, one centroid block per sorted label."""
    centroids, block_sizes = class_centroids(
        X, labels, centroids_per_class=2, seed=seed)
    np.testing.assert_array_equal(block_sizes, model.block_sizes)
    targets = np.zeros((X.shape[0], model.output_dim))
    ends = np.cumsum(block_sizes)
    for cls, start, end in zip(np.unique(labels), ends - block_sizes, ends):
        idx = np.flatnonzero(labels == cls)
        block = centroids[start:end]
        dist = np.sqrt(((X[idx, None, :] - block[None, :, :]) ** 2).sum(axis=2))
        t = np.exp(-alpha * (dist - dist.min(axis=1, keepdims=True)))
        targets[idx, start:end] = t / t.sum(axis=1, keepdims=True)
    return targets
