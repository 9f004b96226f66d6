"""Layer plans, shape ledgers, end-to-end fitting, and parameter accounting."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import sslhop as sh
import sslhop.evaluate
import sslhop.neighborhood
from sslhop.errors import (
    MissingClassError,
    ShapeLedgerMismatchError,
    ShapeMismatchError,
    SingleClassError,
    WindowTooLargeError,
)


class TestConfig:
    def test_round_trip_through_dict(self):
        cfg = sh.small_config(seed=9)
        again = sh.PipelineConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_dict_layers_are_coerced(self):
        cfg = sh.PipelineConfig(
            layers=[{"window": [3, 3, 4], "channels": 4}])
        assert cfg.layers[0] == sh.LayerSpec((3, 3, 4), 4)

    def test_unknown_key_rejected(self):
        data = sh.small_config().to_dict()
        data["pooling"] = "avg"
        with pytest.raises(ValueError, match="pooling"):
            sh.PipelineConfig.from_dict(data)

    @pytest.mark.parametrize("bad", [
        {"layers": ()},
        {"layers": (sh.LayerSpec((3, 3, 3), 5),), "keep_ratio": 0.0},
        {"layers": (sh.LayerSpec((3, 3, 3), 5),), "keep_ratio": 1.2},
        {"layers": (sh.LayerSpec((3, 3, 3), 5),), "concat_mode": "stacked"},
        {"layers": (sh.LayerSpec((3, 3, 3), 5),), "keep_ratio": True},
        {"layers": (sh.LayerSpec((3, 3, 3), 5),), "alpha": 0.0},
        {"layers": (sh.LayerSpec((3, 3, 3), 5),), "alpha": "10"},
        {"layers": (sh.LayerSpec((3, 3, 3), 5),), "ridge_lambda": -1e-3},
        {"layers": (sh.LayerSpec((3, 3, 3), 5),), "ridge_lambda": float("nan")},
        {"layers": (sh.LayerSpec((3, 3, 3), 5),), "svm_cost": 0.0},
        {"layers": (sh.LayerSpec((3, 3, 3), 5),), "svm_cost": False},
        {"layers": (sh.LayerSpec((3, 3, 3), 5),), "bias_scale": float("inf")},
        {"layers": (sh.LayerSpec((3, 3, 3), 5),), "truncate_layer5": 1},
    ])
    def test_invalid_configs(self, bad):
        with pytest.raises(ValueError):
            sh.PipelineConfig(**bad)

    def test_presets(self):
        full = sh.full_config()
        small = sh.small_config()
        assert [l.channels for l in full.layers] == [5, 5, 15, 20, 25]
        assert [l.channels for l in small.layers] == [5, 5, 15]
        assert full.layers[0].window == (3, 3, 6)
        assert full.roi_size == (100, 100, 64)
        assert small.roi_size is None


class TestLedger:
    def test_small_plan_on_benchmark_dims(self):
        """Frozen shape walk of the 3-layer plan on a 32x32x32 stack."""
        rows = sh.compute_ledger(sh.small_config(), (32, 32, 32))
        expect = [
            # (union_dim, conv_dims, pool_dims, kept, lag_input)
            (54, (30, 30, 27, 5), (15, 15, 14, 5), 2, 6300),
            (135, (13, 13, 12, 5), (7, 7, 6, 5), 2, 588),
            (135, (5, 5, 4, 15), (3, 3, 2, 15), 7, 126),
        ]
        assert len(rows) == 3
        for row, (union, conv, pool, kept, lag) in zip(rows, expect):
            assert row.union_dim == union
            assert row.conv_dims == conv
            assert row.pool_dims == pool
            assert row.kept_channels == kept
            assert row.lag_input_dim == lag

    def test_input_channels_thread_through(self):
        rows = sh.compute_ledger(sh.small_config(), (32, 32, 32))
        assert rows[0].input_dims == (32, 32, 32, 1)
        assert rows[1].input_dims == (15, 15, 14, 5)
        assert rows[2].input_dims == (7, 7, 6, 5)

    def test_window_too_large(self):
        with pytest.raises(WindowTooLargeError):
            sh.compute_ledger(sh.small_config(), (32, 32, 4))

    def test_layer_shapes_round_trip(self):
        row = sh.compute_ledger(sh.small_config(), (32, 32, 32))[1]
        assert sh.LayerShapes.from_dict(row.to_dict()) == row

    def test_depth_truncation_applies_to_layer_five_only(self):
        cfg = dataclasses.replace(sh.full_config(), truncate_layer5=True)
        plain = sh.compute_ledger(sh.full_config(), (100, 100, 128))
        trunc = sh.compute_ledger(cfg, (100, 100, 128))
        for a, b in zip(plain[:4], trunc[:4]):
            assert a.conv_dims == b.conv_dims
        assert plain[4].conv_dims[2] == trunc[4].conv_dims[2] + 1


class TestAssemble:
    def test_centered_crop_and_interlace(self, rng):
        cfg = dataclasses.replace(sh.small_config(), roi_size=(4, 4, 2))
        ed = rng.normal(size=(3, 8, 8, 4))
        es = rng.normal(size=(3, 8, 8, 4))
        s = sh.assemble_sample(ed, es, cfg, label=1, subject_id="a")
        assert s.dims == (4, 4, 4)
        origin = sh.centered_origin((8, 8, 4), (4, 4, 2))
        np.testing.assert_array_equal(
            s.interlaced[..., 0::2], sh.crop_roi(ed, origin, (4, 4, 2)))

    def test_explicit_origin(self, rng):
        cfg = dataclasses.replace(sh.small_config(), roi_size=(4, 4, 2),
                                  roi_origin=(0, 0, 0))
        ed = rng.normal(size=(3, 8, 8, 4))
        es = rng.normal(size=(3, 8, 8, 4))
        s = sh.assemble_sample(ed, es, cfg, label=0, subject_id="b")
        np.testing.assert_array_equal(s.interlaced[..., 0::2],
                                      ed[:, :4, :4, :2])

    def test_plain_mode(self, rng):
        cfg = dataclasses.replace(sh.small_config(), concat_mode="plain")
        ed = rng.normal(size=(3, 6, 6, 3))
        es = rng.normal(size=(3, 6, 6, 3))
        s = sh.assemble_sample(ed, es, cfg, label=0, subject_id="c")
        np.testing.assert_array_equal(s.interlaced[..., :3], ed)
        np.testing.assert_array_equal(s.interlaced[..., 3:], es)


class TestFit:
    def test_model_structure(self, tiny_model, tiny_cohort, tiny_cfg):
        _, records = tiny_cohort
        assert tiny_model.class_count == 3
        assert len(tiny_model.stages) == 3                 # directions
        assert all(len(d) == len(tiny_cfg.layers) for d in tiny_model.stages)
        assert tiny_model.input_dims == (12, 12, 12)
        assert sorted(tiny_model.train_subject_ids) == sorted(
            r.subject_id for r in records)
        # 2 layers x 3 directions x (2 centroids x 3 classes)
        assert tiny_model.feature_dim == 36

    def test_transform_matches_training_features(self, tiny_model, tiny_cohort,
                                                  tiny_cfg):
        _, records = tiny_cohort
        samples = [sh.assemble_sample(r.ed, r.es, tiny_cfg, r.label,
                                      r.subject_id) for r in records]
        fresh = sh.transform_many(tiny_model, samples)
        np.testing.assert_array_equal(fresh, tiny_model.training_features)

    def test_training_set_is_classified_correctly(self, tiny_model,
                                                  tiny_cohort, tiny_cfg):
        _, records = tiny_cohort
        samples = [sh.assemble_sample(r.ed, r.es, tiny_cfg, r.label,
                                      r.subject_id) for r in records]
        pred, scores = sh.predict_samples(tiny_model, samples)
        assert (pred == np.array([r.label for r in records])).all()
        assert scores.shape == (len(records), 3)

    def test_refit_is_identical(self, tiny_cohort, tiny_cfg, tiny_model):
        _, records = tiny_cohort
        samples = [sh.assemble_sample(r.ed, r.es, tiny_cfg, r.label,
                                      r.subject_id) for r in records]
        again = sh.fit_pipeline(samples, tiny_cfg)
        for d in range(3):
            for li in range(len(tiny_cfg.layers)):
                a, b = tiny_model.stages[d][li], again.stages[d][li]
                assert np.array_equal(a.kernel.ac, b.kernel.ac)
                assert np.array_equal(a.entropy.kept, b.entropy.kept)
                assert np.array_equal(a.lag.weights, b.lag.weights)
        assert np.array_equal(tiny_model.svm.weights, again.svm.weights)

    def test_seed_changes_the_fit(self, tiny_cohort, tiny_cfg):
        _, records = tiny_cohort
        samples = [sh.assemble_sample(r.ed, r.es, tiny_cfg, r.label,
                                      r.subject_id) for r in records]
        other = sh.fit_pipeline(samples, dataclasses.replace(tiny_cfg, seed=99))
        base = sh.fit_pipeline(samples, tiny_cfg)
        # clustering is seeded per layer/direction: some centroid set differs
        diffs = [not np.array_equal(a.lag.centroids, b.lag.centroids)
                 for pa, pb in zip(base.stages, other.stages)
                 for a, b in zip(pa, pb)]
        assert any(diffs)

    def test_forward_maps_follow_ledger(self, tiny_model, tiny_cohort,
                                        tiny_cfg):
        _, records = tiny_cohort
        s = sh.assemble_sample(records[0].ed, records[0].es, tiny_cfg,
                               records[0].label, records[0].subject_id)
        maps = sh.forward_maps(tiny_model, s, direction=1)
        assert len(maps) == len(tiny_cfg.layers)
        for (conv, pooled), row in zip(maps, tiny_model.ledger):
            assert conv.shape == row.conv_dims
            assert pooled.shape == row.pool_dims

    def test_single_class_rejected(self, tiny_cohort, tiny_cfg):
        _, records = tiny_cohort
        samples = [sh.assemble_sample(r.ed, r.es, tiny_cfg, 0, r.subject_id)
                   for r in records]
        with pytest.raises(SingleClassError):
            sh.fit_pipeline(samples, tiny_cfg)

    def test_label_gap_rejected(self, tiny_cohort, tiny_cfg):
        _, records = tiny_cohort
        samples = [sh.assemble_sample(r.ed, r.es, tiny_cfg,
                                      0 if r.label == 0 else 2, r.subject_id)
                   for r in records]
        with pytest.raises(MissingClassError):
            sh.fit_pipeline(samples, tiny_cfg)

    def test_transform_rejects_wrong_dims(self, tiny_model, rng):
        bad = sh.DeformationSample(interlaced=rng.normal(size=(3, 10, 10, 12)),
                                   label=0, subject_id="x")
        with pytest.raises(ShapeMismatchError):
            sh.transform(tiny_model, bad)

    def test_transform_many_rejects_no_samples(self, tiny_model):
        with pytest.raises(ShapeMismatchError):
            sh.transform_many(tiny_model, [])


# Measured between 5-fold CV fold models and standalone fits on the same
# subjects (tiny cohorts of seeds 1-3 and 7, run seeds 3 and 11): Saab
# anchors differed by at most 1.1e-14, training features (magnitude <= 1)
# by 3.0e-11 and held-out decision scores by 5.1e-11; labels never.
FOLD_ANCHOR_TOL = 1e-12
FOLD_FEATURE_TOL = 1e-9


def _samples(records, cfg):
    return [sh.assemble_sample(r.ed, r.es, cfg, r.label, r.subject_id)
            for r in records]


# A tiny-cohort layer-1 map (12x12x12, window (3, 3, 4)) has 10 y-rows of
# window origins of 10 * 9 * 36 * 8 bytes each; this budget streams it in
# slabs of 3 rows.
TINY_SLAB_BYTES = 3 * 10 * 9 * 36 * 8


def _subject_moments(samples, cfg):
    """Per direction, each subject's layer-1 moments: the in-order merge of
    its slabs' moments."""
    window = cfg.layers[0].window
    return [[sh.merge_moments(
                sh.union_moments(u)
                for u in sh.union_slabs(s.interlaced[d][..., None], window))
             for s in samples] for d in range(3)]


def _assert_handed_moments_give_identical_bytes(plain, samples, cfg,
                                                tmp_path):
    handed = sh.fit_pipeline(samples, cfg,
                             layer1=_subject_moments(samples, cfg))
    a = sh.save_model(plain, tmp_path / "plain.sslm").read_bytes()
    b = sh.save_model(handed, tmp_path / "handed.sslm").read_bytes()
    assert a == b
    np.testing.assert_array_equal(handed.training_features,
                                  plain.training_features)


def _assert_fold_models_match_standalone_fits(records, cfg, monkeypatch):
    fit = sslhop.evaluate.fit_pipeline
    models = []

    def keep(*args, **kwargs):
        models.append(fit(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(sslhop.evaluate, "fit_pipeline", keep)
    report = sh.cross_validate(records, cfg, folds=5, seed=3)
    samples = _samples(records, cfg)
    assert len(models) == 5
    for f, model in enumerate(models):
        train = [s for s in samples if report.fold_of[s.subject_id] != f]
        test = [s for s in samples if report.fold_of[s.subject_id] == f]
        alone = sh.fit_pipeline(train, cfg, class_count=3)
        for per_a, per_b in zip(model.stages, alone.stages):
            for a, b in zip(per_a, per_b):
                np.testing.assert_allclose(a.kernel.ac, b.kernel.ac,
                                           rtol=0, atol=FOLD_ANCHOR_TOL)
                np.testing.assert_allclose(a.kernel.mean_ac,
                                           b.kernel.mean_ac,
                                           rtol=0, atol=FOLD_ANCHOR_TOL)
        np.testing.assert_allclose(model.training_features,
                                   alone.training_features,
                                   rtol=0, atol=FOLD_FEATURE_TOL)
        pred_a, scores_a = sh.predict_samples(model, test)
        pred_b, scores_b = sh.predict_samples(alone, test)
        np.testing.assert_array_equal(pred_a, pred_b)
        np.testing.assert_allclose(scores_a, scores_b, rtol=0,
                                   atol=FOLD_FEATURE_TOL)


@pytest.fixture()
def tiny_slabs(monkeypatch, tiny_cfg):
    """Stream tiny-cohort layer-1 maps in at least 3 slabs."""
    monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES", TINY_SLAB_BYTES)
    fmap = np.zeros((12, 12, 12, 1))
    assert len(list(sh.union_slabs(fmap, tiny_cfg.layers[0].window))) >= 3


class TestLayerOneHandOff:
    def test_per_subject_moments_give_identical_bytes(self, tiny_cohort,
                                                      tiny_cfg, tiny_model,
                                                      tmp_path):
        _, records = tiny_cohort
        _assert_handed_moments_give_identical_bytes(
            tiny_model, _samples(records, tiny_cfg), tiny_cfg, tmp_path)

    def test_per_subject_moments_give_identical_bytes_in_slabs(
            self, tiny_cohort, tiny_cfg, tiny_slabs, tmp_path):
        _, records = tiny_cohort
        samples = _samples(records, tiny_cfg)
        plain = sh.fit_pipeline(samples, tiny_cfg)
        _assert_handed_moments_give_identical_bytes(plain, samples, tiny_cfg,
                                                    tmp_path)
        np.testing.assert_array_equal(sh.transform_many(plain, samples),
                                      plain.training_features)

    def test_cv_fold_models_match_standalone_fits(self, tiny_cohort, tiny_cfg,
                                                  monkeypatch):
        _, records = tiny_cohort
        _assert_fold_models_match_standalone_fits(records, tiny_cfg,
                                                  monkeypatch)

    def test_cv_fold_models_match_standalone_fits_in_slabs(
            self, tiny_cohort, tiny_cfg, tiny_slabs, monkeypatch):
        _, records = tiny_cohort
        _assert_fold_models_match_standalone_fits(records, tiny_cfg,
                                                  monkeypatch)

    def test_block_with_a_held_out_subject_is_rejected(self, tiny_cohort,
                                                       tiny_cfg):
        _, records = tiny_cohort
        samples = _samples(records, tiny_cfg)
        every = sh.first_layer_moments(samples, tiny_cfg)
        with pytest.raises(ShapeLedgerMismatchError, match="layer-1"):
            sh.fit_pipeline(samples[1:], tiny_cfg, class_count=3,
                            layer1=[[m] for m in every])


class TestBoundedMemory:
    def test_layer_peak_is_its_output_maps_plus_a_few_slabs(self, rng):
        """One 64x64x32 map through a (3, 3, 6) layer, whose dense union
        matrix alone would take 62 * 62 * 27 * 54 * 8 = 44.8 MB."""
        cfg = sh.PipelineConfig(layers=(sh.LayerSpec((3, 3, 6), 5),),
                                centroids_per_class=1)
        samples = [sh.DeformationSample(rng.normal(size=(3, 64, 64, 32)),
                                        label, f"s{label}")
                   for label in (0, 1)]
        model = sh.fit_pipeline(samples, cfg)
        shapes = model.ledger[0]
        budget = (8 * (math.prod(shapes.conv_dims) + math.prod(shapes.pool_dims))
                  + 3 * sslhop.neighborhood.SLAB_BYTES)
        tracemalloc.start()
        try:
            sh.forward_maps(model, samples[0], 0)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sh.first_layer_moments(samples[:1], cfg)
            moments_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forward_peak < budget
        assert moments_peak < budget


class TestParameterAccounting:
    def test_fitted_count_matches_closed_form(self, tiny_model, tiny_cfg):
        counted = sh.count_parameters(tiny_model)
        formula = sh.parameter_breakdown(tiny_cfg, (12, 12, 12), class_count=3)
        for key in ("saab", "lag", "svm", "total"):
            assert counted[key] == formula[key]

    def test_bias_parameters_counted_when_enabled(self):
        cfg = sh.small_config()
        with_bias = dataclasses.replace(cfg, bias_scale=0.5)
        a = sh.parameter_breakdown(cfg, (32, 32, 32), 5)
        b = sh.parameter_breakdown(with_bias, (32, 32, 32), 5)
        per_layer_channels = sum(l.channels for l in cfg.layers)
        assert b["saab"] - a["saab"] == 3 * per_layer_channels

    def test_minimal_plan_feature_length(self, rng):
        """One layer, two classes, one centroid each: 3 directions x 2."""
        cfg = sh.PipelineConfig(layers=(sh.LayerSpec((2, 2, 2), 3),),
                                centroids_per_class=1, seed=0)
        samples = []
        for i in range(4):
            ed = rng.normal(size=(3, 4, 4, 2)) + (i % 2) * 5.0
            es = rng.normal(size=(3, 4, 4, 2))
            samples.append(sh.assemble_sample(ed, es, cfg, i % 2, f"s{i}"))
        model = sh.fit_pipeline(samples, cfg)
        assert model.feature_dim == 6
        assert sh.transform(model, samples[0]).shape == (6,)
