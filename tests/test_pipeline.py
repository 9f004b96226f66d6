"""Layer plans, shape ledgers, end-to-end fitting, and parameter accounting."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import sslhop as sh
import sslhop.evaluate
import sslhop.fields
import sslhop.neighborhood
import sslhop.pipeline
from conftest import BAD_SEEDS, map_major, plan_project, plan_unions, \
    pool_layer
from sslhop.errors import (
    DegenerateInputError,
    DegenerateInputWarning,
    IndexOutOfRangeError,
    MissingClassError,
    NonFiniteValuesError,
    OutOfBoundsError,
    ShapeLedgerMismatchError,
    ShapeMismatchError,
    SingleClassError,
    WindowTooLargeError,
)
from sslhop.model_io import _HEADER


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

    @pytest.mark.parametrize("data,field", [
        (None, "config must be a JSON object"),
        ("abc", "config must be a JSON object"),
        ({"seed": 1}, r"config keys missing: \['layers'\]"),
        ({"layers": 5}, "layers must be a list"),
        ({"layers": [5]}, "layer must be a JSON object"),
        ({"layers": [{"window": 3, "channels": 4}]}, "window"),
        ({"layers": [{"window": [3, 3, 3], "channels": 4, "extra": 1}]},
         r"unknown layer keys: \['extra'\]"),
        ({"layers": [{"window": [3, 3, 3]}]},
         r"layer keys missing: \['channels'\]"),
        ({"layers": [{"window": [3, 3, 3], "channels": 4}], "roi_size": 5},
         "roi_size"),
        ({"layers": [{"window": [3, 3, 3], "channels": 4}],
          "roi_origin": [0, 0, 0]}, "roi_origin needs a roi_size"),
    ], ids=["null", "string", "no-layers", "layers-int", "layer-int",
            "window-int", "layer-extra-key", "layer-no-channels", "roi-int",
            "roi-origin-alone"])
    def test_malformed_dicts_name_the_offending_field(self, data, field):
        with pytest.raises(ValueError, match=field):
            sh.PipelineConfig.from_dict(data)

    def test_seed_is_a_non_negative_integer(self):
        for seed in BAD_SEEDS:
            with pytest.raises(ValueError, match="seed"):
                sh.small_config(seed=seed)

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

    @pytest.mark.parametrize("dims", [(32, 32, 32.5), (32.0, 32, 32),
                                      (True, 32, 32), (32, 32)],
                             ids=["half", "float", "bool", "two"])
    def test_input_dims_must_be_three_integers(self, dims):
        """Dims 32.5 were taken as 32."""
        with pytest.raises(ValueError, match="input_dims"):
            sh.compute_ledger(sh.small_config(), dims)

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


def _assembled_stack(ed, es, cfg):
    """The float64 stack an assembled sample held before maps were built
    on demand: crop, merge at the phases' dtype, then widen."""
    if cfg.roi_size is not None:
        origin = cfg.roi_origin or sh.centered_origin(ed.shape[1:],
                                                      cfg.roi_size)
        ed = sh.crop_roi(ed, origin, cfg.roi_size)
        es = sh.crop_roi(es, origin, cfg.roi_size)
    stack = np.empty(ed.shape[:3] + (2 * ed.shape[3],), dtype=ed.dtype)
    if cfg.concat_mode == "interlaced":
        stack[..., 0::2], stack[..., 1::2] = ed, es
    else:
        stack[..., :ed.shape[3]], stack[..., ed.shape[3]:] = ed, es
    return np.ascontiguousarray(stack, dtype=np.float64)


class TestOnDemandMaps:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("roi", [None, (4, 5, 2)])
    @pytest.mark.parametrize("mode", ["interlaced", "plain"])
    def test_direction_maps_match_the_assembled_stack(self, rng, mode, roi,
                                                      dtype):
        cfg = dataclasses.replace(sh.small_config(), concat_mode=mode,
                                  roi_size=roi)
        ed = rng.normal(size=(3, 7, 6, 3)).astype(dtype)
        es = rng.normal(size=(3, 7, 6, 3)).astype(dtype)
        sample = sh.assemble_sample(ed, es, cfg, label=1, subject_id="a")
        stack = _assembled_stack(ed, es, cfg)
        assert sample.dims == stack.shape[1:]
        for d in range(3):
            fmap = sample.direction(d)
            assert fmap.dtype == np.float64 and fmap.flags["C_CONTIGUOUS"]
            np.testing.assert_array_equal(fmap, stack[d])
        np.testing.assert_array_equal(sample.interlaced, stack)

    def test_float32_phases_are_held_as_given(self, rng):
        ed = rng.normal(size=(3, 4, 4, 2)).astype(np.float32)
        es = rng.normal(size=(3, 4, 4, 2)).astype(np.float32)
        sample = sh.assemble_sample(ed, es, sh.small_config(), 0, "a")
        assert all(p.dtype == np.float32 for p in sample.phases)

    @pytest.mark.parametrize("roi", [None, (2, 2, 2)])
    def test_bad_fields_fail_at_assembly(self, rng, roi):
        cfg = dataclasses.replace(sh.small_config(), roi_size=roi)
        good = rng.normal(size=(3, 6, 6, 4))
        nan = good.copy()
        nan[1, 0, 0, 0] = np.nan                 # outside any centered ROI
        with pytest.raises(NonFiniteValuesError):
            sh.assemble_sample(good, nan, cfg, 0, "a")
        with pytest.raises(ShapeMismatchError):
            sh.assemble_sample(good, good[..., :3], cfg, 0, "a")

    def test_roi_validates_each_full_phase_once(self, rng, monkeypatch):
        """A non-finite voxel outside the ROI is still refused, with exit
        code 3, by the one check of each full phase."""
        cfg = dataclasses.replace(sh.small_config(), roi_size=(2, 2, 2))
        checked = []
        validate = sslhop.fields.validate_field

        def counted(field):
            checked.append(np.shape(field))
            return validate(field)

        monkeypatch.setattr(sslhop.fields, "validate_field", counted)
        good = rng.normal(size=(3, 6, 6, 4))
        sh.assemble_sample(good, good, cfg, 0, "a")
        assert checked.count(good.shape) == 2
        nan = good.copy()
        nan[1, 0, 0, 0] = np.nan                 # outside the centered ROI
        with pytest.raises(NonFiniteValuesError) as err:
            sh.assemble_sample(good, nan, cfg, 0, "a")
        assert err.value.exit_code == 3

    def test_out_of_bounds_roi_fails_at_assembly(self, rng):
        field = rng.normal(size=(3, 6, 6, 4))
        for extra in ({"roi_size": (7, 2, 2)},
                      {"roi_size": (2, 2, 2), "roi_origin": (5, 0, 0)}):
            cfg = dataclasses.replace(sh.small_config(), **extra)
            with pytest.raises(OutOfBoundsError):
                sh.assemble_sample(field, field, cfg, 0, "a")


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
        np.testing.assert_array_equal(fresh,
                                      _training_features(samples, tiny_cfg))

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
        # clustering is seeded per layer/direction: some regressor differs
        diffs = [not np.array_equal(a.lag.weights, b.lag.weights)
                 for pa, pb in zip(base.stages, other.stages)
                 for a, b in zip(pa, pb)]
        assert any(diffs)

    def test_seed_is_used_whole(self, tiny_cohort, tiny_cfg, tmp_path):
        """Seeds 0 and 2**32 agree in their low 32 bits, and give different
        LAG seeds and different fitted tensors."""
        lag_seed = sslhop.pipeline._lag_seed
        assert all(lag_seed(0, li, d) != lag_seed(2 ** 32, li, d)
                   for li in range(len(tiny_cfg.layers)) for d in range(3))
        _, records = tiny_cohort
        samples = [sh.assemble_sample(r.ed, r.es, tiny_cfg, r.label,
                                      r.subject_id) for r in records]
        tensors = []
        for seed in (0, 2 ** 32):
            model = sh.fit_pipeline(samples,
                                    dataclasses.replace(tiny_cfg, seed=seed))
            raw = sh.save_model(model, tmp_path / f"{seed}.sslm").read_bytes()
            tensors.append(raw[_HEADER.size + _HEADER.unpack_from(raw)[3]:])
        assert tensors[0] != tensors[1]

    def test_forward_maps_follow_ledger(self, tiny_model, tiny_cohort,
                                        tiny_cfg):
        """The (conv, pooled) maps of every layer of one direction's
        forward pass."""
        _, records = tiny_cohort
        s = sh.assemble_sample(records[0].ed, records[0].es, tiny_cfg,
                               records[0].label, records[0].subject_id)
        pooled = s.direction(1)[None, ..., None].astype(np.float32)
        maps = []
        for stage, layer, row in zip(tiny_model.stages[1], tiny_cfg.layers,
                                     tiny_model.ledger):
            (conv,) = plan_project([stage.kernel], pooled[None],
                                   layer.window)
            (pooled,) = pool_layer([stage.kernel], pooled[None],
                                   layer.window, row)
            maps.append((conv[:, :, :, :row.conv_dims[2]], pooled))
        assert len(maps) == len(tiny_cfg.layers)
        for (conv, pooled), row in zip(maps, tiny_model.ledger):
            assert conv.shape == (1,) + row.conv_dims
            assert pooled.shape == (1,) + row.pool_dims

    def test_ledger_is_derived_from_the_config(self, tiny_model):
        """A model's ledger is the dry run of its config over its input
        dims, not a field, so no model holds one that disagrees."""
        assert "ledger" not in {f.name for f in dataclasses.fields(tiny_model)}
        assert tiny_model.ledger == sh.compute_ledger(tiny_model.config,
                                                      tiny_model.input_dims)
        wider = dataclasses.replace(tiny_model, input_dims=(14, 14, 12))
        assert wider.ledger == sh.compute_ledger(tiny_model.config,
                                                 (14, 14, 12))

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
        ed, es = rng.normal(size=(2, 3, 10, 10, 6))
        bad = sh.DeformationSample(ed, es, "interlaced", label=0, subject_id="x")
        with pytest.raises(ShapeMismatchError):
            sh.transform_many(tiny_model, [bad])[0]

    def test_transform_many_rejects_no_samples(self, tiny_model):
        with pytest.raises(ShapeMismatchError):
            sh.transform_many(tiny_model, [])

    @pytest.mark.parametrize("batch", ["plain", "mixed"])
    @pytest.mark.parametrize("step", ["fit", "fold-fit", "transform",
                                      "predict"])
    def test_samples_merged_in_another_order_are_refused(
            self, tiny_cohort, tiny_cfg, tiny_model, step, batch):
        """Samples merged plain under an interlaced config, or a batch of
        both orders: their maps have the config's dims but other depth
        slices, so a fit saved a model that says interlaced with other
        bytes, and an interlaced model gave a plain sample other scores."""
        _, records = tiny_cohort
        plain = _samples(records, dataclasses.replace(tiny_cfg,
                                                      concat_mode="plain"))
        if batch == "mixed":
            plain = _samples(records[:6], tiny_cfg) + plain[6:]
        run = {"fit": lambda: sh.fit_pipeline(plain, tiny_cfg),
               "fold-fit": lambda: sh.fit_folds(plain, tiny_cfg,
                                                [np.arange(len(plain))]),
               "transform": lambda: sh.transform_many(tiny_model, plain),
               "predict": lambda: sh.predict_samples(tiny_model, plain)}
        with pytest.raises(ShapeMismatchError,
                           match="merges its phases plain, the config "
                                 "interlaced"):
            run[step]()


def _samples(records, cfg):
    return [sh.assemble_sample(r.ed, r.es, cfg, r.label, r.subject_id)
            for r in records]


def _training_features(samples, cfg):
    """The features a fit of ``samples`` gives its own training subjects:
    those its SVM is fitted on."""
    (fitted,) = sh.fit_folds(samples, cfg, [np.arange(len(samples))])
    return sh.concat_features(fitted.blocks)


# A tiny-cohort layer-1 map (12x12x12, window (3, 3, 4)) has 10 y-rows of
# window origins of 10 * 9 * 36 * 8 bytes each; this budget streams it in
# slabs of 3 rows.
TINY_SLAB_BYTES = 3 * 10 * 9 * 36 * 8


def _assert_handed_stages_give_identical_bytes(plain, samples, cfg,
                                               tmp_path):
    """Stages that :func:`fit_folds` fits on every sample, beside a set
    that leaves the first one out, handed over through ``fitted=``."""
    stages, _ = sh.fit_folds(samples, cfg, [np.arange(len(samples)),
                                            np.arange(1, len(samples))])
    assert [b.shape[0] for per_dir in stages.held_blocks
            for b in per_dir] == [0] * 3 * len(cfg.layers)
    handed = sh.fit_pipeline(samples, cfg, fitted=stages)
    a = sh.save_model(plain, tmp_path / "plain.sslm").read_bytes()
    b = sh.save_model(handed, tmp_path / "handed.sslm").read_bytes()
    assert a == b
    np.testing.assert_array_equal(sh.transform_many(handed, samples),
                                  sh.concat_features(stages.blocks))


def _assert_fold_models_match_standalone_fits(records, cfg, monkeypatch,
                                              tmp_path, threads):
    """Every fold model is saved as the bytes of a fit of its training
    subjects alone, and its held-out scores are that fit's predictions,
    with the fold work on ``threads`` threads."""
    fit = sslhop.evaluate.fit_pipeline
    models, handed = [], []

    def keep(*args, **kwargs):
        models.append(fit(*args, **kwargs))
        handed.append(kwargs["fitted"])
        return models[-1]

    monkeypatch.setattr(sslhop.evaluate, "fit_pipeline", keep)
    report = sh.cross_validate(records, cfg, folds=5, seed=3,
                               threads=threads)
    samples = _samples(records, cfg)
    fold = np.array([report.fold_of[s.subject_id] for s in samples])
    assert len(models) == 5
    for f, model in enumerate(models):
        train = [s for s, g in zip(samples, fold) if g != f]
        test = [s for s, g in zip(samples, fold) if g == f]
        alone = sh.fit_pipeline(train, cfg, class_count=3)
        a = sh.save_model(model, tmp_path / f"fold{f}.sslm").read_bytes()
        b = sh.save_model(alone, tmp_path / f"alone{f}.sslm").read_bytes()
        assert a == b
        # the fold's training features, as the fit transforms them
        np.testing.assert_array_equal(sh.concat_features(handed[f].blocks),
                                      sh.transform_many(alone, train))
        pred, scores = sh.predict_samples(alone, test)
        np.testing.assert_array_equal(report.predicted_labels[fold == f],
                                      pred)
        np.testing.assert_array_equal(report.scores[fold == f], scores)


@pytest.fixture()
def tiny_slabs(monkeypatch, tiny_cfg):
    """Stream tiny-cohort layer-1 maps in at least 3 slabs."""
    monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES", TINY_SLAB_BYTES)
    ((_, ys),) = sh.slab_plan((1, 12, 12, 12, 1), tiny_cfg.layers[0].window)
    assert len(ys) >= 3


@pytest.fixture()
def tiny_stacked_slabs(monkeypatch, tiny_cfg):
    """Read tiny-cohort layer-1 maps three whole maps to a slab, so that a
    stack of ten maps ends in a ragged slab of one."""
    window = tiny_cfg.layers[0].window
    map_bytes = sh.union_count((12, 12, 12), window) * math.prod(window) * 8
    monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES", 3 * map_bytes)
    slabs = plan_unions(np.zeros((10, 12, 12, 12, 1)), window)
    assert [len(u) for u in slabs] == \
        [n * sh.union_count((12, 12, 12), window) for n in (3, 3, 3, 1)]


@pytest.fixture()
def tiny_moment_runs(monkeypatch, tiny_cfg):
    """Take tiny-cohort layer-2 statistics in runs of three whole 5x5x5x4
    maps, so that a training set's come from several runs of
    row-and-column lags, and a ragged last run."""
    dims = sh.compute_ledger(tiny_cfg, (12, 12, 12))[1].input_dims
    monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES",
                        3 * 8 * math.prod(dims))
    return _lag_forms(monkeypatch)


class TestLayerOneHandOff:
    def test_per_subject_moments_give_identical_bytes(self, tiny_cohort,
                                                      tiny_cfg, tiny_model,
                                                      tmp_path):
        _, records = tiny_cohort
        _assert_handed_stages_give_identical_bytes(
            tiny_model, _samples(records, tiny_cfg), tiny_cfg, tmp_path)

    def test_per_subject_moments_give_identical_bytes_in_slabs(
            self, tiny_cohort, tiny_cfg, tiny_slabs, tmp_path):
        _, records = tiny_cohort
        samples = _samples(records, tiny_cfg)
        plain = sh.fit_pipeline(samples, tiny_cfg)
        _assert_handed_stages_give_identical_bytes(plain, samples, tiny_cfg,
                                                   tmp_path)
        np.testing.assert_array_equal(sh.transform_many(plain, samples),
                                      _training_features(samples, tiny_cfg))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_cv_fold_models_match_standalone_fits(self, tiny_cohort, tiny_cfg,
                                                  monkeypatch, tmp_path,
                                                  threads):
        _, records = tiny_cohort
        _assert_fold_models_match_standalone_fits(records, tiny_cfg,
                                                  monkeypatch, tmp_path,
                                                  threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cv_fold_models_match_standalone_fits_in_slabs(
            self, tiny_cohort, tiny_cfg, tiny_slabs, monkeypatch, tmp_path,
            threads):
        _, records = tiny_cohort
        _assert_fold_models_match_standalone_fits(records, tiny_cfg,
                                                  monkeypatch, tmp_path,
                                                  threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cv_fold_models_match_standalone_fits_in_stacked_slabs(
            self, tiny_cohort, tiny_cfg, tiny_stacked_slabs, monkeypatch,
            tmp_path, threads):
        _, records = tiny_cohort
        _assert_fold_models_match_standalone_fits(records, tiny_cfg,
                                                  monkeypatch, tmp_path,
                                                  threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cv_fold_models_match_standalone_fits_in_moment_runs(
            self, tiny_cohort, tiny_cfg, tiny_moment_runs, monkeypatch,
            tmp_path, threads):
        _, records = tiny_cohort
        _assert_fold_models_match_standalone_fits(records, tiny_cfg,
                                                  monkeypatch, tmp_path,
                                                  threads)
        # 9 or 10 training maps per fold: three runs of three whole maps
        # per direction, in each of the 5 fold fits and 5 standalone fits
        assert tiny_moment_runs.count(2) == 2 * 5 * 3 * 3

    def test_block_with_a_held_out_subject_is_rejected(self, tiny_cohort,
                                                       tiny_cfg):
        """Stages handed to a fit must cover exactly its samples, in their
        order."""
        _, records = tiny_cohort
        samples = _samples(records, tiny_cfg)
        (every,) = sh.fit_folds(samples, tiny_cfg, [np.arange(len(samples))])
        for other in (samples[1:], samples[::-1]):
            with pytest.raises(ShapeLedgerMismatchError, match="fitted on"):
                sh.fit_pipeline(other, tiny_cfg, class_count=3, fitted=every)

    @pytest.mark.parametrize("train", [
        [0, 0] + list(range(1, 11)), [-1] + list(range(11)),
        list(range(11)) + [12], np.arange(12.0), np.arange(12).reshape(3, 4)],
        ids=["repeated", "negative", "past-the-end", "float", "2-D"])
    def test_malformed_training_set_is_refused(self, tiny_cohort, tiny_cfg,
                                               train):
        """Of 12 samples: a repeated index trained on held-out subject 11
        and -1 on the last subject, while index 12 and float indices
        failed untyped."""
        _, records = tiny_cohort
        with pytest.raises(IndexOutOfRangeError, match="distinct"):
            sh.fit_folds(_samples(records, tiny_cfg), tiny_cfg,
                         [np.arange(6), np.asarray(train)])

    @pytest.mark.parametrize("train,error", [([], DegenerateInputError),
                                             ([0], SingleClassError)],
                             ids=["empty", "one-sample"])
    def test_empty_or_one_sample_training_set_raises_its_typed_error(
            self, tiny_cohort, tiny_cfg, train, error):
        """The closed-form merge divides by the set's union count: a set of
        no samples raises the Saab fit's error, and one of one sample the
        entropy screen's, with no numpy warning before either."""
        _, records = tiny_cohort
        with warnings.catch_warnings(), np.errstate(all="raise"), \
                pytest.raises(error):
            warnings.simplefilter("error")
            sh.fit_folds(_samples(records, tiny_cfg), tiny_cfg,
                         [np.array(train, dtype=np.int64)])

    def test_training_set_in_any_order(self, tiny_cohort, tiny_cfg,
                                       tmp_path):
        """A set in reverse order is a fit of the reversed samples, byte
        for byte: each kernel merges its layer-1 moments in the set's
        order, here in four chunks of three maps' scatters."""
        _, records = tiny_cohort
        samples = _samples(records, tiny_cfg)
        (fitted,) = sh.fit_folds(samples, tiny_cfg, [np.arange(12)[::-1]])
        assert fitted.subject_ids == tuple(s.subject_id
                                           for s in samples[::-1])
        handed = sh.fit_pipeline(samples[::-1], tiny_cfg, fitted=fitted)
        alone = sh.fit_pipeline(samples[::-1], tiny_cfg)
        assert sh.save_model(handed, tmp_path / "handed.sslm").read_bytes() \
            == sh.save_model(alone, tmp_path / "alone.sslm").read_bytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_fold_work_runs_under_the_callers_error_state(
            self, tiny_cohort, tiny_cfg, monkeypatch, threads):
        """numpy's error state is per thread: a pool worker that did not
        take the caller's only warned where the caller's own thread
        raised."""
        _, records = tiny_cohort

        def divide(*args, **kwargs):
            return np.ones(1) / 0.0

        monkeypatch.setattr(sslhop.supervise, "fit_lag", divide)
        halves = [np.arange(0, len(records), 2), np.arange(1, len(records), 2)]
        with np.errstate(all="raise"), \
                pytest.raises(FloatingPointError, match="divide by zero"):
            sh.fit_folds(_samples(records, tiny_cfg), tiny_cfg, halves,
                         threads=threads)


def _fold_kernels(rng, dims, window, count=5, channels=5):
    """Kernels fitted on ``count`` different random maps, as fold kernels
    are fitted on different subjects."""
    return [sh.fit_saab_batches(
                sslhop.pipeline._union_moments(rng.normal(size=(1,) + dims),
                                               window), channels)
            for _ in range(count)]


def _assert_shared_slab_pass_matches_one_kernel_calls(rng, dims, window):
    kernels = _fold_kernels(rng, dims, window)
    fmap = rng.normal(size=(1, 1) + dims)
    convs = plan_project(kernels, fmap, window)
    assert len(convs) == len(kernels)
    for kernel, conv in zip(kernels, convs):
        (alone,) = plan_project([kernel], fmap, window)
        np.testing.assert_array_equal(conv, alone)
        np.testing.assert_array_equal(sh.max_pool(conv), sh.max_pool(alone))


class TestSharedSlabPass:
    def test_fold_kernels_match_one_kernel_calls(self, rng):
        """A layer-1 map of the standard cohort, in 15 slabs of 2 rows."""
        _assert_shared_slab_pass_matches_one_kernel_calls(
            rng, (32, 32, 32, 1), (3, 3, 6))

    def test_fold_kernels_match_one_kernel_calls_in_slabs(self, rng,
                                                          tiny_slabs):
        _assert_shared_slab_pass_matches_one_kernel_calls(
            rng, (12, 12, 12, 1), (3, 3, 4))

    def test_rows_place_each_sample_per_kernel(self, rng, tiny_cohort,
                                               tiny_cfg, tiny_slabs):
        """Layer-1 stacks of :func:`_pool_layer` under several kernels,
        each in its own row order, equal one-kernel stacks bit for bit."""
        _, records = tiny_cohort
        samples = _samples(records, tiny_cfg)
        ledger = sh.compute_ledger(tiny_cfg, samples[0].dims)
        maps = sslhop.pipeline._DirectionMaps(samples, slice(2, 3))
        window = tiny_cfg.layers[0].window
        kernels = _fold_kernels(rng, (12, 12, 12, 1), window, count=3,
                                channels=4)
        order = np.array([rng.permutation(len(samples)) for _ in kernels])
        stacks = pool_layer(
            kernels, maps, window, ledger[0], rows=np.argsort(order, axis=1))
        for kernel, stack, rows in zip(kernels, stacks, order):
            (alone,) = pool_layer([kernel], maps, window, ledger[0])
            np.testing.assert_array_equal(stack, alone[rows])


def _spy_gathers(monkeypatch) -> list[bool]:
    """For each slab :func:`_plane_unions` gathers, in call order, whether
    the array it passes to ``memoryview`` is the memory of the run of maps
    :func:`_project` was handed, exactly: the same first byte and size,
    not a copy of the run or of a slab. Layer steps on one thread only."""
    runs, gathered = [], []
    project = sslhop.pipeline._project

    def spy_project(matrix, maps, *args):
        runs.append(maps)
        return project(matrix, maps, *args)

    def spy_view(arr):
        run = runs[-1]
        gathered.append(arr.__array_interface__["data"][0]
                        == run.__array_interface__["data"][0]
                        and arr.nbytes == run.nbytes)
        return memoryview(arr)

    monkeypatch.setattr(sslhop.pipeline, "_project", spy_project)
    monkeypatch.setattr(sslhop.pipeline, "memoryview", spy_view,
                        raising=False)
    return gathered


def _ledger_blocks(cfg, dims) -> list[int]:
    """The z-block each layer of ``cfg`` projects its maps in, for inputs
    of ``dims``."""
    return [sslhop.pipeline._z_block(layer.window, shapes.input_dims)
            for layer, shapes in zip(cfg.layers, sh.compute_ledger(cfg, dims))]


def _assert_close_to(out, base):
    """Equal within 1e-12 of the largest magnitude: a block's GEMM may sum
    its zero-padded band in another order than block 1's."""
    np.testing.assert_allclose(out, base, rtol=1e-12,
                               atol=1e-12 * np.abs(base).max())


# CI's ROI cohort: 24x24x8 fields, merged plain and cropped to 20x20x8
ROI_CFG = dataclasses.replace(
    sh.PipelineConfig(layers=(sh.LayerSpec((3, 3, 4), 4),
                              sh.LayerSpec((3, 3, 3), 5)),
                      centroids_per_class=2, seed=11),
    concat_mode="plain", roi_size=(20, 20, 8))


@pytest.fixture(scope="module")
def roi_records(tmp_path_factory):
    spec = sh.SyntheticSpec(classes=3, per_class=4, dims=(24, 24, 8),
                            noise_sigma=0.4, seed=7)
    return sh.load_subjects(sh.gen_synthetic(
        spec, tmp_path_factory.mktemp("roi")))


def _gather_cohort(request, name):
    """The records, config and ledger blocks of the tiny cohort, read in
    the slabs of ``tiny_slabs`` (so that a later layer's runs are not its
    whole stack), the ROI cohort, or four subjects of each of three
    classes of the standard cohort under the small preset (with two LAG
    centroids per class)."""
    if name == "tiny":
        request.getfixturevalue("tiny_slabs")
        _, records = request.getfixturevalue("tiny_cohort")
        return records, request.getfixturevalue("tiny_cfg"), [1, 1]
    if name == "roi":
        return request.getfixturevalue("roi_records"), ROI_CFG, [1, 1]
    records = request.getfixturevalue("cohort_records")
    records = [r for c in range(3) for r in
               [r for r in records if r.label == c][:4]]
    cfg = dataclasses.replace(sh.small_config(seed=42), centroids_per_class=2)
    return records, cfg, [1, 2, 1]


class TestZBlocks:
    """The z-blocked projection against block 1, plain im2col."""

    # (H, W, Z, C) maps and windows whose L = (W-w)*Z + Z-z+1 flat
    # positions are whole numbers of blocks of 2, 3 and 4 (L48), of 2
    # alone (L34), of 2 and 4 (L40) and of 2 and 3 (L54), with one and
    # five channels
    CASES = {"L48-C1": ((7, 6, 10, 1), (3, 2, 3)),
             "L34-C1": ((5, 5, 13, 1), (2, 3, 6)),
             "L40-C5": ((6, 5, 14, 5), (3, 3, 3)),
             "L54-C5": ((5, 6, 14, 5), (3, 3, 3))}

    @pytest.mark.parametrize("slabs", ["one-row", "several-maps"])
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_every_block_equals_block_1(self, rng, monkeypatch, case, slabs):
        """Three groups of four maps, one kernel each, and a group alone
        projected onto all three kernels: each block from 2 to 4 that
        divides L gives block 1's conv maps, and each other one is
        refused."""
        dims, window = case
        maps = map_major(rng.normal(size=(3, 4) + dims))
        L = (dims[1] - window[1]) * dims[2] + dims[2] - window[2] + 1
        kernels = _fold_kernels(rng, dims, window, count=3, channels=4)
        per_map = 3 * sh.union_count(dims, window) * math.prod(window) \
            * dims[-1] * 8
        budget = 1 if slabs == "one-row" else 2 * per_map
        monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES", budget)
        plan = sh.slab_plan(maps.shape, window)
        if slabs == "one-row":
            assert all(y.stop - y.start == window[0] for _, ys in plan
                       for y in ys)
        else:
            assert len(plan) == 2 and len(plan[0][1]) == 1
        for stack in (maps, maps[:1].copy()):
            base = plan_project(kernels, stack, window, 1)
            for block in (2, 3, 4):
                if L % block:
                    with pytest.raises(ShapeMismatchError,
                                       match="does not divide"):
                        plan_project(kernels, stack, window, block)
                else:
                    _assert_close_to(
                        plan_project(kernels, stack, window, block), base)

    def test_truncated_layer5_pools_as_block_1(self, rng, monkeypatch):
        """Layer 5 of a truncating plan projects its four z-origins (its L,
        on a plane one window wide) in blocks of 2, 4 or 1 and keeps
        three."""
        cfg = sh.PipelineConfig(layers=(sh.LayerSpec((3, 3, 3), 3),) * 5,
                                truncate_layer5=True)
        shapes = sh.compute_ledger(cfg, (70, 70, 126))[4]
        window = cfg.layers[4].window
        assert shapes.input_dims == (3, 3, 6, 3)
        assert shapes.conv_dims == (1, 1, 3, 3)
        assert sslhop.pipeline._z_block(window, shapes.input_dims) == 1
        maps = map_major(rng.normal(size=(3, 5) + shapes.input_dims)
                         .astype(np.float32))
        kernels = _fold_kernels(rng, shapes.input_dims, window, count=3,
                                channels=3)
        pooled = {}
        for block in (1, 2, 4):
            monkeypatch.setattr(sslhop.pipeline, "_z_block",
                                lambda _window, _dims, b=block: b)
            pooled[block] = pool_layer(kernels, maps, window, shapes)
        for block in (2, 4):
            _assert_close_to(pooled[block], pooled[1])

    # (H, W, Z, C) maps, a window, and the block they take: L = (W-w)*Z +
    # Z-z+1 flat positions per origin row, 31 to 34 on five-channel maps
    # under windows 3 deep (blocks of at most 2) and 6 deep (at most 3)
    RULE = {"L31": ((5, 5, 11, 5), (3, 3, 3), 1),
            "L32": ((5, 4, 17, 5), (3, 3, 3), 2),
            "L33": ((5, 3, 35, 5), (3, 3, 3), 1),
            "L34": ((5, 3, 36, 5), (3, 3, 3), 2),
            "L31-z6": ((5, 3, 36, 5), (3, 3, 6), 1),
            "L32-z6": ((5, 3, 37, 5), (3, 3, 6), 2),
            "L33-z6": ((5, 3, 38, 5), (3, 3, 6), 3),
            "L34-z6": ((5, 3, 39, 5), (3, 3, 6), 2),
            "L13-C4": ((5, 5, 5, 4), (3, 3, 3), 1),
            "L955-C1": ((30, 32, 32, 1), (3, 3, 6), 1)}

    @pytest.mark.parametrize("case", RULE.values(), ids=RULE.keys())
    def test_block_is_the_largest_dense_divisor_of_the_plane(self, case):
        """Block 1 for one-channel maps and for planes of fewer than 32
        window positions; else the largest block that divides L within
        the 3/4-density bound of the window, b <= 1 + z/3."""
        dims, window, block = case
        assert sslhop.pipeline._z_block(window, dims) == block

    # layer 1's one-channel maps project in block 1, and so do the later
    # layers whose planes hold fewer than 32 window positions (L in the
    # comments) or an odd number under a window 3 deep; the others take
    # the 3/4-density block of their window, 2 for a window 3 deep
    LEDGERS = {
        # L = 955, 180, 28
        "small": (sh.small_config(), (32, 32, 32), [1, 2, 1]),
        # L = 117, 13
        "cv-many-small": (sh.PipelineConfig(layers=(
            sh.LayerSpec((3, 3, 4), 4), sh.LayerSpec((3, 3, 3), 5))),
            (12, 12, 12), [1, 1]),
        # L = 12539, 2912, 658, 124, 16
        "full": (sh.full_config(), (100, 100, 128), [1, 2, 2, 2, 1]),
        # L = 285, 47
        "roi": (ROI_CFG, (20, 20, 16), [1, 1]),
    }

    @pytest.mark.parametrize("ledger", LEDGERS.values(), ids=LEDGERS.keys())
    def test_block_of_each_ledger_layer(self, ledger):
        cfg, dims, blocks = ledger
        assert _ledger_blocks(cfg, dims) == blocks

    # on the tiny cohort's 12x12x12 maps, layer 2's 6x6x6x4 maps hold 34
    # flat positions per origin row under a (2, 1, 3) window: it projects
    # in z-blocks of 2 (tiny_cfg's layers both take block 1)
    BLOCK_2 = sh.PipelineConfig(layers=(sh.LayerSpec((2, 2, 2), 4),
                                        sh.LayerSpec((2, 1, 3), 5)),
                                centroids_per_class=2, seed=11)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_cv_fold_models_match_standalone_fits(self, tiny_cohort,
                                                  monkeypatch, tmp_path,
                                                  threads):
        _, records = tiny_cohort
        assert _ledger_blocks(self.BLOCK_2, (12, 12, 12)) == [1, 2]
        _assert_fold_models_match_standalone_fits(records, self.BLOCK_2,
                                                  monkeypatch, tmp_path,
                                                  threads)

    def test_transform_reproduces_training_features(self, tiny_cohort):
        _, records = tiny_cohort
        samples = _samples(records, self.BLOCK_2)
        model = sh.fit_pipeline(samples, self.BLOCK_2)
        np.testing.assert_array_equal(
            sh.transform_many(model, samples),
            _training_features(samples, self.BLOCK_2))

    def test_transform_and_fold_fit_take_the_same_blocks(self, monkeypatch,
                                                         tiny_cohort):
        """The block rests on the ledger's shapes alone: a transform of
        three directions and a fold fit of five kernels project each layer
        in the same block, layer 1 in block 1 and layer 2 in block 2."""
        cfg = self.BLOCK_2
        _, records = tiny_cohort
        samples = _samples(records, cfg)
        calls = []
        projections = sslhop.pipeline._projections

        def spy(kernels, window, dims):
            matrix, offsets = projections(kernels, window, dims)
            # the block is the matrix's columns over its kernels' channels
            calls.append((len(kernels), window,
                          matrix.shape[2] // offsets.shape[-1]))
            return matrix, offsets

        monkeypatch.setattr(sslhop.pipeline, "_projections", spy)
        train = [np.delete(np.arange(len(samples)), f) for f in range(5)]
        sh.fit_folds(samples, cfg, train)
        fit_calls, calls[:] = calls[:], []
        model = sh.fit_pipeline(samples, cfg)
        calls.clear()
        sh.transform_many(model, samples)
        windows = [layer.window for layer in cfg.layers]
        # each layer of each direction: the five fold kernels (layer 1's
        # over one shared group of maps)
        assert fit_calls == [(5, windows[0], 1), (5, windows[1], 2)] * 3
        assert calls == [(3, windows[0], 1), (3, windows[1], 2)]

    # one-channel layer-1 maps whose flat (x, z) plane is no whole number
    # of 3/4-density blocks: cv-standard's, 955 positions against blocks
    # of 3, read in slabs of origin rows; and cv-many-small's, 117 against
    # blocks of 2, in slabs of whole maps
    ONE_CHANNEL = {"cv-standard": ((32, 32, 32), (3, 3, 6)),
                   "cv-many-small": ((12, 12, 12), (3, 3, 4))}

    @pytest.mark.parametrize("groups", [1, 3], ids=["fold-fit", "transform"])
    @pytest.mark.parametrize("case", ONE_CHANNEL.values(),
                             ids=ONE_CHANNEL.keys())
    def test_one_channel_step_gathers_the_maps_in_place(self, rng,
                                                        monkeypatch, case,
                                                        groups):
        """Three kernels over the map-major runs layer 1 reads: one group
        of three maps, as a fold fit's shared pass, or three groups of one
        map, as a transform's. Every slab is gathered from a view of its
        run's maps, and the pooled maps are the dense float32 oracle's
        (the unions times the float32 kernel, plus the float32 offset,
        pooled) bit for bit."""
        dims, window = case
        cfg = sh.PipelineConfig(layers=(sh.LayerSpec(window, 5),))
        (shapes,) = sh.compute_ledger(cfg, dims)
        maps = map_major(rng.normal(size=(groups, 3 // groups)
                                    + shapes.input_dims).astype(np.float32))
        kernels = _fold_kernels(rng, shapes.input_dims, window, count=3)
        plan = sh.slab_plan(maps.shape, window)
        gathered = _spy_gathers(monkeypatch)
        pooled = pool_layer(kernels, maps, window, shapes)
        assert gathered == [True] * sum(len(ys) for _, ys in plan)
        grid = tuple(d - k + 1 for d, k in zip(dims, window))
        for g, kernel in enumerate(kernels):
            matrix, offset = kernel.projection
            for n in range(maps.shape[1]):
                conv = (sh.extract_unions(maps[g % groups, n], window)
                        @ matrix.astype(np.float32)
                        + offset.astype(np.float32))
                np.testing.assert_array_equal(
                    pooled[g, n], sh.max_pool(conv.reshape(grid + (-1,))))

    @pytest.mark.parametrize("cohort", ["tiny", "roi", "standard"])
    def test_no_layer_step_gathers_from_a_copy(self, request, monkeypatch,
                                               cohort):
        """A fold fit of three training sets, whose later layers read every
        set's pooled maps in runs of one map-major stack, and a transform
        of the three directions: every slab of every layer step is
        gathered from its run's own memory, which a (sets, subjects) stack
        would slice into a later layer's runs non-contiguously. The tiny
        cohort's layers project in blocks [1, 1], the ROI cohort's [1, 1]
        (layer 2's 47 positions are odd) and the standard cohort's small
        preset in [1, 2, 1], its 32x32x32 layer-1 maps in row slabs."""
        records, cfg, blocks = _gather_cohort(request, cohort)
        samples = _samples(records, cfg)
        assert _ledger_blocks(cfg, samples[0].dims) == blocks
        fold = sh.stratified_folds([s.label for s in samples], 3, 3)
        train = [np.flatnonzero(fold != f) for f in range(3)]
        gathered = _spy_gathers(monkeypatch)
        fitted = sh.fit_folds(samples, cfg, train)[0]
        fit_gathers, gathered[:] = gathered[:], []
        model = sh.fit_pipeline([samples[i] for i in train[0]], cfg,
                                fitted=fitted)
        sh.transform_many(model, samples)
        assert fit_gathers and all(fit_gathers)
        assert gathered and all(gathered)

    def test_fold_fit_pools_layer_1_of_every_direction_into_one_buffer(
            self, tiny_cohort, tiny_cfg, monkeypatch):
        """``fit_folds`` hands :func:`_pool_layer` one layer-1 buffer, made
        once for the three directions, and the step returns it; the
        later layers' pooled maps are fresh."""
        _, records = tiny_cohort
        samples = _samples(records, tiny_cfg)
        steps = []
        pool = sslhop.pipeline._pool_layer

        def spy(projection, maps, window, shapes, rows=None, map_fn=map,
                out=None):
            pooled = pool(projection, maps, window, shapes, rows, map_fn, out)
            steps.append((shapes.layer, out, pooled))
            return pooled

        monkeypatch.setattr(sslhop.pipeline, "_pool_layer", spy)
        train = [np.delete(np.arange(len(samples)), f) for f in range(3)]
        sh.fit_folds(samples, tiny_cfg, train)
        assert [layer for layer, _, _ in steps] == [1, 2] * 3
        buffer = steps[0][1]
        assert buffer.shape == (3, len(samples)) + steps[0][2].shape[2:]
        for layer, out, pooled in steps:
            if layer == 1:
                assert out is buffer and pooled is buffer
            else:
                assert out is None


class TestModelProjections:
    def test_built_once_per_model_and_not_state(self, tiny_model,
                                                tiny_cohort, tiny_cfg,
                                                tmp_path, monkeypatch):
        """A loaded model builds each layer's projection on its first
        transform and holds it: a second transform builds none, and its
        features are a freshly loaded model's, byte for byte. The held
        projections are not state: the model's saved bytes, and its
        equality with a copy of its fields, do not change."""
        _, records = tiny_cohort
        samples = _samples(records, tiny_cfg)
        path = sh.save_model(tiny_model, tmp_path / "model.sslm")
        model = sh.load_model(path)
        calls = []
        projections = sslhop.pipeline._projections

        def spy(kernels, window, dims):
            calls.append((len(kernels), window))
            return projections(kernels, window, dims)

        monkeypatch.setattr(sslhop.pipeline, "_projections", spy)
        sh.transform_many(model, samples)
        assert calls == [(3, layer.window) for layer in tiny_cfg.layers]
        calls.clear()
        second = sh.transform_many(model, samples)
        assert calls == []
        assert "projections" not in {
            f.name for f in dataclasses.fields(model)}
        # the copy shares every field and holds no projections
        assert model == dataclasses.replace(model)
        resaved = sh.save_model(model, tmp_path / "resaved.sslm")
        assert resaved.read_bytes() == path.read_bytes()
        fresh = sh.transform_many(sh.load_model(path), samples)
        assert second.tobytes() == fresh.tobytes()


class TestStackedLayerSteps:
    @pytest.mark.parametrize("per_group", [3, None],
                             ids=["groups-of-3", "one-group"])
    def test_stacked_maps_equal_per_map_results(self, rng, monkeypatch,
                                                per_group):
        """Seven layer-2 sized maps projected and pooled as a stack, in
        groups of three whole maps (the last one ragged) or in one group,
        equal each map's own projection and pooling bit for bit."""
        cfg = sh.PipelineConfig(layers=(sh.LayerSpec((3, 3, 4), 4),
                                        sh.LayerSpec((3, 3, 3), 5)))
        shapes = sh.compute_ledger(cfg, (12, 12, 12))[1]
        window = cfg.layers[1].window
        maps = rng.normal(size=(7,) + shapes.input_dims).astype(np.float32)
        kernels = _fold_kernels(rng, shapes.input_dims, window, count=2)
        if per_group is not None:
            map_bytes = (sh.union_count(shapes.input_dims, window)
                         * shapes.union_dim * 8)
            monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES",
                                per_group * map_bytes)
        assert len(sh.slab_plan(maps.shape, window)) == \
            (3 if per_group else 1)
        convs = plan_project(kernels, maps[None], window)
        stacks = pool_layer(kernels, maps[None], window, shapes)
        for i in range(len(maps)):
            alone = plan_project(kernels, maps[None, i:i + 1], window)
            np.testing.assert_array_equal(convs[:, i:i + 1], alone)
            np.testing.assert_array_equal(
                stacks[:, i:i + 1],
                pool_layer(kernels, maps[None, i:i + 1], window, shapes))

    def test_max_pool_of_a_stack_equals_each_maps_pool(self, rng):
        stack = rng.normal(size=(2, 3, 5, 7, 3, 2))
        pooled = sh.max_pool(stack)
        for idx in np.ndindex(stack.shape[:2]):
            np.testing.assert_array_equal(pooled[idx], sh.max_pool(stack[idx]))


def _oracle_features(model, samples):
    """Features of ``samples`` from a per-direction oracle: each
    direction's maps of all the samples run through ``extract_unions ->
    project -> max_pool -> apply_lag``, layer by layer, one dense call
    each, in float32 as the layer steps take it (the unions of the float32
    maps times the float32 kernel matrix, plus the float32 offsets, before
    the pool), and the float32 pooled maps indexed by the kept channel ids
    before the regression."""
    blocks = []
    for d, stages in enumerate(model.stages):
        maps = np.stack([s.direction(d) for s in samples])[..., None]
        maps = maps.astype(np.float32)
        per_dir = []
        for stage, layer, shapes in zip(stages, model.config.layers,
                                        model.ledger):
            grid = tuple(n - k + 1 for n, k in zip(maps.shape[1:4],
                                                   layer.window))
            matrix, offset = stage.kernel.projection
            unions = sh.extract_unions(maps, layer.window)
            conv = (unions @ matrix.astype(np.float32)
                    + offset.astype(np.float32))
            conv = conv.reshape((len(samples),) + grid + (-1,))
            maps = sh.max_pool(conv[:, :, :, :shapes.conv_dims[2]])
            flat = maps[..., stage.entropy.kept]
            per_dir.append(sh.apply_lag(stage.lag,
                                        flat.reshape(len(samples), -1)))
        blocks.append(per_dir)
    return sh.concat_features(blocks)


class TestDirectionStack:
    @pytest.mark.parametrize("count", [1, 5])
    def test_transform_equals_a_per_direction_oracle(self, tiny_model,
                                                     tiny_cohort, tiny_cfg,
                                                     count):
        """One layer step for the three directions, with offsets added
        after the pool, gives the per-direction dense pipeline's features
        bit for bit."""
        _, records = tiny_cohort
        samples = _samples(records, tiny_cfg)[-count:]
        np.testing.assert_array_equal(sh.transform_many(tiny_model, samples),
                                      _oracle_features(tiny_model, samples))

    def test_direction_maps_stack_every_direction(self, tiny_cohort,
                                                  tiny_cfg):
        _, records = tiny_cohort
        samples = _samples(records, tiny_cfg)[:4]
        maps = sslhop.pipeline._DirectionMaps(samples, slice(None))
        assert maps.shape == (3, 4, 12, 12, 12, 1)
        run = maps[:, 1:3]
        for d in range(3):
            for i, sample in enumerate(samples[1:3]):
                np.testing.assert_array_equal(run[d, i, ..., 0],
                                              sample.direction(d))


def _dense_moments(fmap, window):
    """Mean and centered scatter of a map's unions in long double."""
    unions = sh.extract_unions(fmap, window).astype(np.longdouble)
    mean = unions.mean(axis=0)
    centered = unions - mean
    return mean, centered.T @ centered


class TestUnionMoments:
    # one map read in row slabs, with h = 3, 3, 1 and 2; the last slab is
    # short (fewer origin rows than the others) for all but the first
    @pytest.mark.parametrize("dims,window", [((32, 32, 32, 1), (3, 3, 6)),
                                             ((15, 15, 14, 5), (3, 3, 3)),
                                             ((16, 15, 14, 3), (1, 3, 3)),
                                             ((14, 15, 14, 5), (2, 3, 3))])
    @pytest.mark.parametrize("offset", [0.0, 100.0])
    def test_slab_sums_match_a_long_double_oracle(self, rng, monkeypatch,
                                                  dims, window, offset):
        """Measured over rng seeds 0-5: scatter within 6.7e-16 and mean
        within 2.4e-15 of their largest entries, offset or not."""
        fmap = rng.normal(size=dims) + offset
        rows = dims[0] - window[0] + 1
        row_bytes = (sh.union_count(dims, window) // rows
                     * math.prod(window) * dims[3] * 8)
        monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES",
                            rows // 3 * row_bytes)
        ((_, ys),) = sh.slab_plan(fmap[None].shape, window)
        assert len(ys) >= 3
        (moments,) = sslhop.pipeline._union_moments(fmap[None], window)
        mean, scatter = _dense_moments(fmap, window)
        assert moments.count == sh.union_count(dims, window)
        assert np.abs(moments.scatter - scatter).max() \
            <= 1e-13 * np.abs(scatter).max()
        assert np.abs(moments.mean - mean).max() <= 1e-13 * np.abs(mean).max()

    @pytest.mark.parametrize("per_group,window", [
        (2, (3, 3, 3)), (None, (3, 3, 3)), (2, (2, 3, 3)), (None, (2, 3, 3)),
        (2, (1, 3, 3)), (None, (1, 3, 3))],
        ids=["groups-of-2", "one-group", "groups-of-2-h2", "one-group-h2",
             "groups-of-2-h1", "one-group-h1"])
    def test_stacked_group_sums_match_a_long_double_oracle(self, rng,
                                                           monkeypatch,
                                                           per_group, window):
        """Five small maps, alternately offset by 0 and +100, in groups of
        two whole maps (the last one ragged) or in one group; each group
        takes one shift, and the groups merge in order. With h = 1 and 2
        each group's lagged products reach the edge lags."""
        dims = (5, 5, 5, 4)
        stack = rng.normal(size=(5,) + dims) \
            + np.array([0.0, 100.0] * 3)[:5, None, None, None, None]
        if per_group is not None:
            monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES",
                                per_group * 8 * math.prod(dims))
        groups = list(sslhop.pipeline._union_moments(stack, window))
        assert len(groups) == (3 if per_group else 1)
        moments = sh.merge_moments(groups)
        mean, scatter = _dense_moments(stack, window)
        assert moments.count == 5 * sh.union_count(dims, window)
        assert np.abs(moments.scatter - scatter).max() \
            <= 1e-13 * np.abs(scatter).max()
        assert np.abs(moments.mean - mean).max() <= 1e-13 * np.abs(mean).max()

    # layer 1 of cv-many-small and of the CI's ROI cohort, a five-channel
    # layer-2 map of the standard cohort, and a small map under h = 2
    @pytest.mark.parametrize("dims,window", [((12, 12, 12, 1), (3, 3, 4)),
                                             ((20, 20, 16, 1), (3, 3, 4)),
                                             ((15, 15, 14, 5), (3, 3, 3)),
                                             ((7, 6, 5, 4), (2, 3, 3))])
    def test_map_moments_do_not_depend_on_the_run(self, rng, monkeypatch,
                                                  dims, window):
        """Seven maps about levels 0 to +-100: each map's moments are the
        same bits taken alone, in runs of three whole maps (the last one
        ragged), in one run of all seven, and alone in row slabs; and the
        moments of a lone map that :func:`_union_moments` gives are those
        bits."""
        stack = (rng.normal(size=(7,) + dims)
                 + rng.uniform(-100, 100, size=(7, 1, 1, 1, 1)))
        (H, W, Z, C), (h, w, z) = dims, window
        row = (W - w + 1) * (Z - z + 1) * w * z * C * 8   # partial unions
        layouts = {"alone": (H * row, [1] * 7, 1),
                   "runs-of-3": (3 * H * row, [3, 3, 1], 1),
                   "one-run": (7 * H * row, [7], 1),
                   "row-slabs": ((H - h + 1) // 3 * row, [1] * 7, 3)}
        for name, (budget, runs, slabs) in layouts.items():
            monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES", budget)
            plan = sslhop.neighborhood.lag_plan((1,) + stack.shape, window)
            assert [len(range(7)[r]) for r, _ in plan] == runs
            assert min(len(ys) for _, ys in plan) >= slabs
            got = sslhop.pipeline._map_moments(stack[None], window)
            if name == "alone":
                alone = got
            assert got.count == sh.union_count(dims, window)
            np.testing.assert_array_equal(got.mean, alone.mean)
            np.testing.assert_array_equal(got.scatter, alone.scatter)
            lone = [sslhop.pipeline._union_moments(m[None], window)
                    for m in stack]
            for (m,), mean, scatter in zip(lone, alone.mean, alone.scatter):
                np.testing.assert_array_equal(m.mean, [mean])
                np.testing.assert_array_equal(m.scatter, [scatter])
        # and they match the long double oracle, map by map
        for fmap, mean, scatter in zip(stack, alone.mean, alone.scatter):
            oracle_mean, oracle_scatter = _dense_moments(fmap, window)
            assert np.abs(scatter - oracle_scatter).max() \
                <= 1e-13 * np.abs(oracle_scatter).max()
            assert np.abs(mean - oracle_mean).max() \
                <= 1e-13 * np.abs(oracle_mean).max()

    @pytest.mark.parametrize("dims,window", [((12, 12, 12, 1), (3, 3, 4)),
                                             ((15, 15, 14, 5), (3, 3, 3)),
                                             ((7, 6, 5, 4), (2, 3, 3))])
    @pytest.mark.parametrize("slabs", ["one-slab", "row-slabs"])
    def test_stacked_items_are_separate_calls(self, rng, monkeypatch, dims,
                                              window, slabs):
        """Seven one-map items about levels 0 to +-100, from row lags:
        stacked all seven, and in the ragged stacks 3 + 3 + 1, each item's
        moments are the bits of its own call in one slab, whether the
        stacks are read in one slab or in the row slabs of
        :func:`lag_plan`."""
        items = (rng.normal(size=(7, 1) + dims)
                 + rng.uniform(-100, 100, size=(7, 1, 1, 1, 1, 1)))
        (H, W, Z, C), (h, w, z) = dims, window
        alone = [sslhop.pipeline._moments(item[None], window,
                                          (slice(0, H),), 1)
                 for item in items]
        row = (W - w + 1) * (Z - z + 1) * w * z * C * 8   # partial unions
        if slabs == "row-slabs":
            monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES",
                                (H - h + 1) // 3 * row)
        ((_, ys),) = sslhop.neighborhood.lag_plan((1, 1) + dims, window)
        assert len(ys) >= (3 if slabs == "row-slabs" else 1)
        for stacks in ([7], [3, 3, 1]):
            bounds = np.cumsum([0] + stacks)
            for start, stop in zip(bounds, bounds[1:]):
                got = sslhop.pipeline._moments(items[start:stop], window,
                                               ys, 1)
                assert got.count == sh.union_count(dims, window)
                assert got.mean.shape[0] == stop - start
                for m, mean, scatter in zip(alone[start:stop], got.mean,
                                            got.scatter):
                    np.testing.assert_array_equal(m.mean, [mean])
                    np.testing.assert_array_equal(m.scatter, [scatter])

    @pytest.mark.parametrize("window", [(3, 3, 3), (2, 3, 3), (1, 3, 3)],
                             ids=["h3", "h2", "h1"])
    @pytest.mark.parametrize("offset", [0.0, 100.0])
    def test_a_run_of_maps_is_one_item(self, rng, window, offset):
        """Two items of three 7x6x5x4 maps each, from row-and-column lags:
        each item's moments are those of its three maps' unions, within
        the long double oracle's tolerance, and the stack of both gives
        each the bits of its own call."""
        items = rng.normal(size=(2, 3, 7, 6, 5, 4)) + offset
        ys = (slice(0, 7),)
        both = sslhop.pipeline._moments(items, window, ys, 2)
        assert both.count == 3 * sh.union_count((7, 6, 5), window)
        for item, mean, scatter in zip(items, both.mean, both.scatter):
            alone = sslhop.pipeline._moments(item[None], window, ys, 2)
            np.testing.assert_array_equal(alone.mean, [mean])
            np.testing.assert_array_equal(alone.scatter, [scatter])
            oracle_mean, oracle_scatter = _dense_moments(item, window)
            assert np.abs(scatter - oracle_scatter).max() \
                <= 1e-13 * np.abs(oracle_scatter).max()
            assert np.abs(mean - oracle_mean).max() \
                <= 1e-13 * np.abs(oracle_mean).max()

    @pytest.mark.parametrize("window", [(3, 3, 3), (2, 3, 3), (1, 3, 3)],
                             ids=["h3", "h2", "h1"])
    def test_constant_channels_have_exactly_zero_scatter(self, monkeypatch,
                                                         window):
        """Per-slab centering left a roundoff scatter of about 1e-27 here,
        and the fit kept a noise direction as an AC anchor. Four small maps
        make one run of whole maps at the default slab budget; two large
        ones, each read in row slabs, a run each."""
        levels = np.array([0.1, 0.7, -3.3, 1e3, 1 / 3])
        whole = list(sslhop.pipeline._union_moments(
            np.broadcast_to(levels, (4, 6, 6, 5, 5)).copy(), window))
        assert len(whole) == 1
        fmap = np.broadcast_to(levels, (15, 15, 14, 5)).copy()
        monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES", 1 << 17)
        plan = sh.slab_plan((2,) + fmap.shape, window)
        assert all(len(ys) >= 3 for _, ys in plan)
        # each map fills a slab, so each is a run of its own
        moments = list(sslhop.pipeline._union_moments(np.stack([fmap, fmap]),
                                                      window))
        assert len(moments) == 2
        for m in whole + moments:
            assert not m.scatter.any()
            np.testing.assert_array_equal(
                m.mean, [np.tile(levels, math.prod(window))])
        with pytest.warns(DegenerateInputWarning,
                          match="no residual variance"):
            kernel = sh.fit_saab_batches(whole + moments, 5)
        assert kernel.padded == 4


def _lag_forms(monkeypatch) -> list[int]:
    """The lagged axes of each :func:`_lagged_sums` call, as they come: 1
    for row lags, 2 for row-and-column lags."""
    forms, lagged_sums = [], sslhop.pipeline._lagged_sums

    def spy(shifted, window, ys, axes):
        forms.append(axes)
        return lagged_sums(shifted, window, ys, axes)

    monkeypatch.setattr(sslhop.pipeline, "_lagged_sums", spy)
    return forms


LAG_WINDOWS = [(3, 3, 3), (2, 3, 3), (1, 3, 3), (3, 1, 3), (3, 2, 2)]


class TestLagForms:
    @pytest.mark.parametrize("window", LAG_WINDOWS)
    @pytest.mark.parametrize("channels", [4, 5])
    @pytest.mark.parametrize("offset", [0.0, 100.0])
    @pytest.mark.parametrize("runs", ["runs-of-2", "row-slabs"])
    def test_lagged_sums_match_a_long_double_oracle(self, rng, monkeypatch,
                                                    window, channels, offset,
                                                    runs):
        """Four maps in two runs of two whole maps, whose Gram matrices
        come from row-and-column lags, or one map in at least three row
        slabs, from row lags. Measured over rng seeds 0-5: scatter within
        2.4e-15 and mean within 6.1e-16 of their largest entries; the
        scatter's largest errors come from merging two runs about +100,
        and within one run it stays within 2.8e-16."""
        if runs == "runs-of-2":
            dims = (7, 6, 5, channels)
            stack = rng.normal(size=(4,) + dims) + offset
            monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES",
                                2 * 8 * math.prod(dims))
        else:
            dims = (11, 9, 6, channels)
            stack = rng.normal(size=(1,) + dims) + offset
            rows = dims[0] - window[0] + 1
            row_bytes = (sh.union_count(dims, window) // rows
                         * math.prod(window) * channels * 8)
            monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES",
                                rows // 3 * row_bytes)
            ((_, ys),) = sh.slab_plan(stack.shape, window)
            assert len(ys) >= 3
        forms = _lag_forms(monkeypatch)
        moments = sh.merge_moments(sslhop.pipeline._union_moments(stack,
                                                                  window))
        assert forms == ([2, 2] if runs == "runs-of-2" else [1])
        mean, scatter = _dense_moments(stack, window)
        assert moments.count == len(stack) * sh.union_count(dims, window)
        assert np.abs(moments.scatter - scatter).max() \
            <= 1e-13 * np.abs(scatter).max()
        assert np.abs(moments.mean - mean).max() <= 1e-13 * np.abs(mean).max()

    @pytest.mark.parametrize("window", LAG_WINDOWS)
    def test_constant_channels_have_exactly_zero_scatter_on_column_lags(
            self, monkeypatch, window):
        """Three runs of two whole maps of constant channels each shift to
        exact zeros, so their row-and-column lagged products add exactly
        nothing."""
        levels = np.array([0.1, 0.7, -3.3, 1e3, 1 / 3])
        stack = np.broadcast_to(levels, (6, 7, 6, 5, 5)).copy()
        monkeypatch.setattr(sslhop.neighborhood, "SLAB_BYTES",
                            2 * 8 * math.prod(stack.shape[1:]))
        forms = _lag_forms(monkeypatch)
        moments = list(sslhop.pipeline._union_moments(stack, window))
        assert forms == [2, 2, 2]
        for m in moments:
            assert not m.scatter.any()
            np.testing.assert_array_equal(
                m.mean, [np.tile(levels, math.prod(window))])

    def test_several_map_runs_take_column_lags(self, rng, monkeypatch):
        """At the default budget, eight 15x15x14x5 layer-2 maps of the
        standard cohort fill a run, which takes row-and-column lags; a
        lone map, here the ragged last run, takes row lags, as layer 1 does."""
        maps = rng.normal(size=(17, 15, 15, 14, 5))
        forms = _lag_forms(monkeypatch)
        counts = [m.count for m in
                  sslhop.pipeline._union_moments(maps, (3, 3, 3))]
        assert forms == [2, 2, 1]
        assert counts == [n * 13 * 13 * 12 for n in (8, 8, 1)]


def _layer_peaks(kernel, maps, window, shapes):
    """Peak bytes traced while one layer projects and pools ``maps``, and
    while it takes their union moments."""
    tracemalloc.start()
    try:
        pool_layer([kernel], maps[None], window, shapes)
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for _ in sslhop.pipeline._union_moments(maps, window):
            pass
        moments_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return forward_peak, moments_peak


def _conv_stack_items(shapes, window) -> int:
    """Items of one map's conv stack for one kernel as a layer step holds
    it: each origin row's L flat (x, z) positions."""
    (H, W, Z, _), (h, w, z) = shapes.input_dims, window
    return (H - h + 1) * ((W - w) * Z + Z - z + 1) * shapes.conv_dims[3]


def _pool_layer_peak(*args, **kwargs) -> int:
    """Peak bytes traced while one :func:`_pool_layer` call runs."""
    tracemalloc.start()
    try:
        pool_layer(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_layer_peak_is_its_output_maps_plus_a_few_slabs(self, rng):
        """One 64x64x32 map through a (3, 3, 6) layer, whose dense union
        matrix alone would take 62 * 62 * 27 * 54 * 8 = 44.8 MB."""
        cfg = sh.PipelineConfig(layers=(sh.LayerSpec((3, 3, 6), 5),),
                                centroids_per_class=1, concat_mode="plain")
        stacks = [rng.normal(size=(3, 64, 64, 32)) for _ in range(2)]
        samples = [sh.DeformationSample(stack[..., :16], stack[..., 16:],
                                        "plain", label, f"s{label}")
                   for label, stack in enumerate(stacks)]
        model = sh.fit_pipeline(samples, cfg)
        shapes, window = model.ledger[0], cfg.layers[0].window
        budget = (8 * (math.prod(shapes.conv_dims) + math.prod(shapes.pool_dims))
                  + 3 * sslhop.neighborhood.SLAB_BYTES)
        fmap = samples[0].direction(0)[None, ..., None].astype(np.float32)
        peaks = _layer_peaks(model.stages[0][0].kernel, fmap, window, shapes)
        assert max(peaks) < budget

    def test_stacked_layer_peak_is_its_output_maps_plus_a_few_slabs(self,
                                                                    rng):
        """600 small maps through a (3, 3, 4) layer, four maps to a slab:
        their conv maps alone would take 600 * 10 * 10 * 9 * 4 * 8 =
        17.3 MB, and a shifted copy of the stack 8.3 MB."""
        cfg = sh.PipelineConfig(layers=(sh.LayerSpec((3, 3, 4), 4),))
        (shapes,) = sh.compute_ledger(cfg, (12, 12, 12))
        window = cfg.layers[0].window
        maps = rng.normal(size=(600, 12, 12, 12, 1)).astype(np.float32)
        kernel = sh.fit_saab_batches(
            sslhop.pipeline._union_moments(maps[:8], window), 4)
        assert len(sh.slab_plan(maps.shape, window)) == 150
        budget = (8 * len(maps) * math.prod(shapes.pool_dims)
                  + 3 * sslhop.neighborhood.SLAB_BYTES)
        peaks = _layer_peaks(kernel, maps, window, shapes)
        assert max(peaks) < budget

    def test_five_kernel_layer_1_step_pools_in_one_float32_call(self, rng):
        """One 64x64x32 map through a (3, 3, 6) layer with five fold
        kernels, each in its own row order, as the shared layer-1 pass of
        a 5-fold fit takes it, in 62 slabs of one origin row: the step
        holds the run's five float32 conv stacks, the float32 pooled maps,
        the five kernels' float32 pooling temporaries and a few slabs."""
        cfg = sh.PipelineConfig(layers=(sh.LayerSpec((3, 3, 6), 5),))
        (shapes,) = sh.compute_ledger(cfg, (64, 64, 32))
        window = cfg.layers[0].window
        kernels = _fold_kernels(rng, (8, 8, 12, 1), window)
        maps = rng.normal(size=(1, 1) + shapes.input_dims).astype(np.float32)
        conv = _conv_stack_items(shapes, window)
        # max_pool's copies: the (y, x)-pooled maps and the pooled ones
        Y, X, depth, F = shapes.pool_dims
        temporaries = 4 * Y * X * (shapes.conv_dims[2] + depth) * F
        budget = (len(kernels) * (4 * conv + 4 * math.prod(shapes.pool_dims)
                                  + temporaries)
                  + 3 * sslhop.neighborhood.SLAB_BYTES)
        peak = _pool_layer_peak(kernels, maps, window, shapes,
                                rows=np.zeros((5, 1), dtype=int))
        assert peak < budget

    def test_five_kernel_stacks_of_many_maps_are_float32(self, rng):
        """600 small maps through a (3, 3, 4) layer with five fold kernels,
        each in its own row order, as the shared layer-1 pass of a 5-fold
        fit takes them: the five stacks of pooled maps, 600 * 5 * 500 * 4
        = 6 MB in float32, are the step's largest array, and it peaks
        below them plus a few slabs, under the 12 MB they took in
        float64."""
        cfg = sh.PipelineConfig(layers=(sh.LayerSpec((3, 3, 4), 4),))
        (shapes,) = sh.compute_ledger(cfg, (12, 12, 12))
        window = cfg.layers[0].window
        kernels = _fold_kernels(rng, shapes.input_dims, window, channels=4)
        maps = rng.normal(size=(1, 600) + shapes.input_dims).astype(np.float32)
        rows = np.argsort([rng.permutation(600) for _ in kernels], axis=1)
        budget = (4 * len(kernels) * 600 * math.prod(shapes.pool_dims)
                  + 3 * sslhop.neighborhood.SLAB_BYTES)
        tracemalloc.start()
        try:
            stacks = pool_layer(kernels, maps, window, shapes, rows=rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget
        assert stacks.dtype == np.float32

    def test_layer_step_peaks_below_its_float64_conv_stack(self, rng):
        """Three groups of one 40x40x32 map through a (3, 3, 6) layer with
        five channels, in one run of 38 slabs of one origin row: projected
        and pooled in float32, the step peaks below the run's conv stacks
        in float64 (5.5 MB), which a float64 projection held beside the
        pooled maps and pooling temporaries."""
        cfg = sh.PipelineConfig(layers=(sh.LayerSpec((3, 3, 6), 5),))
        (shapes,) = sh.compute_ledger(cfg, (40, 40, 32))
        window = cfg.layers[0].window
        kernels = _fold_kernels(rng, (8, 8, 12, 1), window, count=3)
        maps = rng.normal(size=(3, 1) + shapes.input_dims).astype(np.float32)
        assert len(sh.slab_plan(maps.shape, window)) == 1
        peak = _pool_layer_peak(kernels, maps, window, shapes)
        assert peak < 8 * len(kernels) * _conv_stack_items(shapes, window)

    def test_batched_transform_peak_is_three_directions_pooled_maps(
            self, rng):
        """200 small subjects transformed at once: the three directions'
        pooled layer-1 maps take 200 * 3 * 5 * 5 * 5 * 4 * 8 = 2.4 MB,
        while their conv maps alone would take 17.3 MB."""
        cfg = sh.PipelineConfig(layers=(sh.LayerSpec((3, 3, 4), 4),
                                        sh.LayerSpec((3, 3, 3), 5)),
                                centroids_per_class=1)
        samples = [sh.DeformationSample(*rng.normal(size=(2, 3, 12, 12, 6)),
                                        "interlaced", i % 2, f"s{i}")
                   for i in range(200)]
        model = sh.fit_pipeline(samples[:6], cfg)
        budget = (8 * 3 * len(samples) * math.prod(model.ledger[0].pool_dims)
                  + 3 * sslhop.neighborhood.SLAB_BYTES)
        tracemalloc.start()
        try:
            sh.transform_many(model, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget


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
        assert sh.transform_many(model, [samples[0]])[0].shape == (6,)
