"""Release gate: the ten go/no-go checks for this package.

Each test carries an ``acceptance`` marker; the terminal summary prints one
PASS/FAIL line per criterion. Oracles here are deliberately independent of
the library code paths they judge (brute-force eigendecomposition, O(N^2)
pair counting, pure-python entropy arithmetic, finite differences).
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

import sslhop as sh
from sslhop.evaluate import stratified_folds
from sslhop.supervise import _class_entropies

# Regression constants, frozen after the first verified run of the seed-42
# benchmark (criterion 6). Any drift in numerics, fold dealing, or the
# synthetic generator shows up here as an exact-equality failure.
PINNED_ACCURACY = 1.0
PINNED_MACRO_AUC = 1.0

# Five-layer reference plan applied to interlaced 100x100x(64*2) fields:
# per-layer (union row width, map entering conv, map after conv, map after
# pool). Layer 5's window arithmetic yields depth 4; the truncation flag
# reproduces the depth-3 compatibility variant some deployments use.
REFERENCE_PLAN = [
    # layer, union, input,           conv,            pool
    (1,  54, (100, 100, 128, 1), (98, 98, 123, 5), (49, 49, 62, 5)),
    (2, 135, (49, 49, 62, 5),    (47, 47, 60, 5),  (24, 24, 30, 5)),
    (3, 135, (24, 24, 30, 5),    (22, 22, 28, 15), (11, 11, 14, 15)),
    (4, 405, (11, 11, 14, 15),   (9, 9, 12, 20),   (5, 5, 6, 20)),
    (5, 540, (5, 5, 6, 20),      (3, 3, 4, 25),    (2, 2, 2, 25)),
]


@pytest.mark.acceptance(1, "saab-vs-eigendecomposition-oracle")
def test_criterion_1_saab_anchors_match_brute_force_oracle():
    """100 random matrices: AC anchors == cov eigenvectors up to sign,
    {DC, AC} orthonormal, all inside 30 seconds."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_dot = 0.0
    worst_gram = 0.0
    for _ in range(100):
        n = int(rng.integers(50, 501))
        d = int(rng.integers(4, 65))
        channels = min(d, n - 1)
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        kernel = sh.fit_saab(X, channels=channels)

        # independent oracle: remove the constant direction, centre, and
        # eigendecompose with the non-symmetric LAPACK driver
        dc = np.full(d, d ** -0.5)
        resid = X - np.outer(X @ dc, dc)
        resid -= resid.mean(axis=0)
        cov = resid.T @ resid / (n - 1)
        vals, vecs = np.linalg.eig(cov)
        order = np.argsort(vals.real)[::-1]
        vecs = vecs.real[:, order]

        dots = np.abs(np.einsum("cd,dc->c", kernel.ac,
                                vecs[:, :channels - 1]))
        worst_dot = max(worst_dot, float(np.abs(dots - 1.0).max()))

        basis = np.vstack([kernel.dc, kernel.ac])
        gram = basis @ basis.T
        worst_gram = max(worst_gram, float(
            np.abs(gram - np.eye(channels)).max()))
    elapsed = time.perf_counter() - t0
    assert worst_dot <= 1e-6
    assert worst_gram <= 1e-8
    assert elapsed < 30.0


@pytest.mark.acceptance(2, "five-layer-shape-ledger")
def test_criterion_2_reference_plan_shapes_are_exact():
    cfg = sh.full_config()
    ledger = sh.compute_ledger(cfg, (100, 100, 128))
    assert len(ledger) == 5
    for entry, (layer, union, inp, conv, pool) in zip(ledger, REFERENCE_PLAN):
        assert entry.layer == layer
        assert entry.union_dim == union
        assert entry.input_dims == inp
        assert entry.conv_dims == conv
        assert entry.pool_dims == pool
    # the documented deviation: flag on reproduces the printed depth-3 row
    truncated = sh.compute_ledger(
        dataclasses.replace(cfg, truncate_layer5=True), (100, 100, 128))
    assert truncated[4].conv_dims == (3, 3, 3, 25)
    assert truncated[4].pool_dims == (2, 2, 2, 25)
    for a, b in zip(truncated[:4], ledger[:4]):
        assert a == b


@pytest.mark.acceptance(3, "entropy-micro-case")
def test_criterion_3_channel_entropy_micro_case():
    """Hand-computed 3-class 2-channel table to 1e-12; uniform pools hit
    ln(V) with exact float equality."""
    feats = np.zeros((3, 2, 2, 1, 2))
    feats[0, :, :, 0, 0] = [[0.0, 1.0], [2.0, 3.0]]
    feats[1, :, :, 0, 0] = [[1.0, 1.0], [4.0, 2.0]]
    feats[2, :, :, 0, 0] = [[2.0, 2.0], [2.0, 2.0]]
    feats[0, :, :, 0, 1] = [[5.0, 5.0], [5.0, 5.0]]
    feats[1, :, :, 0, 1] = [[0.0, 10.0], [0.0, 0.0]]
    feats[2, :, :, 0, 1] = [[3.0, 1.0], [4.0, 1.0]]
    labels = np.array([0, 1, 2])
    ent = sh.channel_entropy(feats, labels, keep_ratio=0.5)
    per_class = _class_entropies(feats, labels)   # the rows ent sums
    expected_per_class = np.array([
        [1.0114042647123451, 1.3862943611198906],
        [0.5623351446336732, 9.280064123926979e-12],
        [1.3862943611198906, 0.6730116670210996],
    ])
    np.testing.assert_allclose(per_class, expected_per_class, atol=1e-12)
    np.testing.assert_array_equal(ent.per_channel, per_class.sum(axis=0))
    np.testing.assert_allclose(
        ent.per_channel, [2.960033770465909, 2.0593060281502704], atol=1e-12)
    assert list(ent.kept) == [1]

    uniform = np.zeros((2, 2, 2, 1, 1))        # V = 2*2*1 = 4 per class
    uniform[0] = 7.5
    uniform[1] = -3.25
    u = sh.channel_entropy(uniform, np.array([0, 1]), keep_ratio=1.0)
    u_per_class = _class_entropies(uniform, np.array([0, 1]))
    assert u_per_class[0, 0] == math.log(4)
    assert u_per_class[1, 0] == math.log(4)
    assert u.per_channel[0] == u_per_class[0, 0] + u_per_class[1, 0]


@pytest.mark.acceptance(4, "lag-ridge-optimality")
def test_criterion_4_lag_solves_its_ridge_problem():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(24, 5))
    labels = np.tile([0, 1, 2], 8)
    lam = 1e-3
    alpha = 10.0
    model = sh.fit_lag(X, labels, centroids_per_class=2, alpha=alpha,
                       ridge_lambda=lam, seed=3)

    # reconstruct the soft targets the fit regressed onto, from the
    # centroids it clustered at the same seed
    centroids, block_sizes = sh.class_centroids(X, labels,
                                                centroids_per_class=2, seed=3)
    np.testing.assert_array_equal(block_sizes, model.block_sizes)
    targets = np.zeros((24, model.output_dim))
    ends = np.cumsum(block_sizes)
    for cls, start, end in zip(np.unique(labels), ends - block_sizes, ends):
        idx = np.flatnonzero(labels == cls)
        block = centroids[start:end]
        dist = np.sqrt(((X[idx, None, :] - block[None, :, :]) ** 2).sum(axis=2))
        t = np.exp(-alpha * (dist - dist.min(axis=1, keepdims=True)))
        targets[idx, start:end] = t / t.sum(axis=1, keepdims=True)

    aug = np.hstack([X, np.ones((24, 1))])
    lhs = (aug.T @ aug + lam * np.eye(6)) @ model.weights
    np.testing.assert_allclose(lhs, aug.T @ targets, atol=1e-8)

    def objective(W):
        return (((aug @ W - targets) ** 2).sum() + lam * (W ** 2).sum())

    h = 1e-6
    grad = np.zeros_like(model.weights)
    for i in range(grad.shape[0]):
        for j in range(grad.shape[1]):
            up = model.weights.copy()
            up[i, j] += h
            down = model.weights.copy()
            down[i, j] -= h
            grad[i, j] = (objective(up) - objective(down)) / (2 * h)
    assert np.abs(grad).max() <= 1e-6


@pytest.mark.acceptance(5, "auc-vs-pair-count-oracle")
def test_criterion_5_auc_matches_pair_counting():
    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(4, 120))
        if trial % 2:                          # force heavy score ties
            scores = rng.integers(0, 5, size=n).astype(float)
        else:
            scores = np.round(rng.normal(size=n), 1)
        positives = rng.random(n) < rng.uniform(0.2, 0.8)
        if positives.all() or not positives.any():
            positives[0] = True
            positives[-1] = False
        _, auc = sh.roc_auc(scores, positives)
        pos = scores[positives]
        neg = scores[~positives]
        wins = sum((p > neg).sum() + 0.5 * (p == neg).sum() for p in pos)
        assert auc == pytest.approx(wins / (len(pos) * len(neg)), abs=1e-12)


@pytest.mark.acceptance(6, "synthetic-benchmark")
def test_criterion_6_benchmark_thresholds_and_pin(benchmark_run):
    report, seconds = benchmark_run
    assert report.pooled_accuracy >= 0.90
    assert report.macro_auc >= 0.95
    assert seconds <= 600.0
    assert report.pooled_accuracy == PINNED_ACCURACY
    assert report.macro_auc == PINNED_MACRO_AUC


@pytest.mark.acceptance(7, "ablation-orderings")
def test_criterion_7_ablations_never_beat_the_default(benchmark_run,
                                                      ablation_runs):
    report, _ = benchmark_run
    assert report.pooled_accuracy >= ablation_runs["no-cefs"].pooled_accuracy
    assert report.pooled_accuracy >= ablation_runs["no-ic"].pooled_accuracy


@pytest.mark.acceptance(8, "small-data-trend")
def test_criterion_8_accuracy_non_increasing_under_subsetting(benchmark_run,
                                                              subset_runs):
    full, _ = benchmark_run
    assert (full.pooled_accuracy
            >= subset_runs[0.75].pooled_accuracy
            >= subset_runs[0.50].pooled_accuracy)
    assert subset_runs[0.50].pooled_accuracy >= 0.75


@pytest.mark.acceptance(9, "parameter-count-closed-form")
def test_criterion_9_parameter_count_equals_closed_form(tiny_model, tiny_cfg):
    breakdown = sh.parameter_breakdown(sh.full_config(), (100, 100, 128),
                                       class_count=5)

    # Independent arithmetic from the frozen reference plan. Channel
    # screening keeps floor(C/2) channels (min 1); each kept map feeds a
    # centroid bank (25 centroids x input dim) and an augmented ridge
    # regressor (input dim + 1 -> 25), per direction.
    anchors = sum(c * union
                  for _, union, _, (_, _, _, c), _ in REFERENCE_PLAN)
    saab = 3 * anchors            # reference config runs with zero bias offset

    lag = 0
    for *_, (ph, pw, pz, c) in REFERENCE_PLAN:
        lag_in = ph * pw * pz * max(1, c // 2)
        lag += 3 * ((lag_in + 1) * 25 + 25 * lag_in)
    svm = 5 * (5 * 3 * 25 + 1)

    assert breakdown["saab"] == saab == 73710
    assert breakdown["lag"] == lag
    assert breakdown["svm"] == svm == 1880
    assert breakdown["total"] == saab + lag + svm

    # and a fitted model's arrays, with its unstored training-time centroids
    # counted from the weight shapes, reconcile with the same accounting
    counted = sh.count_parameters(tiny_model)
    planned = sh.parameter_breakdown(tiny_cfg, tiny_model.input_dims,
                                     tiny_model.class_count)
    for key in ("saab", "lag", "svm", "total"):
        assert counted[key] == planned[key]


@pytest.mark.acceptance(10, "determinism-and-leakage")
def test_criterion_10_byte_identical_artifacts(tiny_cohort, tiny_cfg,
                                               tmp_path):
    manifest, records = tiny_cohort
    samples = [sh.assemble_sample(r.ed, r.es, tiny_cfg, r.label, r.subject_id)
               for r in records]

    first = sh.save_model(sh.fit_pipeline(samples, tiny_cfg),
                          tmp_path / "a.sslm")
    second = sh.save_model(sh.fit_pipeline(samples, tiny_cfg),
                           tmp_path / "b.sslm")
    assert first.read_bytes() == second.read_bytes()

    reports = [sh.cross_validate(records, tiny_cfg, folds=2, seed=3,
                                 threads=1, class_table=manifest.classes)
               for _ in range(2)]
    docs = []
    for rep in reports:
        doc = rep.to_dict()
        doc.pop("provenance")                  # the only volatile subtree
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]

    # every subject scored exactly once, in the fold the dealer assigned it
    rep = reports[0]
    assert sorted(rep.subject_ids) == sorted(r.subject_id for r in records)
    labels = np.array([r.label for r in records])
    expected_folds = stratified_folds(labels, 2, seed=3)
    for r, want in zip(records, expected_folds):
        assert rep.fold_of[r.subject_id] == want
