"""Stratified folding, cross-validation reports, and artifact writers."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sslhop as sh
from sslhop.errors import TooFewSubjectsError

# Measured between 1 and 2 OpenBLAS threads (OpenBLAS 0.3.31, 2 cores) with
# 3 folds: decision scores of this test's run differed by at most 2.6e-12,
# and by at most 4.7e-12 over cohort seeds 1-5 and 7 and run seeds 3 and
# 11, for scores of magnitude <= 1.7.
BLAS_SCORE_TOL = 1e-9


class TestStratifiedFolds:
    def test_balanced_cohort_splits_evenly(self):
        labels = np.repeat(np.arange(5), 20)
        fold = sh.stratified_folds(labels, k=5, seed=42)
        for f in range(5):
            assert (fold == f).sum() == 20
            for cls in range(5):
                assert ((fold == f) & (labels == cls)).sum() == 4

    def test_rolling_deal_balances_odd_classes(self):
        # three classes of five: a per-class deal restarting at fold 0 would
        # give fold sizes (9, 6); the rolling deal must stay within one
        labels = np.repeat(np.arange(3), 5)
        fold = sh.stratified_folds(labels, k=2, seed=0)
        sizes = np.bincount(fold, minlength=2)
        assert abs(int(sizes[0]) - int(sizes[1])) <= 1

    def test_leave_one_out(self):
        labels = np.repeat([0, 1], 5)
        fold = sh.stratified_folds(labels, k=10, seed=1)
        np.testing.assert_array_equal(np.sort(np.bincount(fold, minlength=10)),
                                      np.ones(10))

    def test_seed_determinism(self):
        labels = np.repeat(np.arange(4), 7)
        a = sh.stratified_folds(labels, k=3, seed=5)
        b = sh.stratified_folds(labels, k=3, seed=5)
        c = sh.stratified_folds(labels, k=3, seed=6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("k", [1, 0, 11])
    def test_fold_count_bounds(self, k):
        with pytest.raises(TooFewSubjectsError):
            sh.stratified_folds(np.repeat([0, 1], 5), k=k, seed=0)

    def test_singleton_class_rejected(self):
        with pytest.raises(TooFewSubjectsError):
            sh.stratified_folds(np.array([0, 0, 0, 1]), k=2, seed=0)


@pytest.fixture(scope="module")
def tiny_report(tiny_cohort, tiny_cfg):
    manifest, records = tiny_cohort
    report = sh.cross_validate(records, tiny_cfg, folds=2, seed=3,
                               class_table=manifest.classes)
    return manifest, records, report


class TestCrossValidate:
    def test_every_subject_predicted_once(self, tiny_report):
        manifest, records, report = tiny_report
        assert sorted(report.subject_ids) == sorted(r.subject_id for r in records)
        assert len(set(report.subject_ids)) == len(records)

    def test_fold_assignment_matches_stratifier(self, tiny_report):
        manifest, records, report = tiny_report
        labels = np.array([r.label for r in records])
        expected = sh.stratified_folds(labels, k=2, seed=3)
        for r, f in zip(records, expected):
            assert report.fold_of[r.subject_id] == int(f)

    def test_accuracies_are_consistent(self, tiny_report):
        _, _, report = tiny_report
        correct = np.asarray(report.true_labels) == np.asarray(report.predicted_labels)
        assert report.pooled_accuracy == pytest.approx(correct.mean())
        folds = np.array([report.fold_of[s] for s in report.subject_ids])
        for f, acc in enumerate(report.per_fold_accuracy):
            assert acc == pytest.approx(correct[folds == f].mean())

    def test_confusion_totals(self, tiny_report):
        _, records, report = tiny_report
        assert report.confusion.sum() == len(records)
        trace = np.trace(report.confusion)
        assert trace / len(records) == pytest.approx(report.pooled_accuracy)

    def test_macro_auc_is_mean_of_curves(self, tiny_report):
        _, _, report = tiny_report
        aucs = [report.rocs[c].auc for c in sorted(report.rocs)]
        assert report.macro_auc == pytest.approx(np.mean(aucs))
        assert sorted(report.rocs) == [0, 1, 2]

    def test_thread_count_does_not_change_results(self, tiny_cohort, tiny_cfg):
        # 3 folds: each fold merges two layer-1 blocks
        manifest, records = tiny_cohort
        a = sh.cross_validate(records, tiny_cfg, folds=3, seed=3, threads=1)
        b = sh.cross_validate(records, tiny_cfg, folds=3, seed=3, threads=3)
        assert a.pooled_accuracy == b.pooled_accuracy
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.predicted_labels, b.predicted_labels)

    def test_blas_thread_count_changes_no_decision(self, tiny_cohort, tiny_cfg,
                                                   tmp_path):
        """Under 1 and 2 BLAS threads, folds and predicted labels agree exactly
        and scores within BLAS_SCORE_TOL: matrix products may sum in another
        order, so model bytes and scores are not identical."""
        manifest, _ = tiny_cohort
        config = tmp_path / "config.json"
        config.write_text(json.dumps(tiny_cfg.to_dict()))
        src = str(Path(sh.__file__).resolve().parents[1])
        runs = []
        for n in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n,
                       MKL_NUM_THREADS=n,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"blas{n}"
            subprocess.run(
                [sys.executable, "-m", "sslhop.cli", "evaluate", "--manifest",
                 manifest.records[0].ed_path.parent / "manifest.json",
                 "--config", config, "--out", out, "--folds", "3",
                 "--seed", "3", "--threads", "1"],
                env=env, check=True, capture_output=True, timeout=300)
            with open(out / "predictions.csv", newline="") as fh:
                runs.append(list(csv.reader(fh))[1:])
        one, two = runs
        # subject, fold, label, predicted
        assert [r[:4] for r in one] == [r[:4] for r in two]
        np.testing.assert_allclose(np.array([r[4:] for r in one], dtype=float),
                                   np.array([r[4:] for r in two], dtype=float),
                                   rtol=0, atol=BLAS_SCORE_TOL)

    def test_rerun_is_identical(self, tiny_cohort, tiny_cfg, tiny_report):
        manifest, records = tiny_cohort
        _, _, first = tiny_report
        again = sh.cross_validate(records, tiny_cfg, folds=2, seed=3,
                                  class_table=manifest.classes)
        np.testing.assert_array_equal(first.scores, again.scores)
        assert first.pooled_accuracy == again.pooled_accuracy


class TestArtifacts:
    def test_report_json_round_trip(self, tiny_report, tmp_path):
        _, records, report = tiny_report
        path = sh.write_report_json(report, tmp_path / "report.json")
        data = json.loads(path.read_text())
        assert data["pooled_accuracy"] == report.pooled_accuracy
        assert data["macro_auc"] == report.macro_auc
        assert len(data["subjects"]) == len(records)
        assert set(data["provenance"]) == {"timestamp", "runtime_seconds"}
        # volatile values live nowhere else in the payload
        del data["provenance"]
        assert "timestamp" not in json.dumps(data)

    def test_roc_csv_matches_curves(self, tiny_report, tmp_path):
        _, _, report = tiny_report
        path = sh.write_roc_csv(report, tmp_path / "roc.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["class_id", "fpr", "tpr", "threshold"]
        n_points = sum(report.rocs[c].points.shape[0] for c in report.rocs)
        assert len(rows) == 1 + n_points
        first = report.rocs[0].points[0]
        assert rows[1] == ["0"] + [repr(float(v)) for v in first]

    def test_confusion_csv(self, tiny_report, tmp_path):
        _, _, report = tiny_report
        path = sh.write_confusion_csv(report, tmp_path / "confusion.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        k = report.confusion.shape[0]
        assert len(rows) == k + 1
        body = np.array([[int(v) for v in row[1:]] for row in rows[1:]])
        np.testing.assert_array_equal(body, report.confusion)

    def test_predictions_csv(self, tiny_report, tmp_path):
        _, records, report = tiny_report
        path = sh.write_predictions_csv(report, tmp_path / "pred.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + len(records)
        assert rows[0][:4] == ["subject_id", "fold", "label", "predicted"]
        ids = {row[0] for row in rows[1:]}
        assert ids == set(report.subject_ids)
