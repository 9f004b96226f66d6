"""Stratified k-fold cross-validation and its report artifacts.

Folds are dealt per class: each class's subjects are shuffled with the
run seed and dealt round-robin, with the starting fold rolling onward
across classes so degenerate splits (k = N) still fill every fold.
Every fit sees only its training fold; a runtime guard asserts that no
test subject id ever reaches a fit call. Layer-1 statistics depend on the
raw fields only, so they are computed once per fold block and each fold
merges the blocks it trains on, in fold order.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import classifier
from .dataio import SubjectRecord
from .errors import TooFewSubjectsError
from .pipeline import DIRECTIONS, PipelineConfig, assemble_sample, \
    first_layer_moments, fit_pipeline, transform_many


@dataclass(frozen=True)
class RocCurve:
    points: np.ndarray   # (M, 3) rows of (fpr, tpr, threshold)
    auc: float


@dataclass(frozen=True)
class FoldReport:
    """Everything a cross-validation run measured."""

    fold_of: dict[str, int]
    subject_ids: tuple[str, ...]
    true_labels: np.ndarray
    predicted_labels: np.ndarray
    scores: np.ndarray                 # (N, K) pooled decision values
    per_fold_accuracy: tuple[float, ...]
    pooled_accuracy: float
    confusion: np.ndarray              # (K, K) true rows, predicted cols
    rocs: dict[int, RocCurve]
    macro_auc: float
    class_table: dict[int, str] | None
    folds: int
    seed: int
    config: PipelineConfig
    runtime_seconds: float
    timestamp: float

    def to_dict(self) -> dict:
        """JSON-ready dict; volatile values live under ``provenance``."""
        return {
            "folds": self.folds,
            "fold_of": dict(sorted(self.fold_of.items())),
            "subjects": [
                {"subject_id": s, "fold": self.fold_of[s],
                 "label": int(t), "predicted": int(p),
                 "scores": [float(v) for v in row]}
                for s, t, p, row in zip(self.subject_ids, self.true_labels,
                                        self.predicted_labels, self.scores)],
            "per_fold_accuracy": list(self.per_fold_accuracy),
            "pooled_accuracy": self.pooled_accuracy,
            "confusion_matrix": self.confusion.tolist(),
            "per_class": {
                str(c): {"auc": curve.auc,
                         "name": self.class_table[c] if self.class_table else str(c)}
                for c, curve in sorted(self.rocs.items())},
            "macro_auc": self.macro_auc,
            "class_table": ({str(k): v for k, v in sorted(self.class_table.items())}
                            if self.class_table else None),
            "seed": self.seed,
            "config": self.config.to_dict(),
            "provenance": {"timestamp": self.timestamp,
                           "runtime_seconds": self.runtime_seconds},
        }


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Deal each class round-robin into k folds after a seeded shuffle."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    if not 2 <= k <= n:
        raise TooFewSubjectsError(f"folds must lie in [2, {n}], got {k}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xF01D]))
    fold = np.empty(n, dtype=np.int64)
    next_fold = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < 2:
            raise TooFewSubjectsError(
                f"class {cls} has {idx.size} subject(s); need at least 2")
        shuffled = idx[rng.permutation(idx.size)]
        for j, i in enumerate(shuffled):
            fold[i] = (next_fold + j) % k
        next_fold = (next_fold + idx.size) % k
    return fold


def cross_validate(records: list[SubjectRecord], cfg: PipelineConfig,
                   folds: int = 5, seed: int = 0, threads: int = 1,
                   class_table: dict[int, str] | None = None) -> FoldReport:
    """Run stratified k-fold CV of the full pipeline over loaded subjects."""
    t0 = time.perf_counter()
    samples = [assemble_sample(r.ed, r.es, cfg, r.label, r.subject_id)
               for r in records]
    labels = np.array([r.label for r in records], dtype=np.int64)
    k_classes = int(labels.max()) + 1
    fold = stratified_folds(labels, folds, seed)

    def fan_out(fn, items):
        if threads > 1:
            with ThreadPoolExecutor(max_workers=min(threads, folds)) as pool:
                return list(pool.map(fn, items))
        return [fn(i) for i in items]

    blocks = fan_out(lambda g: first_layer_moments(
        [s for s, f in zip(samples, fold) if f == g], cfg), range(folds))

    def run_fold(f: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        test_mask = fold == f
        train = [s for s, m in zip(samples, test_mask) if not m]
        test = [s for s, m in zip(samples, test_mask) if m]
        layer1 = [[blocks[g][d] for g in range(folds) if g != f]
                  for d in range(DIRECTIONS)]
        model = fit_pipeline(train, cfg, class_count=k_classes,
                             class_table=class_table, layer1=layer1)
        held_out = {s.subject_id for s in test}
        assert not held_out & set(model.train_subject_ids), \
            f"fold {f}: test subjects leaked into training"
        pred, scr = classifier.predict(model.svm, transform_many(model, test))
        return np.flatnonzero(test_mask), pred, scr

    results = fan_out(run_fold, range(folds))

    predicted = np.empty(len(records), dtype=np.int64)
    scores = np.empty((len(records), k_classes))
    per_fold_acc = []
    for (idx, pred, scr) in results:
        predicted[idx] = pred
        scores[idx] = scr
        per_fold_acc.append(float(np.mean(pred == labels[idx])) if idx.size else 1.0)

    pooled_accuracy = float(np.mean(predicted == labels))
    confusion = np.zeros((k_classes, k_classes), dtype=np.int64)
    np.add.at(confusion, (labels, predicted), 1)

    rocs = {}
    for c in range(k_classes):
        points, auc = classifier.roc_auc(scores[:, c], labels == c)
        rocs[c] = RocCurve(points=points, auc=auc)
    macro_auc = float(np.mean([r.auc for r in rocs.values()]))

    return FoldReport(
        fold_of={r.subject_id: int(f) for r, f in zip(records, fold)},
        subject_ids=tuple(r.subject_id for r in records),
        true_labels=labels, predicted_labels=predicted, scores=scores,
        per_fold_accuracy=tuple(per_fold_acc),
        pooled_accuracy=pooled_accuracy, confusion=confusion, rocs=rocs,
        macro_auc=macro_auc, class_table=class_table, folds=folds, seed=seed,
        config=cfg, runtime_seconds=time.perf_counter() - t0,
        timestamp=time.time())


# -- artifact writers ---------------------------------------------------------------

def write_report_json(report: FoldReport, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return path


def write_roc_csv(report: FoldReport, path: str | Path) -> Path:
    """All per-class ROC points, one row per curve point."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class_id", "fpr", "tpr", "threshold"])
        for c in sorted(report.rocs):
            for fpr, tpr, thr in report.rocs[c].points:
                writer.writerow([c, repr(float(fpr)), repr(float(tpr)),
                                 repr(float(thr))])
    return path


def write_confusion_csv(report: FoldReport, path: str | Path) -> Path:
    path = Path(path)
    k = report.confusion.shape[0]
    names = [report.class_table[c] if report.class_table else str(c)
             for c in range(k)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\predicted"] + names)
        for c in range(k):
            writer.writerow([names[c]] + report.confusion[c].tolist())
    return path


def write_predictions_csv(report: FoldReport, path: str | Path) -> Path:
    path = Path(path)
    k = report.scores.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "fold", "label", "predicted"]
                        + [f"score_{c}" for c in range(k)])
        for s, t, p, row in zip(report.subject_ids, report.true_labels,
                                report.predicted_labels, report.scores):
            writer.writerow([s, report.fold_of[s], int(t), int(p)]
                            + [repr(float(v)) for v in row])
    return path
