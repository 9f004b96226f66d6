"""Linear one-vs-rest SVM and ROC/AUC evaluation primitives.

The SVM is trained by dual coordinate descent on the L1-hinge dual with a
fixed 0..N-1 traversal order, giving bit-reproducible fits. Features are
z-scored with training statistics; the bias is learned through a constant
augmented feature and split back out of the weight vector.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (MissingClassError, NonFiniteValuesError,
                     OneClassOnlyError, ShapeMismatchError)

MAX_EPOCHS = 10_000
STOP_TOL = 1e-4


@dataclass(frozen=True)
class SvmModel:
    """Fitted one-vs-rest linear machines plus training feature statistics."""

    weights: np.ndarray      # (K, D) per-class weight vectors
    intercepts: np.ndarray   # (K,)
    mean: np.ndarray         # (D,) training feature means
    scale: np.ndarray        # (D,) training feature stds, zeros replaced by 1
    cost: float              # hinge penalty C
    class_count: int
    # dual objective value after each epoch, one array per class machine;
    # diagnostic only, not serialized with the model
    objective_history: tuple = field(default=(), compare=False)


def _dual_cd(X: np.ndarray, y: np.ndarray, cost: float, tol: float,
             max_epochs: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimize the L1-hinge dual for one binary machine.

    X already carries the augmented constant column. Returns the primal
    weight vector and the per-epoch dual objective trace.

    The steps run on Python floats: per row, one BLAS dot of the row with
    ``w`` and, when alpha moves, one vector update of ``w``. The clamps are
    written as the comparisons ``min``/``max`` make, so every step performs
    the same floating-point operations in the same order as a plain numpy
    formulation, and the fit is bit-reproducible.
    """
    n = X.shape[0]
    alpha = [0.0] * n
    w = np.zeros(X.shape[1])
    rows = list(enumerate(zip(y.tolist(), [row.dot for row in X],
                              (X ** 2).sum(axis=1).tolist(),
                              y[:, None] * X)))
    history = []
    for _ in range(max_epochs):
        pg_max, pg_min = -np.inf, np.inf
        for i, (y_i, dot_i, q_i, yx_i) in rows:
            g = y_i * float(dot_i(w)) - 1.0
            a = alpha[i]
            # projected gradient, min(g, 0) at the lower and max(g, 0) at
            # the upper bound
            if a <= 0.0:
                pg = 0.0 if g > 0.0 else g
            elif a >= cost:
                pg = 0.0 if g < 0.0 else g
            else:
                pg = g
            if pg > pg_max:
                pg_max = pg
            if pg < pg_min:
                pg_min = pg
            if pg != 0.0:
                new_a = a - g / q_i
                if new_a < 0.0:
                    new_a = 0.0
                if new_a > cost:
                    new_a = cost
                if new_a != a:
                    w += (new_a - a) * yx_i
                    alpha[i] = new_a
        history.append(0.5 * (w @ w) - np.sum(alpha))
        if pg_max - pg_min < tol:
            break
    return w, np.asarray(history)


def _is_number(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def fit_svm(X: np.ndarray, labels: np.ndarray, cost: float = 1.0,
            class_count: int | None = None, tol: float = STOP_TOL,
            max_epochs: int = MAX_EPOCHS) -> SvmModel:
    """Fit K one-vs-rest linear machines on z-scored features."""
    if not _is_number(cost) or not math.isfinite(cost) or cost <= 0:
        raise ValueError(f"cost must be a finite number > 0, got {cost!r}")
    if not _is_number(tol) or not tol > 0:
        raise ValueError(f"tol must be a number > 0, got {tol!r}")
    if not _is_number(max_epochs, numbers.Integral) or max_epochs < 1:
        raise ValueError(f"max_epochs must be an integer >= 1, got {max_epochs!r}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatchError(f"expected (N, D) features, got {X.shape}")
    if not np.isfinite(X).all():
        raise NonFiniteValuesError("features contain non-finite values")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (X.shape[0],):
        raise ShapeMismatchError(f"labels shape {labels.shape} != ({X.shape[0]},)")
    present = np.unique(labels)
    k = int(class_count) if class_count is not None else int(present.max()) + 1
    missing = sorted(set(range(k)) - set(present.tolist()))
    if present.min() < 0 or present.max() >= k or missing:
        raise MissingClassError(f"labels must cover 0..{k - 1}; missing {missing}")

    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    # a constant column's std is not exactly zero (summation roundoff),
    # so compare against a threshold relative to the column magnitude
    tiny = 1e-12 * np.maximum(1.0, np.abs(mean))
    scale = np.where(scale <= tiny, 1.0, scale)
    scaled = np.hstack([(X - mean) / scale, np.ones((X.shape[0], 1))])

    weights = np.empty((k, X.shape[1]))
    intercepts = np.empty(k)
    traces = []
    for cls in range(k):
        y = np.where(labels == cls, 1.0, -1.0)
        w, trace = _dual_cd(scaled, y, float(cost), tol, max_epochs)
        weights[cls] = w[:-1]
        intercepts[cls] = w[-1]
        traces.append(trace)
    return SvmModel(weights=weights, intercepts=intercepts, mean=mean,
                    scale=scale, cost=float(cost), class_count=k,
                    objective_history=tuple(traces))


def decision_values(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Per-class decision scores for (N, D) features."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.weights.shape[1]:
        raise ShapeMismatchError(
            f"expected (N, {model.weights.shape[1]}) features, got {X.shape}")
    scaled = (X - model.mean) / model.scale
    return scaled @ model.weights.T + model.intercepts


def predict(model: SvmModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (labels, scores); argmax ties resolve to the lower class id."""
    scores = decision_values(model, X)
    return np.argmax(scores, axis=1), scores


def roc_auc(scores: np.ndarray, positives: np.ndarray) -> tuple[np.ndarray, float]:
    """One-vs-rest ROC curve and its trapezoid area.

    Returns (points, auc) where ``points`` is a (M, 3) array of
    (fpr, tpr, threshold) rows starting at (0, 0, inf) and ending at
    (1, 1, min score). Samples tied on score advance the curve in a
    single diagonal step, which makes the trapezoid area equal the
    Mann-Whitney statistic with half-credit for ties.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    pos = np.asarray(positives, dtype=bool).ravel()
    if scores.shape != pos.shape:
        raise ShapeMismatchError(f"scores {scores.shape} vs positives {pos.shape}")
    n_pos = int(pos.sum())
    n_neg = pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnlyError("ROC needs both positive and negative samples")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    p = pos[order]
    # index of the last sample in each tied-score group
    last = np.flatnonzero(np.r_[s[1:] != s[:-1], True])
    tpr = np.cumsum(p)[last] / n_pos
    fpr = np.cumsum(~p)[last] / n_neg
    points = np.column_stack([np.r_[0.0, fpr], np.r_[0.0, tpr], np.r_[np.inf, s[last]]])
    auc = float(np.sum((points[1:, 0] - points[:-1, 0])
                       * (points[1:, 1] + points[:-1, 1]) / 2.0))
    return points, auc
