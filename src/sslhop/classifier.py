"""Linear one-vs-rest SVM and ROC/AUC evaluation primitives.

The SVM is trained by dual coordinate descent on the L1-hinge dual with a
fixed 0..N-1 traversal order, giving bit-reproducible fits. Features are
z-scored with training statistics; the bias is learned through a constant
augmented feature and split back out of the weight vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (MissingClassError, OneClassOnlyError,
                     ShapeMismatchError, SingleClassError, as_features,
                     as_finite, as_integer, as_labels)

MAX_EPOCHS = 10_000
STOP_TOL = 1e-4


@dataclass(frozen=True)
class SvmModel:
    """Fitted one-vs-rest linear machines plus training feature statistics."""

    weights: np.ndarray      # (K, D) per-class weight vectors
    intercepts: np.ndarray   # (K,)
    mean: np.ndarray         # (D,) training feature means
    scale: np.ndarray        # (D,) training feature stds, zeros replaced by 1
    # dual objective value after each epoch, one array per class machine;
    # diagnostic only, not serialized with the model
    objective_history: tuple = field(default=(), compare=False)


def _dual_cd(X: np.ndarray, gram: np.ndarray, y: np.ndarray, cost: float,
             tol: float, max_epochs: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimize the L1-hinge dual for one binary machine.

    X already carries the augmented constant column, and ``gram`` is its
    Gram matrix ``X X^T``. Returns the primal weight vector and the
    per-epoch dual objective trace.

    The steps run on Python floats over the gradient ``G = Q alpha - 1`` of
    the dual, ``Q = gram * y y^T``: a step reads ``g_i`` through a
    memoryview, with no BLAS call, and when alpha moves, adds the change
    times row ``i`` of ``Q`` to ``G``. The clamps are written as the
    comparisons ``min``/``max`` make, and the rows run in the fixed 0..N-1
    order, so the fit is bit-reproducible. The weights ``X^T (y alpha)``
    are formed once, at the end.
    """
    n = X.shape[0]
    alpha = np.zeros(n)
    a_of = memoryview(alpha)
    q = gram * y * y[:, None]
    grad = np.full(n, -1.0)
    g_of = memoryview(grad)
    rows = list(enumerate(zip(q.diagonal().tolist(), q)))
    history = []
    for _ in range(max_epochs):
        pg_max, pg_min = -np.inf, np.inf
        for i, (q_ii, q_i) in rows:
            g = g_of[i]
            a = a_of[i]
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
                new_a = a - g / q_ii
                if new_a < 0.0:
                    new_a = 0.0
                if new_a > cost:
                    new_a = cost
                if new_a != a:
                    grad += (new_a - a) * q_i
                    a_of[i] = new_a
        # 0.5 alpha^T Q alpha - sum(alpha), with Q alpha = G + 1
        history.append(0.5 * (alpha @ (grad + 1.0)) - alpha.sum())
        if pg_max - pg_min < tol:
            break
    return X.T @ (y * alpha), np.asarray(history)


def checked_class_count(labels: np.ndarray,
                        class_count: int | None = None) -> int:
    """The class count of a fit on ``labels``, by default one more than
    the largest; every class must have a sample, no label may lie outside
    them, and there must be two."""
    present = np.unique(labels)
    k = (int(present.max()) + 1 if class_count is None
         else as_integer("class_count", class_count))
    missing = sorted(set(range(k)) - set(present.tolist()))
    if present.min() < 0 or present.max() >= k or missing:
        raise MissingClassError(f"labels must cover 0..{k - 1}; missing {missing}")
    if k < 2:
        raise SingleClassError("training data must contain at least two classes")
    return k


def fit_svm(X: np.ndarray, labels: np.ndarray, cost: float = 1.0,
            class_count: int | None = None, tol: float = STOP_TOL,
            max_epochs: int = MAX_EPOCHS) -> SvmModel:
    """Fit K one-vs-rest linear machines on z-scored features."""
    for name, value in (("cost", cost), ("tol", tol)):
        if not as_finite(name, value) > 0:
            raise ValueError(f"{name} must be > 0, got {value!r}")
    if as_integer("max_epochs", max_epochs) < 1:
        raise ValueError(f"max_epochs must be at least 1, got {max_epochs!r}")
    X = as_features(X)
    labels = as_labels(labels, len(X), np.int64)
    k = checked_class_count(labels, class_count)

    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    # a constant column's std is not exactly zero (summation roundoff),
    # so compare against a threshold relative to the column magnitude
    tiny = 1e-12 * np.maximum(1.0, np.abs(mean))
    scale = np.where(scale <= tiny, 1.0, scale)
    scaled = np.hstack([(X - mean) / scale, np.ones((X.shape[0], 1))])
    # one N x N Gram matrix serves every machine
    gram = scaled @ scaled.T

    weights = np.empty((k, X.shape[1]))
    intercepts = np.empty(k)
    traces = []
    for cls in range(k):
        y = np.where(labels == cls, 1.0, -1.0)
        w, trace = _dual_cd(scaled, gram, y, float(cost), tol,
                             max_epochs)
        weights[cls] = w[:-1]
        intercepts[cls] = w[-1]
        traces.append(trace)
    return SvmModel(weights=weights, intercepts=intercepts, mean=mean,
                    scale=scale, objective_history=tuple(traces))


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
