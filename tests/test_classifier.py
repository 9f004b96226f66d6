"""One-vs-rest linear SVM (dual coordinate descent) and ROC/AUC."""

import numpy as np
import pytest

from sslhop import SvmModel, classifier, decision_values, fit_svm, predict, roc_auc
from sslhop.errors import (
    MissingClassError,
    NonFiniteValuesError,
    OneClassOnlyError,
    ShapeMismatchError,
    SingleClassError,
)


def _blobs(rng, k=3, per=20, d=5, spread=6.0):
    centers = spread * np.eye(k, d)
    X = np.vstack([rng.normal(size=(per, d)) + centers[c] for c in range(k)])
    return X, np.repeat(np.arange(k), per)


def _numpy_dual_cd(X, y, cost, tol, max_epochs):
    """Frozen plain-numpy dual CD: the solver's oracle, step for step.

    ``classifier._dual_cd`` must take its steps: same fixed 0..N-1 order,
    same clamps, same stopping rule.
    """
    n = X.shape[0]
    alpha = np.zeros(n)
    w = np.zeros(X.shape[1])
    q_diag = (X ** 2).sum(axis=1)
    yx = y[:, None] * X
    history = []
    for _ in range(max_epochs):
        pg_max, pg_min = -np.inf, np.inf
        for i in range(n):
            g = y[i] * (w @ X[i]) - 1.0
            a = alpha[i]
            if a <= 0.0:
                pg = min(g, 0.0)
            elif a >= cost:
                pg = max(g, 0.0)
            else:
                pg = g
            pg_max = max(pg_max, pg)
            pg_min = min(pg_min, pg)
            if pg != 0.0:
                new_a = min(max(a - g / q_diag[i], 0.0), cost)
                if new_a != a:
                    w += (new_a - a) * yx[i]
                    alpha[i] = new_a
        history.append(0.5 * (w @ w) - alpha.sum())
        if pg_max - pg_min < tol:
            break
    return w, np.asarray(history)


def _pair_count_auc(scores, positives):
    """O(N^2) reference: P(score_pos > score_neg) with half-credit ties."""
    pos = scores[positives]
    neg = scores[~positives]
    wins = sum((p > neg).sum() + 0.5 * (p == neg).sum() for p in pos)
    return wins / (len(pos) * len(neg))


class TestSvmFit:
    def test_separable_blobs(self, rng):
        X, y = _blobs(rng)
        model = fit_svm(X, y)
        pred, scores = predict(model, X)
        assert (pred == y).all()
        assert scores.shape == (60, 3)

    def test_objective_trace_never_increases(self, rng):
        X, y = _blobs(rng, spread=1.0)     # overlapping: needs many epochs
        model = fit_svm(X, y)
        assert len(model.objective_history) == 3
        for trace in model.objective_history:
            assert trace.size >= 1
            assert np.all(np.diff(trace) <= 1e-12)

    def test_duplicated_rows_keep_the_boundary(self, rng):
        X, y = _blobs(rng, k=2, per=15)
        probe = rng.normal(size=(40, 5)) * 4.0 + 3.0
        a = fit_svm(X, y, tol=1e-8)
        b = fit_svm(np.vstack([X, X]), np.concatenate([y, y]), tol=1e-8)
        np.testing.assert_array_equal(predict(a, probe)[0],
                                      predict(b, probe)[0])

    def test_zero_variance_feature_is_harmless(self, rng):
        X, y = _blobs(rng)
        X = np.hstack([X, np.full((X.shape[0], 1), 3.7)])  # constant column
        model = fit_svm(X, y)
        assert model.scale[-1] == 1.0
        pred, scores = predict(model, X)
        assert np.isfinite(scores).all()
        assert (pred == y).all()

    def test_affine_feature_scaling_invariance(self, rng):
        X, y = _blobs(rng)
        a = fit_svm(X, y)
        b = fit_svm(X * 3.0 + 7.0, y)
        np.testing.assert_allclose(decision_values(a, X),
                                   decision_values(b, X * 3.0 + 7.0),
                                   atol=1e-8)

    def test_refit_is_bit_identical(self, rng):
        X, y = _blobs(rng)
        a = fit_svm(X, y)
        b = fit_svm(X.copy(), y.copy())
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.intercepts, b.intercepts)

    def test_random_labels_still_converge_structurally(self, rng):
        """Inseparable data: traces stay monotone, outputs stay sane."""
        X = rng.normal(size=(120, 8))
        y = rng.integers(0, 4, size=120)
        y[:4] = np.arange(4)             # guarantee every class appears
        model = fit_svm(X, y, max_epochs=60)
        pred, _ = predict(model, X)
        assert set(np.unique(pred)) <= set(range(4))
        for trace in model.objective_history:
            assert np.all(np.diff(trace) <= 1e-12)

    def test_missing_class_rejected(self, rng):
        X = rng.normal(size=(10, 3))
        with pytest.raises(MissingClassError):
            fit_svm(X, np.repeat([0, 2], 5))
        with pytest.raises(MissingClassError):
            fit_svm(X, np.repeat([0, 1], 5), class_count=1)

    def test_labels_outside_class_count(self, rng):
        X = rng.normal(size=(6, 3))
        with pytest.raises(MissingClassError):
            fit_svm(X, np.repeat([0, 3], 3), class_count=3)

    def test_class_count_rule(self):
        """One rule for every fit: the range and missing classes are
        checked before the class count, which must be an integer >= 2."""
        with pytest.raises(MissingClassError):
            classifier.checked_class_count(np.array([-1, 0, 1]))
        with pytest.raises(MissingClassError):
            classifier.checked_class_count(np.array([0, 1]), class_count=1)
        with pytest.raises(SingleClassError):
            classifier.checked_class_count(np.array([0, 0]))
        with pytest.raises(ValueError, match="class_count"):
            classifier.checked_class_count(np.array([0, 1]), class_count=2.5)
        assert classifier.checked_class_count(np.array([1, 0, 1])) == 2
        assert classifier.checked_class_count(np.array([1, 0, 2]),
                                              class_count=3) == 3

    def test_one_class_is_not_fitted(self, rng):
        with pytest.raises(SingleClassError):
            fit_svm(rng.normal(size=(6, 3)), np.zeros(6, dtype=np.int64),
                    class_count=1)

    @pytest.mark.parametrize("kwargs", [
        {"cost": 0}, {"cost": -1.0}, {"cost": np.nan}, {"cost": np.inf},
        {"cost": True}, {"cost": "1"}, {"tol": 0.0}, {"tol": -1e-4},
        {"tol": np.nan}, {"tol": np.inf}, {"max_epochs": 0},
        {"max_epochs": 2.5}, {"class_count": 2.5},
    ], ids=["cost-0", "cost-negative", "cost-nan", "cost-inf", "cost-bool",
            "cost-string", "tol-0", "tol-negative", "tol-nan", "tol-inf",
            "max-epochs-0", "max-epochs-float", "class-count-float"])
    def test_invalid_solver_arguments_rejected(self, rng, kwargs):
        X, y = _blobs(rng, k=2)
        with pytest.raises(ValueError):
            fit_svm(X, y, **kwargs)

    def test_non_finite_rejected(self):
        X = np.ones((4, 2))
        X[1, 0] = np.inf
        with pytest.raises(NonFiniteValuesError):
            fit_svm(X, np.array([0, 0, 1, 1]))


def _oracle_problems(rng):
    X, y = _blobs(rng)
    yield "separable", X, y, {}
    X, y = _blobs(rng, k=4, per=25, d=6, spread=1.0)
    yield "overlapping-low-cost", X, y, {"cost": 0.05}
    X, y = _blobs(rng, k=2, per=15)
    yield "duplicated-rows", np.vstack([X, X, X[:5]]), \
        np.concatenate([y, y, y[:5]]), {"tol": 1e-8}
    X, y = _blobs(rng)
    yield "zero-variance-column", np.hstack([X, np.full((60, 1), -2.5)]), y, {}
    X = rng.normal(size=(90, 7))
    y = np.arange(90) % 3
    yield "epoch-cap", X, y, {"max_epochs": 3}


def _close(got, want, rtol=1e-12):
    """Equal within ``rtol`` of the largest magnitude in ``want``."""
    return np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestSolverOracle:
    def test_matches_numpy_dual_cd_within_roundoff(self, rng, monkeypatch):
        """The Gram-form solver takes the oracle's steps: the same epochs
        per machine, and weights, intercepts and objectives that differ
        only by the summation order of ``y_i w.x_i`` against ``(Q a)_i``."""
        for name, X, y, kwargs in _oracle_problems(rng):
            model = fit_svm(X, y, **kwargs)
            with monkeypatch.context() as m:
                m.setattr(classifier, "_dual_cd",
                          lambda X, gram, *args: _numpy_dual_cd(X, *args))
                oracle = fit_svm(X, y, **kwargs)
            assert _close(model.weights, oracle.weights), name
            assert _close(model.intercepts, oracle.intercepts), name
            assert [len(t) for t in model.objective_history] == \
                [len(t) for t in oracle.objective_history], name
            for got, want in zip(model.objective_history,
                                 oracle.objective_history):
                assert got.dtype == want.dtype, name
                assert _close(got, want), name
            if name == "overlapping-low-cost":
                # many margin violators: their alphas end at the bound C
                _, scores = predict(model, X)
                margins = np.where(y == 0, 1.0, -1.0) * scores[:, 0]
                assert (margins < 1.0).sum() > len(y) // 4
            if name == "epoch-cap":
                assert all(t.size == 3 for t in model.objective_history)


class TestPredict:
    def test_argmax_tie_takes_lower_id(self):
        model = SvmModel(weights=np.zeros((3, 2)),
                         intercepts=np.array([1.0, 1.0, 0.5]),
                         mean=np.zeros(2), scale=np.ones(2))
        pred, scores = predict(model, np.zeros((4, 2)))
        assert scores[0, 0] == scores[0, 1]
        np.testing.assert_array_equal(pred, 0)

    def test_width_guard(self, rng):
        X, y = _blobs(rng, k=2)
        model = fit_svm(X, y)
        with pytest.raises(ShapeMismatchError):
            decision_values(model, rng.normal(size=(3, 6)))


class TestRoc:
    def test_hand_example_with_tie(self):
        scores = np.array([0.9, 0.8, 0.8, 0.1])
        pos = np.array([True, True, False, False])
        points, auc = roc_auc(scores, pos)
        expected = np.array([[0.0, 0.0, np.inf],
                             [0.0, 0.5, 0.9],
                             [0.5, 1.0, 0.8],
                             [1.0, 1.0, 0.1]])
        np.testing.assert_array_equal(points, expected)
        assert auc == 0.875

    def test_perfect_and_inverted_rankings(self):
        scores = np.arange(10.0)
        pos = scores >= 5
        assert roc_auc(scores, pos)[1] == 1.0
        assert roc_auc(scores, ~pos)[1] == 0.0

    def test_all_tied_scores_give_half(self):
        points, auc = roc_auc(np.full(8, 2.5), np.repeat([True, False], 4))
        assert auc == 0.5
        np.testing.assert_array_equal(
            points, [[0.0, 0.0, np.inf], [1.0, 1.0, 2.5]])

    def test_curve_shape_invariants(self, rng):
        scores = rng.normal(size=60)
        pos = rng.uniform(size=60) < 0.4
        pos[:2] = [True, False]
        points, auc = roc_auc(scores, pos)
        assert (points[0] == [0.0, 0.0, np.inf]).all()
        assert points[-1, 0] == 1.0 and points[-1, 1] == 1.0
        assert points[-1, 2] == scores.min()
        assert np.all(np.diff(points[:, 0]) >= 0)
        assert np.all(np.diff(points[:, 1]) >= 0)
        assert np.all(np.diff(points[1:, 2]) < 0)   # thresholds strictly drop
        assert 0.0 <= auc <= 1.0

    def test_matches_pair_count_oracle_with_ties(self, rng):
        for _ in range(20):
            n = int(rng.integers(6, 60))
            scores = np.round(rng.normal(size=n), 1)    # quantized: many ties
            pos = rng.uniform(size=n) < 0.5
            if pos.all() or not pos.any():
                pos[0] = not pos[0]
            _, auc = roc_auc(scores, pos)
            assert auc == pytest.approx(_pair_count_auc(scores, pos),
                                        abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(OneClassOnlyError):
            roc_auc(np.arange(4.0), np.ones(4, dtype=bool))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            roc_auc(np.arange(4.0), np.ones(3, dtype=bool))
