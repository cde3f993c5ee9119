"""Unit tests for the evaluation utilities."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.learning import LogisticRegressionModel, TwoGaussiansTask
from repro.learning.evaluation import (
    ConfusionMatrix,
    auc,
    roc_points,
    train_test_split,
)


class TestTrainTestSplit:
    def test_shapes(self):
        x = np.arange(40).reshape(20, 2)
        y = np.arange(20)
        x_tr, y_tr, x_te, y_te = train_test_split(
            x, y, test_fraction=0.25, random_state=0
        )
        assert x_te.shape == (5, 2)
        assert x_tr.shape == (15, 2)
        assert y_tr.shape == (15,)
        assert y_te.shape == (5,)

    def test_partition_is_exact(self):
        x = np.arange(10).reshape(10, 1)
        y = np.arange(10)
        x_tr, y_tr, x_te, y_te = train_test_split(x, y, random_state=1)
        together = sorted(np.concatenate([y_tr, y_te]).tolist())
        assert together == list(range(10))

    def test_deterministic_with_seed(self):
        x = np.arange(10).reshape(10, 1)
        y = np.arange(10)
        a = train_test_split(x, y, random_state=7)
        b = train_test_split(x, y, random_state=7)
        assert np.array_equal(a[3], b[3])

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValidationError):
            train_test_split(np.zeros((4, 1)), np.zeros(4), test_fraction=1.0)


class TestConfusionMatrix:
    def test_counts(self):
        y_true = np.array([1, 1, -1, -1, 1])
        y_pred = np.array([1, -1, -1, 1, 1])
        cm = ConfusionMatrix.from_predictions(y_true, y_pred)
        assert cm.true_positive == 2
        assert cm.false_negative == 1
        assert cm.false_positive == 1
        assert cm.true_negative == 1
        assert cm.total == 5

    def test_metrics(self):
        y_true = np.array([1, 1, -1, -1])
        y_pred = np.array([1, -1, -1, -1])
        cm = ConfusionMatrix.from_predictions(y_true, y_pred)
        assert cm.accuracy == pytest.approx(0.75)
        assert cm.precision == pytest.approx(1.0)
        assert cm.recall == pytest.approx(0.5)
        assert cm.f1 == pytest.approx(2 / 3)

    def test_degenerate_metrics_are_zero(self):
        cm = ConfusionMatrix.from_predictions([-1, -1], [-1, -1])
        assert cm.precision == 0.0
        assert cm.recall == 0.0
        assert cm.f1 == 0.0

    def test_rejects_bad_labels(self):
        with pytest.raises(ValidationError):
            ConfusionMatrix.from_predictions([0, 1], [1, 1])


class TestRocAuc:
    def test_perfect_classifier(self):
        y = np.array([-1, -1, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert auc(y, scores) == pytest.approx(1.0)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        y = np.where(rng.uniform(size=5000) < 0.5, 1, -1)
        scores = rng.uniform(size=5000)
        assert auc(y, scores) == pytest.approx(0.5, abs=0.03)

    def test_inverted_classifier(self):
        y = np.array([-1, -1, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert auc(y, scores) == pytest.approx(0.0)

    def test_roc_endpoints(self):
        y = np.array([-1, 1])
        fpr, tpr = roc_points(y, np.array([0.3, 0.7]))
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0

    def test_rejects_single_class(self):
        with pytest.raises(ValidationError):
            roc_points([1, 1], [0.4, 0.6])

    def test_logistic_auc_beats_chance(self):
        task = TwoGaussiansTask([1.5, 0.0])
        x, y = task.sample(400, random_state=4)
        model = LogisticRegressionModel(0.1).fit(x, y)
        assert auc(y, model.decision_function(x)) > 0.9
