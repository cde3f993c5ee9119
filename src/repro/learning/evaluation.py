"""Model evaluation utilities: splits and metrics.

The glue a downstream user needs around the learners: deterministic
train/test splits and the standard binary classification metrics for
{-1, +1} labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_random_state


def train_test_split(
    x, y, *, test_fraction: float = 0.25, random_state=None
):
    """Shuffle and split into ``(x_train, y_train, x_test, y_test)``."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape[0] != y.shape[0] or x.shape[0] < 2:
        raise ValidationError("x and y must share >= 2 rows")
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError("test_fraction must lie strictly in (0, 1)")
    rng = check_random_state(random_state)
    order = rng.permutation(x.shape[0])
    n_test = max(1, int(round(test_fraction * x.shape[0])))
    n_test = min(n_test, x.shape[0] - 1)
    test_idx, train_idx = order[:n_test], order[n_test:]
    return x[train_idx], y[train_idx], x[test_idx], y[test_idx]


@dataclass
class ConfusionMatrix:
    """Binary confusion counts for {-1, +1} labels (+1 is positive)."""

    true_positive: int
    false_positive: int
    true_negative: int
    false_negative: int

    @classmethod
    def from_predictions(cls, y_true, y_pred) -> "ConfusionMatrix":
        y_true = np.asarray(y_true)
        y_pred = np.asarray(y_pred)
        if y_true.shape != y_pred.shape or y_true.size == 0:
            raise ValidationError("labels must be equal-length and nonempty")
        valid = np.isin(y_true, (-1, 1)).all() and np.isin(y_pred, (-1, 1)).all()
        if not valid:
            raise ValidationError("labels must be in {-1, +1}")
        return cls(
            true_positive=int(((y_true == 1) & (y_pred == 1)).sum()),
            false_positive=int(((y_true == -1) & (y_pred == 1)).sum()),
            true_negative=int(((y_true == -1) & (y_pred == -1)).sum()),
            false_negative=int(((y_true == 1) & (y_pred == -1)).sum()),
        )

    @property
    def total(self) -> int:
        return (
            self.true_positive
            + self.false_positive
            + self.true_negative
            + self.false_negative
        )

    @property
    def accuracy(self) -> float:
        return (self.true_positive + self.true_negative) / self.total

    @property
    def precision(self) -> float:
        denominator = self.true_positive + self.false_positive
        return self.true_positive / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.true_positive + self.false_negative
        return self.true_positive / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def roc_points(y_true, scores) -> tuple[np.ndarray, np.ndarray]:
    """ROC curve (FPR, TPR arrays) by sweeping a threshold over scores."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=float)
    if y_true.shape != scores.shape or y_true.size == 0:
        raise ValidationError("y_true and scores must be equal-length")
    if not np.isin(y_true, (-1, 1)).all():
        raise ValidationError("labels must be in {-1, +1}")
    order = np.argsort(-scores, kind="stable")
    positives = float((y_true == 1).sum())
    negatives = float((y_true == -1).sum())
    if positives == 0 or negatives == 0:
        raise ValidationError("need both classes present")
    tpr = [0.0]
    fpr = [0.0]
    tp = fp = 0
    for index in order:
        if y_true[index] == 1:
            tp += 1
        else:
            fp += 1
        tpr.append(tp / positives)
        fpr.append(fp / negatives)
    return np.asarray(fpr), np.asarray(tpr)


def auc(y_true, scores) -> float:
    """Area under the ROC curve (trapezoidal)."""
    fpr, tpr = roc_points(y_true, scores)
    return float(np.trapezoid(tpr, fpr))
