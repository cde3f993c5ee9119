"""Unit tests for the sparse vector technique."""

import numpy as np
import pytest

from repro.exceptions import PrivacyBudgetError, ValidationError
from repro.mechanisms import SparseVector, above_threshold


class TestSparseVector:
    def test_requires_start(self):
        sv = SparseVector(threshold=10.0, sensitivity=1.0, epsilon=1.0)
        with pytest.raises(ValidationError):
            sv.query(5.0)

    def test_finds_obvious_above(self):
        sv = SparseVector(threshold=0.0, sensitivity=1.0, epsilon=10.0)
        sv.start(random_state=0)
        assert sv.query(1_000.0) is True

    def test_rejects_obvious_below(self):
        sv = SparseVector(threshold=1_000.0, sensitivity=1.0, epsilon=10.0)
        sv.start(random_state=0)
        assert sv.query(-1_000.0) is False

    def test_halts_after_budget(self):
        sv = SparseVector(0.0, 1.0, 10.0, max_positives=2)
        sv.start(random_state=1)
        assert sv.query(1_000.0)
        assert not sv.halted
        assert sv.query(1_000.0)
        assert sv.halted
        with pytest.raises(PrivacyBudgetError):
            sv.query(1_000.0)

    def test_below_threshold_queries_are_free(self):
        """Arbitrarily many below-threshold queries never halt it."""
        sv = SparseVector(1_000.0, 1.0, 1.0)
        sv.start(random_state=2)
        for _ in range(500):
            sv.query(0.0)
        assert not sv.halted

    def test_release_batch_interface(self):
        queries = [lambda d, k=k: float(sum(d)) - k for k in range(5)]
        sv = SparseVector(threshold=0.0, sensitivity=1.0, epsilon=50.0)
        answers = sv.release(([1, 1, 1], queries), random_state=3)
        # First query (3 - 0 = 3 >= 0) fires with overwhelming probability
        # at ε = 50; release stops after the single allowed positive.
        assert answers[-1] is True
        assert len(answers) <= 5

    def test_borderline_queries_are_randomized(self):
        sv = SparseVector(threshold=0.0, sensitivity=1.0, epsilon=0.5)
        answers = []
        for seed in range(200):
            sv.start(random_state=seed)
            answers.append(sv.query(0.0))
        rate = np.mean(answers)
        assert 0.2 < rate < 0.8

    def test_reset_on_start(self):
        sv = SparseVector(0.0, 1.0, 10.0)
        sv.start(random_state=4)
        sv.query(1_000.0)
        assert sv.halted
        sv.start(random_state=5)
        assert not sv.halted

    def test_rejects_bad_max_positives(self):
        with pytest.raises(ValidationError):
            SparseVector(0.0, 1.0, 1.0, max_positives=0)


class TestAboveThreshold:
    def test_finds_first_above(self):
        data = [1] * 10
        queries = [lambda d, k=k: float(sum(d) - 100 + 95 * (k == 3)) for k in range(6)]
        # Query 3 evaluates to 5, others to -90; with high epsilon it wins.
        index = above_threshold(data, queries, threshold=0.0, epsilon=50.0,
                                random_state=0)
        assert index == 3

    def test_returns_none_when_all_far_below(self):
        data = [0]
        queries = [lambda d: -1_000.0 for _ in range(10)]
        assert above_threshold(
            data, queries, threshold=0.0, epsilon=10.0, random_state=1
        ) is None
