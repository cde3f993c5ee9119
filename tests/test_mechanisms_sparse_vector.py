"""Unit tests for the sparse vector technique."""

import numpy as np
import pytest

from repro.exceptions import PrivacyBudgetError, ValidationError
from repro.mechanisms import SparseVector, above_threshold
from repro.mechanisms import sparse_vector as sparse_vector_module
from repro.observability import tracing


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


def _five_query_case():
    """``max_positives=2`` over five queries whose true answers straddle
    the threshold, so releases halt after two, three, four or five
    answers, or answer all five without halting."""
    mechanism = SparseVector(0.5, 1.0, 2.0, max_positives=2)
    offsets = (-3.0, 0.0, 1.0, -1.5, 4.0)
    queries = tuple(
        (lambda data, k=k: float(sum(data)) + k) for k in offsets
    )
    return mechanism, ([0, 1, 0], queries)


def _state(mechanism):
    return (
        mechanism.halted,
        mechanism._positives_used,
        mechanism._noisy_threshold,
    )


class TestSparseVectorBatch:
    """``release_many`` walks standard Laplace blocks and must equal the
    serial loop in outputs, generator position and final mechanism
    state."""

    @pytest.mark.parametrize("n", [1, 7, 500])
    def test_batch_equals_sequential_with_state(self, n):
        mechanism, dataset = _five_query_case()
        batch_rng = np.random.default_rng(2026 + n)
        batch = mechanism.release_many(dataset, n, random_state=batch_rng)
        batch_state = _state(mechanism)
        assert mechanism._rng is batch_rng
        rng = np.random.default_rng(2026 + n)
        serial = [mechanism.release(dataset, random_state=rng) for _ in range(n)]
        assert batch == serial
        assert batch_state == _state(mechanism)
        assert batch_rng.uniform() == rng.uniform()
        if n == 500:
            # The case exercises halting and non-halting releases alike.
            lengths = {len(answers) for answers in serial}
            assert {2, 5} <= lengths and len(lengths) >= 3

    def test_small_noise_blocks_stay_bit_identical(self, monkeypatch):
        # Seven draws per block: the walk crosses a block boundary inside
        # most releases.
        monkeypatch.setattr(sparse_vector_module, "_NOISE_BLOCK", 7)
        mechanism, dataset = _five_query_case()
        batch_rng = np.random.default_rng(99)
        batch = mechanism.release_many(dataset, 300, random_state=batch_rng)
        batch_state = _state(mechanism)
        rng = np.random.default_rng(99)
        serial = [
            mechanism.release(dataset, random_state=rng) for _ in range(300)
        ]
        assert batch == serial
        assert batch_state == _state(mechanism)
        assert batch_rng.uniform() == rng.uniform()

    def test_long_stream_that_halts_early_draws_little(self, monkeypatch):
        # Ten thousand queries, the first of which always fires: a release
        # uses two draws, so the batch may draw one block beyond them, not
        # n·(1 + len(queries)).
        sizes = []
        standard = sparse_vector_module._STANDARD_LAPLACE

        class CountingLaplace:
            def sample(self, size, random_state):
                sizes.append(size)
                return standard.sample(size=size, random_state=random_state)

        monkeypatch.setattr(sparse_vector_module, "_NOISE_BLOCK", 64)
        monkeypatch.setattr(
            sparse_vector_module, "_STANDARD_LAPLACE", CountingLaplace()
        )
        mechanism = SparseVector(-1e9, 1.0, 1.0)
        dataset = ([1], tuple(lambda data: 0.0 for _ in range(10_000)))
        batch_rng = np.random.default_rng(6)
        batch = mechanism.release_many(dataset, 200, random_state=batch_rng)
        assert batch == [[True]] * 200
        *blocks, redraw = sizes
        assert redraw == 400 and 400 <= sum(blocks) < 400 + 64
        rng = np.random.default_rng(6)
        for _ in range(200):
            mechanism.release(dataset, random_state=rng)
        assert batch_rng.uniform() == rng.uniform()

    @pytest.mark.parametrize("scale", [1e-300, 0.25, 1.0, 3.0, 16.0, 1e300])
    def test_scaled_standard_laplace_is_bit_identical(self, scale):
        # The kernel's premise: numpy draws one double per Laplace value
        # whatever the scale, and 0 + s·L == s·L.
        k = 20_000
        standard = np.random.default_rng(5).laplace(0.0, 1.0, k)
        scaled = np.random.default_rng(5).laplace(0.0, scale, k)
        assert np.array_equal(scale * standard, scaled)
        as_floats = [scale * value for value in standard.tolist()]
        assert as_floats == scaled.tolist()

    def test_batch_evaluates_each_query_once(self):
        calls = [0] * 5

        def counting(k):
            def query(data):
                calls[k] += 1
                return float(sum(data))

            return query

        # A threshold no noisy answer reaches: every release answers all
        # five queries, and the serial loop evaluates each one n times.
        mechanism = SparseVector(1e9, 1.0, 1.0, max_positives=2)
        dataset = ([1, 2], tuple(counting(k) for k in range(5)))
        mechanism.release_many(dataset, 400, random_state=0)
        assert calls == [1] * 5
        rng = np.random.default_rng(0)
        for _ in range(3):
            mechanism.release(dataset, random_state=rng)
        assert calls == [4] * 5

    def test_unreached_query_is_never_evaluated(self):
        def unreachable(data):
            raise AssertionError("evaluated a query past the halt")

        mechanism = SparseVector(-1e9, 1.0, 1.0, max_positives=1)
        dataset = ([1], (lambda data: 0.0, unreachable))
        answers = mechanism.release_many(dataset, 50, random_state=1)
        assert answers == [[True]] * 50

    def test_raising_query_leaves_generator_and_ledger_as_serial(self):
        # The first query fires about half the time; the second raises,
        # so the batch fails at the first release that reaches it, with
        # the releases before it completed, like the serial loop.
        def failing(data):
            raise RuntimeError("query failed")

        mechanism = SparseVector(0.0, 1.0, 1.0, max_positives=1)
        dataset = ([0], (lambda data: 0.0, failing))
        batch_rng = np.random.default_rng(8)
        with tracing() as tracer:
            with pytest.raises(RuntimeError, match="query failed"):
                mechanism.release_many(dataset, 40, random_state=batch_rng)
        batch_state = _state(mechanism)
        rng = np.random.default_rng(8)
        completed = 0
        with pytest.raises(RuntimeError, match="query failed"):
            for _ in range(40):
                mechanism.release(dataset, random_state=rng)
                completed += 1
        assert completed > 0
        assert [event.count for event in tracer.events] == [completed]
        assert batch_state == _state(mechanism)
        assert batch_rng.uniform() == rng.uniform()
