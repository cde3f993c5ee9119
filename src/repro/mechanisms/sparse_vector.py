"""The sparse vector technique (AboveThreshold).

Answers a long adaptive stream of threshold queries while paying privacy
only for the (few) queries that exceed the threshold: noise the threshold
once with ``Lap(2c/ε₁)``, noise each query with ``Lap(4c/ε₂)``, report
only above/below, and halt after ``c`` aboves. The total guarantee is
``ε₁ + ε₂`` regardless of how many below-threshold queries were answered
— the canonical example of privacy accounting that basic composition
cannot capture.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence

import numpy as np

from repro.distributions.continuous import LaplaceNoise
from repro.exceptions import PrivacyBudgetError, ValidationError
from repro.mechanisms.base import Mechanism, PrivacySpec
from repro.utils.validation import check_positive, check_random_state

# Most standard Laplace draws ``SparseVector.release_many`` holds at once.
_NOISE_BLOCK = 1 << 16
_STANDARD_LAPLACE = LaplaceNoise(scale=1.0)


class SparseVector(Mechanism):
    """AboveThreshold with a budget of ``max_positives`` discoveries.

    Parameters
    ----------
    threshold:
        The public threshold T.
    sensitivity:
        Global sensitivity of every query in the stream (commonly 1).
    epsilon:
        Total privacy budget; split half on the threshold noise, half on
        the query noise (the standard allocation).
    max_positives:
        Number of above-threshold answers allowed before the mechanism
        halts (the ``c`` in the classical analysis).

    Notes
    -----
    ``release_many((data, queries), n)`` evaluates each query at most
    once per batch, not once per release, so its queries must be *pure*:
    ``query(data)`` returns the same value every time and has no side
    effects. Within that contract the batch is bit-identical to ``n``
    sequential ``release`` calls, leaves the generator where they would,
    and leaves the mechanism's state (noisy threshold, positives used,
    halted) as the last of them would.
    """

    def __init__(
        self,
        threshold: float,
        sensitivity: float,
        epsilon: float,
        *,
        max_positives: int = 1,
    ) -> None:
        super().__init__(PrivacySpec(epsilon=epsilon))
        if max_positives < 1:
            raise ValidationError("max_positives must be >= 1")
        self.threshold = float(threshold)
        self.sensitivity = check_positive(sensitivity, name="sensitivity")
        self.max_positives = int(max_positives)
        epsilon_threshold = epsilon / 2.0
        epsilon_queries = epsilon / 2.0
        self._threshold_noise = LaplaceNoise(
            scale=2.0 * self.max_positives * self.sensitivity / epsilon_threshold
        )
        self._query_noise = LaplaceNoise(
            scale=4.0 * self.max_positives * self.sensitivity / epsilon_queries
        )
        self._noisy_threshold: float | None = None
        self._positives_used = 0
        self._halted = False

    # ------------------------------------------------------------------
    def start(self, random_state=None) -> "SparseVector":
        """Draw the (single) threshold noise and reset the counter."""
        rng = check_random_state(random_state)
        self._rng = rng
        self._noisy_threshold = self.threshold + float(
            self._threshold_noise.sample(random_state=rng)
        )
        self._positives_used = 0
        self._halted = False
        return self

    @property
    def halted(self) -> bool:
        """Whether the positives budget is exhausted."""
        return self._halted

    def query(self, value: float) -> bool:
        """Answer one threshold query: is ``value + noise`` ≥ T̂?

        ``value`` is the query's true answer on the private dataset; the
        caller computes it (this keeps the class agnostic of the dataset
        representation). Raises once the positives budget is exhausted.
        """
        if self._noisy_threshold is None:
            raise ValidationError("call start() before querying")
        if self._halted:
            raise PrivacyBudgetError(
                "SparseVector halted: positives budget exhausted"
            )
        noisy = float(value) + float(
            self._query_noise.sample(random_state=self._rng)
        )
        above = noisy >= self._noisy_threshold
        if above:
            self._positives_used += 1
            if self._positives_used >= self.max_positives:
                self._halted = True
        return bool(above)

    def release(self, dataset, random_state=None) -> list[bool]:
        """Batch interface: ``dataset`` is ``(data, queries)``; runs the
        stream until exhaustion or halt and returns the answer list."""
        data, queries = dataset
        self.start(random_state=random_state)
        answers: list[bool] = []
        for query_fn in queries:
            if self._halted:
                break
            answers.append(self.query(float(query_fn(data))))
        return answers

    def _release_many(self, dataset, n, rng) -> list[list[bool]]:
        """Batch kernel: standard Laplace blocks, walked in plain floats.

        A release consumes one threshold draw, then one draw per query
        answered until halt. The kernel saves the generator state, draws
        standard Laplace values in blocks of at most ``_NOISE_BLOCK`` as
        the walk needs them, and scales each by its noise scale
        (``s·Lap(0, 1)`` equals ``Lap(0, s)`` bit for bit: numpy draws one
        double per value whatever the scale, and ``0 + s·L == s·L``).
        Afterwards it restores the state and redraws exactly the values
        consumed, so the generator ends where ``n`` sequential releases
        leave it, and a long query stream that halts early never draws
        more than one block beyond what it uses. Each query is evaluated
        the first time a release reaches it (pure queries; see the class
        notes).
        """
        data, queries = dataset
        values: list[float | None] = [None] * len(queries)
        threshold_scale = self._threshold_noise.scale
        query_scale = self._query_noise.scale
        state = rng.bit_generator.state
        noise = itertools.chain.from_iterable(
            _standard_laplace_blocks(n * (1 + len(queries)), rng)
        )
        used = 0
        self._rng = rng

        def releases():
            nonlocal used
            for _ in range(n):
                noisy_threshold = self._noisy_threshold = (
                    self.threshold + threshold_scale * next(noise)
                )
                used += 1
                self._positives_used = 0
                self._halted = False
                answers = []
                for index, query_fn in enumerate(queries):
                    value = values[index]
                    if value is None:
                        value = values[index] = float(query_fn(data))
                    noisy = value + query_scale * next(noise)
                    used += 1
                    above = noisy >= noisy_threshold
                    answers.append(above)
                    if above:
                        self._positives_used += 1
                        if self._positives_used >= self.max_positives:
                            self._halted = True
                            break
                yield answers

        try:
            return self._collect_releases(releases())
        finally:
            rng.bit_generator.state = state
            _STANDARD_LAPLACE.sample(size=used, random_state=rng)


def _standard_laplace_blocks(total: int, rng: np.random.Generator):
    """``total`` standard Laplace draws from ``rng`` as lists of floats,
    ``_NOISE_BLOCK`` at a time, each drawn only when the last is spent."""
    while total > 0:
        size = min(total, _NOISE_BLOCK)
        total -= size
        yield _STANDARD_LAPLACE.sample(size=size, random_state=rng).tolist()


def above_threshold(
    data,
    queries: Sequence[Callable],
    threshold: float,
    epsilon: float,
    *,
    sensitivity: float = 1.0,
    random_state=None,
) -> int | None:
    """Convenience: index of the first query above ``threshold``, ε-DP.

    Returns None if no query fired before the stream ended.

    Parameters
    ----------
    data:
        Dataset every query is evaluated on.
    queries:
        Stream of callables ``query(data) -> float``.
    threshold:
        Public threshold the noisy answers are compared against.
    epsilon:
        Total privacy budget of the scan.
    sensitivity:
        Global sensitivity shared by all queries.
    random_state:
        Seed or Generator for the threshold and query noise.
    """
    epsilon = check_positive(epsilon, name="epsilon")
    sensitivity = check_positive(sensitivity, name="sensitivity")
    mechanism = SparseVector(threshold, sensitivity, epsilon, max_positives=1)
    mechanism.start(random_state=random_state)
    for index, query_fn in enumerate(queries):
        if mechanism.query(float(query_fn(data))):
            return index
    return None
