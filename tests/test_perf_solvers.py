"""Speed floors: the sweep's validated-once solver loops beat the old ones.

``locally_private_median`` draws one uniform block, privatizes both
gradient signs in two kernel passes and runs its SGD recursion on Python
floats, where the old loop called ``privatize`` (a validated ±1 vector and
a ``uniform(size=4)`` draw) once per record. ``channel_capacity``
validates its rows once and iterates under one ``np.errstate`` on bare
``np.log`` and an inline log-sum-exp, where the old loop opened four
``errstate`` contexts per iteration. Each is timed against its verbatim
old copy in ``tests/test_solver_equivalence.py``, in alternation.
"""

from __future__ import annotations

import numpy as np

from repro.information import channel_capacity
from repro.local_privacy import locally_private_median
from tests.test_perf_release_many import _best_of_interleaved
from tests.test_solver_equivalence import (
    e9_channels,
    reference_channel_capacity,
    reference_locally_private_median,
)

# The median lands about 85-105x ahead of the per-record ``privatize``
# loop at E19's size (3000 records). The floor sits above half of that,
# so a median made 2x slower fails it.
MIN_MEDIAN_SPEEDUP = 60.0
MEDIAN_RECORDS = 3_000

# Blahut–Arimoto capacity lands about 2.1x ahead of the old loop on E9's
# seven Gibbs channels (4 x 5, 30 to 10,000 iterations each); the floor
# sits above half of that.
MIN_CAPACITY_SPEEDUP = 1.5


def test_private_median_is_at_least_60x_faster(benchmark):
    values = np.random.default_rng(0).uniform(-0.6, 0.8, size=MEDIAN_RECORDS)

    def fast():
        locally_private_median(values, 1.0, random_state=1)

    def reference():
        reference_locally_private_median(values, 1.0, random_state=1)

    benchmark.pedantic(fast, rounds=3, iterations=1)
    fast_seconds, reference_seconds = _best_of_interleaved(
        fast, reference, repeats=15
    )

    speedup = reference_seconds / fast_seconds
    assert speedup >= MIN_MEDIAN_SPEEDUP, (
        f"locally_private_median: {fast_seconds * 1e3:.2f}ms vs the "
        f"per-record loop's {reference_seconds * 1e3:.1f}ms for "
        f"{MEDIAN_RECORDS} records — only {speedup:.1f}x, need >= "
        f"{MIN_MEDIAN_SPEEDUP}x"
    )


def test_channel_capacity_is_at_least_1_5x_faster(benchmark):
    channels = e9_channels()

    def fast():
        for matrix in channels:
            channel_capacity(matrix)

    def reference():
        for matrix in channels:
            reference_channel_capacity(matrix)

    benchmark.pedantic(fast, rounds=1, iterations=1)
    fast_seconds, reference_seconds = _best_of_interleaved(
        fast, reference, repeats=3
    )

    speedup = reference_seconds / fast_seconds
    assert speedup >= MIN_CAPACITY_SPEEDUP, (
        f"channel_capacity: {fast_seconds * 1e3:.0f}ms vs the old loop's "
        f"{reference_seconds * 1e3:.0f}ms on E9's channels — only "
        f"{speedup:.2f}x, need >= {MIN_CAPACITY_SPEEDUP}x"
    )
