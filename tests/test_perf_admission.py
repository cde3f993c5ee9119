"""Speed floor: a ``PrivacySpec`` of two valid floats is built cheaply.

Every request the serving front door admits builds or reuses a
``PrivacySpec``, and every charge builds another through ``compose``. The
``float`` fast path of ``check_positive``/``check_in_range`` skips the
``numbers.Real`` ABC check that used to dominate that construction. This
times ``PrivacySpec(0.05, 0.0)`` against the same dataclass validated
through the ABC-path validators kept in ``tests/test_utils_validation.py``.
The fast path lands about 4.5x ahead; the floor is 3x, so a construction
made 2x slower fails it.
"""

from __future__ import annotations

from repro.mechanisms import PrivacySpec
from tests.test_perf_release_many import _best_of_interleaved
from tests.test_utils_validation import (
    reference_check_in_range,
    reference_check_positive,
)

MIN_ADMISSION_SPEEDUP = 3.0
CONSTRUCTIONS = 20_000


class _ReferenceSpec(PrivacySpec):
    """``PrivacySpec`` validated through the ABC-path validators."""

    def __post_init__(self) -> None:
        reference_check_positive(self.epsilon, name="epsilon")
        reference_check_in_range(self.delta, name="delta", low=0.0, high=1.0)


def test_privacy_spec_construction_is_at_least_3x_faster(benchmark):
    def build(cls):
        def run():
            for _ in range(CONSTRUCTIONS):
                cls(0.05, 0.0)
        return run

    fast, reference = build(PrivacySpec), build(_ReferenceSpec)

    benchmark.pedantic(fast, rounds=3, iterations=1)
    fast_seconds, reference_seconds = _best_of_interleaved(fast, reference)

    speedup = reference_seconds / fast_seconds
    assert speedup >= MIN_ADMISSION_SPEEDUP, (
        f"PrivacySpec: {fast_seconds / CONSTRUCTIONS * 1e6:.2f}us vs ABC "
        f"path {reference_seconds / CONSTRUCTIONS * 1e6:.2f}us per "
        f"construction — only {speedup:.2f}x, need >= "
        f"{MIN_ADMISSION_SPEEDUP}x"
    )
