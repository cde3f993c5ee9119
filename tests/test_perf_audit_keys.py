"""Speed floor: array-native audit keys and counts against per-sample ones.

``repro.testing.audit`` keys a whole batch at once and counts events with
``np.unique`` and ``np.bincount``; before, it keyed every output with a
Python call and counted with ``Counter`` and one membership test per
output and event. This times both paths on the same recorded batches of
every audit family (seed 0, 12 000 samples per side): ``_draw_outputs``
with a sampler that hands back the recorded batch, then
``estimate_epsilon_lower_bound``, against the verbatim per-sample copies
in ``tests/test_audit_keys_equivalence.py``. It takes the median of 7
back-to-back pair ratios whose first run alternates, and requires equal
estimates from both.
"""

from __future__ import annotations

from repro.testing import AUDIT_FAMILIES, build_audit, derive_seed
from repro.testing.audit import _draw_outputs, estimate_epsilon_lower_bound
from repro.utils.validation import check_random_state
from tests.test_audit_keys_equivalence import (
    REFERENCE_KEYS,
    SAMPLES,
    record_batches,
    reference_draw_outputs,
    reference_estimate_epsilon_lower_bound,
)
from tests.test_perf_release_many import _median_pair_ratio

# On a 2-vCPU host the median pair ratio lands at 6.4-8.9x. The new path
# run twice per timing (2x slower) reads 3.4-4.1x, so the floor sits
# between the two.
MIN_KEYS_SPEEDUP = 5.0


def _recorded_cases() -> list:
    """Per family: its name, the prepared audit and both recorded batches."""
    cases = []
    for family in AUDIT_FAMILIES:
        prepared = build_audit(family)
        calls = record_batches(prepared.mechanism)
        rng = check_random_state(derive_seed(family, base_seed=0))
        for dataset in (prepared.pair.a, prepared.pair.b):
            prepared.mechanism.release_many(dataset, SAMPLES, random_state=rng)
        batches = [call[-1] for call in calls]
        cases.append((family, prepared, batches))
    return cases


def _key_and_estimate(cases, draw, estimate, key_of) -> list:
    estimates = []
    for family, prepared, batches in cases:
        keys = [
            draw(prepared.mechanism, dataset, SAMPLES, None,
                 lambda _dataset, _size, _rng, batch=batch: batch, key_of(family, prepared))
            for dataset, batch in zip((prepared.pair.a, prepared.pair.b), batches)
        ]
        estimates.append(estimate(*keys, kind=prepared.kind))
    return estimates


def test_audit_keys_and_counts_beat_the_per_sample_path():
    cases = _recorded_cases()
    estimates = {}

    def fast():
        estimates["fast"] = _key_and_estimate(
            cases, _draw_outputs, estimate_epsilon_lower_bound,
            lambda family, prepared: prepared.output_key,
        )

    def reference():
        estimates["reference"] = _key_and_estimate(
            cases, reference_draw_outputs, reference_estimate_epsilon_lower_bound,
            lambda family, prepared: REFERENCE_KEYS[family],
        )

    speedup = _median_pair_ratio(fast, reference, pairs=7)

    assert estimates["fast"] == estimates["reference"]
    assert speedup >= MIN_KEYS_SPEEDUP, (
        f"audit keys and estimates of {len(cases)} families: median pair "
        f"ratio against the per-sample path only {speedup:.2f}x, need >= "
        f"{MIN_KEYS_SPEEDUP}x"
    )
