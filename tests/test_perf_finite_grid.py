"""Speedup floors for the finite-grid risk path.

Both floors are in-process ratios against a per-record reference kept in
this file, so they hold on any machine:

* ``PredictorGrid.empirical_risks`` makes one loss call per grid point over
  the stacked sample; at E16's shape (41 thresholds × 3200 records) it must
  beat the per-record loop by >= 20x (it lands two orders of magnitude
  higher). The serial cost is measured on a tenth of the records and scaled
  linearly, since the loop's cost is linear in the record count.
* ``binary_kl_inverse`` validates p once and bisects on the bare KL formula;
  it must beat the bisection over the fully validated ``kl_divergence`` by
  >= 2x (it lands around 3.5x).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.information import binary_kl_inverse
from repro.learning import GaussianThresholdTask, PredictorGrid
from tests.test_information_divergences import reference_binary_kl_inverse

GRID_SIZE = 41
RECORDS = 3200
SERIAL_RECORDS = 320
MIN_RISK_SPEEDUP = 20.0
MIN_INVERSE_SPEEDUP = 2.0


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _e16_instance():
    task = GaussianThresholdTask(mu=1.0, sigma=1.0)
    x, y = task.sample(RECORDS, random_state=RECORDS)
    grid = PredictorGrid(
        np.linspace(-2.0, 2.0, GRID_SIZE),
        lambda t, z: task.zero_one_loss(t, z[:, 0], z[:, 1]),
        loss_bounds=(0.0, 1.0),
    )
    return task, grid, list(zip(x, y))


def test_empirical_risks_at_least_20x_faster_than_per_record_loop(benchmark):
    task, grid, sample = _e16_instance()

    def per_record_loss(theta, z):
        return float(task.zero_one_loss(theta, [z[0]], [z[1]])[0])

    def serial():
        total = np.zeros(len(grid.thetas))
        for z in sample[:SERIAL_RECORDS]:
            total += [per_record_loss(theta, z) for theta in grid.thetas]
        return total

    benchmark.pedantic(
        lambda: grid.empirical_risks(sample), rounds=3, iterations=1
    )
    batch_seconds = _best_of(lambda: grid.empirical_risks(sample))
    serial_seconds = _best_of(serial) * (RECORDS / SERIAL_RECORDS)

    speedup = serial_seconds / batch_seconds
    assert speedup >= MIN_RISK_SPEEDUP, (
        f"empirical_risks: batch {batch_seconds * 1e3:.2f}ms vs projected "
        f"per-record loop {serial_seconds * 1e3:.1f}ms at {GRID_SIZE}x{RECORDS}"
        f" — only {speedup:.1f}x, need >= {MIN_RISK_SPEEDUP}x"
    )


INVERSE_CASES = [(p, 0.02) for p in (0.0, 0.05, 0.1, 0.2, 0.3, 0.45)]


def test_binary_kl_inverse_at_least_2x_faster_than_validated_bisection(
    benchmark,
):
    def fast():
        return [binary_kl_inverse(p, budget) for p, budget in INVERSE_CASES]

    def reference():
        return [
            reference_binary_kl_inverse(p, budget) for p, budget in INVERSE_CASES
        ]

    assert fast() == reference()
    benchmark.pedantic(fast, rounds=3, iterations=1)
    fast_seconds = _best_of(fast)
    reference_seconds = _best_of(reference)

    speedup = reference_seconds / fast_seconds
    assert speedup >= MIN_INVERSE_SPEEDUP, (
        f"binary_kl_inverse: {fast_seconds * 1e3:.2f}ms vs validated "
        f"bisection {reference_seconds * 1e3:.2f}ms — only {speedup:.1f}x, "
        f"need >= {MIN_INVERSE_SPEEDUP}x"
    )
