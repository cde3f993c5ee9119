"""Speedup smoke: vectorized ``release_many`` kernels beat the serial loop.

The CI acceptance bar is a >= 5x advantage at n = 50,000 draws; the
kernels actually land around 100x (Laplace) to 500x (exponential), so the
margin here is wide enough to survive shared-runner noise. Serial cost is
measured over a smaller draw count and scaled linearly — release() cost
is draw-count-independent — to keep the smoke fast. The pytest-benchmark
fixture times the batch path so the absolute kernel throughput shows up
in the benchmark table alongside the asserted ratio.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.learning import TwoGaussiansTask
from repro.learning.losses import LogisticLoss, TruncatedLoss
from repro.mechanisms import GaussianMechanism, LaplaceMechanism
from repro.mechanisms.exponential import ExponentialMechanism
from repro.private_learning import RegularizedExponentialMechanism

BATCH_DRAWS = 50_000
SERIAL_DRAWS = 2_000
MIN_SPEEDUP = 5.0


def _case(name):
    if name == "laplace":
        mechanism = LaplaceMechanism(
            lambda d: float(np.sum(d)), sensitivity=1.0, epsilon=1.0
        )
    elif name == "gaussian":
        mechanism = GaussianMechanism(
            lambda d: float(np.sum(d)), 1.0, 1.0, 1e-6
        )
    else:
        mechanism = ExponentialMechanism(
            lambda d, u: -abs(sum(d) - u),
            outputs=range(16),
            sensitivity=1.0,
            epsilon=1.0,
        )
    return mechanism, [0.1, 0.5, 0.9]


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("name", ["laplace", "gaussian", "exponential"])
def test_release_many_is_at_least_5x_faster(benchmark, name):
    mechanism, dataset = _case(name)
    rng = np.random.default_rng(0)

    benchmark.pedantic(
        lambda: mechanism.release_many(dataset, BATCH_DRAWS, random_state=rng),
        rounds=3,
        iterations=1,
    )
    batch_seconds = _best_of(
        lambda: mechanism.release_many(dataset, BATCH_DRAWS, random_state=rng)
    )

    def serial():
        for _ in range(SERIAL_DRAWS):
            mechanism.release(dataset, random_state=rng)

    serial_seconds = _best_of(serial) * (BATCH_DRAWS / SERIAL_DRAWS)

    speedup = serial_seconds / batch_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"{name}: batch {batch_seconds * 1e3:.2f}ms vs projected serial "
        f"{serial_seconds * 1e3:.1f}ms for {BATCH_DRAWS} draws — only "
        f"{speedup:.1f}x, need >= {MIN_SPEEDUP}x"
    )


def test_langevin_batched_chains_at_least_5x_faster(benchmark):
    """ISSUE 8 acceptance bar: at d >= 16 the lock-step chain batch must
    beat an equivalent per-chain Python loop by >= 5x (it lands ~15-25x on
    a quiet machine; each serial draw pays `steps` Python-level MALA
    iterations that the batch amortizes across all chains)."""
    chain_batch = 256
    serial_chains = 16
    mean = np.zeros(16)
    mean[0], mean[1] = 1.38, 0.58
    task = TwoGaussiansTask(mean, clip_features=True)
    dataset = task.sample(50, random_state=7)
    mechanism = RegularizedExponentialMechanism(
        TruncatedLoss(LogisticLoss(), ceiling=2.0), 0.05, 1.0, steps=60
    )
    rng = np.random.default_rng(0)

    benchmark.pedantic(
        lambda: mechanism.release_many(dataset, chain_batch, random_state=rng),
        rounds=3,
        iterations=1,
    )
    batch_seconds = _best_of(
        lambda: mechanism.release_many(dataset, chain_batch, random_state=rng)
    )

    def serial():
        for _ in range(serial_chains):
            mechanism.release(dataset, random_state=rng)

    serial_seconds = _best_of(serial) * (chain_batch / serial_chains)

    speedup = serial_seconds / batch_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"langevin: batch {batch_seconds * 1e3:.1f}ms vs projected serial "
        f"{serial_seconds * 1e3:.1f}ms for {chain_batch} chains — only "
        f"{speedup:.1f}x, need >= {MIN_SPEEDUP}x"
    )


def _local_case(name):
    from repro.local_privacy import (
        KRandomizedResponse,
        L2SamplingMechanism,
        LInfSamplingMechanism,
    )

    if name == "k-rr":
        mechanism = KRandomizedResponse(["a", "b", "c", "d"], epsilon=1.0)
        records = ["a", "b", "c", "d"] * (BATCH_DRAWS // 4)
        return mechanism, records
    rng = np.random.default_rng(11)
    d = 8
    matrix = rng.uniform(-1.0, 1.0, size=(BATCH_DRAWS, d))
    if name == "l2-sampling":
        mechanism = L2SamplingMechanism(d, epsilon=1.0)
        norms = np.sqrt((matrix * matrix).sum(axis=1, keepdims=True))
        matrix = matrix / np.maximum(norms, 1.0)
    else:
        mechanism = LInfSamplingMechanism(d, epsilon=1.0)
    return mechanism, matrix


@pytest.mark.parametrize("name", ["k-rr", "l2-sampling", "linf-sampling"])
def test_privatize_many_is_at_least_5x_faster(benchmark, name):
    """ISSUE 10 acceptance bar: the local-model batch kernels must beat
    per-record privatize() by >= 5x at n = 50,000 (they land 1-2 orders
    of magnitude higher; the serial path pays Python dispatch and
    validation per record that the block draw amortizes)."""
    mechanism, records = _local_case(name)
    rng = np.random.default_rng(0)

    benchmark.pedantic(
        lambda: mechanism.privatize_many(records, random_state=rng),
        rounds=3,
        iterations=1,
    )
    batch_seconds = _best_of(
        lambda: mechanism.privatize_many(records, random_state=rng)
    )

    def serial():
        for record in records[:SERIAL_DRAWS]:
            mechanism.privatize(record, random_state=rng)

    serial_seconds = _best_of(serial) * (BATCH_DRAWS / SERIAL_DRAWS)

    speedup = serial_seconds / batch_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"{name}: batch {batch_seconds * 1e3:.2f}ms vs projected serial "
        f"{serial_seconds * 1e3:.1f}ms for {BATCH_DRAWS} records — only "
        f"{speedup:.1f}x, need >= {MIN_SPEEDUP}x"
    )


AUDIT_DRAWS = 12_000


def _audit_shape_case(name):
    """The ``local`` / ``local-sampling`` audit shape: one client record,
    released ``AUDIT_DRAWS`` times."""
    from repro.local_privacy import (
        KRandomizedResponse,
        L2SamplingMechanism,
        LInfSamplingMechanism,
        UnaryEncoding,
    )

    categories = ["a", "b", "c", "d"]
    if name == "k-rr":
        return KRandomizedResponse(categories, epsilon=1.0), ["a"]
    if name == "unary-encoding":
        return UnaryEncoding(categories, epsilon=1.0), ["a"]
    if name == "l2-sampling":
        return L2SamplingMechanism(3, epsilon=1.0), np.array([[1.0, 0.0, 0.0]])
    return LInfSamplingMechanism(3, epsilon=1.0), np.array([[1.0, 0.0, 0.0]])


@pytest.mark.parametrize(
    "name", ["k-rr", "unary-encoding", "l2-sampling", "linf-sampling"]
)
def test_local_release_many_is_at_least_5x_faster(benchmark, name):
    """``LocalMechanism.release_many`` privatizes the tiled dataset in one
    ``_privatize_many`` block instead of looping ``release`` per draw; at
    audit shape it lands about 30x (k-RR, unary encoding) to 200x (the
    sampling channels) ahead."""
    mechanism, dataset = _audit_shape_case(name)
    rng = np.random.default_rng(0)

    benchmark.pedantic(
        lambda: mechanism.release_many(dataset, AUDIT_DRAWS, random_state=rng),
        rounds=3,
        iterations=1,
    )
    batch_seconds = _best_of(
        lambda: mechanism.release_many(dataset, AUDIT_DRAWS, random_state=rng)
    )

    def serial():
        for _ in range(SERIAL_DRAWS):
            mechanism.release(dataset, random_state=rng)

    serial_seconds = _best_of(serial) * (AUDIT_DRAWS / SERIAL_DRAWS)

    speedup = serial_seconds / batch_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"{name}: batch {batch_seconds * 1e3:.2f}ms vs projected serial "
        f"{serial_seconds * 1e3:.1f}ms for {AUDIT_DRAWS} releases — only "
        f"{speedup:.1f}x, need >= {MIN_SPEEDUP}x"
    )


@pytest.mark.parametrize("name", ["k-rr", "l2-sampling", "linf-sampling"])
def test_privatize_many_bit_identical_to_serial(name):
    """Stream equivalence at the acceptance scale: one shared Generator,
    batch vs per-record, byte-for-byte equal reports (spot-checked on a
    slice so the serial loop stays cheap)."""
    mechanism, records = _local_case(name)
    n = 400
    subset = records[:n]
    batch_rng = np.random.default_rng(123)
    serial_rng = np.random.default_rng(123)
    batch = mechanism.privatize_many(subset, random_state=batch_rng)
    serial = [
        mechanism.privatize(record, random_state=serial_rng)
        for record in subset
    ]
    for got, expected in zip(batch, serial):
        np.testing.assert_array_equal(got, expected)
    assert batch_rng.uniform() == serial_rng.uniform()
