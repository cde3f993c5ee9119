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


def _best_of_interleaved(first, second, repeats=7):
    """Best times of two callables timed in alternation, so a machine
    that slows down for a while slows both sides of a ratio alike."""
    best_first = best_second = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        first()
        best_first = min(best_first, time.perf_counter() - start)
        start = time.perf_counter()
        second()
        best_second = min(best_second, time.perf_counter() - start)
    return best_first, best_second


# ``SparseVector.release_many`` lands about 12-14x ahead of the serial
# loop at the audit shape; the floor sits above half of that, so a kernel
# made 2x slower fails it.
MIN_SPARSE_VECTOR_SPEEDUP = 8.0


def test_sparse_vector_release_many_is_at_least_8x_faster(benchmark):
    """``SparseVector.release_many`` walks one block of Laplace draws with
    each query evaluated once, where the serial loop restarts the
    mechanism and re-evaluates every query per release. Timed at the
    ``sparse-vector`` audit shape: two queries, one positive, 12,000
    releases."""
    from repro.testing import build_audit

    prepared = build_audit("sparse-vector")
    mechanism, dataset = prepared.mechanism, prepared.pair.a
    rng = np.random.default_rng(0)

    def batch():
        mechanism.release_many(dataset, AUDIT_DRAWS, random_state=rng)

    def serial():
        for _ in range(SERIAL_DRAWS):
            mechanism.release(dataset, random_state=rng)

    benchmark.pedantic(batch, rounds=3, iterations=1)
    batch_seconds, serial_seconds = _best_of_interleaved(batch, serial)
    serial_seconds *= AUDIT_DRAWS / SERIAL_DRAWS

    speedup = serial_seconds / batch_seconds
    assert speedup >= MIN_SPARSE_VECTOR_SPEEDUP, (
        f"sparse-vector: batch {batch_seconds * 1e3:.2f}ms vs projected "
        f"serial {serial_seconds * 1e3:.1f}ms for {AUDIT_DRAWS} releases — "
        f"only {speedup:.1f}x, need >= {MIN_SPARSE_VECTOR_SPEEDUP}x"
    )


# The fused MALA target beats the two-callable form it replaced by about
# 1.3x at the audit shape (one margin contraction and one base-loss pass
# fewer per proposal); the floor is 80% of that, so a target made 2x
# slower fails it.
MIN_FUSED_SPEEDUP = 1.05


def _two_callable_target(mechanism, x, y):
    """The separate log-density and gradient the fused target replaced:
    each recomputes the margins, and the truncated derivative re-runs the
    base loss to find the clipped region."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    temperature = mechanism.temperature_for(n) * mechanism._temperature_scale
    z = y[:, None] * x
    loss = mechanism.loss
    regularization = mechanism.regularization

    def log_density(theta):
        margins = np.einsum("md,nd->mn", theta, z)
        risks = loss.value(margins).mean(axis=1)
        squared_norms = (theta * theta).sum(axis=1)
        return -temperature * (risks + 0.5 * regularization * squared_norms)

    def grad_log_density(theta):
        margins = np.einsum("md,nd->mn", theta, z)
        raw = loss.base.value(margins)
        weights = np.where(
            raw >= loss.ceiling, 0.0, loss.base.derivative(margins)
        )
        risk_grad = np.einsum("mn,nd->md", weights, z) / n
        return -temperature * (risk_grad + regularization * theta)

    return log_density, grad_log_density


def test_fused_langevin_target_beats_two_callables(benchmark):
    """The ``langevin`` audit shape: 12,000 chains at d = 2 over 3 records.
    The fused target must equal the two-callable reference bit for bit
    and beat it by ``MIN_FUSED_SPEEDUP``."""
    from repro.testing import build_audit

    prepared = build_audit("langevin")
    mechanism = prepared.mechanism
    x, y = prepared.pair.a
    fused = mechanism._posterior_sampler(x, y).log_density_and_grad
    log_density, grad_log_density = _two_callable_target(mechanism, x, y)
    theta = np.random.default_rng(4).normal(scale=0.5, size=(AUDIT_DRAWS, 2))

    value, grad = fused(theta)
    assert np.array_equal(value, log_density(theta))
    assert np.array_equal(grad, grad_log_density(theta))

    evaluations = 20

    def run_fused():
        for _ in range(evaluations):
            fused(theta)

    def run_reference():
        for _ in range(evaluations):
            log_density(theta)
            grad_log_density(theta)

    benchmark.pedantic(run_fused, rounds=3, iterations=1)
    fused_seconds, reference_seconds = _best_of_interleaved(
        run_fused, run_reference
    )

    speedup = reference_seconds / fused_seconds
    assert speedup >= MIN_FUSED_SPEEDUP, (
        f"fused MALA target: {fused_seconds / evaluations * 1e3:.2f}ms vs "
        f"two callables {reference_seconds / evaluations * 1e3:.2f}ms per "
        f"evaluation — only {speedup:.2f}x, need >= {MIN_FUSED_SPEEDUP}x"
    )
