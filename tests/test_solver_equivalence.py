"""The validated-once solver loops equal the loops they replaced, bit for bit.

``check_probability_vector`` and ``mutual_information_from_joint`` compare
a float sum with ``abs(total - 1) <= PROBABILITY_SLACK`` instead of
``np.isclose``; ``channel_capacity`` and ``rate_distortion`` validate once
and iterate under one ``np.errstate``; ``locally_private_median`` draws one
uniform block and runs the SGD recursion on Python floats. The verbatim
copies of the old functions below are the reference: every input gives the
same ``repr`` of every result field, or the same exception type and
message. The copies keep the old code line for line (long docstrings are
cut to their first line) and call each other and the ``numerics``
helpers the old code called, never the new code.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, NotNormalizedError, ValidationError
from repro.information.blahut_arimoto import (
    BlahutArimotoResult,
    channel_capacity,
    rate_distortion,
)
from repro.information.mutual_information import mutual_information_from_joint
from repro.local_privacy import LInfSamplingMechanism, locally_private_median
from repro.observability import tracer as _trace
from repro.utils.numerics import logsumexp, stable_log, xlogx
from repro.utils.validation import (
    PROBABILITY_ATOL,
    PROBABILITY_SLACK,
    check_array,
    check_positive,
    check_probability_vector,
    check_random_state,
    check_row_stochastic,
)


def reference_check_probability_vector(
    value, *, name: str = "probabilities"
) -> np.ndarray:
    """Validate a 1-D nonnegative vector summing to one.

    Returns the validated vector renormalized exactly (dividing by its sum)
    so downstream exact computations do not accumulate the input's rounding
    slack.
    """
    arr = check_array(value, name=name, ndim=1)
    if np.any(arr < 0):
        raise ValidationError(f"{name} must be nonnegative")
    total = float(arr.sum())
    if not np.isclose(total, 1.0, atol=PROBABILITY_ATOL):
        raise NotNormalizedError(
            f"{name} must sum to 1 (got {total:.12g})"
        )
    return arr / total


def reference_mutual_information_from_joint(joint) -> float:
    """Exact ``I(X;Y)`` in nats from a joint PMF matrix (X rows, Y columns).

    Computed as ``H(X) + H(Y) - H(X,Y)``, which is exact and never negative
    beyond float rounding; tiny negative rounding residue is clipped to 0.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ValidationError("joint must be a 2-D matrix")
    if np.any(joint < 0):
        raise ValidationError("joint must be nonnegative")
    total = joint.sum()
    if not np.isclose(total, 1.0, atol=1e-8):
        raise ValidationError(f"joint must sum to 1 (got {total:.12g})")
    joint = joint / total
    h_x = -xlogx(joint.sum(axis=1)).sum()
    h_y = -xlogx(joint.sum(axis=0)).sum()
    h_xy = -xlogx(joint).sum()
    return float(max(h_x + h_y - h_xy, 0.0))


def reference_channel_capacity(
    channel_matrix,
    *,
    tol: float = 1e-10,
    max_iterations: int = 10_000,
) -> BlahutArimotoResult:
    """Capacity ``max_p I(X;Y)`` of a discrete channel by Blahut–Arimoto."""
    matrix = np.asarray(channel_matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError("channel_matrix must be 2-D")
    for row in matrix:
        reference_check_probability_vector(row, name="channel row")
    n_inputs = matrix.shape[0]

    log_matrix = stable_log(matrix)
    p = np.full(n_inputs, 1.0 / n_inputs)
    converged = False
    iterations = 0
    gap = np.inf
    for iterations in range(1, max_iterations + 1):
        output = p @ matrix
        log_output = stable_log(output)
        # D(row_x || output marginal) for every input x.
        with np.errstate(invalid="ignore"):
            contrib = matrix * (log_matrix - log_output[None, :])
        contrib = np.where(matrix > 0, contrib, 0.0)
        divergences = contrib.sum(axis=1)
        upper = float(divergences.max())
        lower = float(p @ divergences)
        gap = upper - lower
        if gap < tol:
            converged = True
            break
        log_p = stable_log(p) + divergences
        p = np.exp(log_p - logsumexp(log_p))

    tracer = _trace.current()
    if tracer is not None:
        tracer.observe("blahut_arimoto.iterations", iterations)

    joint = p[:, None] * matrix
    rate = reference_mutual_information_from_joint(joint)
    return BlahutArimotoResult(
        value=rate,
        channel_matrix=matrix,
        input_distribution=p,
        output_distribution=p @ matrix,
        rate=rate,
        distortion=0.0,
        iterations=iterations,
        converged=converged,
        final_gap=gap,
        monotone=True,
    )


def reference_rate_distortion(
    source,
    distortion_matrix,
    beta: float,
    *,
    tol: float = 1e-12,
    max_iterations: int = 20_000,
    initial_output=None,
    raise_on_failure: bool = False,
) -> BlahutArimotoResult:
    """Minimize ``I(X;Y) + beta * E[d(X,Y)]`` over channels ``P(y|x)``."""
    p = reference_check_probability_vector(source, name="source")
    d = np.asarray(distortion_matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != p.shape[0]:
        raise ValidationError(
            "distortion_matrix must be 2-D with one row per source symbol"
        )
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise ValidationError("distortion entries must be finite and >= 0")
    beta = check_positive(beta, name="beta")

    n_outputs = d.shape[1]
    if initial_output is None:
        q = np.full(n_outputs, 1.0 / n_outputs)
    else:
        q = reference_check_probability_vector(
            initial_output, name="initial_output"
        )
        if q.shape[0] != n_outputs:
            raise ValidationError("initial_output has the wrong length")
        if np.any(q == 0):
            raise ValidationError(
                "initial_output must be strictly positive everywhere"
            )

    previous_value = np.inf
    converged = False
    monotone = True
    iterations = 0
    gap = np.inf
    channel = np.empty_like(d)
    for iterations in range(1, max_iterations + 1):
        # Half-step 1: optimal channel for the current output marginal.
        log_weights = stable_log(q)[None, :] - beta * d
        log_norms = logsumexp(log_weights, axis=1)
        channel = np.exp(log_weights - log_norms[:, None])
        # Half-step 2: optimal output marginal for the current channel.
        q = p @ channel

        joint = p[:, None] * channel
        rate = reference_mutual_information_from_joint(joint)
        distortion = float((joint * d).sum())
        value = rate + beta * distortion
        gap = previous_value - value if np.isfinite(previous_value) else np.inf
        if gap < -tol:
            # The objective went UP by more than the tolerance. Each exact
            # half-step cannot increase the Lagrangian, so this is float
            # noise near a (near-)degenerate fixed point — not a certified
            # fixed point. Stop, but do not claim convergence.
            monotone = False
            break
        if gap < tol:
            converged = True
            break
        previous_value = value

    tracer = _trace.current()
    if tracer is not None:
        tracer.observe("blahut_arimoto.iterations", iterations)

    if not converged and raise_on_failure:
        reason = (
            f"objective increased by {-gap:.3e} at iteration {iterations}"
            if not monotone
            else f"did not converge in {max_iterations} iterations"
        )
        raise ConvergenceError(f"rate_distortion: {reason}")

    joint = p[:, None] * channel
    rate = reference_mutual_information_from_joint(joint)
    distortion = float((joint * d).sum())
    return BlahutArimotoResult(
        value=rate + beta * distortion,
        channel_matrix=channel,
        input_distribution=p,
        output_distribution=p @ channel,
        rate=rate,
        distortion=distortion,
        iterations=iterations,
        converged=converged,
        final_gap=float(gap) if np.isfinite(gap) else float("inf"),
        monotone=monotone,
    )


def reference_locally_private_median(
    records,
    epsilon: float,
    *,
    lower: float = -1.0,
    upper: float = 1.0,
    random_state=None,
) -> float:
    """One-pass locally-private median via privatized subgradient signs."""
    epsilon = check_positive(epsilon, name="epsilon")
    values = np.asarray(records, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValidationError("records must be a non-empty 1-d array")
    if not np.isfinite(values).all():
        raise ValidationError("records must be finite")
    if not (np.isfinite(lower) and np.isfinite(upper) and upper > lower):
        raise ValidationError("need finite bounds with upper > lower")
    if np.any(values < lower) or np.any(values > upper):
        raise ValidationError("records must lie inside [lower, upper]")
    rng = check_random_state(random_state)
    center = (upper + lower) / 2.0
    halfwidth = (upper - lower) / 2.0
    scaled = (values - center) / halfwidth
    mechanism = LInfSamplingMechanism(1, epsilon)
    # Gradients are ±1 and privatized reports ±B; the classic projected
    # SGD step scale for a radius-1 domain is 1/(B·√t).
    step_scale = 1.0 / mechanism.scale
    theta = 0.0
    average = 0.0
    for t, value in enumerate(scaled, start=1):
        gradient = 1.0 if theta >= value else -1.0
        report = mechanism.privatize(
            np.array([gradient]), random_state=rng
        )
        theta -= step_scale / np.sqrt(t) * float(report[0])
        theta = float(np.clip(theta, -1.0, 1.0))
        average += (theta - average) / t
    return center + halfwidth * average


def _bits(value):
    """A value down to its bits: ``repr`` of a scalar (type included),
    ``repr`` of an array's nested list plus its dtype and shape, and each
    field of a result dataclass in turn."""
    if isinstance(value, BlahutArimotoResult):
        return tuple(
            (field.name, _bits(getattr(value, field.name)))
            for field in fields(value)
        )
    if isinstance(value, np.ndarray):
        return ("array", str(value.dtype), value.shape, repr(value.tolist()))
    return (type(value).__name__, repr(value))


def _outcome(function, *args, **kwargs):
    """What a call gives: its result down to the bits, or the raised
    exception's type and message."""
    try:
        result = function(*args, **kwargs)
    except Exception as error:  # compared, never swallowed: see the tests
        return ("raised", type(error), str(error))
    return ("returned", _bits(result))


def _same(new, reference, *args, **kwargs):
    assert _outcome(new, *args, **kwargs) == _outcome(reference, *args, **kwargs)


def _random_channel(rng, rows, cols, zero_fraction=0.0):
    matrix = rng.dirichlet(np.ones(cols), size=rows)
    if zero_fraction:
        matrix = np.where(rng.uniform(size=matrix.shape) < zero_fraction, 0.0, matrix)
        matrix[:, 0] += 1.0 - matrix.sum(axis=1)
    return matrix


# Totals at the edge of the sum check: exactly on ``1 ± slack``, one ulp
# inside and one ulp outside it, plus the ``np.isclose`` atol alone.
_EDGE = 1.0 + PROBABILITY_SLACK
_EDGE_LOW = 1.0 - PROBABILITY_SLACK
SUM_EDGE_TOTALS = [
    1.0,
    _EDGE,
    math.nextafter(_EDGE, 0.0),
    math.nextafter(_EDGE, 2.0),
    _EDGE_LOW,
    math.nextafter(_EDGE_LOW, 2.0),
    math.nextafter(_EDGE_LOW, 0.0),
    1.0 + PROBABILITY_ATOL,
    1.0 - 2e-5,
    1.0 + 2e-5,
]

BAD_VECTORS = {
    "nan": [0.5, math.nan],
    "inf": [0.5, math.inf],
    "-inf": [1.5, -math.inf],
    "inf-minus-inf": [math.inf, -math.inf, 1.0],
    "negative": [1.2, -0.2],
    "negative-zero": [1.0, -0.0],
    "empty": [],
    "2-d": [[0.5, 0.5]],
    "short": [0.5, 0.4],
}


def _with_total(total, size=3):
    """A nonnegative vector whose float sum is exactly ``total``."""
    head = [0.25] * (size - 1)
    vector = head + [total - 0.25 * (size - 1)]
    assert sum(vector) == total and float(np.sum(vector)) == total
    return vector


class TestCheckProbabilityVector:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_vectors(self, seed):
        rng = np.random.default_rng(seed)
        vector = rng.dirichlet(np.ones(rng.integers(1, 40)))
        vector = vector * (1.0 + rng.normal(scale=1e-5))
        _same(check_probability_vector, reference_check_probability_vector, vector)

    @pytest.mark.parametrize("total", SUM_EDGE_TOTALS, ids=repr)
    def test_totals_at_the_edge(self, total):
        _same(
            check_probability_vector,
            reference_check_probability_vector,
            _with_total(total),
            name="p",
        )

    @pytest.mark.parametrize("case", sorted(BAD_VECTORS))
    def test_bad_vectors(self, case):
        _same(
            check_probability_vector,
            reference_check_probability_vector,
            BAD_VECTORS[case],
        )


def reference_row_loop(matrix, *, name="row"):
    """The per-row loop ``check_row_stochastic`` replaces."""
    for row in matrix:
        reference_check_probability_vector(row, name=name)
    return matrix


class TestCheckRowStochastic:
    """One vectorized pass raises what the first failing row's
    ``check_probability_vector`` call raised, and passes what the loop
    passed: its row totals are the 1-D sums of the rows, bit for bit."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_row_totals_equal_the_1d_sums(self, seed, order):
        rng = np.random.default_rng(seed)
        cols = int(rng.choice([1, 3, 7, 8, 9, 100, 9000, 20_000]))
        matrix = np.asarray(
            rng.uniform(size=(3, cols)) * (2.0 / cols), order=order
        )
        totals = np.ascontiguousarray(matrix).sum(axis=1)
        assert [float(t) for t in totals] == [float(r.sum()) for r in matrix]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 30, size=2)
        matrix = _random_channel(rng, rows, cols, zero_fraction=0.2)
        matrix = matrix * (1.0 + rng.normal(scale=1e-5, size=(rows, 1)))
        if seed % 2:
            matrix = np.asfortranarray(matrix)
        _same(check_row_stochastic, reference_row_loop, matrix, name="r")

    @pytest.mark.parametrize("total", SUM_EDGE_TOTALS, ids=repr)
    def test_totals_at_the_edge(self, total):
        matrix = np.array([[0.5, 0.25, 0.25], _with_total(total)])
        _same(check_row_stochastic, reference_row_loop, matrix)

    @pytest.mark.parametrize(
        "case", sorted(set(BAD_VECTORS) - {"empty", "2-d"})
    )
    def test_first_bad_row_raises(self, case):
        bad = BAD_VECTORS[case]
        good = [1.0] + [0.0] * (len(bad) - 1)
        for rows in ([good, bad], [bad, good], [bad, [0.5] * len(bad)]):
            _same(check_row_stochastic, reference_row_loop, np.array(rows))

    @pytest.mark.parametrize("shape", [(2, 0), (0, 2), (0, 0)])
    def test_zero_size(self, shape):
        _same(check_row_stochastic, reference_row_loop, np.zeros(shape))


class TestMutualInformation:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_joints(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 12, size=2)
        joint = rng.dirichlet(np.ones(rows * cols)).reshape(rows, cols)
        if seed % 2:
            joint = np.where(rng.uniform(size=joint.shape) < 0.3, 0.0, joint)
        _same(
            mutual_information_from_joint,
            reference_mutual_information_from_joint,
            joint,
        )

    @pytest.mark.parametrize(
        "joint",
        [
            [[0.5, 0.0], [0.0, 0.5]],
            [[0.25, 0.25], [0.25, 0.25]],
            [[0.5, 0.0, 0.0], [0.25, 0.0, 0.25]],
            [[1.0]],
            [[-0.0, 0.5], [0.5, 0.0]],
            [[0.5 + 1e-13, 0.5]],
        ],
        ids=repr,
    )
    def test_zero_entries_and_columns(self, joint):
        _same(
            mutual_information_from_joint,
            reference_mutual_information_from_joint,
            joint,
        )

    @pytest.mark.parametrize("total", SUM_EDGE_TOTALS, ids=repr)
    def test_totals_at_the_edge(self, total):
        joint = np.reshape(_with_total(total, size=4), (2, 2))
        _same(
            mutual_information_from_joint,
            reference_mutual_information_from_joint,
            joint,
        )

    @pytest.mark.parametrize(
        "joint",
        [
            [[0.5, math.nan]],
            [[0.5, math.inf]],
            [[1.5, -math.inf]],
            [[1.2, -0.2]],
            [0.5, 0.5],
            np.zeros((0, 3)),
            [[0.5, 0.4]],
        ],
        ids=repr,
    )
    def test_bad_joints(self, joint):
        _same(
            mutual_information_from_joint,
            reference_mutual_information_from_joint,
            joint,
        )


def e9_channels():
    """The Gibbs learning channels E9 bounds by capacity, one per ε."""
    from benchmarks.bench_e9_leakage_bounds import EPSILONS
    from benchmarks.common import bernoulli_instance
    from repro.core import GibbsEstimator, LearningChannel

    instance = bernoulli_instance(p=0.7, grid_size=5, n=2)
    channels = []
    for epsilon in EPSILONS:
        estimator = GibbsEstimator.from_privacy(
            instance["grid"], epsilon, expected_sample_size=instance["n"]
        )
        channel = LearningChannel(
            instance["data_law"], instance["n"], estimator.gibbs.posterior
        )
        channels.append(channel.channel.matrix)
    return channels


class TestChannelCapacity:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_channels(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 9, size=2)
        matrix = _random_channel(rng, rows, cols, zero_fraction=0.3 * (seed % 2))
        _same(channel_capacity, reference_channel_capacity, matrix)

    @pytest.mark.parametrize("index", range(7))
    def test_e9_channels(self, index):
        matrix = e9_channels()[index]
        _same(channel_capacity, reference_channel_capacity, matrix)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            [[0.7, 0.3, 0.0], [0.2, 0.8, 0.0], [0.5, 0.5, 0.0]],
            [[0.5, 0.5], [0.5, 0.5]],
            [[1.0]],
            [[0.9, 0.1, 0.0], [0.0, 0.1, 0.9]],
        ],
        ids=repr,
    )
    def test_zero_entries_and_an_all_zero_column(self, matrix):
        _same(channel_capacity, reference_channel_capacity, matrix)

    @pytest.mark.parametrize("max_iterations", [0, 1, 3])
    def test_iteration_budget(self, max_iterations):
        matrix = [[0.8, 0.15, 0.05], [0.1, 0.3, 0.6]]
        _same(
            channel_capacity,
            reference_channel_capacity,
            matrix,
            max_iterations=max_iterations,
            tol=1e-14,
        )

    @pytest.mark.parametrize("total", SUM_EDGE_TOTALS, ids=repr)
    def test_row_totals_at_the_edge(self, total):
        matrix = [[0.5, 0.25, 0.25], _with_total(total)]
        _same(channel_capacity, reference_channel_capacity, matrix)

    @pytest.mark.parametrize(
        "case", sorted(set(BAD_VECTORS) - {"empty", "2-d"})
    )
    def test_bad_rows(self, case):
        bad = BAD_VECTORS[case]
        good = [1.0] + [0.0] * (len(bad) - 1)
        # A bad second row after a good one, and two bad rows.
        _same(channel_capacity, reference_channel_capacity, [good, bad])
        _same(channel_capacity, reference_channel_capacity, [bad, [0.5] * len(bad)])

    @pytest.mark.parametrize(
        "matrix", [[0.5, 0.5], np.zeros((2, 0)), np.ones((1, 1, 1))], ids=repr
    )
    def test_bad_shapes(self, matrix):
        _same(channel_capacity, reference_channel_capacity, matrix)


class TestRateDistortion:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_problems(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 8, size=2)
        source = rng.dirichlet(np.ones(rows))
        if seed % 3 == 0:
            source[0] = 0.0
            source /= source.sum()
        distortion = rng.uniform(0.0, 2.0, size=(rows, cols))
        beta = float(rng.choice([0.05, 0.5, 2.0, 20.0]))
        _same(rate_distortion, reference_rate_distortion, source, distortion, beta)

    def test_initial_output_and_budget(self):
        # (max_iterations=0 left the old channel uninitialized memory; it
        # now raises, see test_information_blahut_arimoto.py.)
        source = [0.2, 0.3, 0.5]
        distortion = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]
        for max_iterations in (1, 5, 20_000):
            for raise_on_failure in (False, True):
                _same(
                    rate_distortion,
                    reference_rate_distortion,
                    source,
                    distortion,
                    3.0,
                    initial_output=[0.9, 0.1],
                    max_iterations=max_iterations,
                    raise_on_failure=raise_on_failure,
                )

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            (([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], 0.0), {}),
            (([0.5, 0.5], [[0.0, -1.0], [1.0, 0.0]], 1.0), {}),
            (([0.5, 0.5], [[0.0, math.nan], [1.0, 0.0]], 1.0), {}),
            (([0.5, 0.5], [[0.0, 1.0]], 1.0), {}),
            (([0.5, 0.4], [[0.0, 1.0], [1.0, 0.0]], 1.0), {}),
            (([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], 1.0), {"initial_output": [1.0, 0.0]}),
            (([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], 1.0), {"initial_output": [1.0]}),
            (([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], 1.0), {"initial_output": []}),
        ],
    )
    def test_bad_inputs(self, args, kwargs):
        _same(rate_distortion, reference_rate_distortion, *args, **kwargs)

    def test_source_totals_at_the_edge(self):
        distortion = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
        for total in SUM_EDGE_TOTALS:
            _same(
                rate_distortion,
                reference_rate_distortion,
                _with_total(total),
                distortion,
                1.5,
            )


class TestLocallyPrivateMedian:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_records(self, seed):
        rng = np.random.default_rng(seed)
        records = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 600)))
        epsilon = float(rng.choice([0.3, 1.0, 4.0]))
        _same(
            locally_private_median,
            reference_locally_private_median,
            records,
            epsilon,
            random_state=seed,
        )

    # θ leaves [-1, 1] and is clipped 2-39 times in 40 steps in nine of
    # these twelve cases (all but the centred records at ε = 0.5 and 50
    # and the alternating ones at ε = 50).
    @pytest.mark.parametrize("epsilon", [1e-3, 0.5, 50.0])
    @pytest.mark.parametrize(
        "records",
        [
            [1.0] * 40,
            [-1.0] * 40,
            [-1.0, 1.0] * 20,
            [0.0] * 40,
        ],
        ids=["upper", "lower", "alternating", "center"],
    )
    def test_records_at_the_bounds_and_clipped_theta(self, records, epsilon):
        _same(
            locally_private_median,
            reference_locally_private_median,
            records,
            epsilon,
            random_state=11,
        )

    def test_generator_is_left_in_the_same_state(self):
        new, old = np.random.default_rng(5), np.random.default_rng(5)
        records = np.linspace(0.0, 2.0, 50)
        assert _outcome(
            locally_private_median, records, 1.0, lower=0, upper=2,
            random_state=new,
        ) == _outcome(
            reference_locally_private_median, records, 1.0, lower=0, upper=2,
            random_state=old,
        )
        assert new.bit_generator.state == old.bit_generator.state

    @pytest.mark.parametrize(
        "records, epsilon, kwargs",
        [
            ([], 1.0, {}),
            ([[0.5]], 1.0, {}),
            ([0.5, math.nan], 1.0, {}),
            ([0.5, 2.0], 1.0, {}),
            ([0.5], 0.0, {}),
            ([0.5], 1.0, {"lower": 1.0, "upper": -1.0}),
            ([0.5], 1.0, {"lower": -math.inf}),
            ([0.5], 1.0, {"upper": math.nan}),
            ([3.0, 4.0], 1.0, {"lower": 3, "upper": 4}),
            ([0.25], 2.0, {"lower": 0.0, "upper": 0.25}),
        ],
    )
    def test_edge_inputs(self, records, epsilon, kwargs):
        _same(
            locally_private_median,
            reference_locally_private_median,
            records,
            epsilon,
            random_state=0,
            **kwargs,
        )
