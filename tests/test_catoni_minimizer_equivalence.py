"""E3's numerical Catoni minimizer validates once and keeps its bits.

``minimize_catoni_bound(numerical=True)`` used to build a
``DiscreteDistribution`` and call ``catoni_objective`` at every Nelder–Mead
or Powell evaluation (4 449 per E3 pass). It now checks the temperature and
the risk length once and evaluates ``λ·E R̂ + KL`` on the softmax weights
directly, renormalized as ``check_probability_vector`` does. The verbatim
copy of the old function below is the reference: every input gives the
same ``repr`` of the posterior's probabilities and of the objective value,
or the same exception type and message.

Supports of up to 8 atoms no longer call ``scipy.optimize``: the private
``_nelder_mead`` repeats SciPy's Nelder–Mead step for step. It is compared
with ``scipy.optimize.minimize(method="Nelder-Mead")`` directly: the same
points are evaluated in the same order, and ``x`` and ``fun`` agree to the
bit, on E3's sweep and on random instances of 1 to 8 atoms whose runs
include shrink steps and stops at ``maxiter``.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from repro.core.pac_bayes import (
    _nelder_mead,
    catoni_objective,
    gibbs_minimizer,
    minimize_catoni_bound,
)
from repro.distributions import DiscreteDistribution
from repro.learning import BernoulliTask, PredictorGrid


def reference_minimize_catoni_bound(
    prior: DiscreteDistribution,
    empirical_risks,
    temperature: float,
    *,
    numerical: bool = False,
) -> tuple[DiscreteDistribution, float]:
    """Minimize the Catoni objective over all posteriors on the support."""
    risks = np.asarray(empirical_risks, dtype=float)
    closed_form = gibbs_minimizer(prior, risks, temperature)
    if not numerical:
        return closed_form, catoni_objective(closed_form, prior, risks, temperature)

    from scipy.optimize import minimize

    size = len(prior)

    def objective(logits: np.ndarray) -> float:
        shifted = logits - logits.max()
        probs = np.exp(shifted)
        probs /= probs.sum()
        post = DiscreteDistribution(prior.support, probs)
        return catoni_objective(post, prior, risks, temperature)

    result = minimize(
        objective,
        x0=np.zeros(size),
        method="Nelder-Mead" if size <= 8 else "Powell",
        options={"maxiter": 20_000, "xatol": 1e-10, "fatol": 1e-12}
        if size <= 8
        else {"maxiter": 20_000},
    )
    shifted = result.x - result.x.max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    numerical_posterior = DiscreteDistribution(prior.support, probs)
    return numerical_posterior, float(result.fun)


def _outcome(function, *args, **kwargs):
    """The posterior's support, its probabilities and the value, by ``repr``;
    or the raised exception's type and message."""
    try:
        posterior, value = function(*args, **kwargs)
    except Exception as error:  # compared, never swallowed: see the tests
        return ("raised", type(error), str(error))
    return (
        "returned",
        posterior.support,
        repr(posterior.probabilities.tolist()),
        type(value).__name__,
        repr(value),
    )


def _same(*args, **kwargs):
    assert _outcome(minimize_catoni_bound, *args, **kwargs) == _outcome(
        reference_minimize_catoni_bound, *args, **kwargs
    )


def _e3_instance(seed=0, n=60, grid_size=6):
    """E3's prior and risks (``benchmarks/bench_e3_gibbs_optimality.py``)."""
    task = BernoulliTask(p=0.75)
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, grid_size)
    sample = list(task.sample(n, random_state=seed))
    return DiscreteDistribution.uniform(grid.thetas), grid.empirical_risks(sample)


@pytest.mark.parametrize("temperature", [0.5, 2.0, 8.0, 32.0])
@pytest.mark.parametrize("seed", [0, 7])
def test_e3_sweep(temperature, seed):
    prior, risks = _e3_instance(seed=seed)
    _same(prior, risks, temperature, numerical=True)


@pytest.mark.parametrize("size", [1, 3, 9])
def test_random_priors_and_powell(size):
    """A non-uniform prior, and ``size > 8``, where Powell runs."""
    rng = np.random.default_rng(size)
    prior = DiscreteDistribution(range(size), rng.dirichlet(np.ones(size)))
    risks = rng.uniform(0.0, 1.0, size)
    _same(prior, risks, 3.0, numerical=True)
    _same(prior, list(risks), 1, numerical=True)


def test_invalid_inputs_raise_as_before():
    prior, risks = _e3_instance()
    for temperature in (0.0, -1.0, float("nan"), float("inf"), "hot"):
        _same(prior, risks, temperature, numerical=True)
    _same(prior, risks[:-1], 2.0, numerical=True)
    _same(prior, np.append(risks, 0.5), 2.0, numerical=True)


def _softmax_objective(prior, risks, temperature):
    """The Catoni objective of the softmax posterior, as E3 minimizes it."""

    def objective(logits: np.ndarray) -> float:
        shifted = logits - logits.max()
        probs = np.exp(shifted)
        probs /= probs.sum()
        post = DiscreteDistribution(prior.support, probs)
        return catoni_objective(post, prior, risks, temperature)

    return objective


def _compare_with_scipy(objective, size, maxiter=20_000):
    """Run both optimizers, assert the same evaluated points and the same
    ``(x, fun)`` bits; return SciPy's result and its per-iteration
    evaluation counts (a shrink step makes more than two)."""
    seen = {"scipy": [], "repro": []}

    def recording(name):
        def function(x):
            seen[name].append(x.tobytes())
            return objective(x)
        return function

    counts = []

    def callback(intermediate_result):
        counts.append(len(seen["scipy"]) - sum(counts) - (size + 1))

    result = minimize(
        recording("scipy"), np.zeros(size), method="Nelder-Mead",
        callback=callback,
        options={"maxiter": maxiter, "xatol": 1e-10, "fatol": 1e-12},
    )
    x, fun = _nelder_mead(recording("repro"), size, maxiter=maxiter)
    assert seen["repro"] == seen["scipy"]
    assert x.tobytes() == result.x.tobytes()
    assert type(fun) is type(result.fun)
    assert repr(fun) == repr(result.fun)
    return result, counts


@pytest.mark.parametrize("temperature", [0.5, 2.0, 8.0, 32.0])
@pytest.mark.parametrize("seed", [0, 7])
def test_nelder_mead_matches_scipy_on_e3_sweep(temperature, seed):
    prior, risks = _e3_instance(seed=seed)
    _compare_with_scipy(_softmax_objective(prior, risks, temperature), len(prior))


def test_shrink_steps_and_maxiter_stop_are_exercised():
    """E3's sweep shrinks; a small ``maxiter`` stops SciPy with status 2."""
    prior, risks = _e3_instance(seed=0)
    objective = _softmax_objective(prior, risks, 8.0)
    result, counts = _compare_with_scipy(objective, len(prior))
    assert result.status == 0 and max(counts) > 2
    result, counts = _compare_with_scipy(objective, len(prior), maxiter=40)
    assert result.status == 2 and result.nit == 40


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    size=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    temperature=st.floats(0.01, 200.0),
    maxiter=st.one_of(st.just(20_000), st.integers(1, 80)),
)
def test_nelder_mead_matches_scipy_on_random_instances(size, seed, temperature,
                                                       maxiter):
    rng = np.random.default_rng(seed)
    prior = DiscreteDistribution(range(size), rng.dirichlet(np.ones(size)))
    risks = rng.uniform(0.0, 1.0, size)
    _compare_with_scipy(_softmax_objective(prior, risks, temperature), size,
                        maxiter=maxiter)
