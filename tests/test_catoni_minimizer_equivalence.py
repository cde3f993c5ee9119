"""E3's numerical Catoni minimizer validates once and keeps its bits.

``minimize_catoni_bound(numerical=True)`` used to build a
``DiscreteDistribution`` and call ``catoni_objective`` at every Nelder–Mead
or Powell evaluation (4 449 per E3 pass). It now checks the temperature and
the risk length once and evaluates ``λ·E R̂ + KL`` on the softmax weights
directly, renormalized as ``check_probability_vector`` does. The verbatim
copy of the old function below is the reference: every input gives the
same ``repr`` of the posterior's probabilities and of the objective value,
or the same exception type and message.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pac_bayes import (
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
