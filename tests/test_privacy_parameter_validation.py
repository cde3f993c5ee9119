"""Every public callable that takes ε, δ or a sensitivity rejects bad ones.

A mechanism built with ``epsilon=-1``, ``delta=nan`` or zero sensitivity
gets a noise scale that is negative, NaN or infinite: the release then
crashes inside numpy or, worse, adds no noise while its ``PrivacySpec``
still claims a guarantee. This sweep replaces a static rule that only
checked that each such parameter was *named* in some validator call.

It walks every public function, class and public method defined in the
privacy packages, keeps those with a parameter named ``epsilon``,
``delta`` or ``sensitivity``, and calls each with one valid argument set
(``VALID_CALLS``) in which one of those parameters is replaced by a bad
value: NaN, ±inf, −1 or 0 for ε and the sensitivity, NaN, ±inf, −1 or 2
for δ. δ = 0 is pure DP and valid everywhere. Every call must raise
``ValidationError``. A new callable with such a parameter fails
``test_every_callable_has_a_valid_call`` until it is given a valid call
here, so nothing escapes the sweep by being new; ``NOT_SWEPT`` names the
ledger-event records, and why they are left out.
"""

from __future__ import annotations

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

from repro.distributions import DiscreteDistribution
from repro.exceptions import ValidationError
from repro.learning.losses import LogisticLoss, TruncatedLoss
from repro.mechanisms import LaplaceMechanism
from repro.mechanisms.histogram import LinearQueryWorkload
from repro.privacy.renyi import RenyiSpec, rdp_of_pure_dp
from repro.testing import NeighborPair

PACKAGES = (
    "mechanisms",
    "distributions",
    "private_learning",
    "privacy",
    "local_privacy",
    "testing",
    "observability",
    "serving",
)
PARAMETERS = ("epsilon", "delta", "sensitivity")
BAD_VALUES = {
    "epsilon": (math.nan, math.inf, -math.inf, -1.0, 0.0),
    "sensitivity": (math.nan, math.inf, -math.inf, -1.0, 0.0),
    "delta": (math.nan, math.inf, -math.inf, -1.0, 2.0),
}
#: ε = 0 is a question these answer: whether two laws are identical.
ZERO_EPSILON_ALLOWED = frozenset({
    "repro.privacy.definitions.satisfies_pure_dp",
    "repro.privacy.definitions.satisfies_approximate_dp",
})


#: Ledger events record the (ε, δ) of a spend that a validated
#: ``PrivacySpec`` or calibration already produced. They are built only
#: while a tracer is active, so checking them would let tracing change
#: what a run raises.
NOT_SWEPT = frozenset(
    f"repro.observability.events.{name}"
    for name in (
        "BudgetChargeEvent",
        "BudgetRefundEvent",
        "BudgetRefusalEvent",
        "CalibrationEvent",
        "LedgerEvent",
        "MechanismReleaseEvent",
    )
)


def _public_callables():
    """``{qualified name: callable}`` for every public function, class and
    public method defined in the privacy packages that takes ε, δ or a
    sensitivity."""
    found = {}
    for package in PACKAGES:
        root = importlib.import_module(f"repro.{package}")
        modules = [root] + [
            importlib.import_module(f"{root.__name__}.{info.name}")
            for info in pkgutil.iter_modules(root.__path__)
        ]
        for module in modules:
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(
                    obj, "__module__", None
                ) != module.__name__:
                    continue
                candidates = [(f"{module.__name__}.{name}", obj)]
                if inspect.isclass(obj):
                    candidates += [
                        (f"{module.__name__}.{name}.{attr}", function)
                        for attr, member in vars(obj).items()
                        if not attr.startswith("_")
                        and inspect.isfunction(
                            function := getattr(member, "__func__", member)
                        )
                    ]
                elif not inspect.isfunction(obj):
                    continue
                for qualified, candidate in candidates:
                    parameters = inspect.signature(candidate).parameters
                    if any(p in parameters for p in PARAMETERS):
                        found[qualified] = candidate
    return found


def _laws():
    return (
        DiscreteDistribution([0, 1], [0.6, 0.4]),
        DiscreteDistribution([0, 1], [0.4, 0.6]),
    )


def _laplace():
    return LaplaceMechanism(lambda d: float(sum(d)), 1.0, 1.0)


def _loss():
    return TruncatedLoss(LogisticLoss(), ceiling=2.0)


#: Qualified name -> function returning ``(callable, kwargs)``: a call
#: that succeeds, with ε, δ and the sensitivity passed by keyword.
VALID_CALLS = {
    "repro.local_privacy.estimation.central_private_mean": lambda f: (
        f, dict(records=np.zeros((4, 2)), epsilon=1.0, random_state=0)),
    "repro.local_privacy.estimation.central_private_rate": lambda f: (
        f, dict(dimension=2, n=10, epsilon=1.0)),
    "repro.local_privacy.estimation.dpi_report": lambda f: (
        f, dict(channel_matrix=[[0.6, 0.4], [0.4, 0.6]], p=[0.5, 0.5],
                q=[0.3, 0.7], epsilon=1.0)),
    "repro.local_privacy.estimation.local_minimax_rate": lambda f: (
        f, dict(dimension=2, n=10, epsilon=1.0)),
    "repro.local_privacy.estimation.locally_private_median": lambda f: (
        f, dict(records=[0.1, 0.2, -0.3], epsilon=1.0, random_state=0)),
    "repro.local_privacy.mechanisms.L2SamplingMechanism": lambda f: (
        f, dict(dimension=2, epsilon=1.0)),
    "repro.local_privacy.mechanisms.LInfSamplingMechanism": lambda f: (
        f, dict(dimension=2, epsilon=1.0)),
    "repro.local_privacy.sgd.PrivateSGDClassifier": lambda f: (
        f, dict(loss=LogisticLoss(), regularization=0.1, epsilon=1.0)),
    "repro.mechanisms.base.PrivacySpec": lambda f: (
        f, dict(epsilon=1.0, delta=1e-6)),
    "repro.mechanisms.composition.advanced_composition": lambda f: (
        f, dict(epsilon=0.1, delta=1e-6, k=10, delta_prime=1e-6)),
    "repro.mechanisms.composition.best_composition": lambda f: (
        f, dict(epsilon=0.1, delta=1e-6, k=10, delta_prime=1e-6)),
    "repro.mechanisms.continual.NaivePrefixRelease": lambda f: (
        f, dict(horizon=8, epsilon=1.0)),
    "repro.mechanisms.continual.TreeAggregator": lambda f: (
        f, dict(horizon=8, epsilon=1.0)),
    "repro.mechanisms.exponential.ExponentialMechanism": lambda f: (
        f, dict(quality=lambda d, u: -abs(sum(d) - u), outputs=range(4),
                sensitivity=1.0, epsilon=1.0)),
    "repro.mechanisms.gaussian.GaussianMechanism": lambda f: (
        f, dict(query=lambda d: float(sum(d)), sensitivity=1.0, epsilon=1.0,
                delta=1e-6)),
    "repro.mechanisms.gaussian.gaussian_sigma": lambda f: (
        f, dict(sensitivity=1.0, epsilon=1.0, delta=1e-6)),
    "repro.mechanisms.geometric.GeometricMechanism": lambda f: (
        f, dict(query=lambda d: int(sum(d)), sensitivity=1.0, epsilon=1.0)),
    "repro.mechanisms.histogram.LinearQueryWorkload."
    "expected_l2_error_per_query_laplace": lambda f: (
        LinearQueryWorkload.prefix_queries("abc")
        .expected_l2_error_per_query_laplace, dict(epsilon=1.0)),
    "repro.mechanisms.histogram.PrivateHistogram": lambda f: (
        f, dict(categories="abc", epsilon=1.0)),
    "repro.mechanisms.laplace.LaplaceMechanism": lambda f: (
        f, dict(query=lambda d: float(sum(d)), sensitivity=1.0, epsilon=1.0)),
    "repro.mechanisms.noisy_max.ReportNoisyMax": lambda f: (
        f, dict(quality=lambda d, u: -abs(sum(d) - u), outputs=range(4),
                sensitivity=1.0, epsilon=1.0)),
    "repro.mechanisms.quantile.ExponentialQuantile": lambda f: (
        f, dict(lower=0.0, upper=1.0, quantile=0.5, epsilon=1.0)),
    "repro.mechanisms.randomized_response.RandomizedResponse": lambda f: (
        f, dict(epsilon=1.0)),
    "repro.mechanisms.smooth_sensitivity.SmoothSensitivityMedian": lambda f: (
        f, dict(lower=0.0, upper=1.0, epsilon=1.0, delta=1e-6)),
    "repro.mechanisms.sparse_vector.SparseVector": lambda f: (
        f, dict(threshold=1.0, sensitivity=1.0, epsilon=1.0)),
    "repro.mechanisms.sparse_vector.above_threshold": lambda f: (
        f, dict(data=[1, 2], queries=[sum], threshold=1.0, epsilon=1.0,
                sensitivity=1.0, random_state=0)),
    "repro.mechanisms.vector.VectorLaplaceMechanism": lambda f: (
        f, dict(query=lambda d: np.zeros(2), dimension=2, sensitivity=1.0,
                epsilon=1.0)),
    "repro.privacy.definitions.satisfies_approximate_dp": lambda f: (
        f, dict(p=_laws()[0], q=_laws()[1], epsilon=1.0, delta=1e-6)),
    "repro.privacy.definitions.satisfies_pure_dp": lambda f: (
        f, dict(p=_laws()[0], q=_laws()[1], epsilon=1.0)),
    "repro.privacy.hypothesis_testing.dp_advantage_bound": lambda f: (
        f, dict(epsilon=1.0)),
    "repro.privacy.hypothesis_testing.dp_tradeoff_curve": lambda f: (
        f, dict(epsilon=1.0, alphas=[0.1, 0.5])),
    "repro.privacy.hypothesis_testing.verify_tradeoff_dominance": lambda f: (
        f, dict(p=_laws()[0], q=_laws()[1], epsilon=1.0)),
    "repro.privacy.local.KRandomizedResponse": lambda f: (
        f, dict(categories="abc", epsilon=1.0)),
    "repro.privacy.local.UnaryEncoding": lambda f: (
        f, dict(categories="abc", epsilon=1.0)),
    "repro.privacy.renyi.RenyiSpec.to_approximate_dp": lambda f: (
        RenyiSpec(alpha=2.0, rho=0.5).to_approximate_dp, dict(delta=1e-6)),
    "repro.privacy.renyi.optimal_rdp_to_dp": lambda f: (
        f, dict(curve=lambda alpha: rdp_of_pure_dp(1.0, alpha), delta=1e-6)),
    "repro.privacy.renyi.rdp_of_gaussian": lambda f: (
        f, dict(sensitivity=1.0, sigma=1.0, alpha=2.0)),
    "repro.privacy.renyi.rdp_of_laplace": lambda f: (
        f, dict(sensitivity=1.0, scale=1.0, alpha=2.0)),
    "repro.privacy.renyi.rdp_of_pure_dp": lambda f: (
        f, dict(epsilon=1.0, alpha=2.0)),
    "repro.private_learning.density.GibbsDensityEstimator": lambda f: (
        f, dict(epsilon=1.0, sample_size=10)),
    "repro.private_learning.density.LaplaceHistogramDensity": lambda f: (
        f, dict(epsilon=1.0)),
    "repro.private_learning.exponential_learner."
    "ExponentialMechanismLearner": lambda f: (
        f, dict(dimension=2, epsilon=1.0, sample_size=10, resolution=4)),
    "repro.private_learning.langevin.GibbsERMClassifier": lambda f: (
        f, dict(loss=_loss(), regularization=0.1, epsilon=1.0)),
    "repro.private_learning.langevin.RegularizedExponentialMechanism":
    lambda f: (f, dict(loss=_loss(), regularization=0.1, epsilon=1.0)),
    "repro.private_learning.perturbation.ObjectivePerturbationClassifier":
    lambda f: (f, dict(loss=LogisticLoss(), regularization=0.1, epsilon=1.0)),
    "repro.private_learning.perturbation.OutputPerturbationClassifier":
    lambda f: (f, dict(loss=LogisticLoss(), regularization=0.1, epsilon=1.0)),
    "repro.private_learning.regression.GibbsRidgeRegression": lambda f: (
        f, dict(dimension=1, epsilon=1.0, sample_size=10, points_per_axis=3)),
    "repro.private_learning.regression.SufficientStatisticsRidge": lambda f: (
        f, dict(dimension=1, epsilon=1.0)),
    "repro.serving.loadtest.LoadTestSpec": lambda f: (
        f, dict(epsilon=0.05)),
    "repro.testing.audit.assert_dp": lambda f: (
        f, dict(mechanism=_laplace(), pair=NeighborPair([0, 1], [1, 1]),
                epsilon=1.0, n_samples=200)),
    "repro.testing.audit.audit_mechanism": lambda f: (
        f, dict(mechanism=_laplace(), pair=NeighborPair([0, 1], [1, 1]),
                epsilon=1.0, n_samples=200, random_state=0)),
    "repro.testing.registry.PreparedAudit": lambda f: (
        f, dict(name="laplace", mechanism=_laplace(),
                pair=NeighborPair([0, 1], [1, 1]), epsilon=1.0,
                kind="continuous")),
    "repro.testing.registry.build_audit": lambda f: (
        f, dict(family="laplace", epsilon=1.0)),
}

CALLABLES = _public_callables()


def test_every_callable_has_a_valid_call():
    assert sorted(CALLABLES) == sorted(VALID_CALLS.keys() | NOT_SWEPT)


def _cases():
    for qualified in sorted(VALID_CALLS):
        target = CALLABLES.get(qualified)
        if target is None:
            continue
        parameters = inspect.signature(target).parameters
        for parameter in PARAMETERS:
            if parameter not in parameters:
                continue
            for value in BAD_VALUES[parameter]:
                if (
                    parameter == "epsilon"
                    and value == 0.0
                    and qualified in ZERO_EPSILON_ALLOWED
                ):
                    continue
                yield pytest.param(
                    qualified, parameter, value,
                    id=f"{qualified.removeprefix('repro.')}-{parameter}={value}",
                )


@pytest.mark.parametrize("qualified", sorted(VALID_CALLS))
def test_valid_call_succeeds(qualified):
    function, kwargs = VALID_CALLS[qualified](CALLABLES[qualified])
    function(**kwargs)


@pytest.mark.parametrize("qualified, parameter, value", list(_cases()))
def test_bad_privacy_parameter_raises(qualified, parameter, value):
    function, kwargs = VALID_CALLS[qualified](CALLABLES[qualified])
    kwargs[parameter] = value
    with pytest.raises(ValidationError):
        function(**kwargs)
