"""Differentially-private learners.

The generic route the paper advocates — the Gibbs estimator / exponential
mechanism over a predictor space — next to the specialized private-ERM
algorithms of Chaudhuri, Monteleoni & Sarwate that the paper cites as
motivation (refs 5, 6): output perturbation and objective perturbation for
L2-regularized linear classifiers.
"""

from repro._lazy import attach as _attach

_EXPORTS = {
    "ObjectivePerturbationClassifier": "repro.private_learning.perturbation",
    "OutputPerturbationClassifier": "repro.private_learning.perturbation",
    "erm_argmin_sensitivity": "repro.private_learning.perturbation",
    "ExponentialMechanismLearner": "repro.private_learning.exponential_learner",
    "direction_grid": "repro.private_learning.exponential_learner",
    "GibbsERMClassifier": "repro.private_learning.langevin",
    "RegularizedExponentialMechanism": "repro.private_learning.langevin",
    "GibbsRidgeRegression": "repro.private_learning.regression",
    "SufficientStatisticsRidge": "repro.private_learning.regression",
    "coefficient_grid": "repro.private_learning.regression",
    "GibbsDensityEstimator": "repro.private_learning.density",
    "LaplaceHistogramDensity": "repro.private_learning.density",
    "beta_shape_family": "repro.private_learning.density",
    "discretize_density": "repro.private_learning.density",
}

__all__ = [
    "ExponentialMechanismLearner",
    "GibbsDensityEstimator",
    "GibbsERMClassifier",
    "GibbsRidgeRegression",
    "LaplaceHistogramDensity",
    "ObjectivePerturbationClassifier",
    "OutputPerturbationClassifier",
    "RegularizedExponentialMechanism",
    "SufficientStatisticsRidge",
    "beta_shape_family",
    "coefficient_grid",
    "direction_grid",
    "discretize_density",
    "erm_argmin_sensitivity",
]

__getattr__, __dir__ = _attach(__name__, _EXPORTS)
