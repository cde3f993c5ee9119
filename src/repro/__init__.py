"""repro — differentially-private learning through PAC-Bayes and information
theory.

A from-scratch reproduction of Darakhshan Mir, *"Differentially-private
Learning and Information Theory"* (PAIS workshop @ EDBT 2012). The library
contains:

* the paper's contribution (:mod:`repro.core`): the Gibbs estimator, its
  privacy guarantee (Theorem 4.1), PAC-Bayes bounds and their Gibbs
  minimizer (Theorem 3.1 / Lemma 3.2), the mutual-information-regularized
  learning objective and its Gibbs fixed point (Theorem 4.2), and the
  Figure-1 learning channel;
* every substrate it stands on: a DP mechanism library
  (:mod:`repro.mechanisms`), privacy auditing (:mod:`repro.privacy`),
  information theory (:mod:`repro.information`), discrete distributions and
  samplers (:mod:`repro.distributions`), and a statistical-learning stack
  (:mod:`repro.learning`, :mod:`repro.private_learning`).

Quickstart::

    import numpy as np
    from repro import BernoulliTask, GibbsEstimator, PredictorGrid

    task = BernoulliTask(p=0.8)
    sample = task.sample(100, random_state=0)
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 21)
    learner = GibbsEstimator.from_privacy(grid, epsilon=1.0,
                                          expected_sample_size=100)
    theta = learner.release(list(sample), random_state=0)
"""

from repro._lazy import attach as _attach

_EXPORTS = {
    "ConvergenceError": "repro.exceptions",
    "DPAuditError": "repro.exceptions",
    "NotFittedError": "repro.exceptions",
    "PrivacyBudgetError": "repro.exceptions",
    "ReproError": "repro.exceptions",
    "ValidationError": "repro.exceptions",
    "DiscreteDistribution": "repro.distributions.discrete",
    "DiscreteChannel": "repro.information.channel",
    "channel_capacity": "repro.information.blahut_arimoto",
    "entropy": "repro.information.entropy",
    "kl_divergence": "repro.information.divergences",
    "mutual_information_from_joint": "repro.information.mutual_information",
    "rate_distortion": "repro.information.blahut_arimoto",
    "ExponentialMechanism": "repro.mechanisms.exponential",
    "GaussianMechanism": "repro.mechanisms.gaussian",
    "GeometricMechanism": "repro.mechanisms.geometric",
    "LaplaceMechanism": "repro.mechanisms.laplace",
    "Mechanism": "repro.mechanisms.base",
    "PrivacyAccountant": "repro.mechanisms.accountant",
    "PrivacySpec": "repro.mechanisms.base",
    "RandomizedResponse": "repro.mechanisms.randomized_response",
    "ExactPrivacyAuditor": "repro.privacy.audit",
    "StatisticalAuditReport": "repro.testing.audit",
    "assert_dp": "repro.testing.audit",
    "audit_mechanism": "repro.testing.audit",
    "BernoulliTask": "repro.learning.datasets",
    "GaussianThresholdTask": "repro.learning.datasets",
    "LogisticRegressionModel": "repro.learning.models",
    "PredictorGrid": "repro.learning.erm",
    "TwoGaussiansTask": "repro.learning.datasets",
    "ContinuousGibbsPosterior": "repro.core.gibbs",
    "GibbsEstimator": "repro.core.gibbs",
    "GibbsPosterior": "repro.core.gibbs",
    "LearningChannel": "repro.core.channel",
    "catoni_bound": "repro.core.pac_bayes",
    "evaluate_all_bounds": "repro.core.pac_bayes",
    "mcallester_bound": "repro.core.pac_bayes",
    "minimize_tradeoff": "repro.core.tradeoff",
    "seeger_bound": "repro.core.pac_bayes",
    "tradeoff_curve": "repro.core.tradeoff",
    "ExponentialMechanismLearner": "repro.private_learning.exponential_learner",
    "GibbsERMClassifier": "repro.private_learning.langevin",
    "ObjectivePerturbationClassifier": "repro.private_learning.perturbation",
    "OutputPerturbationClassifier": "repro.private_learning.perturbation",
    "RegularizedExponentialMechanism": "repro.private_learning.langevin",
}

__version__ = "1.0.0"

__all__ = [
    "BernoulliTask",
    "ContinuousGibbsPosterior",
    "ConvergenceError",
    "DPAuditError",
    "DiscreteChannel",
    "DiscreteDistribution",
    "ExactPrivacyAuditor",
    "ExponentialMechanism",
    "ExponentialMechanismLearner",
    "GaussianMechanism",
    "GaussianThresholdTask",
    "GeometricMechanism",
    "GibbsERMClassifier",
    "GibbsEstimator",
    "GibbsPosterior",
    "LaplaceMechanism",
    "LearningChannel",
    "LogisticRegressionModel",
    "Mechanism",
    "NotFittedError",
    "ObjectivePerturbationClassifier",
    "OutputPerturbationClassifier",
    "PredictorGrid",
    "PrivacyAccountant",
    "PrivacyBudgetError",
    "PrivacySpec",
    "RandomizedResponse",
    "RegularizedExponentialMechanism",
    "ReproError",
    "StatisticalAuditReport",
    "TwoGaussiansTask",
    "ValidationError",
    "assert_dp",
    "audit_mechanism",
    "catoni_bound",
    "channel_capacity",
    "entropy",
    "evaluate_all_bounds",
    "kl_divergence",
    "mcallester_bound",
    "minimize_tradeoff",
    "mutual_information_from_joint",
    "rate_distortion",
    "seeger_bound",
    "tradeoff_curve",
    "__version__",
]

__getattr__, __dir__ = _attach(__name__, _EXPORTS)
