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

from repro.exceptions import (
    ConvergenceError,
    DPAuditError,
    NotFittedError,
    PrivacyBudgetError,
    ReproError,
    ValidationError,
)
from repro.distributions import DiscreteDistribution
from repro.information import (
    DiscreteChannel,
    channel_capacity,
    entropy,
    kl_divergence,
    mutual_information_from_joint,
    rate_distortion,
)
from repro.mechanisms import (
    ExponentialMechanism,
    GaussianMechanism,
    GeometricMechanism,
    LaplaceMechanism,
    Mechanism,
    PrivacyAccountant,
    PrivacySpec,
    RandomizedResponse,
)
from repro.privacy import ExactPrivacyAuditor
from repro.testing import StatisticalAuditReport, assert_dp, audit_mechanism
from repro.learning import (
    BernoulliTask,
    GaussianThresholdTask,
    LinearSVM,
    LogisticRegressionModel,
    PredictorGrid,
    TwoGaussiansTask,
)
from repro.core import (
    ContinuousGibbsPosterior,
    GibbsEstimator,
    GibbsPosterior,
    LearningChannel,
    catoni_bound,
    evaluate_all_bounds,
    mcallester_bound,
    minimize_tradeoff,
    seeger_bound,
    tradeoff_curve,
)
from repro.private_learning import (
    ExponentialMechanismLearner,
    GibbsERMClassifier,
    ObjectivePerturbationClassifier,
    OutputPerturbationClassifier,
    RegularizedExponentialMechanism,
)

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
    "LinearSVM",
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
