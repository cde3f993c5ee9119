"""The paper's contribution: Gibbs learning, PAC-Bayes bounds, and the
information-theoretic view of differentially-private learning.

* :mod:`repro.core.gibbs` — the Gibbs posterior/estimator (Lemma 3.2,
  Theorem 4.1);
* :mod:`repro.core.pac_bayes` — Catoni/McAllester/Seeger bounds
  (Theorem 3.1), their minimization, and Zhang's oracle bound;
* :mod:`repro.core.tradeoff` — mutual-information-regularized risk
  minimization and its Gibbs fixed point (Theorem 4.2);
* :mod:`repro.core.channel` — the learning channel of Figure 1.

The claims are asserted by the experiments in ``benchmarks/``: Theorem 4.1
by E4 through the exact auditor (:class:`repro.privacy.ExactPrivacyAuditor`),
Lemma 3.2 by E3 and Theorem 4.2 by E5.
"""

from repro.core.gibbs import (
    ContinuousGibbsPosterior,
    GibbsEstimator,
    GibbsPosterior,
    privacy_of_temperature,
    temperature_for_privacy,
)
from repro.core.pac_bayes import (
    BoundReport,
    catoni_bound,
    catoni_bound_in_expectation,
    catoni_objective,
    evaluate_all_bounds,
    gibbs_oracle_bound,
    mcallester_bound,
    minimize_catoni_bound,
    seeger_bound,
)
from repro.core.tradeoff import (
    TradeoffPoint,
    TradeoffResult,
    minimize_tradeoff,
    tradeoff_curve,
    tradeoff_objective,
)
from repro.core.channel import LearningChannel
from repro.core.bayes import (
    TruncatedBetaBernoulliPosterior,
    posterior_sampling_privacy,
    temperature_for_posterior_privacy,
)
from repro.core.information_risk import (
    exact_generalization_gap,
    generalization_report,
    mutual_information_generalization_bound,
    privacy_generalization_bound,
)
from repro.core.model_selection import (
    PrivateSelectionRelease,
    TemperatureSelection,
    private_gibbs_with_selection,
    select_temperature_by_bound,
    select_temperature_private,
)

__all__ = [
    "BoundReport",
    "ContinuousGibbsPosterior",
    "GibbsEstimator",
    "GibbsPosterior",
    "LearningChannel",
    "PrivateSelectionRelease",
    "TemperatureSelection",
    "TruncatedBetaBernoulliPosterior",
    "TradeoffPoint",
    "TradeoffResult",
    "catoni_bound",
    "catoni_bound_in_expectation",
    "catoni_objective",
    "evaluate_all_bounds",
    "exact_generalization_gap",
    "generalization_report",
    "gibbs_oracle_bound",
    "mcallester_bound",
    "minimize_catoni_bound",
    "minimize_tradeoff",
    "mutual_information_generalization_bound",
    "privacy_generalization_bound",
    "private_gibbs_with_selection",
    "privacy_of_temperature",
    "posterior_sampling_privacy",
    "seeger_bound",
    "select_temperature_by_bound",
    "select_temperature_private",
    "temperature_for_privacy",
    "temperature_for_posterior_privacy",
    "tradeoff_curve",
    "tradeoff_objective",
]
