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

from repro._lazy import attach as _attach

_EXPORTS = {
    "ContinuousGibbsPosterior": "repro.core.gibbs",
    "GibbsEstimator": "repro.core.gibbs",
    "GibbsPosterior": "repro.core.gibbs",
    "privacy_of_temperature": "repro.core.gibbs",
    "temperature_for_privacy": "repro.core.gibbs",
    "BoundReport": "repro.core.pac_bayes",
    "catoni_bound": "repro.core.pac_bayes",
    "catoni_bound_in_expectation": "repro.core.pac_bayes",
    "catoni_objective": "repro.core.pac_bayes",
    "evaluate_all_bounds": "repro.core.pac_bayes",
    "gibbs_oracle_bound": "repro.core.pac_bayes",
    "mcallester_bound": "repro.core.pac_bayes",
    "minimize_catoni_bound": "repro.core.pac_bayes",
    "seeger_bound": "repro.core.pac_bayes",
    "TradeoffPoint": "repro.core.tradeoff",
    "TradeoffResult": "repro.core.tradeoff",
    "minimize_tradeoff": "repro.core.tradeoff",
    "tradeoff_curve": "repro.core.tradeoff",
    "tradeoff_objective": "repro.core.tradeoff",
    "LearningChannel": "repro.core.channel",
    "TruncatedBetaBernoulliPosterior": "repro.core.bayes",
    "posterior_sampling_privacy": "repro.core.bayes",
    "temperature_for_posterior_privacy": "repro.core.bayes",
    "exact_generalization_gap": "repro.core.information_risk",
    "generalization_report": "repro.core.information_risk",
    "mutual_information_generalization_bound": "repro.core.information_risk",
    "privacy_generalization_bound": "repro.core.information_risk",
    "PrivateSelectionRelease": "repro.core.model_selection",
    "TemperatureSelection": "repro.core.model_selection",
    "private_gibbs_with_selection": "repro.core.model_selection",
    "select_temperature_by_bound": "repro.core.model_selection",
    "select_temperature_private": "repro.core.model_selection",
}

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

__getattr__, __dir__ = _attach(__name__, _EXPORTS)
