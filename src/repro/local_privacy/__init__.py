"""The local model: privacy enforced at each client, before transmission.

The paper treats the learner as a channel between the sample and the
released hypothesis; local differential privacy moves that channel onto
every individual record, which is exactly the regime Duchi, Jordan and
Wainwright analyzed (*Local Privacy and Statistical Minimax Rates*;
*Privacy Aware Learning*). This package collects the client-side
toolkit:

* :mod:`repro.local_privacy.mechanisms` — the minimax-optimal ℓ2/ℓ∞
  sampling mechanisms with exact unbiasing constants, plus the
  categorical mechanisms re-exported from :mod:`repro.privacy.local`,
  all behind the shared :class:`~repro.privacy.local.LocalMechanism`
  interface with vectorized ``privatize_many`` kernels;
* :mod:`repro.local_privacy.estimation` — locally-private mean/median
  estimators, the central-DP and non-private baselines, the order-level
  minimax-rate predictions, and the numerical data-processing-inequality
  check (Experiment E18);
* :mod:`repro.local_privacy.sgd` — :class:`PrivateSGDClassifier`,
  one-pass SGD on privatized per-example gradients, a drop-in peer of
  the :mod:`repro.private_learning` classifiers (Experiment E19).

See ``docs/LOCAL_PRIVACY.md`` for the mechanism catalog and the
minimax-rate background.
"""

from repro._lazy import attach as _attach

_EXPORTS = {
    "central_private_mean": "repro.local_privacy.estimation",
    "central_private_rate": "repro.local_privacy.estimation",
    "dpi_report": "repro.local_privacy.estimation",
    "local_minimax_rate": "repro.local_privacy.estimation",
    "locally_private_mean": "repro.local_privacy.estimation",
    "locally_private_median": "repro.local_privacy.estimation",
    "nonprivate_rate": "repro.local_privacy.estimation",
    "L2SamplingMechanism": "repro.local_privacy.mechanisms",
    "LInfSamplingMechanism": "repro.local_privacy.mechanisms",
    "hypercube_unbiasing_constant": "repro.local_privacy.mechanisms",
    "sphere_unbiasing_constant": "repro.local_privacy.mechanisms",
    "PrivateSGDClassifier": "repro.local_privacy.sgd",
    "KRandomizedResponse": "repro.privacy.local",
    "LocalMechanism": "repro.privacy.local",
    "UnaryEncoding": "repro.privacy.local",
    "clip_and_renormalize": "repro.privacy.local",
}

__all__ = [
    "KRandomizedResponse",
    "L2SamplingMechanism",
    "LInfSamplingMechanism",
    "LocalMechanism",
    "PrivateSGDClassifier",
    "UnaryEncoding",
    "central_private_mean",
    "central_private_rate",
    "clip_and_renormalize",
    "dpi_report",
    "hypercube_unbiasing_constant",
    "local_minimax_rate",
    "locally_private_mean",
    "locally_private_median",
    "nonprivate_rate",
    "sphere_unbiasing_constant",
]

__getattr__, __dir__ = _attach(__name__, _EXPORTS)
