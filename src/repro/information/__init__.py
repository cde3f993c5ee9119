"""Information-theoretic substrate.

Implements everything Section 4 of the paper leans on: entropies,
Kullback-Leibler (and related) divergences, mutual information — exactly on
finite supports and estimated from samples — discrete channels (the paper's
Figure 1), and the Blahut–Arimoto algorithms whose rate–distortion variant
is the computational face of Theorem 4.2.
"""

# ``entropy`` names both an export and a submodule. Importing
# ``repro.information.entropy`` sets the package attribute to the module,
# so the function is bound here, before anything else can import it.
from repro.information.entropy import entropy

from repro._lazy import attach as _attach

_EXPORTS = {
    "binary_kl_inverse": "repro.information.divergences",
    "hockey_stick_divergence": "repro.information.divergences",
    "kl_divergence": "repro.information.divergences",
    "max_divergence": "repro.information.divergences",
    "renyi_divergence": "repro.information.divergences",
    "total_variation": "repro.information.divergences",
    "mutual_information_from_joint": "repro.information.mutual_information",
    "mutual_information_histogram": "repro.information.mutual_information",
    "mutual_information_ksg": "repro.information.mutual_information",
    "DiscreteChannel": "repro.information.channel",
    "BlahutArimotoResult": "repro.information.blahut_arimoto",
    "channel_capacity": "repro.information.blahut_arimoto",
    "rate_distortion": "repro.information.blahut_arimoto",
    "bayes_identification_error": "repro.information.fano",
    "dp_identification_lower_bound": "repro.information.fano",
    "fano_error_lower_bound": "repro.information.fano",
    "verify_fano": "repro.information.fano",
    "alvim_min_entropy_bound": "repro.information.leakage",
    "leakage_bound_report": "repro.information.leakage",
    "mi_bound_capacity": "repro.information.leakage",
    "mi_bound_group_privacy": "repro.information.leakage",
    "mi_bound_source_entropy": "repro.information.leakage",
    "min_entropy_leakage": "repro.information.leakage",
    "posterior_vulnerability": "repro.information.leakage",
    "vulnerability": "repro.information.leakage",
}

__all__ = [
    "alvim_min_entropy_bound",
    "bayes_identification_error",
    "dp_identification_lower_bound",
    "fano_error_lower_bound",
    "verify_fano",
    "leakage_bound_report",
    "mi_bound_capacity",
    "mi_bound_group_privacy",
    "mi_bound_source_entropy",
    "min_entropy_leakage",
    "posterior_vulnerability",
    "vulnerability",
    "BlahutArimotoResult",
    "DiscreteChannel",
    "binary_kl_inverse",
    "channel_capacity",
    "entropy",
    "hockey_stick_divergence",
    "kl_divergence",
    "max_divergence",
    "mutual_information_from_joint",
    "mutual_information_histogram",
    "mutual_information_ksg",
    "rate_distortion",
    "renyi_divergence",
    "total_variation",
]

__getattr__, __dir__ = _attach(__name__, _EXPORTS)
