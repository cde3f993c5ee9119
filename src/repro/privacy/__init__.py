"""Privacy definitions, neighbouring relations, and exact auditing.

Definition 2.1 of the paper as executable predicates, plus an *exact*
auditor that computes the worst-case privacy loss of a mechanism whose
output law is available in closed form on finite universes. The
Monte-Carlo auditor, which lower-bounds ε from sampled outputs with a
Clopper–Pearson confidence statement, is :mod:`repro.testing`.
"""

from repro._lazy import attach as _attach

_EXPORTS = {
    "all_neighbour_pairs": "repro.privacy.definitions",
    "is_neighbour": "repro.privacy.definitions",
    "satisfies_approximate_dp": "repro.privacy.definitions",
    "satisfies_pure_dp": "repro.privacy.definitions",
    "AuditReport": "repro.privacy.audit",
    "ExactPrivacyAuditor": "repro.privacy.audit",
    "AttackRoc": "repro.privacy.hypothesis_testing",
    "dp_advantage_bound": "repro.privacy.hypothesis_testing",
    "dp_tradeoff_curve": "repro.privacy.hypothesis_testing",
    "membership_advantage": "repro.privacy.hypothesis_testing",
    "optimal_attack_roc": "repro.privacy.hypothesis_testing",
    "verify_tradeoff_dominance": "repro.privacy.hypothesis_testing",
    "KRandomizedResponse": "repro.privacy.local",
    "LocalMechanism": "repro.privacy.local",
    "UnaryEncoding": "repro.privacy.local",
    "clip_and_renormalize": "repro.privacy.local",
    "RenyiSpec": "repro.privacy.renyi",
    "compose_rdp": "repro.privacy.renyi",
    "measure_rdp": "repro.privacy.renyi",
    "optimal_rdp_to_dp": "repro.privacy.renyi",
    "rdp_of_gaussian": "repro.privacy.renyi",
    "rdp_of_laplace": "repro.privacy.renyi",
    "rdp_of_pure_dp": "repro.privacy.renyi",
}

__all__ = [
    "AttackRoc",
    "AuditReport",
    "ExactPrivacyAuditor",
    "KRandomizedResponse",
    "LocalMechanism",
    "RenyiSpec",
    "UnaryEncoding",
    "all_neighbour_pairs",
    "clip_and_renormalize",
    "compose_rdp",
    "dp_advantage_bound",
    "dp_tradeoff_curve",
    "is_neighbour",
    "measure_rdp",
    "membership_advantage",
    "optimal_attack_roc",
    "optimal_rdp_to_dp",
    "rdp_of_gaussian",
    "rdp_of_laplace",
    "rdp_of_pure_dp",
    "satisfies_approximate_dp",
    "satisfies_pure_dp",
    "verify_tradeoff_dominance",
]

__getattr__, __dir__ = _attach(__name__, _EXPORTS)
