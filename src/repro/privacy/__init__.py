"""Privacy definitions, neighbouring relations, and exact auditing.

Definition 2.1 of the paper as executable predicates, plus an *exact*
auditor that computes the worst-case privacy loss of a mechanism whose
output law is available in closed form on finite universes. The
Monte-Carlo auditor, which lower-bounds ε from sampled outputs with a
Clopper–Pearson confidence statement, is :mod:`repro.testing`.
"""

from repro.privacy.definitions import (
    all_neighbour_pairs,
    is_neighbour,
    satisfies_approximate_dp,
    satisfies_pure_dp,
)
from repro.privacy.audit import AuditReport, ExactPrivacyAuditor
from repro.privacy.hypothesis_testing import (
    AttackRoc,
    dp_advantage_bound,
    dp_tradeoff_curve,
    membership_advantage,
    optimal_attack_roc,
    verify_tradeoff_dominance,
)
from repro.privacy.local import (
    KRandomizedResponse,
    LocalMechanism,
    UnaryEncoding,
    clip_and_renormalize,
)
from repro.privacy.renyi import (
    RenyiSpec,
    compose_rdp,
    measure_rdp,
    optimal_rdp_to_dp,
    rdp_of_gaussian,
    rdp_of_laplace,
    rdp_of_pure_dp,
)

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
