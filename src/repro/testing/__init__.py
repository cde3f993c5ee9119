"""Statistical verification of privacy guarantees (the tier-2 harness).

Every ε claimed in this reproduction — Theorem 4.1's Gibbs guarantee,
Theorem 2.5's exponential-mechanism bound, the Laplace mechanism — is a
falsifiable statement about output distributions on neighbouring datasets.
This package turns those statements into executable audits:

* :mod:`repro.testing.audit` — empirical ε estimation with certified
  Clopper–Pearson lower bounds (:func:`assert_dp`, :func:`audit_mechanism`);
* :mod:`repro.testing.neighbors` — worst-case neighbour pair generators
  per mechanism family;
* :mod:`repro.testing.statistical` — the test policy: derived seeds,
  confidence levels, bounded retries;
* :mod:`repro.testing.registry` — named audit cases shared by the
  ``repro audit`` CLI and the ``pytest -m statistical`` tier;
* :mod:`repro.testing.plugin` — the pytest plugin exposing the
  ``statistical`` marker and seeded fixtures.

See ``docs/TESTING.md`` for the tier layout and how to write an audit.
"""

from repro.testing.audit import (
    CodedKeys,
    StatisticalAuditReport,
    assert_dp,
    audit_mechanism,
    boolean_sequence_keys,
    clopper_pearson_interval,
    estimate_epsilon_lower_bound,
)
from repro.testing.neighbors import (
    NeighborPair,
    bit_flip_pair,
    extreme_record_pair,
    score_gap_pair,
    substitution_pairs,
)
from repro.testing.registry import (
    AUDIT_FAMILIES,
    PreparedAudit,
    build_audit,
    run_audit,
)
from repro.testing.statistical import (
    BASE_SEED,
    DEFAULT_POLICY,
    StatisticalPolicy,
    derive_seed,
)

__all__ = [
    "AUDIT_FAMILIES",
    "BASE_SEED",
    "CodedKeys",
    "DEFAULT_POLICY",
    "NeighborPair",
    "PreparedAudit",
    "StatisticalAuditReport",
    "StatisticalPolicy",
    "assert_dp",
    "audit_mechanism",
    "bit_flip_pair",
    "boolean_sequence_keys",
    "build_audit",
    "clopper_pearson_interval",
    "derive_seed",
    "estimate_epsilon_lower_bound",
    "extreme_record_pair",
    "run_audit",
    "score_gap_pair",
    "substitution_pairs",
]
