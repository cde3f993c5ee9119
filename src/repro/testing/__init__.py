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

from repro._lazy import attach as _attach

_EXPORTS = {
    "CodedKeys": "repro.testing.audit",
    "StatisticalAuditReport": "repro.testing.audit",
    "assert_dp": "repro.testing.audit",
    "audit_mechanism": "repro.testing.audit",
    "boolean_sequence_keys": "repro.testing.audit",
    "clopper_pearson_interval": "repro.testing.audit",
    "estimate_epsilon_lower_bound": "repro.testing.audit",
    "NeighborPair": "repro.testing.neighbors",
    "bit_flip_pair": "repro.testing.neighbors",
    "extreme_record_pair": "repro.testing.neighbors",
    "score_gap_pair": "repro.testing.neighbors",
    "AUDIT_FAMILIES": "repro.testing.registry",
    "PreparedAudit": "repro.testing.registry",
    "build_audit": "repro.testing.registry",
    "run_audit": "repro.testing.registry",
    "BASE_SEED": "repro.utils.seeds",
    "DEFAULT_POLICY": "repro.testing.statistical",
    "StatisticalPolicy": "repro.testing.statistical",
    "derive_seed": "repro.utils.seeds",
}

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
]

__getattr__, __dir__ = _attach(__name__, _EXPORTS)
