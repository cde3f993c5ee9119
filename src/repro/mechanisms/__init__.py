"""Differentially-private mechanisms (Section 2 of the paper).

All the standard building blocks implemented from scratch: Laplace and
geometric noise for numeric queries, the Gaussian mechanism for (ε, δ)-DP,
randomized response, vector (Gamma-norm) noise for private ERM, and — most
importantly for the paper — the exponential mechanism of McSherry & Talwar,
of which the Gibbs estimator is the learning-theoretic instance.
"""

from repro._lazy import attach as _attach

_EXPORTS = {
    "Mechanism": "repro.mechanisms.base",
    "PrivacySpec": "repro.mechanisms.base",
    "LaplaceMechanism": "repro.mechanisms.laplace",
    "GeometricMechanism": "repro.mechanisms.geometric",
    "GaussianMechanism": "repro.mechanisms.gaussian",
    "ExponentialMechanism": "repro.mechanisms.exponential",
    "RandomizedResponse": "repro.mechanisms.randomized_response",
    "VectorLaplaceMechanism": "repro.mechanisms.vector",
    "ReportNoisyMax": "repro.mechanisms.noisy_max",
    "SparseVector": "repro.mechanisms.sparse_vector",
    "above_threshold": "repro.mechanisms.sparse_vector",
    "SmoothSensitivityMedian": "repro.mechanisms.smooth_sensitivity",
    "LinearQueryWorkload": "repro.mechanisms.histogram",
    "PrivateHistogram": "repro.mechanisms.histogram",
    "NaivePrefixRelease": "repro.mechanisms.continual",
    "TreeAggregator": "repro.mechanisms.continual",
    "ExponentialQuantile": "repro.mechanisms.quantile",
    "empirical_risk_sensitivity": "repro.mechanisms.sensitivity",
    "advanced_composition": "repro.mechanisms.composition",
    "parallel_composition": "repro.mechanisms.composition",
    "sequential_composition": "repro.mechanisms.composition",
    "PrivacyAccountant": "repro.mechanisms.accountant",
}

__all__ = [
    "ExponentialMechanism",
    "ExponentialQuantile",
    "GaussianMechanism",
    "GeometricMechanism",
    "LaplaceMechanism",
    "Mechanism",
    "PrivacyAccountant",
    "PrivacySpec",
    "RandomizedResponse",
    "ReportNoisyMax",
    "LinearQueryWorkload",
    "NaivePrefixRelease",
    "TreeAggregator",
    "PrivateHistogram",
    "SmoothSensitivityMedian",
    "SparseVector",
    "above_threshold",
    "VectorLaplaceMechanism",
    "advanced_composition",
    "empirical_risk_sensitivity",
    "parallel_composition",
    "sequential_composition",
]

__getattr__, __dir__ = _attach(__name__, _EXPORTS)
