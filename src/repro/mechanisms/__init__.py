"""Differentially-private mechanisms (Section 2 of the paper).

All the standard building blocks implemented from scratch: Laplace and
geometric noise for numeric queries, the Gaussian mechanism for (ε, δ)-DP,
randomized response, vector (Gamma-norm) noise for private ERM, and — most
importantly for the paper — the exponential mechanism of McSherry & Talwar,
of which the Gibbs estimator is the learning-theoretic instance.
"""

from repro.mechanisms.base import Mechanism, PrivacySpec
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.geometric import GeometricMechanism
from repro.mechanisms.gaussian import GaussianMechanism
from repro.mechanisms.exponential import ExponentialMechanism
from repro.mechanisms.randomized_response import RandomizedResponse
from repro.mechanisms.vector import VectorLaplaceMechanism
from repro.mechanisms.noisy_max import ReportNoisyMax
from repro.mechanisms.sparse_vector import SparseVector, above_threshold
from repro.mechanisms.smooth_sensitivity import SmoothSensitivityMedian
from repro.mechanisms.histogram import LinearQueryWorkload, PrivateHistogram
from repro.mechanisms.continual import NaivePrefixRelease, TreeAggregator
from repro.mechanisms.quantile import ExponentialQuantile
from repro.mechanisms.sensitivity import empirical_risk_sensitivity
from repro.mechanisms.composition import (
    advanced_composition,
    parallel_composition,
    sequential_composition,
)
from repro.mechanisms.accountant import PrivacyAccountant

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
