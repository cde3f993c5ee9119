"""Probability-distribution substrate.

Exact finite computations in the paper (Gibbs channels, mutual information,
privacy ratios) run on :class:`DiscreteDistribution`; continuous noise laws
back the Laplace/Gaussian/vector mechanisms; the samplers make the Gibbs
posterior usable over continuous parameter spaces.
"""

from repro._lazy import attach as _attach

_EXPORTS = {
    "DiscreteDistribution": "repro.distributions.discrete",
    "CauchyNoise": "repro.distributions.continuous",
    "GammaNormVector": "repro.distributions.continuous",
    "GaussianNoise": "repro.distributions.continuous",
    "GumbelNoise": "repro.distributions.continuous",
    "LaplaceNoise": "repro.distributions.continuous",
    "NoiseDistribution": "repro.distributions.continuous",
    "BatchedLangevinSampler": "repro.distributions.sampling",
    "LangevinResult": "repro.distributions.sampling",
    "MetropolisHastingsSampler": "repro.distributions.sampling",
    "log_acceptance_ratio": "repro.distributions.sampling",
}

__all__ = [
    "BatchedLangevinSampler",
    "CauchyNoise",
    "DiscreteDistribution",
    "GammaNormVector",
    "GaussianNoise",
    "GumbelNoise",
    "LangevinResult",
    "LaplaceNoise",
    "NoiseDistribution",
    "MetropolisHastingsSampler",
    "log_acceptance_ratio",
]

__getattr__, __dir__ = _attach(__name__, _EXPORTS)
