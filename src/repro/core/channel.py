"""The learning channel of Figure 1, made concrete and measurable.

The paper's closing picture: differentially-private learning *is* an
information channel whose input is the secret sample Ẑ (drawn i.i.d. from
Q) and whose output is the predictor θ, with transition kernel
``P(θ | Ẑ) = π̂_Ẑ`` — the Gibbs posterior. :class:`LearningChannel`
instantiates that channel exactly on a finite data universe: it enumerates
every possible sample of size n, weights it by the product law Qⁿ, and
exposes the quantities the paper reasons about — the mutual information
``I(Ẑ; θ)``, the bound-optimal prior ``E_Ẑ π̂``, the adversary's Bayes
posterior over secrets given a released predictor, and the exact privacy
loss over neighbouring samples.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.exceptions import ValidationError
from repro.information.channel import DiscreteChannel
from repro.privacy.audit import ExactPrivacyAuditor


class LearningChannel:
    """Exact channel Ẑ → θ for a posterior map on a finite data universe.

    Parameters
    ----------
    data_law:
        Distribution Q of a single observation Z over a finite universe.
    n:
        Sample size; channel inputs are all ``|universe|^n`` ordered
        samples.
    posterior_map:
        ``posterior_map(sample: list) -> DiscreteDistribution`` over a
        fixed predictor support — e.g. ``GibbsPosterior(...).posterior``.
    """

    def __init__(
        self,
        data_law: DiscreteDistribution,
        n: int,
        posterior_map: Callable[[Sequence], DiscreteDistribution],
    ) -> None:
        if n < 1:
            raise ValidationError("n must be >= 1")
        self.data_law = data_law
        self.n = int(n)
        self.posterior_map = posterior_map

        self.sample_law = data_law.power(n)
        conditionals = {
            sample: posterior_map(list(sample))
            for sample, _ in self.sample_law
        }
        self.channel = DiscreteChannel.from_conditionals(conditionals)

    # ------------------------------------------------------------------
    @property
    def samples(self) -> tuple:
        """Every possible sample (ordered tuples of universe outcomes)."""
        return self.channel.input_alphabet

    @property
    def predictors(self) -> tuple:
        """The predictor support (the channel output alphabet)."""
        return self.channel.output_alphabet

    def mutual_information(self) -> float:
        """``I(Ẑ; θ)`` in nats under Qⁿ and the posterior map."""
        return self.channel.mutual_information(self.sample_law)

    def sample_entropy(self) -> float:
        """``H(Ẑ)`` — the ceiling no channel can leak more than."""
        return self.sample_law.entropy()

    def optimal_prior(self) -> DiscreteDistribution:
        """The marginal predictor law ``E_Ẑ π̂`` — the bound-optimal prior
        that collapses ``E_Ẑ KL(π̂‖π)`` to the mutual information."""
        return self.channel.output_distribution(self.sample_law)

    def adversary_posterior(self, predictor) -> DiscreteDistribution:
        """What a Bayesian adversary who observes the released predictor
        learns about the secret sample."""
        return self.channel.posterior(self.sample_law, predictor)

    def expected_risk(self, risk: Callable[[Sequence, object], float]) -> float:
        """``E_Ẑ E_{θ~π̂} risk(Ẑ, θ)`` for an arbitrary risk function."""
        total = 0.0
        for sample, weight in self.sample_law:
            conditional = self.channel.conditional(sample)
            for theta, prob in conditional:
                total += weight * prob * float(risk(list(sample), theta))
        return total

    def exact_privacy_loss(self) -> float:
        """Worst-case ε over *neighbouring* samples (exact enumeration).

        This is the measured left side of Theorem 4.1's inequality; the
        declared right side is ``2·λ·Δ(R̂)``.
        """
        auditor = ExactPrivacyAuditor(
            lambda sample: self.channel.conditional(tuple(sample))
        )
        return auditor.audit(self.data_law.support, self.n).measured_epsilon

    def leakage_summary(self) -> dict:
        """The Figure-1 dashboard: all channel quantities in one dict."""
        information = self.mutual_information()
        entropy = self.sample_entropy()
        return {
            "n": self.n,
            "num_samples": len(self.samples),
            "num_predictors": len(self.predictors),
            "mutual_information": information,
            "sample_entropy": entropy,
            "leakage_fraction": information / entropy if entropy > 0 else 0.0,
            "exact_privacy_loss": self.exact_privacy_loss(),
        }

    def __repr__(self) -> str:
        return (
            f"LearningChannel(n={self.n}, samples={len(self.samples)}, "
            f"predictors={len(self.predictors)})"
        )
