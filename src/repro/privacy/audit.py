"""Exact privacy auditing: measure the ε a mechanism actually provides.

:class:`ExactPrivacyAuditor` serves mechanisms exposing their exact output
distribution on finite ranges (the exponential mechanism, the Gibbs
estimator, randomized response, the geometric mechanism): it enumerates
every neighbouring dataset pair on a finite universe and takes the worst
max divergence. This *proves* Theorem 4.1's guarantee rather than sampling
it. Black-box mechanisms are audited statistically, with certified
Clopper–Pearson bounds, by :func:`repro.testing.audit_mechanism`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.exceptions import ValidationError
from repro.information.divergences import max_divergence
from repro.privacy.definitions import all_neighbour_pairs


@dataclass
class AuditReport:
    """Result of a privacy audit.

    Attributes
    ----------
    measured_epsilon:
        The measured worst-case privacy loss (exact, or an estimate for
        sampled audits).
    claimed_epsilon:
        The mechanism's nominal guarantee, if one was supplied.
    satisfied:
        ``measured <= claimed`` (None when no claim was supplied).
    worst_pair:
        The neighbouring dataset pair achieving the measured loss.
    worst_output:
        The output atom achieving it.
    pairs_checked:
        Number of ordered neighbour pairs examined.
    exact:
        True for enumeration-based audits, False for sampled estimates.
    details:
        Auditor-specific extras (e.g. per-pair losses, sample counts).
    """

    measured_epsilon: float
    claimed_epsilon: float | None
    satisfied: bool | None
    worst_pair: tuple | None
    worst_output: object | None
    pairs_checked: int
    exact: bool
    details: dict = field(default_factory=dict)

    def __str__(self) -> str:
        kind = "exact" if self.exact else "sampled"
        claim = (
            f" (claimed {self.claimed_epsilon:.6g}: "
            f"{'OK' if self.satisfied else 'VIOLATED'})"
            if self.claimed_epsilon is not None
            else ""
        )
        return (
            f"AuditReport[{kind}]: measured ε = "
            f"{self.measured_epsilon:.6g}{claim} over {self.pairs_checked} pairs"
        )


class ExactPrivacyAuditor:
    """Enumerate neighbour pairs and compute the exact worst privacy loss.

    Parameters
    ----------
    output_distribution:
        ``dataset -> DiscreteDistribution`` giving the mechanism's exact
        output law (all laws must share one support).
    """

    def __init__(
        self, output_distribution: Callable[[Sequence], DiscreteDistribution]
    ) -> None:
        self.output_distribution = output_distribution

    def audit(
        self,
        universe: Sequence,
        n: int,
        *,
        claimed_epsilon: float | None = None,
        tolerance: float = 1e-9,
    ) -> AuditReport:
        """Exact worst-case ε over all neighbouring size-``n`` datasets."""
        worst = 0.0
        worst_pair = None
        worst_output = None
        pairs = 0
        cache: dict[tuple, DiscreteDistribution] = {}

        def law(dataset: tuple) -> DiscreteDistribution:
            if dataset not in cache:
                cache[dataset] = self.output_distribution(list(dataset))
            return cache[dataset]

        reference_support = None
        for dataset, neighbour in all_neighbour_pairs(universe, n):
            pairs += 1
            p = law(dataset)
            q = law(neighbour)
            if reference_support is None:
                reference_support = p.support
            if p.support != reference_support or q.support != reference_support:
                raise ValidationError(
                    "all output distributions must share one support"
                )
            loss = max_divergence(p, q)
            if loss > worst:
                worst = loss
                worst_pair = (dataset, neighbour)
                ratios = p.log_probabilities - q.log_probabilities
                finite = np.where(p.probabilities > 0, ratios, -np.inf)
                worst_output = p.support[int(np.argmax(finite))]

        satisfied = None
        if claimed_epsilon is not None:
            satisfied = worst <= claimed_epsilon + tolerance
        return AuditReport(
            measured_epsilon=float(worst),
            claimed_epsilon=claimed_epsilon,
            satisfied=satisfied,
            worst_pair=worst_pair,
            worst_output=worst_output,
            pairs_checked=pairs,
            exact=True,
        )

