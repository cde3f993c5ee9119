"""Exact privacy auditing: measure the ε a mechanism actually provides.

:class:`ExactPrivacyAuditor` serves mechanisms exposing their exact output
distribution on finite ranges (the exponential mechanism, the Gibbs
estimator, randomized response, the geometric mechanism): it enumerates
every neighbouring dataset pair on a finite universe and takes the worst
max divergence. This *proves* Theorem 4.1's guarantee rather than sampling
it. Black-box mechanisms are audited statistically, with certified
Clopper–Pearson bounds, by :func:`repro.testing.audit_mechanism`.

The auditor, ``measure_rdp`` and ``LearningChannel.exact_privacy_loss``
all reduce the one enumeration that :func:`_neighbour_laws` builds.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.exceptions import ValidationError
from repro.information.divergences import _log_ratio_rows
from repro.privacy.definitions import all_neighbour_pairs


def _neighbour_laws(output_distribution: Callable, universe: Sequence, n: int):
    """Every size-``n`` dataset's exact output law, stacked once.

    Returns ``(datasets, support, laws, left, right)``: the datasets in
    ``itertools.product`` order, their laws' shared support, the laws'
    probability vectors as rows (as they are, not renormalised), and the
    pairs of :func:`~repro.privacy.all_neighbour_pairs` as row indices.
    """
    universe = list(universe)
    pairs = list(all_neighbour_pairs(universe, n))
    datasets = list(itertools.product(universe, repeat=n))
    outputs = [output_distribution(list(dataset)) for dataset in datasets]
    support = outputs[0].support
    if any(law.support != support for law in outputs):
        raise ValidationError("all output distributions must share one support")
    laws = np.stack([law.probabilities for law in outputs])
    row = {dataset: index for index, dataset in enumerate(datasets)}
    indices = np.array([(row[a], row[b]) for a, b in pairs], dtype=np.intp)
    left, right = indices.reshape(-1, 2).T
    return datasets, support, laws, left, right


@dataclass
class AuditReport:
    """Result of an exact privacy audit.

    Attributes
    ----------
    measured_epsilon:
        The exact worst-case privacy loss over every neighbour pair.
    claimed_epsilon:
        The mechanism's nominal guarantee, if one was supplied.
    satisfied:
        ``measured <= claimed`` (None when no claim was supplied).
    worst_pair:
        The first neighbour pair achieving a positive measured loss, or None.
    worst_output:
        The output atom achieving it.
    pairs_checked:
        Number of ordered neighbour pairs examined.
    """

    measured_epsilon: float
    claimed_epsilon: float | None
    satisfied: bool | None
    worst_pair: tuple | None
    worst_output: object | None
    pairs_checked: int

    def __str__(self) -> str:
        claim = (
            f" (claimed {self.claimed_epsilon:.6g}: "
            f"{'OK' if self.satisfied else 'VIOLATED'})"
            if self.claimed_epsilon is not None
            else ""
        )
        return (
            f"AuditReport[exact]: measured ε = "
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
        datasets, support, laws, left, right = _neighbour_laws(
            self.output_distribution, universe, n
        )
        ratios = _log_ratio_rows(laws[left], laws[right])
        losses = ratios.max(axis=-1)
        worst, worst_pair, worst_output = 0.0, None, None
        if losses.max(initial=0.0) > 0:
            index = int(np.argmax(losses))
            worst = float(losses[index])
            worst_pair = (datasets[left[index]], datasets[right[index]])
            worst_output = support[int(np.argmax(ratios[index]))]
        satisfied = (
            None if claimed_epsilon is None else worst <= claimed_epsilon + tolerance
        )
        return AuditReport(
            measured_epsilon=worst, claimed_epsilon=claimed_epsilon,
            satisfied=satisfied, worst_pair=worst_pair,
            worst_output=worst_output, pairs_checked=len(left),
        )
