"""Unit tests for privacy definitions and auditors."""

import warnings

import numpy as np
import pytest

from repro.distributions import DiscreteDistribution
from repro.exceptions import ValidationError
from repro.mechanisms import ExponentialMechanism, RandomizedResponse
from repro.privacy import (
    ExactPrivacyAuditor,
    all_neighbour_pairs,
    is_neighbour,
    measure_rdp,
)


class TestNeighbourRelation:
    def test_single_substitution(self):
        assert is_neighbour([1, 2, 3], [1, 9, 3])

    def test_identical_not_neighbours(self):
        assert not is_neighbour([1, 2], [1, 2])

    def test_two_substitutions_not_neighbours(self):
        assert not is_neighbour([1, 2], [3, 4])

    def test_different_lengths_not_neighbours(self):
        assert not is_neighbour([1], [1, 2])

    def test_all_pairs_count(self):
        # |universe|^n datasets, each with n*(|universe|-1) neighbours.
        pairs = list(all_neighbour_pairs([0, 1, 2], n=2))
        assert len(pairs) == 9 * 2 * 2

    def test_all_pairs_are_neighbours(self):
        for a, b in all_neighbour_pairs([0, 1], n=3):
            assert is_neighbour(a, b)

    def test_duplicate_records_rejected(self):
        """A repeated record would pair a dataset with itself as its own
        'neighbour' and double-count the real pairs."""
        with pytest.raises(ValidationError, match="duplicate"):
            list(all_neighbour_pairs([0, 0, 1], 1))
        with pytest.raises(ValidationError, match="duplicate"):
            ExactPrivacyAuditor(
                lambda d: DiscreteDistribution([0, 1], [0.5, 0.5])
            ).audit([0, 0, 1], 1)


class TestExactAuditor:
    def test_randomized_response_is_sharp(self):
        """RR per-bit output law attains exactly ε — the auditor must
        measure the nominal guarantee with equality."""
        epsilon = 1.2
        rr = RandomizedResponse(epsilon=epsilon)

        def output_law(dataset):
            bit = dataset[0]
            p = rr.truth_probability
            return DiscreteDistribution(
                [0, 1], [p, 1 - p] if bit == 0 else [1 - p, p]
            )

        auditor = ExactPrivacyAuditor(output_law)
        report = auditor.audit([0, 1], n=1, claimed_epsilon=epsilon)
        assert report.satisfied
        assert report.measured_epsilon == pytest.approx(epsilon)

    def test_detects_violation(self):
        """A deliberately broken mechanism must be flagged."""

        def leaky_law(dataset):
            # Probability gap way beyond the claimed epsilon.
            if sum(dataset) > 0:
                return DiscreteDistribution([0, 1], [0.99, 0.01])
            return DiscreteDistribution([0, 1], [0.01, 0.99])

        auditor = ExactPrivacyAuditor(leaky_law)
        report = auditor.audit([0, 1], n=1, claimed_epsilon=0.5)
        assert not report.satisfied
        assert report.measured_epsilon > 0.5
        assert report.worst_pair is not None

    def test_exponential_mechanism_passes(self):
        mech = ExponentialMechanism(
            lambda d, u: -abs(sum(d) - u),
            outputs=range(3),
            sensitivity=1.0,
            epsilon=0.8,
        )
        auditor = ExactPrivacyAuditor(mech.output_distribution)
        report = auditor.audit([0, 1], n=2, claimed_epsilon=mech.epsilon)
        assert report.satisfied

    def test_reports_pair_count(self):
        mech = ExponentialMechanism(
            lambda d, u: 0.0, outputs=[0], sensitivity=1.0, epsilon=1.0
        )
        auditor = ExactPrivacyAuditor(mech.output_distribution)
        report = auditor.audit([0, 1], n=2)
        assert report.pairs_checked == 4 * 2 * 1

    def test_str_rendering(self):
        mech = ExponentialMechanism(
            lambda d, u: 0.0, outputs=[0, 1], sensitivity=1.0, epsilon=1.0
        )
        auditor = ExactPrivacyAuditor(mech.output_distribution)
        report = auditor.audit([0, 1], n=1, claimed_epsilon=1.0)
        assert "exact" in str(report)
        assert "OK" in str(report)

    def test_zero_mass_outputs_raise_no_warning(self):
        """An output atom with zero mass under both laws is skipped by
        the audit and by the Rényi measurement, without a RuntimeWarning."""

        def output_law(dataset):
            probs = [0.25, 0.75, 0.0] if dataset[0] else [0.5, 0.5, 0.0]
            return DiscreteDistribution(["a", "b", "c"], probs)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = ExactPrivacyAuditor(output_law).audit([0, 1], n=1)
            rho = measure_rdp(output_law, [0, 1], 1, alpha=2.0)
        assert report.measured_epsilon == pytest.approx(np.log(2.0))
        assert report.worst_output == "a"
        assert 0.0 < rho < report.measured_epsilon

    def test_support_mismatch_rejected(self):
        def output_law(dataset):
            support = [0, 1] if dataset[0] else [1, 0]
            return DiscreteDistribution(support, [0.5, 0.5])

        with pytest.raises(ValidationError, match="share one support"):
            ExactPrivacyAuditor(output_law).audit([0, 1], n=1)
