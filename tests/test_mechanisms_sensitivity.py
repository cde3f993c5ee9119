"""Unit tests for the empirical-risk sensitivity."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.mechanisms import empirical_risk_sensitivity
from repro.privacy import all_neighbour_pairs


class TestClosedForms:
    def test_empirical_risk_sensitivity(self):
        assert empirical_risk_sensitivity(loss_range=1.0, n=50) == pytest.approx(
            1.0 / 50
        )

    def test_empirical_risk_sensitivity_matches_enumeration(self):
        """The closed form B/n equals exhaustive enumeration for a concrete
        bounded loss (absolute loss of a fixed predictor on {0,1} data)."""
        theta = 0.3

        def risk(dataset):
            return float(np.mean([abs(theta - z) for z in dataset]))

        enumerated = max(
            abs(risk(a) - risk(b)) for a, b in all_neighbour_pairs([0, 1], 3)
        )
        # Loss values are |0.3-0| = 0.3 and |0.3-1| = 0.7: range 0.4.
        assert enumerated == pytest.approx(
            empirical_risk_sensitivity(loss_range=0.4, n=3)
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            empirical_risk_sensitivity(0.0, 10)
        with pytest.raises(ValidationError):
            empirical_risk_sensitivity(1.0, 0)
