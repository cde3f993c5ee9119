"""Unit tests for entropies."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.distributions import DiscreteDistribution
from repro.information import entropy


def simplex(size: int):
    return st.lists(st.floats(1e-6, 1.0), min_size=size, max_size=size).map(
        lambda ws: [w / sum(ws) for w in ws]
    )


class TestEntropy:
    def test_uniform_is_log_k(self):
        assert entropy([0.25] * 4) == pytest.approx(np.log(4))

    def test_point_mass_is_zero(self):
        assert entropy([1.0, 0.0, 0.0]) == pytest.approx(0.0)

    def test_accepts_discrete_distribution(self):
        dist = DiscreteDistribution(["a", "b"], [0.5, 0.5])
        assert entropy(dist) == pytest.approx(np.log(2))

    @given(simplex(5))
    def test_bounded_by_log_support(self, probs):
        assert 0.0 <= entropy(probs) <= np.log(5) + 1e-9
