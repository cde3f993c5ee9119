"""Unit tests for composition theorems and the accountant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PrivacyBudgetError, ValidationError
from repro.mechanisms import (
    LaplaceMechanism,
    PrivacyAccountant,
    PrivacySpec,
    advanced_composition,
    sequential_composition,
)


class TestSequentialComposition:
    def test_epsilons_add(self):
        specs = [PrivacySpec(0.5), PrivacySpec(1.0), PrivacySpec(0.25)]
        assert sequential_composition(specs).epsilon == pytest.approx(1.75)

    def test_deltas_add_and_cap(self):
        specs = [PrivacySpec(1.0, 0.6), PrivacySpec(1.0, 0.6)]
        assert sequential_composition(specs).delta == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            sequential_composition([])

    def test_rejects_non_specs(self):
        with pytest.raises(ValidationError):
            sequential_composition([1.0])


class TestAdvancedComposition:
    def test_formula(self):
        import numpy as np

        eps, k, dp = 0.1, 100, 1e-6
        out = advanced_composition(eps, 0.0, k, dp)
        expected = eps * np.sqrt(2 * k * np.log(1 / dp)) + k * eps * (
            np.exp(eps) - 1
        )
        assert out.epsilon == pytest.approx(expected)
        assert out.delta == pytest.approx(dp)

    def test_sublinear_in_k_for_small_epsilon(self):
        basic = sequential_composition([PrivacySpec(0.01)] * 10_000)
        advanced = advanced_composition(0.01, 0.0, 10_000, 1e-6)
        assert advanced.epsilon < basic.epsilon

    def test_basic_wins_for_few_queries(self):
        basic = sequential_composition([PrivacySpec(0.1)] * 2)
        advanced = advanced_composition(0.1, 0.0, 2, 1e-6)
        assert basic.epsilon < advanced.epsilon

    @pytest.mark.parametrize("delta", [2.0, -0.1, float("nan")])
    def test_rejects_invalid_delta(self, delta):
        # δ = 2 is the case no later check catches: min(kδ + δ', 1) clamps
        # it into a valid-looking PrivacySpec.
        with pytest.raises(ValidationError):
            advanced_composition(1.0, delta, 3, 1e-5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            advanced_composition(0.1, 0.0, 0, 1e-6)
        with pytest.raises(ValidationError):
            advanced_composition(0.1, 0.0, 5, 0.0)


class TestAccountant:
    def test_tracks_spend(self):
        acct = PrivacyAccountant(budget=PrivacySpec(2.0))
        acct.charge(PrivacySpec(0.5), label="q1")
        acct.charge(PrivacySpec(1.0), label="q2")
        assert acct.spent.epsilon == pytest.approx(1.5)
        assert acct.remaining_epsilon == pytest.approx(0.5)

    def test_refuses_over_budget(self):
        acct = PrivacyAccountant(budget=PrivacySpec(1.0))
        acct.charge(PrivacySpec(0.9))
        with pytest.raises(PrivacyBudgetError):
            acct.charge(PrivacySpec(0.2))

    def test_exact_budget_is_affordable(self):
        acct = PrivacyAccountant(budget=PrivacySpec(1.0))
        acct.charge(PrivacySpec(0.5))
        acct.charge(PrivacySpec(0.5))
        assert acct.remaining_epsilon == pytest.approx(0.0)

    def test_run_executes_mechanism_and_charges(self):
        acct = PrivacyAccountant(budget=PrivacySpec(1.0))
        mech = LaplaceMechanism(lambda d: float(sum(d)), 1.0, epsilon=0.4)
        out = acct.run(mech, [1, 0, 1], random_state=0)
        assert isinstance(out, float)
        assert acct.spent.epsilon == pytest.approx(0.4)
        assert acct.ledger()[0].label == "LaplaceMechanism"

    def test_run_refused_when_budget_exhausted(self):
        acct = PrivacyAccountant(budget=PrivacySpec(0.5))
        mech = LaplaceMechanism(lambda d: float(sum(d)), 1.0, epsilon=0.4)
        acct.run(mech, [1], random_state=0)
        with pytest.raises(PrivacyBudgetError):
            acct.run(mech, [1], random_state=0)

    def test_delta_budget_enforced(self):
        acct = PrivacyAccountant(budget=PrivacySpec(10.0, delta=1e-6))
        with pytest.raises(PrivacyBudgetError):
            acct.charge(PrivacySpec(1.0, delta=1e-3))

    def test_empty_ledger(self):
        acct = PrivacyAccountant(budget=PrivacySpec(1.0))
        assert acct.spent is None
        assert acct.remaining_epsilon == pytest.approx(1.0)

    def test_preloaded_ledger_is_folded_once(self):
        from repro.mechanisms.accountant import LedgerEntry

        entries = [
            LedgerEntry(label=f"q{i}", spec=PrivacySpec(0.1)) for i in range(5)
        ]
        acct = PrivacyAccountant(budget=PrivacySpec(2.0), _ledger=entries)
        assert acct.spent.epsilon == pytest.approx(0.5)
        assert acct.remaining_epsilon == pytest.approx(1.5)


class TestChargePastUnitDelta:
    """Regression: a charge inside the budget's relative slack whose
    composed δ would pass 1 used to append its ledger entry and then fail
    in ``compose``, leaving the ledger one entry ahead of ``spent``. It is
    now refused with both untouched."""

    def _accountant(self):
        acct = PrivacyAccountant(budget=PrivacySpec(10.0, delta=1.0))
        acct.charge(PrivacySpec(1.0, delta=0.5))
        return acct, PrivacySpec(1.0, delta=0.5 + 1e-13)

    def test_charge_is_refused_and_ledger_untouched(self):
        acct, spec = self._accountant()
        assert acct.can_afford(spec)  # within BUDGET_RTOL of the budget
        with pytest.raises(PrivacyBudgetError):
            acct.charge(spec)
        assert len(acct.ledger()) == 1
        assert acct.spent == PrivacySpec(1.0, delta=0.5)

    def test_try_charge_returns_false(self):
        acct, spec = self._accountant()
        assert acct.try_charge(spec) is False
        assert len(acct.ledger()) == 1
        assert acct.spent == PrivacySpec(1.0, delta=0.5)


class TestAccountantSinglePassAccounting:
    """Regression: ``spent`` must not re-fold the whole ledger per charge.

    The original implementation recomputed the composed total from scratch
    on every ``spent``/``can_afford``/``charge`` — O(n²) compose calls over
    a run of n releases. The fix keeps a running total, so n charges cost
    exactly n-1 composes (the first charge initializes the total).
    """

    def test_n_charges_compose_linearly(self, monkeypatch):
        compose_calls = 0
        original_compose = PrivacySpec.compose

        def spying_compose(self, other):
            nonlocal compose_calls
            compose_calls += 1
            return original_compose(self, other)

        monkeypatch.setattr(PrivacySpec, "compose", spying_compose)
        n = 50
        acct = PrivacyAccountant(budget=PrivacySpec(100.0))
        for _ in range(n):
            acct.charge(PrivacySpec(0.01))
        # Linear accounting: one compose per charge after the first. The
        # O(n²) fold would have needed n·(n-1)/2 = 1225 composes by now.
        assert compose_calls == n - 1
        # Reading totals afterwards costs nothing further.
        _ = acct.spent, acct.remaining_epsilon, acct.remaining_delta
        assert compose_calls == n - 1

    def test_spent_reads_are_constant_time(self, monkeypatch):
        compose_calls = 0
        original_compose = PrivacySpec.compose

        def spying_compose(self, other):
            nonlocal compose_calls
            compose_calls += 1
            return original_compose(self, other)

        monkeypatch.setattr(PrivacySpec, "compose", spying_compose)
        acct = PrivacyAccountant(budget=PrivacySpec(10.0))
        acct.charge(PrivacySpec(0.5))
        acct.charge(PrivacySpec(0.5))
        before = compose_calls
        for _ in range(100):
            assert acct.spent.epsilon == pytest.approx(1.0)
        assert compose_calls == before


class TestRelativeBudgetTolerance:
    """Regression: the affordability slack must scale with the budget.

    A flat ``1e-12`` tolerance silently granted every accountant an extra
    absolute 1e-12 of ε per comparison — material for tiny budgets and
    wrong in kind for all of them. The relative tolerance admits exact
    exhaustion despite float rounding, but never more than a 1e-9-fraction
    overshoot of the budget itself.
    """

    def test_many_tiny_charges_never_exceed_relative_budget(self):
        budget = PrivacySpec(epsilon=1e-9)
        acct = PrivacyAccountant(budget=budget)
        n, spec = 1000, PrivacySpec(1e-12)
        accepted = 0
        for _ in range(n):
            try:
                acct.charge(spec)
            except PrivacyBudgetError:
                break
            accepted += 1
        assert accepted == n  # 1000 × 1e-12 = 1e-9: exactly affordable
        assert acct.spent.epsilon <= budget.epsilon * (1 + 1e-9)
        # ... and the next tiny charge must be refused outright.
        with pytest.raises(PrivacyBudgetError):
            acct.charge(spec)
        assert acct.spent.epsilon <= budget.epsilon * (1 + 1e-9)

    def test_exact_exhaustion_still_affordable_for_tiny_budgets(self):
        acct = PrivacyAccountant(budget=PrivacySpec(1e-9))
        acct.charge(PrivacySpec(5e-10))
        acct.charge(PrivacySpec(5e-10))
        assert acct.remaining_epsilon == pytest.approx(0.0, abs=1e-24)

    def test_flat_absolute_slack_is_gone(self):
        # Under the old flat 1e-12 tolerance this overshoot (50% of the
        # budget!) was accepted; relative slack refuses it.
        acct = PrivacyAccountant(budget=PrivacySpec(1e-12))
        acct.charge(PrivacySpec(1e-12))
        with pytest.raises(PrivacyBudgetError):
            acct.charge(PrivacySpec(5e-13))


def _compose_fold(entries):
    """The reference total: ``PrivacySpec.compose`` over entries in order."""
    total = None
    for entry in entries:
        total = entry.spec if total is None else total.compose(entry.spec)
    return total


class TestRefundExactness:
    """A refund leaves ``spent`` equal, bit for bit, to the composition of
    the ledger entries that remain — whichever matching entry it removes.

    Summing with compensated rounding (the built-in ``sum()`` on Python
    ≥ 3.12) would break this at the last bit, and with it admission
    decisions at the budget boundary.
    """

    CHARGES = st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.floats(min_value=1e-6, max_value=1.0),
            st.sampled_from([0.0, 1e-9, 3e-7]),
        ),
        min_size=1,
        max_size=24,
    )

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(charges=CHARGES)
    def test_spent_is_the_compose_fold_after_each_refund(self, charges):
        acct = PrivacyAccountant(budget=PrivacySpec(25.0, delta=1e-3))
        for label, epsilon, delta in charges:
            acct.charge(PrivacySpec(epsilon, delta), label=label)
        for which in ("last", "first", "middle"):
            ledger = acct.ledger()
            if not ledger:
                break
            n = len(ledger)
            entry = ledger[{"last": n - 1, "first": 0, "middle": n // 2}[which]]
            acct.refund(entry.spec, label=entry.label)
            expected = _compose_fold(acct.ledger())
            if expected is None:
                assert acct.spent is None
                assert acct.spent_epsilon == acct.spent_delta == 0.0
                continue
            assert acct.spent.epsilon.hex() == expected.epsilon.hex()
            assert acct.spent.delta.hex() == expected.delta.hex()
            assert acct.spent_epsilon == expected.epsilon
            assert acct.spent_delta == expected.delta
