"""A simple privacy-budget accountant.

Tracks cumulative (ε, δ) spend under basic composition and refuses releases
that would exceed the configured budget — the bookkeeping a deployment of
the paper's Gibbs estimator would need when answering repeated learning
queries against one dataset.

The composed total is maintained *incrementally*: each ``charge`` folds the
new spec into a running :class:`PrivacySpec`, so reading ``spent`` (and
therefore ``can_afford``/``charge``) is O(1) per release instead of
re-folding the whole ledger — O(n²) over a run of n releases — as the
original implementation did. Every charge and every refusal also emits a
typed event on the active privacy ledger (:mod:`repro.observability`), so
an exported trace reconstructs the accountant's spend exactly.

The accountant is **thread-safe**: the affordability check and the ledger
mutation happen atomically under one internal lock, so concurrent callers
(the :mod:`repro.serving` front door charges from many client coroutines
and load-test threads) can never both pass ``can_afford`` and jointly
overshoot the budget — a textbook check-then-act race the serving layer's
concurrency tests hammer for explicitly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.exceptions import PrivacyBudgetError, ValidationError
from repro.mechanisms.base import Mechanism, PrivacySpec
from repro.observability import tracer as _trace
from repro.observability.events import (
    BudgetChargeEvent,
    BudgetRefundEvent,
    BudgetRefusalEvent,
)

#: Relative slack on budget comparisons, as a fraction of the budget
#: itself. A *flat* tolerance (the previous ``1e-12``) is wrong at both
#: ends of the scale: for tiny budgets it admits overshoot worth many
#: percent of the total ε, and it silently grows the budget of every
#: accountant by an absolute constant. Relative slack keeps the guarantee
#: ``total spend ≤ budget · (1 + 1e-12)`` no matter how many tiny charges
#: are composed, because the slack is only ever applied to the *remaining*
#: budget comparison, never accumulated per charge.
BUDGET_RTOL = 1e-12


@dataclass
class LedgerEntry:
    """One recorded privacy expenditure."""

    label: str
    spec: PrivacySpec


@dataclass
class PrivacyAccountant:
    """Budgeted tracker of privacy expenditures (basic composition).

    Parameters
    ----------
    budget:
        Total (ε, δ) the data owner is willing to spend.
    """

    budget: PrivacySpec
    _ledger: list[LedgerEntry] = field(default_factory=list)
    _spent: PrivacySpec | None = field(default=None, init=False, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.budget, PrivacySpec):
            raise ValidationError("budget must be a PrivacySpec")
        # A ledger handed to the constructor is folded once, here; from
        # then on the running total is maintained incrementally by charge.
        for entry in self._ledger:
            self._spent = (
                entry.spec if self._spent is None else self._spent.compose(entry.spec)
            )

    @property
    def spent(self) -> PrivacySpec | None:
        """Total spend so far (None when nothing is recorded)."""
        return self._spent

    @property
    def spent_epsilon(self) -> float:
        """Total ε spent so far (0.0 when nothing is recorded)."""
        spent = self._spent
        return spent.epsilon if spent else 0.0

    @property
    def spent_delta(self) -> float:
        """Total δ spent so far (0.0 when nothing is recorded)."""
        spent = self._spent
        return spent.delta if spent else 0.0

    @property
    def remaining_epsilon(self) -> float:
        """Unspent ε under basic composition."""
        spent = self._spent
        return self.budget.epsilon - (spent.epsilon if spent else 0.0)

    @property
    def remaining_delta(self) -> float:
        """Unspent δ under basic composition."""
        spent = self._spent
        return self.budget.delta - (spent.delta if spent else 0.0)

    def can_afford(self, spec: PrivacySpec) -> bool:
        """Whether a further release with ``spec`` stays within budget.

        This read is advisory under concurrency: another thread may charge
        between this check and yours. Use :meth:`charge` (or
        :meth:`try_charge`), whose check-and-record is atomic.
        """
        return (
            spec.epsilon <= self.remaining_epsilon + BUDGET_RTOL * self.budget.epsilon
            and spec.delta <= self.remaining_delta + BUDGET_RTOL * self.budget.delta
        )

    def try_charge(self, spec: PrivacySpec, *, label: str = "release") -> bool:
        """Atomically record an expenditure if affordable; report success.

        A spec is unaffordable when it exceeds the remaining budget or
        when the composed total would not be a valid spec (δ past 1).
        Unlike :meth:`charge`, an unaffordable spec returns ``False``
        *silently* — no exception, no refusal event — for callers that
        treat an unaffordable release as an expected outcome rather than
        a refusal to be logged.

        Parameters
        ----------
        spec:
            The (ε, δ) expenditure to attempt.
        label:
            Ledger label recorded with the expenditure.
        """
        if not isinstance(spec, PrivacySpec):
            raise ValidationError("spec must be a PrivacySpec")
        with self._lock:
            if not self.can_afford(spec):
                return False
            spent = spec
            if self._spent is not None:
                # Compose before recording anything: inside the budget's
                # relative slack a total δ can still pass 1, which is no
                # valid spec. Such a charge is refused with the ledger and
                # the running total untouched, so the two never disagree.
                try:
                    spent = self._spent.compose(spec)
                except ValidationError:
                    return False
            self._ledger.append(LedgerEntry(label=label, spec=spec))
            self._spent = spent
        tracer = _trace.current()
        if tracer is not None:
            tracer.record(
                BudgetChargeEvent(
                    label=label,
                    epsilon=spec.epsilon,
                    delta=spec.delta,
                    remaining_epsilon=self.remaining_epsilon,
                    remaining_delta=self.remaining_delta,
                )
            )
            tracer.count("accountant.charges")
        return True

    def charge(self, spec: PrivacySpec, *, label: str = "release") -> None:
        """Record an expenditure, or raise :class:`PrivacyBudgetError`."""
        if not self.try_charge(spec, label=label):
            tracer = _trace.current()
            if tracer is not None:
                tracer.record(
                    BudgetRefusalEvent(
                        label=label,
                        epsilon=spec.epsilon,
                        delta=spec.delta,
                        remaining_epsilon=self.remaining_epsilon,
                        remaining_delta=self.remaining_delta,
                    )
                )
                tracer.count("accountant.refusals")
            raise PrivacyBudgetError(
                f"cannot afford {spec}: remaining budget is "
                f"(ε={self.remaining_epsilon:.6g}, δ={self.remaining_delta:.3g})"
            )

    def refund(self, spec: PrivacySpec, *, label: str = "release") -> None:
        """Hand back a previously-recorded charge (a rolled-back reservation).

        Removes the most recent ledger entry matching ``(label, spec)``
        and subtracts it from the running total. Refunds exist for
        reservation-style callers (the serving layer charges *before* a
        batch executes and rolls back when the batch provably released
        nothing); refunding a charge whose release actually happened would
        falsify the privacy accounting, so only ever call this for work
        that did not run. A refund with no matching charge raises
        :class:`~repro.exceptions.ValidationError`.

        Parameters
        ----------
        spec:
            The exact (ε, δ) of the charge being rolled back.
        label:
            The label the charge was recorded under.
        """
        if not isinstance(spec, PrivacySpec):
            raise ValidationError("spec must be a PrivacySpec")
        with self._lock:
            index = None
            for position in range(len(self._ledger) - 1, -1, -1):
                entry = self._ledger[position]
                if entry.label == label and entry.spec == spec:
                    index = position
                    break
            if index is None:
                raise ValidationError(
                    f"no recorded charge {spec} labelled {label!r} to refund"
                )
            del self._ledger[index]
            # Refold the ledger rather than subtracting, so the running
            # total stays exactly the composition of the entries that
            # remain — no drift, no negative residue. Plain float adds in
            # ledger order are bit-identical to the ``compose`` fold
            # (``0.0 + x == x``) without building a PrivacySpec per entry;
            # ``sum()`` is not, since Python 3.12 compensates its rounding.
            epsilon = delta = 0.0
            for entry in self._ledger:
                epsilon += entry.spec.epsilon
                delta += entry.spec.delta
            self._spent = PrivacySpec(epsilon, delta) if self._ledger else None
        tracer = _trace.current()
        if tracer is not None:
            tracer.record(
                BudgetRefundEvent(
                    label=label,
                    epsilon=spec.epsilon,
                    delta=spec.delta,
                    remaining_epsilon=self.remaining_epsilon,
                    remaining_delta=self.remaining_delta,
                )
            )
            tracer.count("accountant.refunds")

    def run(self, mechanism: Mechanism, dataset, *, label: str | None = None,
            random_state=None):
        """Charge for and execute one mechanism release."""
        self.charge(
            mechanism.privacy, label=label or type(mechanism).__name__
        )
        return mechanism.release(dataset, random_state=random_state)

    def ledger(self) -> list[LedgerEntry]:
        """A copy of the recorded expenditures, in order."""
        with self._lock:
            return list(self._ledger)
