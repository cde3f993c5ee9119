"""Typed privacy-ledger events: the budget flow, recorded.

The paper treats a DP learner as a channel ``P(θ|Ẑ)`` whose privacy
parameter is a *quantity* — something to measure and account for, not just
declare (Cuff & Yu frame ε directly as a mutual-information constraint).
This module defines the event vocabulary that makes the budget flow
observable: every mechanism release, every accountant charge or refusal,
and every Gibbs temperature calibration emits one typed event carrying the
(ε, δ) it spends or certifies.

Events are immutable dataclasses with a stable JSON form (``to_dict`` /
:func:`event_from_dict` round-trip), so a trace exported by one process can
be audited by another: :func:`ledger_totals` re-derives the total spend of
a run under basic composition, which must agree exactly with the
accountant's own running total (tested in the tracing-equivalence suite).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

from repro.exceptions import ValidationError
from repro.utils.validation import check_in_range, check_positive

__all__ = [
    "BudgetChargeEvent",
    "BudgetRefundEvent",
    "BudgetRefusalEvent",
    "CalibrationEvent",
    "LedgerEvent",
    "MechanismReleaseEvent",
    "event_from_dict",
    "ledger_totals",
]


@dataclass(frozen=True)
class LedgerEvent:
    """Base class for privacy-ledger events.

    Parameters
    ----------
    label:
        Human-readable origin of the event (mechanism class name,
        accountant charge label, calibration site).
    epsilon:
        The ε this event spends, charges, or certifies.
    delta:
        The δ companion of ``epsilon`` (0.0 for pure ε-DP events).
    """

    #: Stable discriminator used in the JSON form (overridden per subclass).
    kind: ClassVar[str] = "event"

    label: str
    epsilon: float
    delta: float = 0.0

    def to_dict(self) -> dict:
        """The event as a JSON-serializable dict (``kind`` included)."""
        payload = {"kind": self.kind}
        for spec in fields(self):
            payload[spec.name] = getattr(self, spec.name)
        return payload


@dataclass(frozen=True)
class MechanismReleaseEvent(LedgerEvent):
    """One or more ``Mechanism`` releases and the guarantee each consumed.

    A single ``release`` call records one event with ``count == 1``; a
    batched ``release_many(dataset, n)`` call records *one* event with
    ``count == n`` instead of ``n`` events, so traces stay small while
    :func:`ledger_totals` still composes the same total spend.

    Parameters
    ----------
    mechanism:
        Class name of the mechanism that produced the output.
    count:
        Number of releases this event aggregates (≥ 1).
    """

    kind: ClassVar[str] = "release"

    mechanism: str = ""
    count: int = 1


@dataclass(frozen=True)
class BudgetChargeEvent(LedgerEvent):
    """A :class:`~repro.mechanisms.PrivacyAccountant` expenditure.

    Parameters
    ----------
    remaining_epsilon:
        Unspent ε *after* this charge was recorded.
    remaining_delta:
        Unspent δ after this charge was recorded.
    """

    kind: ClassVar[str] = "charge"

    remaining_epsilon: float = 0.0
    remaining_delta: float = 0.0


@dataclass(frozen=True)
class BudgetRefundEvent(LedgerEvent):
    """A previously-recorded charge handed back to the accountant.

    Refunds model *reservations that were rolled back* — a serving layer
    reserves budget before executing a batch and refunds it when the batch
    fails or times out before anything was released. A refund never makes
    the ledger under-count an actual release: callers may only refund a
    charge whose release provably did not happen.

    In :func:`ledger_totals`, refund events *subtract* their (ε, δ) when
    the ``"refund"`` kind is included, so
    ``ledger_totals(events, kinds=("charge", "refund"))`` reproduces the
    accountant's net spend exactly.

    Parameters
    ----------
    remaining_epsilon:
        Unspent ε *after* this refund was applied.
    remaining_delta:
        Unspent δ after this refund was applied.
    """

    kind: ClassVar[str] = "refund"

    remaining_epsilon: float = 0.0
    remaining_delta: float = 0.0


@dataclass(frozen=True)
class BudgetRefusalEvent(LedgerEvent):
    """A charge the accountant refused: the budget would have been exceeded.

    Parameters
    ----------
    remaining_epsilon:
        Unspent ε at the moment of refusal (unchanged by the refusal).
    remaining_delta:
        Unspent δ at the moment of refusal.
    """

    kind: ClassVar[str] = "refusal"

    remaining_epsilon: float = 0.0
    remaining_delta: float = 0.0


@dataclass(frozen=True)
class CalibrationEvent(LedgerEvent):
    """A Gibbs temperature ↔ privacy calibration (Theorem 4.1).

    Parameters
    ----------
    temperature:
        The inverse temperature λ on the Gibbs side of the calibration.
    loss_range:
        Width of the bounded-loss interval entering ``Δ(R̂) = B/n``.
    n:
        Sample size the guarantee was calibrated for.
    """

    kind: ClassVar[str] = "calibration"

    temperature: float = 0.0
    loss_range: float = 0.0
    n: int = 0


#: kind discriminator -> event class, for deserialization.
EVENT_KINDS: dict[str, type[LedgerEvent]] = {
    cls.kind: cls
    for cls in (
        MechanismReleaseEvent,
        BudgetChargeEvent,
        BudgetRefundEvent,
        BudgetRefusalEvent,
        CalibrationEvent,
        LedgerEvent,
    )
}


def event_from_dict(payload: dict) -> LedgerEvent:
    """Rebuild a ledger event from its :meth:`LedgerEvent.to_dict` form.

    Events built in process are not checked; one read back from a trace
    is, so that :func:`ledger_totals` of a corrupted trace raises instead
    of composing to NaN or a negative spend.

    Parameters
    ----------
    payload:
        Dict with a ``kind`` discriminator plus that kind's fields.

    Raises
    ------
    ValidationError
        On an unknown kind or field, a missing field, ε that is not
        finite and ``>= 0``, or δ outside ``[0, 1]``.
    """
    if not isinstance(payload, dict):
        raise ValidationError("ledger event payload must be a dict")
    kind = payload.get("kind")
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        known = ", ".join(sorted(EVENT_KINDS))
        raise ValidationError(f"unknown ledger event kind {kind!r}; known: {known}")
    names = {spec.name for spec in fields(cls)}
    extra = sorted(set(payload) - names - {"kind"})
    if extra:
        raise ValidationError(f"ledger event has unknown fields: {extra}")
    try:
        event = cls(**{k: v for k, v in payload.items() if k != "kind"})
    except TypeError as error:
        raise ValidationError(f"malformed ledger event {payload!r}: {error}") from error
    # A trace read back must compose to a real spend: ε finite and >= 0,
    # δ in [0, 1]. (The ``remaining_*`` fields are left alone: the
    # accountant's slack can leave them slightly below zero.)
    check_positive(event.epsilon, name="ledger event epsilon", strict=False)
    check_in_range(event.delta, name="ledger event delta", low=0.0, high=1.0)
    return event


def ledger_totals(
    events, kinds: tuple[str, ...] = ("charge",)
) -> tuple[float, float]:
    """Total (ε, δ) of selected events under basic composition.

    Parameters
    ----------
    events:
        Iterable of :class:`LedgerEvent` (or their dict forms).
    kinds:
        Event kinds to include; defaults to accountant charges only, so
        the total reproduces exactly what the accountant recorded. Add
        ``"refund"`` to net out rolled-back reservations (refund events
        contribute negatively).
    """
    epsilon_total = 0.0
    delta_total = 0.0
    for event in events:
        if isinstance(event, dict):
            event = event_from_dict(event)
        if event.kind in kinds:
            count = getattr(event, "count", 1)
            # Refunds hand budget back: they enter the composition with a
            # negative sign, so ("charge", "refund") reproduces the
            # accountant's *net* spend after rolled-back reservations.
            sign = -1.0 if event.kind == "refund" else 1.0
            epsilon_total += sign * count * event.epsilon
            delta_total += sign * count * event.delta
    return (epsilon_total, delta_total)
