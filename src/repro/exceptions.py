"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still letting programming errors (``TypeError`` from bad call
signatures, etc.) propagate untouched.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong range, shape, or content)."""


class NotNormalizedError(ValidationError):
    """A probability vector does not sum to one within tolerance."""


class PrivacyBudgetError(ReproError):
    """A privacy accountant was asked to exceed its remaining budget."""


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its iteration budget."""


class SupportMismatchError(ValidationError):
    """Two distributions that must share a support do not."""


class NotFittedError(ReproError):
    """A model or estimator was used before being fitted."""


class ServingError(ReproError):
    """A serving-layer failure (batch execution, clock driver, drain)."""


class ServingTimeoutError(ServingError):
    """A serving request exceeded its per-request clock timeout.

    The reservation charged at admission is refunded whenever the request
    was still queued (nothing released); a request that timed out while
    its batch was already executing keeps its charge — the release may
    have happened, and the ledger must never under-count one that did.
    """


class ServiceClosedError(ServingError):
    """A request was submitted to (or aborted by) a shut-down service."""


class DPAuditError(ReproError, AssertionError):
    """A statistical audit certified a violation of a claimed DP guarantee.

    Subclasses ``AssertionError`` so ``repro.testing.assert_dp`` composes
    with plain pytest assertions; the failing
    :class:`~repro.testing.StatisticalAuditReport` is attached as the
    ``report`` attribute.
    """
