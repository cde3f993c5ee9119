"""Statistical test policy: seeds, tolerances, retries.

Monte-Carlo verification of a privacy guarantee is a hypothesis test, and a
test suite full of hypothesis tests needs an explicit policy or it flakes:
every statistical test in this repository (the ``statistical`` pytest tier)
derives its seed deterministically from a stable name, certifies failures
at a declared confidence level, and retries a certified failure a bounded
number of times with a *fresh derived seed* before reporting it.

With per-audit confidence ``c`` and ``r`` retries, a correct mechanism
fails spuriously with probability at most ``(1 - c)^(r + 1)`` — at the
defaults (``c = 0.999``, ``r = 1``) that is one in a million per audit —
while a genuinely broken mechanism keeps failing every attempt because the
violation is in the distribution, not in the draw. Since all seeds are
derived (never wall-clock), the whole tier is bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ValidationError
from repro.utils.seeds import BASE_SEED, derive_seed
from repro.utils.validation import check_confidence


@dataclass(frozen=True)
class StatisticalPolicy:
    """Tier-wide knobs for statistical tests.

    Parameters
    ----------
    base_seed:
        Root of every derived seed (see :func:`derive_seed`).
    n_samples:
        Default Monte-Carlo draws per dataset in an audit.
    confidence:
        Certification level of a reported violation: a failing audit is
        wrong with probability at most ``1 - confidence``.
    max_retries:
        How many times a certified failure is retried with a fresh derived
        seed before it is reported (flake control; see module docstring).
    tolerance:
        Additive slack on the claimed ε when deciding pass/fail, absorbing
        floating-point noise in the claim itself.
    n_bins:
        Default bin count for continuous-output audits.
    """

    base_seed: int = BASE_SEED
    n_samples: int = 12_000
    confidence: float = 0.999
    max_retries: int = 1
    tolerance: float = 1e-9
    n_bins: int = 16

    def __post_init__(self) -> None:
        check_confidence(self.confidence, name="confidence")
        if self.n_samples < 2:
            raise ValidationError("n_samples must be >= 2")
        if self.max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if self.tolerance < 0:
            raise ValidationError("tolerance must be >= 0")
        if self.n_bins < 2:
            raise ValidationError("n_bins must be >= 2")

    def seed_for(self, name: str, attempt: int = 0) -> int:
        """The derived seed for attempt ``attempt`` of the test ``name``.

        Parameters
        ----------
        name:
            Stable identifier of the test or audit.
        attempt:
            Zero-based retry counter; each attempt gets a fresh stream.
        """
        return derive_seed(name, int(attempt), base_seed=self.base_seed)

    def false_failure_probability(self) -> float:
        """Upper bound on the chance a *correct* mechanism fails the tier.

        ``(1 - confidence) ** (max_retries + 1)`` — every attempt must
        independently certify a violation for the test to report one.
        """
        return (1.0 - self.confidence) ** (self.max_retries + 1)


#: The policy the shipped statistical tier runs under.
DEFAULT_POLICY = StatisticalPolicy()
