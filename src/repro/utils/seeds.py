"""Deterministic seed derivation: every derived seed is a SHA-256 hash.

:func:`derive_seed` turns a tuple of stable names into a seed, so tests,
audits, tenants and load-test clients each get their own reproducible
stream without global state. :func:`reseed` re-derives a seed for a retry
attempt. Both are pure functions of their arguments, identical on every
platform and in every process.
"""

from __future__ import annotations

import hashlib

#: Default base seed for the statistical tier (the workshop date, matching
#: the fixture convention in ``tests/conftest.py``).
BASE_SEED = 20120330


def derive_seed(*parts, base_seed: int = BASE_SEED) -> int:
    """Derive a deterministic 63-bit seed from string-able parts.

    Hash-based derivation (SHA-256 over the rendered parts) gives every
    (test, attempt) pair an independent-looking stream without any global
    state: the same parts always produce the same seed, on every platform
    and in every process.

    Parameters
    ----------
    *parts:
        Values identifying the consumer (test name, attempt number, ...);
        rendered with ``repr`` before hashing.
    base_seed:
        Tier-wide base mixed into the hash, so a policy with a different
        ``base_seed`` yields disjoint streams.
    """
    digest = hashlib.sha256()
    digest.update(repr(int(base_seed)).encode())
    for part in parts:
        digest.update(b"\x1f")
        digest.update(repr(part).encode())
    return int.from_bytes(digest.digest()[:8], "big") >> 1


def reseed(seed: int, attempt: int) -> int:
    """Deterministically re-derive a seed for a retry attempt.

    Attempt 0 returns ``seed`` unchanged; attempt ``k > 0`` hashes
    ``(seed, k)`` so a retried serving batch gets a fresh but reproducible
    RNG stream instead of replaying the exact draw that just failed.

    Parameters
    ----------
    seed:
        The original integer seed.
    attempt:
        Retry attempt number (0 = first try).
    """
    if attempt == 0:
        return int(seed)
    blob = f"repro.reseed:{int(seed)}:{int(attempt)}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")
