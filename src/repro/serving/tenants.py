"""Tenants: per-data-owner budgets and the registry.

A serving deployment answers queries for many *tenants* (data owners),
each with its own privacy budget and its own RNG stream. This module
provides the bookkeeping the front door composes:

* :class:`Tenant` pairs one :class:`~repro.mechanisms.PrivacyAccountant`
  over the tenant's whole (ε, δ) budget with a persistent, seeded
  generator, so a tenant's releases compose on one ledger and form one
  deterministic RNG stream across requests and batches.
* :class:`TenantRegistry` is the thread-safe name → tenant directory the
  service resolves requests against.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.mechanisms.accountant import PrivacyAccountant
from repro.mechanisms.base import PrivacySpec
from repro.utils.seeds import derive_seed
from repro.utils.validation import check_random_state

__all__ = ["Tenant", "TenantRegistry"]


@dataclass
class Tenant:
    """A data owner: identity, budget accountant, and a persistent RNG stream.

    Parameters
    ----------
    tenant_id:
        Unique tenant name.
    accountant:
        The accountant enforcing the tenant's whole budget under basic
        composition; its lock makes every charge atomic.
    seed:
        Root seed of the tenant's release stream.
    """

    tenant_id: str
    accountant: PrivacyAccountant
    seed: int
    rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.tenant_id, str) or not self.tenant_id:
            raise ValidationError("tenant_id must be a non-empty string")
        self.rng = check_random_state(derive_seed("tenant", self.tenant_id,
                                                  base_seed=self.seed))


class TenantRegistry:
    """Thread-safe directory of registered tenants."""

    def __init__(self) -> None:
        self._tenants: dict[str, Tenant] = {}
        self._lock = threading.Lock()

    def register(
        self,
        tenant_id: str,
        budget: PrivacySpec,
        *,
        seed: int = 0,
    ) -> Tenant:
        """Create and store a tenant; refuse duplicate ids.

        Parameters
        ----------
        tenant_id:
            Unique tenant name.
        budget:
            Total (ε, δ) the tenant's data owner will spend.
        seed:
            Root seed of the tenant's deterministic release stream.
        """
        tenant = Tenant(
            tenant_id=tenant_id,
            accountant=PrivacyAccountant(budget),
            seed=seed,
        )
        with self._lock:
            if tenant_id in self._tenants:
                raise ValidationError(f"tenant {tenant_id!r} already registered")
            self._tenants[tenant_id] = tenant
        return tenant

    def get(self, tenant_id: str) -> Tenant:
        """Look up a tenant by id, raising on unknown names.

        Parameters
        ----------
        tenant_id:
            The tenant name to resolve.
        """
        with self._lock:
            tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise ValidationError(f"unknown tenant {tenant_id!r}")
        return tenant

    def tenant_ids(self) -> list[str]:
        """Registered tenant ids, sorted."""
        with self._lock:
            return sorted(self._tenants)
