"""Tenant-to-shard routing: rendezvous hashing plus migration pins.

The service runs N broker shards, each owning one cache's column
space.  Arrivals are routed by **rendezvous (highest-random-weight)
hashing** over the tenant name: every (tenant, shard) pair gets a
deterministic score from a keyed BLAKE2 digest and the tenant lands on
the highest-scoring shard.  Rendezvous hashing gives the stability
property the router tests assert: when the shard count changes, the
only tenants whose route changes are the ones migrated onto (or off)
the added (removed) shard — everyone else's argmax is untouched.

Live migration overlays the hash with **pins**: when the hotspot
monitor moves a resident tenant to another shard, the router records
the override so subsequent requests for that tenant (departure, a
re-admission of the same name) follow it to its new home.
"""

from __future__ import annotations

import hashlib


def shard_score(tenant: str, shard: int) -> int:
    """The deterministic rendezvous score of a (tenant, shard) pair.

    A keyed BLAKE2b digest (not Python's randomized ``hash``), so
    routes are stable across processes and runs.
    """
    digest = hashlib.blake2b(
        tenant.encode("utf-8"),
        digest_size=8,
        key=f"shard:{shard}".encode("utf-8"),
    ).digest()
    return int.from_bytes(digest, "big")


class TenantHashRouter:
    """Routes tenant names to shard indices.

    Args:
        shard_count: Number of shards behind the router (>= 1).

    The base route is rendezvous hashing (:func:`shard_score` argmax);
    :meth:`pin` overrides it per tenant for live migration.
    """

    def __init__(self, shard_count: int):
        if shard_count < 1:
            raise ValueError(
                f"shard_count must be >= 1, got {shard_count}"
            )
        self._shard_count = shard_count
        self._pins: dict[str, int] = {}

    @property
    def shard_count(self) -> int:
        """Number of shards currently routed over."""
        return self._shard_count

    def rendezvous(self, tenant: str) -> int:
        """The hash route, ignoring pins (highest score wins)."""
        return max(
            range(self._shard_count),
            key=lambda shard: shard_score(tenant, shard),
        )

    def route(self, tenant: str) -> int:
        """The effective shard for a tenant: its pin, else the hash."""
        pinned = self._pins.get(tenant)
        if pinned is not None:
            return pinned
        return self.rendezvous(tenant)

    def pin(self, tenant: str, shard: int) -> None:
        """Override a tenant's route (live migration landed it here)."""
        if not 0 <= shard < self._shard_count:
            raise ValueError(
                f"shard must be in [0, {self._shard_count}), got {shard}"
            )
        self._pins[tenant] = shard

    def unpin(self, tenant: str) -> None:
        """Drop a tenant's override (no-op if it has none)."""
        self._pins.pop(tenant, None)
