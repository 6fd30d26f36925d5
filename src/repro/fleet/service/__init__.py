"""Fleet-as-a-service: the async sharded broker daemon.

This package holds the fleet's one segment loop,
:class:`~repro.fleet.service.shard.ShardServer`, and serves tenants
through it *live*: N broker shards — each one cache's column space —
behind a rendezvous-hash router, an asyncio admission front-end with
per-shard queues and patience budgets, a hotspot monitor that
live-migrates residents between shards, and an open-loop Poisson load
generator to drive it all.  The offline
:class:`~repro.fleet.executor.FleetExecutor` replays a recorded
tenant schedule through one shard of the same kind.

Layers, bottom up:

* :mod:`~repro.fleet.service.router` — tenant→shard rendezvous
  hashing plus migration pins;
* :mod:`~repro.fleet.service.shard` — one shard: the fleet's segment
  loop, stepped one segment per ``advance`` call, plus extract/inject
  for live migration;
* :mod:`~repro.fleet.service.telemetry` — latency recorders and
  frozen shard/service snapshots;
* :mod:`~repro.fleet.service.daemon` — the asyncio service:
  admission, virtual clock, hotspot migration;
* :mod:`~repro.fleet.service.loadgen` — Poisson tenant sessions
  driven against a running service;
* :mod:`~repro.fleet.service.top` — the ``repro fleet top`` live
  monitor: per-shard occupancy/queue/latency frames on the virtual
  clock.

``repro serve`` (or ``repro experiments serve``) runs the packaged
demonstration: ≥1000 tenants over ≥4 shards, with migration on/off
arms showing the hotspot monitor cutting the worst shard's p99
admission wait.
"""

from repro.fleet.service.daemon import (
    AdmissionTicket,
    FleetService,
    MigrationRecord,
    ServiceConfig,
)
from repro.fleet.service.loadgen import (
    LoadGenConfig,
    LoadReport,
    TenantArrival,
    build_arrivals,
    default_workload_pool,
    hot_tenant_name,
    run_load,
)
from repro.fleet.service.router import TenantHashRouter, shard_score
from repro.fleet.service.shard import MigratedTenant, ShardServer
from repro.fleet.service.top import TopConfig, render_top_frame
from repro.fleet.service.telemetry import (
    LatencyRecorder,
    ServiceSnapshot,
    ShardSnapshot,
    TenantResidency,
    percentile,
)

__all__ = [
    "AdmissionTicket",
    "FleetService",
    "MigrationRecord",
    "ServiceConfig",
    "LoadGenConfig",
    "LoadReport",
    "TenantArrival",
    "build_arrivals",
    "default_workload_pool",
    "hot_tenant_name",
    "run_load",
    "TenantHashRouter",
    "shard_score",
    "MigratedTenant",
    "ShardServer",
    "TopConfig",
    "render_top_frame",
    "LatencyRecorder",
    "ServiceSnapshot",
    "ShardSnapshot",
    "TenantResidency",
    "percentile",
]
