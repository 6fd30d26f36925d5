"""Multi-tenant fleet serving over one software-controlled cache.

The paper's Figure 5 shows that *disjoint* column assignments give
co-scheduled jobs predictable, isolated performance — for one fixed
job set, partitioned by hand.  This subsystem makes that allocation a
live, contended resource:

* :mod:`repro.fleet.tenant` — tenant specs, lifecycle, scheduling
  knobs (:class:`FleetConfig`) and structured per-tenant telemetry
  (occupancy, miss rate, remap churn).
* :mod:`repro.fleet.broker` — :class:`ColumnBroker`, which admits a
  dynamic stream of tenants onto disjoint column sets using the
  layout planner's W(c) demand curves for benefit-aware sizing,
  priorities for reclamation ordering, and the runtime's tint-write
  remap-cost model for pricing re-grants; plus the
  :class:`SharedPool` and :class:`StaticEqualSplit` baselines.
* :mod:`repro.fleet.executor` — :class:`FleetExecutor`, which
  replays a recorded arrival/departure schedule into one
  :class:`~repro.fleet.service.shard.ShardServer` — the fleet's one
  segment loop, running the co-resident mix round-robin through one
  persistent cache in one kernel entry per segment, with
  broker-driven tint rewrites between segments.  The differential
  suite holds it to a scalar per-quantum oracle kept under
  ``tests/``.
* :mod:`repro.fleet.trace` — Poisson arrival/departure generation
  over the workload suite (:func:`generate_fleet_trace`).
* :mod:`repro.fleet.service` — the segment loop itself
  (:class:`~repro.fleet.service.shard.ShardServer`) and its live,
  scaled-out driver: an asyncio daemon running N broker shards behind
  a rendezvous-hash router, with admission queues, patience timeouts,
  and a hotspot monitor that live-migrates running tenants between
  shards.

``repro experiments fleet`` scores the broker's per-tenant CPI
isolation against solo runs, the shared cache and a static equal
split; ``repro experiments serve`` drives the sharded daemon with a
Poisson load and A/B-tests live migration.
"""

from repro.fleet.broker import (
    ColumnBroker,
    ColumnDemand,
    FleetAdmissionError,
    SharedPool,
    StaticEqualSplit,
    TintRewrite,
    demand_curve,
    demand_curves,
)
from repro.fleet.executor import (
    FleetEvent,
    FleetExecutor,
    FleetResult,
    FleetTrace,
)
from repro.fleet.tenant import (
    FleetConfig,
    TenantSpec,
    TenantStatus,
    TenantTelemetry,
    WindowSample,
)
from repro.fleet.trace import (
    WorkloadMixEntry,
    generate_fleet_trace,
    single_tenant_trace,
)

__all__ = [
    "ColumnBroker",
    "ColumnDemand",
    "FleetAdmissionError",
    "FleetConfig",
    "FleetEvent",
    "FleetExecutor",
    "FleetResult",
    "FleetTrace",
    "SharedPool",
    "StaticEqualSplit",
    "TenantSpec",
    "TenantStatus",
    "TenantTelemetry",
    "TintRewrite",
    "WindowSample",
    "WorkloadMixEntry",
    "demand_curve",
    "demand_curves",
    "generate_fleet_trace",
    "single_tenant_trace",
]
