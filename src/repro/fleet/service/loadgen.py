"""An async load generator: Poisson tenants against the fleet daemon.

Builds an open-loop arrival schedule — exponential inter-arrival times
in *virtual* instructions, exponential service demands, priorities
drawn from a small weighted set — and drives it as one asyncio task
per tenant: each task waits for its arrival time on the service clock
(:meth:`~repro.fleet.service.daemon.FleetService.wait_until`), submits
its spec, and keeps the resulting
:class:`~repro.fleet.service.daemon.AdmissionTicket`.

Tenants recycle a small pool of *recorded* workload runs (distinct
tenant names, distinct address spaces, same trace content), which is
exactly the case the broker's content-cached demand curves are built
for: the thousandth admission profiles nothing.

To exercise the hotspot path honestly, :func:`hot_tenant_name` crafts
tenant names that *rendezvous-route* to a designated shard — the skew
enters through the front door (the router), not by bypassing it.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.fleet.service.daemon import AdmissionTicket, FleetService
from repro.fleet.service.router import TenantHashRouter
from repro.fleet.service.telemetry import percentile
from repro.fleet.tenant import TENANT_SPACE_BITS, TenantSpec
from repro.workloads.base import WorkloadRun
from repro.workloads.suite import make_workload

#: (workload, kwargs) templates the default pool records — small
#: traces, so a thousand tenants stay cheap to serve.
DEFAULT_POOL_TEMPLATES: tuple[tuple[str, dict], ...] = (
    ("crc32", {"message_bytes": 256}),
    ("histogram", {"sample_count": 256, "bin_count": 32}),
    ("fir", {"signal_length": 256, "tap_count": 16}),
)


def default_workload_pool(
    seed: int = 0, variants: int = 2
) -> list[WorkloadRun]:
    """Record the default run pool tenants are drawn from.

    ``variants`` seeds per template: enough content diversity that
    shards see a mix, few enough that the planner session's demand
    cache absorbs nearly every admission.
    """
    runs = []
    for offset in range(variants):
        for name, kwargs in DEFAULT_POOL_TEMPLATES:
            runs.append(
                make_workload(
                    name, seed=seed + 100 * offset, **kwargs
                ).record()
            )
    return runs


def hot_tenant_name(
    index: int, shard: int, router: TenantHashRouter
) -> str:
    """A tenant name that rendezvous-routes to ``shard``.

    Appends the smallest numeric suffix whose keyed hash lands on the
    target — the router itself is the arbiter, so the crafted skew is
    indistinguishable from genuinely hot-keyed traffic.
    """
    for suffix in range(1024):
        name = f"tenant-{index:05d}h{suffix}"
        if router.rendezvous(name) == shard:
            return name
    raise RuntimeError(
        f"no routable name for shard {shard} within 1024 tries"
    )


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of the generated tenant population.

    Attributes:
        tenants: Tenant sessions to generate.
        mean_interarrival_instructions: Mean of the exponential
            inter-arrival gap (virtual instructions) — the Poisson
            arrival process.
        mean_service_instructions: Mean exponential service demand.
        min_service_instructions: Floor on the service demand (a
            tenant always gets at least this much execution).
        priorities: Priority values drawn uniformly per tenant.
        hot_fraction: Fraction of tenants whose names are crafted to
            route to ``hot_shard`` (0.0 = unskewed traffic).
        hot_shard: The shard the crafted fraction routes to.
        seed: Seeds both the arrival process and the workload pool.
    """

    tenants: int = 1000
    mean_interarrival_instructions: float = 512.0
    mean_service_instructions: float = 24_576.0
    min_service_instructions: int = 4_096
    priorities: tuple[int, ...] = (1, 1, 2, 4)
    hot_fraction: float = 0.0
    hot_shard: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError(
                f"hot_fraction must be in [0, 1], got {self.hot_fraction}"
            )


@dataclass(frozen=True)
class TenantArrival:
    """One scheduled tenant session.

    Attributes:
        time: Virtual arrival time (service-clock instructions).
        spec: The tenant to submit.
        service_instructions: Its service demand.
    """

    time: int
    spec: TenantSpec
    service_instructions: int


def build_arrivals(
    config: LoadGenConfig,
    router: TenantHashRouter,
    runs: Optional[Sequence[WorkloadRun]] = None,
) -> list[TenantArrival]:
    """Materialize the arrival schedule (deterministic in the seed)."""
    rng = np.random.default_rng(config.seed)
    runs = (
        list(runs)
        if runs is not None
        else default_workload_pool(config.seed)
    )
    gaps = rng.exponential(
        config.mean_interarrival_instructions, size=config.tenants
    )
    times = np.cumsum(gaps).astype(np.int64)
    hot_flags = rng.random(config.tenants) < config.hot_fraction
    arrivals = []
    for index in range(config.tenants):
        if hot_flags[index]:
            name = hot_tenant_name(index, config.hot_shard, router)
        else:
            name = f"tenant-{index:05d}"
        spec = TenantSpec(
            name=name,
            run=runs[int(rng.integers(len(runs)))],
            priority=int(rng.choice(config.priorities)),
            address_offset=index << TENANT_SPACE_BITS,
        )
        demand = max(
            int(rng.exponential(config.mean_service_instructions)),
            config.min_service_instructions,
        )
        arrivals.append(
            TenantArrival(
                time=int(times[index]),
                spec=spec,
                service_instructions=demand,
            )
        )
    return arrivals


@dataclass
class LoadReport:
    """What one load-generation run produced.

    Attributes:
        tickets: One admission ticket per generated tenant, arrival
            order.
        wall_seconds: Wall time from first submit to full drain.
    """

    tickets: list[AdmissionTicket]
    wall_seconds: float
    _by_shard: dict[int, list[AdmissionTicket]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        for ticket in self.tickets:
            self._by_shard.setdefault(ticket.shard, []).append(ticket)

    @property
    def admitted(self) -> int:
        """Tenants that were admitted."""
        return sum(1 for t in self.tickets if t.admitted)

    @property
    def rejected(self) -> int:
        """Tenants refused (patience timeout or shutdown)."""
        return len(self.tickets) - self.admitted

    @property
    def admissions_per_second(self) -> float:
        """Sustained admission decisions per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.tickets) / self.wall_seconds

    def p99_queue_wait(self, shard: int) -> float:
        """One shard's p99 admission queue wait, in instructions."""
        return percentile(
            [
                float(t.queue_wait_instructions)
                for t in self._by_shard.get(shard, [])
            ],
            0.99,
        )

    def worst_shard_p99_queue_wait(self) -> float:
        """The worst per-shard p99 queue wait across the fleet."""
        if not self._by_shard:
            return 0.0
        return max(
            self.p99_queue_wait(shard) for shard in self._by_shard
        )

    def as_dict(self) -> dict[str, Any]:
        """Structured, JSON-serializable export."""
        waits = [
            float(t.queue_wait_instructions) for t in self.tickets
        ]
        walls = [t.wall_latency_s for t in self.tickets]
        return {
            "tenants": len(self.tickets),
            "admitted": self.admitted,
            "rejected": self.rejected,
            "wall_seconds": self.wall_seconds,
            "admissions_per_second": self.admissions_per_second,
            "queue_wait_instructions": {
                "p50": percentile(waits, 0.50),
                "p99": percentile(waits, 0.99),
                "worst_shard_p99": self.worst_shard_p99_queue_wait(),
            },
            "wall_latency_s": {
                "p50": percentile(walls, 0.50),
                "p99": percentile(walls, 0.99),
            },
            "per_shard": {
                str(shard): {
                    "tickets": len(tickets),
                    "admitted": sum(
                        1 for t in tickets if t.admitted
                    ),
                    "p99_queue_wait_instructions": (
                        self.p99_queue_wait(shard)
                    ),
                }
                for shard, tickets in sorted(self._by_shard.items())
            },
        }


async def run_load(
    service: FleetService, arrivals: Sequence[TenantArrival]
) -> LoadReport:
    """Drive the arrival schedule through a *running* service.

    One asyncio task per tenant: wait for the arrival time on the
    service clock, submit, keep the ticket.  Returns after every
    ticket is resolved *and* the fleet has fully drained (all admitted
    tenants served to their demand and departed).

    Raises:
        RuntimeError: when a shard faulted during the load (see
            ``FleetService.faults``), chained to the lowest faulted
            shard's exception; its tickets resolved with ``"fault"``.
    """
    started = time.perf_counter()  # repro: ignore[R001] -- wall_seconds is load-report telemetry, not simulation state

    async def one(arrival: TenantArrival) -> AdmissionTicket:
        await service.wait_until(arrival.time)
        return await service.submit(
            arrival.spec,
            service_instructions=arrival.service_instructions,
        )

    tickets = await asyncio.gather(
        *(one(arrival) for arrival in arrivals)
    )
    await service.drain()
    if service.faults:
        first = min(service.faults)
        raise RuntimeError(
            f"fleet shards {sorted(service.faults)} faulted during the "
            f"load; shard {first}: {service.faults[first]!r}"
        ) from service.faults[first]
    return LoadReport(
        tickets=list(tickets),
        wall_seconds=time.perf_counter() - started,  # repro: ignore[R001] -- wall_seconds is load-report telemetry, not simulation state
    )
