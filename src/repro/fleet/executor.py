"""The offline fleet executor: a recorded tenant schedule, replayed.

A :class:`FleetTrace` is a complete arrival/departure schedule over an
instruction horizon.  :class:`FleetExecutor` replays it into one
:class:`~repro.fleet.service.shard.ShardServer` — the fleet's one
segment loop, the same one the asyncio daemon steps between live
requests.  The executor only decides where segments end: at the
scheduling-window budget, at the next fleet event, or at the horizon,
whichever comes first, so events take effect at their scheduled
instruction count (to within one atomic access), including in the
middle of what would otherwise be one window.  Everything inside a
segment — the round-robin quanta of the paper's Section 4.2, walked
in one kernel entry, per-tenant telemetry, phase detection and the
broker's tint rewrites between segments — happens in
:meth:`~repro.fleet.service.shard.ShardServer.advance`.

Telemetry keeps each event's scheduled time (``arrival_time``,
``admitted_at``, ``departed_at``), not the shard clock's slightly
later reading at the segment edge that applied it.  The differential
suite holds the whole run — per-access hit stream and every tenant's
telemetry — equal to an independent scalar per-quantum oracle
(``tests/oracles/fleet.py``) on both kernel backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.fleet.service.shard import ShardServer
from repro.fleet.tenant import (
    FleetConfig,
    TenantSpec,
    TenantStatus,
    TenantTelemetry,
)
from repro.inspect.snapshots import FleetSegmentSnapshot
from repro.sim.config import TimingConfig


@dataclass(frozen=True)
class FleetEvent:
    """One change to the tenant population.

    Attributes:
        time: Global instruction count at which the event is due; it
            takes effect at the first segment boundary at or after
            this time.
        kind: ``"arrival"`` or ``"departure"``.
        spec: The arriving tenant (arrival events only).
        tenant: The departing tenant's name (departure events only).
    """

    time: int
    kind: str
    spec: Optional[TenantSpec] = None
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if self.kind == "arrival":
            if self.spec is None:
                raise ValueError("arrival events need a TenantSpec")
        elif self.kind == "departure":
            if self.tenant is None:
                raise ValueError("departure events need a tenant name")
        else:
            raise ValueError(f"unknown event kind {self.kind!r}")

    @property
    def name(self) -> str:
        """The tenant the event concerns."""
        return self.spec.name if self.spec is not None else self.tenant


@dataclass(frozen=True)
class FleetTrace:
    """A dynamic tenant workload: events over an instruction horizon.

    Attributes:
        events: Arrivals/departures, sorted by time.
        horizon_instructions: Global instruction budget of the run.
    """

    events: tuple[FleetEvent, ...]
    horizon_instructions: int

    def __post_init__(self) -> None:
        if self.horizon_instructions < 1:
            raise ValueError(
                "horizon_instructions must be >= 1, got "
                f"{self.horizon_instructions}"
            )
        times = [event.time for event in self.events]
        if times != sorted(times):
            raise ValueError("fleet events must be sorted by time")

    def specs(self) -> list[TenantSpec]:
        """All tenant specs that arrive, in arrival order."""
        return [
            event.spec
            for event in self.events
            if event.kind == "arrival"
        ]


@dataclass
class FleetResult:
    """Everything one fleet run produced.

    Attributes:
        telemetry: Per-tenant telemetry, keyed by name (includes
            rejected and departed tenants).
        total_instructions: Instructions actually executed (the
            horizon, plus at most one access's atomic overshoot —
            segment budgets are exact, so the final quantum is cut to
            the remaining budget rather than running in full).
        segments: Scheduling segments executed.
        rewrites: The broker's tint-rewrite log.
        rejected: Names of tenants refused admission.
        hit_stream: Per-access hit flags in global schedule order
            (only when the run collected them for differential
            checking).
    """

    telemetry: dict[str, TenantTelemetry]
    total_instructions: int
    segments: int
    rewrites: list = field(default_factory=list)
    rejected: list[str] = field(default_factory=list)
    hit_stream: Optional[np.ndarray] = None

    def as_dict(self, timing: TimingConfig) -> dict[str, Any]:
        """Structured, JSON-serializable result export."""
        return {
            "total_instructions": self.total_instructions,
            "segments": self.segments,
            "rejected": list(self.rejected),
            "tint_rewrites": len(self.rewrites),
            "tenants": {
                name: telemetry.as_dict(timing)
                for name, telemetry in self.telemetry.items()
            },
        }


class FleetExecutor:
    """Serves a dynamic tenant mix through one brokered column cache.

    Args:
        geometry: The shared cache.
        timing: Cycle model (miss penalty, context switches, tint
            rewrites).
        config: Scheduling and phase-detection knobs.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        timing: Optional[TimingConfig] = None,
        config: Optional[FleetConfig] = None,
    ):
        self.geometry = geometry
        self.timing = timing or TimingConfig()
        self.config = config or FleetConfig()

    def run(
        self,
        fleet: FleetTrace,
        broker: Optional[Any] = None,
        collect_flags: bool = False,
        observer: Optional[Callable[[FleetSegmentSnapshot], None]] = None,
    ) -> FleetResult:
        """Execute a fleet trace; returns per-tenant telemetry.

        Args:
            fleet: The arrival/departure schedule and horizon.
            broker: The broker the shard runs under — a
                :class:`~repro.fleet.broker.ColumnBroker` (default: a
                fresh one), :class:`~repro.fleet.broker.SharedPool` or
                :class:`~repro.fleet.broker.StaticEqualSplit`.
            collect_flags: Also return the per-access hit stream
                (differential testing; costs memory).
            observer: Live-inspection callback invoked after every
                scheduling segment with the shard's
                :class:`~repro.inspect.snapshots.FleetSegmentSnapshot`
                (per-column occupancy, exact grants, per-tenant
                miss-rate timelines and detector state).  Read-only:
                the run's results are bit-identical with or without
                it.
        """
        shard = ShardServer(
            0, self.geometry, self.timing, self.config, broker=broker
        )
        rejected: list[str] = []
        flag_parts = [np.zeros(0, dtype=bool)]
        events = fleet.events
        next_event = 0
        horizon = fleet.horizon_instructions
        while shard.now < horizon:
            while (
                next_event < len(events)
                and events[next_event].time <= shard.now
            ):
                _apply_event(shard, events[next_event], rejected)
                next_event += 1
            due = (
                events[next_event].time
                if next_event < len(events)
                else None
            )
            if not shard.residents:
                if due is None:
                    break
                shard.advance(due - shard.now)  # idle until the event
                continue
            end = min(shard.now + self.config.window_instructions, horizon)
            if due is not None:
                end = min(end, due)
            shard.advance(end - shard.now, collect_flags=collect_flags)
            if shard.hit_flags is not None:
                flag_parts.append(shard.hit_flags)
            if observer is not None:
                observer(shard.inspect())
        return FleetResult(
            telemetry={
                name: runtime.telemetry
                for name, runtime in shard.runtimes.items()
            },
            total_instructions=shard.now,
            segments=shard.segments,
            rewrites=list(shard.broker.rewrites),
            rejected=rejected,
            hit_stream=(
                np.concatenate(flag_parts) if collect_flags else None
            ),
        )


def _apply_event(
    shard: ShardServer, event: FleetEvent, rejected: list[str]
) -> None:
    """Apply one due fleet event to the shard at its scheduled time."""
    if event.kind == "arrival":
        assert event.spec is not None
        if not shard.admit(event.spec, at=event.time):
            rejected.append(event.spec.name)
        return
    runtime = shard.runtimes.get(event.name)
    if runtime is None:
        raise ValueError(f"departure for unknown tenant {event.name!r}")
    # Departing a rejected (or already departed) tenant is a no-op.
    if runtime.telemetry.status is TenantStatus.RUNNING:
        shard.depart(event.name, at=event.time)
