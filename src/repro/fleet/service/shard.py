"""One broker shard: the fleet's one segment loop.

A shard is one cache's column space, its broker and its resident
tenants.  :meth:`ShardServer.advance` is the only implementation of
the paper's Section 4.2 multitasking model in the fleet layer: one
scheduling segment computes the closed-form round-robin quantum
schedule (:func:`~repro.sim.multitask.quantum_schedule`), runs it in
one fused multi-tenant kernel walk
(:func:`~repro.sim.engine.fused.fused_multitask_run` over persistent
per-shard batch state), appends one telemetry sample per resident and
feeds phase detection, whose boundaries drive broker rebalances.
Between segments the population changes through three small calls:

* :meth:`~ShardServer.admit` / :meth:`~ShardServer.depart` —
  population changes, effective at the current virtual clock (the
  broker rebalances immediately);
* :meth:`~ShardServer.advance` — execute one scheduling segment and
  move the shard's virtual clock; tenants whose requested service
  budget is exhausted auto-depart at the segment edge.

Both drivers of the fleet use these calls: the asyncio daemon
(:mod:`repro.fleet.service.daemon`) between live requests, and the
offline :class:`~repro.fleet.executor.FleetExecutor`, which replays a
recorded :class:`~repro.fleet.executor.FleetTrace` into one shard.

Live migration is the extract/inject pair: :meth:`~ShardServer.extract`
removes a resident tenant *preserving its run state* (trace cursor,
telemetry, phase detector) and :meth:`~ShardServer.inject` resumes it
on another shard.  The cache contents do not travel — the tenant
restarts cold on the target shard, which is exactly the cost the
migration policy must price.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.fleet.broker import ColumnBroker, FleetAdmissionError
from repro.fleet.service.telemetry import ShardSnapshot, TenantResidency
from repro.fleet.tenant import (
    FleetConfig,
    TenantRuntime,
    TenantSpec,
    TenantStatus,
    WindowSample,
)
from repro.inspect.events import EventKind, EventRing
from repro.inspect.snapshots import (
    BrokerSnapshot,
    DetectorSnapshot,
    FleetSegmentSnapshot,
    TenantInspectRow,
    column_occupancy,
    miss_rate_timeline,
)
from repro.sim.config import TimingConfig
from repro.sim.engine.batched import LockstepState
from repro.sim.engine.fused import TenantBatch, fused_multitask_run
from repro.sim.multitask import quantum_schedule


@dataclass
class MigratedTenant:
    """A tenant in flight between shards.

    Attributes:
        spec: The tenant's spec (trace, priority, address offset).
        runtime: Its preserved execution state — trace cursor,
            telemetry history, phase detector.  Cache contents are
            *not* part of it; the tenant restarts cold.
        service_remaining: Instructions of requested service left
            (None = serve until departure is requested).
    """

    spec: TenantSpec
    runtime: TenantRuntime
    service_remaining: Optional[int]


class ShardServer:
    """One cache's column space, served incrementally.

    Args:
        shard_id: Index of this shard within the service.
        geometry: The shard's cache.
        timing: Cycle model shared with the broker.
        config: Scheduling and phase-detection knobs.
        broker: The broker that grants this shard's columns: a
            :class:`~repro.fleet.broker.ColumnBroker` (default: a
            fresh one), or for offline comparisons a
            :class:`~repro.fleet.broker.SharedPool` or
            :class:`~repro.fleet.broker.StaticEqualSplit`.  The
            service passes column brokers sharing one planner session.
        event_capacity: Bound of the shard's inspection
            :class:`~repro.inspect.events.EventRing` (older events
            are overwritten once full; the ring's ``dropped`` counter
            records how many).
    """

    def __init__(
        self,
        shard_id: int,
        geometry: CacheGeometry,
        timing: Optional[TimingConfig] = None,
        config: Optional[FleetConfig] = None,
        broker: Optional[Any] = None,
        event_capacity: int = 65_536,
    ):
        self.shard_id = shard_id
        self.geometry = geometry
        self.timing = timing or TimingConfig()
        self.config = config or FleetConfig()
        self.broker = (
            broker
            if broker is not None
            else ColumnBroker(geometry, self.timing)
        )
        self.lock_state = LockstepState.cold(
            geometry.sets, geometry.columns
        )
        self.now = 0
        self.segments = 0
        #: Per-access hit flags of the last segment, in schedule order
        #: (set by ``advance(collect_flags=True)``, else None).
        self.hit_flags: Optional[np.ndarray] = None
        self.events = EventRing(event_capacity)
        self.runtimes: dict[str, TenantRuntime] = {}
        # Lifetime totals over every runtime in ``runtimes`` (see
        # _tally), so snapshot() never re-sums telemetry.
        self._instructions = 0
        self._accesses = 0
        self._misses = 0
        self._quanta = 0
        self._remap_cycles = 0
        self.admitted_count = 0
        self.rejected_count = 0
        self.departed_count = 0
        self.migrations_in = 0
        self.migrations_out = 0
        self._pending_remap: dict[str, int] = {}
        self._service_budget: dict[str, int] = {}
        self._served_at_admit: dict[str, int] = {}
        self._rotation: Optional[str] = None
        # Persistent fused-path state: the residents' concatenated
        # block arrays survive across advance() calls and rebuild only
        # when the population changes (tenant traces are immutable).
        self._batch: Optional[TenantBatch] = None
        self._batch_key: Optional[tuple[str, ...]] = None

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    @property
    def residents(self) -> list[str]:
        """Resident tenant names, admission order."""
        return self.broker.resident

    def prime_admissions(self, specs: Sequence[TenantSpec]) -> None:
        """Batch-price pending admissions' demand curves up front.

        The daemon calls this with everything it is about to decide
        this segment; the broker evaluates all candidate grant sizes
        for all specs in one kernel pass, so each following
        :meth:`admit` finds its curve already cached.
        """
        self.broker.prime([spec.run for spec in specs])

    def admit(
        self,
        spec: TenantSpec,
        service_instructions: Optional[int] = None,
        at: Optional[int] = None,
    ) -> bool:
        """Try to admit a tenant now; True on success, False on reject.

        A rejected tenant still gets a telemetry record (status
        ``REJECTED``).  ``at`` is the arrival time stamped on that
        record (default: the shard's clock); a replay of recorded
        events passes each event's scheduled time, which the clock
        may already have passed by part of an access.
        """
        stamp = self.now if at is None else at
        runtime = TenantRuntime(spec, self.geometry, self.config)
        runtime.telemetry.arrival_time = stamp
        self._hold(spec.name, runtime)
        before = self._grant_bits()
        try:
            charges = self.broker.admit(
                spec.name, spec.run, priority=spec.priority
            )
        except FleetAdmissionError:
            runtime.telemetry.status = TenantStatus.REJECTED
            runtime.telemetry.rejected_at = stamp
            self.rejected_count += 1
            self.events.record(self.now, EventKind.REJECT, spec.name)
            return False
        runtime.telemetry.status = TenantStatus.RUNNING
        runtime.telemetry.admitted_at = stamp
        self.admitted_count += 1
        if service_instructions is not None:
            self._service_budget[spec.name] = service_instructions
        self._served_at_admit[spec.name] = (
            runtime.telemetry.instructions
        )
        self.events.record(
            self.now,
            EventKind.ADMIT,
            spec.name,
            mask_bits=self.broker.grants[spec.name].bits,
            detail=charges.get(spec.name, 0),
        )
        self._record_grant_changes(before, charges, exclude=spec.name)
        self._charge(charges)
        return True

    def depart(self, name: str, at: Optional[int] = None) -> None:
        """Release a resident tenant's columns and re-grant them.

        ``at`` is the departure time stamped on its telemetry
        (default: the shard's clock), as for :meth:`admit`.
        """
        runtime = self.runtimes.get(name)
        if runtime is None or name not in self.broker.grants:
            raise KeyError(
                f"tenant {name!r} is not resident on shard "
                f"{self.shard_id}"
            )
        before = self._grant_bits()
        charges = self.broker.depart(name)
        runtime.telemetry.status = TenantStatus.DEPARTED
        runtime.telemetry.departed_at = self.now if at is None else at
        self.departed_count += 1
        self.events.record(self.now, EventKind.DEPART, name)
        self._record_grant_changes(before, charges)
        self._forget(name)
        self._charge(charges)

    # ------------------------------------------------------------------
    # Live migration
    # ------------------------------------------------------------------
    def extract(self, name: str) -> MigratedTenant:
        """Remove a resident tenant, preserving its run state.

        The broker releases and re-grants its columns exactly like a
        departure; the returned :class:`MigratedTenant` carries the
        trace cursor, telemetry and detector so :meth:`inject` can
        resume it elsewhere.
        """
        runtime = self.runtimes.get(name)
        if runtime is None or name not in self.broker.grants:
            raise KeyError(
                f"tenant {name!r} is not resident on shard "
                f"{self.shard_id}"
            )
        budget = self._service_budget.get(name)
        remaining: Optional[int] = None
        if budget is not None:
            served = (
                runtime.telemetry.instructions
                - self._served_at_admit.get(name, 0)
            )
            remaining = max(budget - served, 0)
        before = self._grant_bits()
        charges = self.broker.depart(name)
        self.migrations_out += 1
        self.events.record(self.now, EventKind.MIGRATE_OUT, name)
        self._record_grant_changes(before, charges)
        self._forget(name)
        self._charge(charges)
        self._tally(self.runtimes.pop(name).telemetry, -1)
        return MigratedTenant(
            spec=runtime.spec,
            runtime=runtime,
            service_remaining=remaining,
        )

    def inject(self, migrant: MigratedTenant) -> bool:
        """Resume an extracted tenant here; False if admission fails.

        The tenant keeps its telemetry history (its samples now span
        shards) but starts cold in this shard's cache; the admission
        path charges the usual tint rewrite, and the cold refill shows
        up in its next window's misses.
        """
        name = migrant.spec.name
        runtime = migrant.runtime
        self._hold(name, runtime)
        before = self._grant_bits()
        try:
            charges = self.broker.admit(
                name, migrant.spec.run, priority=migrant.spec.priority
            )
        except FleetAdmissionError:
            runtime.telemetry.status = TenantStatus.REJECTED
            runtime.telemetry.rejected_at = self.now
            self.rejected_count += 1
            self.events.record(self.now, EventKind.REJECT, name)
            return False
        runtime.telemetry.status = TenantStatus.RUNNING
        runtime.telemetry.remaps += 1  # the migration's tint rewrite
        self.migrations_in += 1
        self.admitted_count += 1
        if migrant.service_remaining is not None:
            self._service_budget[name] = migrant.service_remaining
        self._served_at_admit[name] = runtime.telemetry.instructions
        self.events.record(
            self.now,
            EventKind.MIGRATE_IN,
            name,
            mask_bits=self.broker.grants[name].bits,
            detail=charges.get(name, 0),
        )
        self._record_grant_changes(before, charges, exclude=name)
        self._charge(charges)
        return True

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def advance(
        self, budget: Optional[int] = None, collect_flags: bool = False
    ) -> int:
        """Execute one scheduling segment; returns instructions run.

        With residents: round-robin quanta through the fused lockstep
        kernel walk, one telemetry sample per resident, phase
        detection feeding broker rebalances, then auto-departure of
        tenants whose requested service budget is spent.  The budget
        is exact: the final quantum is cut to what remains, so the
        segment overshoots it by at most one atomic access.  With no
        residents the virtual clock still advances by the budget — an
        idle shard must not stall the service's clock — and no
        segment is counted.

        ``collect_flags`` keeps the segment's per-access hit flags, in
        schedule order, in :attr:`hit_flags` (differential testing;
        costs memory).
        """
        config = self.config
        if budget is None:
            budget = config.window_instructions
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.hit_flags = None
        residents = self.broker.resident
        if not residents:
            self.now += budget
            return 0

        start_at = 0
        if self._rotation in residents:
            start_at = residents.index(self._rotation)
        schedule = quantum_schedule(
            [self.runtimes[name].cumulative for name in residents],
            [self.runtimes[name].position for name in residents],
            config.quantum_instructions,
            budget,
            start_at,
        )
        key = tuple(residents)
        if key != self._batch_key:
            self._batch = TenantBatch.build(
                [self.runtimes[name].blocks for name in residents]
            )
            self._batch_key = key
        assert self._batch is not None
        mask_table = np.array(
            [self.broker.grants[name].bits for name in residents],
            dtype=np.int64,
        )
        outcome = fused_multitask_run(
            self._batch,
            schedule,
            mask_table,
            self.lock_state,
            sets_mask=self.geometry.sets - 1,
            index_bits=self.geometry.index_bits,
            collect_flags=collect_flags,
        )
        self.hit_flags = outcome.hit_flags
        tenant_count = len(residents)
        instr_per = np.zeros(tenant_count, dtype=np.int64)
        np.add.at(instr_per, schedule.tenant_ids, schedule.ran)
        accesses_per = np.zeros(tenant_count, dtype=np.int64)
        np.add.at(accesses_per, schedule.tenant_ids, schedule.accesses)
        wraps_per = np.zeros(tenant_count, dtype=np.int64)
        np.add.at(wraps_per, schedule.tenant_ids, schedule.wraps)
        quanta_per = np.bincount(
            schedule.tenant_ids, minlength=tenant_count
        )
        executed = schedule.executed
        self._rotation = residents[schedule.next_turn]
        self.now += executed

        boundary_tenants: list[tuple[str, list]] = []
        for index, name in enumerate(residents):
            runtime = self.runtimes[name]
            runtime.position = int(schedule.next_positions[index])
            runtime.telemetry.wraps += int(wraps_per[index])
            instructions = int(instr_per[index])
            accesses = int(accesses_per[index])
            quanta = int(quanta_per[index])
            hits = int(outcome.hits[index])
            sample = WindowSample(
                window_index=self.segments,
                columns=self.broker.grants[name].count(),
                instructions=instructions,
                accesses=accesses,
                hits=hits,
                misses=accesses - hits,
                quanta=quanta,
                remap_cycles=self._pending_remap.pop(name, 0),
            )
            runtime.telemetry.record(sample)
            self._tally(sample)
            if (
                config.detect_phases
                and accesses >= config.min_detect_accesses
            ):
                tenant_slices = schedule.tenant_slices(
                    index, len(runtime.blocks)
                )
                blocks = np.concatenate(
                    [
                        runtime.blocks[start:stop]
                        for start, stop in tenant_slices
                    ]
                )
                observation = runtime.detector.observe_window(
                    blocks, accesses - hits
                )
                if observation.boundary:
                    boundary_tenants.append((name, tenant_slices))
        for name, tenant_slices in boundary_tenants:
            if name not in self.broker.grants:
                continue
            runtime = self.runtimes[name]
            self.events.record(self.now, EventKind.PHASE, name)
            before = self._grant_bits()
            charges = self.broker.refresh(
                name, runtime.spec.run, tenant_slices
            )
            self._record_grant_changes(before, charges)
            self._charge(charges)
        self.segments += 1
        self._auto_depart()
        return executed

    def exhausted(self) -> list[str]:
        """Residents whose requested service budget is spent."""
        done = []
        for name, budget in self._service_budget.items():
            runtime = self.runtimes.get(name)
            if runtime is None:
                continue
            served = (
                runtime.telemetry.instructions
                - self._served_at_admit.get(name, 0)
            )
            if served >= budget:
                done.append(name)
        return done

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def check_disjoint(self) -> None:
        """Assert the shard's disjoint-column invariant."""
        self.broker.check_disjoint()

    def snapshot(self, queue_depth: int = 0) -> ShardSnapshot:
        """The shard's live state as one frozen snapshot.

        Costs O(residents): the shard-wide CPI and miss rate come from
        lifetime totals kept up to date by every segment and by every
        runtime entering or leaving :attr:`runtimes`, and each
        resident's row from its telemetry's running totals.
        """
        rows = []
        for name in self.broker.resident:
            runtime = self.runtimes[name]
            telemetry = runtime.telemetry
            rows.append(
                TenantResidency(
                    name=name,
                    priority=telemetry.priority,
                    columns=self.broker.grants[name].count(),
                    instructions=telemetry.instructions,
                    miss_rate=telemetry.miss_rate,
                    cpi=telemetry.cpi(self.timing),
                )
            )
        instructions = self._instructions
        accesses = self._accesses
        cycles = (
            instructions
            + self._misses * self.timing.miss_penalty
            + self._quanta * self.timing.context_switch_cycles
            + self._remap_cycles
        )
        return ShardSnapshot(
            shard=self.shard_id,
            now=self.now,
            segments=self.segments,
            residents=tuple(rows),
            free_columns=self.broker.free_columns().count(),
            admitted=self.admitted_count,
            rejected=self.rejected_count,
            departed=self.departed_count,
            migrations_in=self.migrations_in,
            migrations_out=self.migrations_out,
            tint_rewrites=len(self.broker.rewrites),
            queue_depth=queue_depth,
            cpi=(cycles / instructions) if instructions else 0.0,
            miss_rate=(self._misses / accesses) if accesses else 0.0,
            events_recorded=self.events.recorded,
            events_dropped=self.events.dropped,
        )

    def inspect(self) -> FleetSegmentSnapshot:
        """Deep inspection: column occupancy, grants, detectors.

        The live-inspection view of this shard after its last
        completed segment (numbered from 0; -1 before the first) —
        per-column valid lines of its lockstep cache, the broker's
        exact ownership map, and each resident's miss-rate timeline
        and phase detector (richer, and costlier, than
        :meth:`snapshot`).
        """
        rows = []
        for name in self.broker.resident:
            telemetry = self.runtimes[name].telemetry
            rows.append(
                TenantInspectRow(
                    name=name,
                    priority=telemetry.priority,
                    mask_bits=self.broker.grants[name].bits,
                    columns=self.broker.grants[name].count(),
                    instructions=telemetry.instructions,
                    miss_rate=telemetry.miss_rate,
                    timeline=miss_rate_timeline(telemetry.samples),
                    detector=DetectorSnapshot.of(
                        self.runtimes[name].detector
                    ),
                )
            )
        return FleetSegmentSnapshot(
            segment=self.segments - 1,
            now=self.now,
            column_occupancy=column_occupancy(self.lock_state),
            broker=BrokerSnapshot.of(self.broker),
            tenants=tuple(rows),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _auto_depart(self) -> None:
        for name in self.exhausted():
            self.depart(name)

    def _hold(self, name: str, runtime: TenantRuntime) -> None:
        """Put ``runtime`` in :attr:`runtimes`, replacing any runtime
        of the same name (a re-admitted name starts a new record)."""
        previous = self.runtimes.get(name)
        if previous is not None:
            self._tally(previous.telemetry, -1)
        self.runtimes[name] = runtime
        self._tally(runtime.telemetry)

    def _tally(self, counts: Any, sign: int = 1) -> None:
        """Add (or with ``sign=-1`` remove) one telemetry record's or
        one segment sample's counts to the shard's lifetime totals."""
        self._instructions += sign * counts.instructions
        self._accesses += sign * counts.accesses
        self._misses += sign * counts.misses
        self._quanta += sign * counts.quanta
        self._remap_cycles += sign * counts.remap_cycles

    def _forget(self, name: str) -> None:
        self._pending_remap.pop(name, None)
        self._service_budget.pop(name, None)
        self._served_at_admit.pop(name, None)
        if self._rotation == name:
            self._rotation = None

    def _grant_bits(self) -> dict[str, int]:
        return {
            name: grant.bits
            for name, grant in self.broker.grants.items()
        }

    def _record_grant_changes(
        self,
        before: dict[str, int],
        charges: dict[str, int],
        exclude: Optional[str] = None,
    ) -> None:
        """Emit GRANT/RECLAIM events for every changed surviving grant.

        ``before`` is the grant map captured ahead of the broker call
        that produced ``charges``; the tenant whose arrival/departure
        caused the rebalance is covered by its own event and passed
        as ``exclude``.
        """
        for name, cycles in charges.items():
            if name == exclude:
                continue
            grant = self.broker.grants.get(name)
            if grant is None:
                continue
            bits = grant.bits
            old = before.get(name)
            if old == bits:
                continue
            kind = EventKind.GRANT
            if (
                old is not None
                and bits.bit_count() < old.bit_count()
            ):
                kind = EventKind.RECLAIM
            self.events.record(
                self.now, kind, name, mask_bits=bits, detail=cycles
            )

    def _charge(self, charges: dict[str, int]) -> None:
        for name, cycles in charges.items():
            self._pending_remap[name] = (
                self._pending_remap.get(name, 0) + cycles
            )
            self.runtimes[name].telemetry.remaps += 1
