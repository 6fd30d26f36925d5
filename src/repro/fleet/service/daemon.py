"""The fleet service daemon: async admission over sharded brokers.

:class:`FleetService` turns N :class:`~repro.fleet.service.shard.ShardServer`
instances — each owning one cache's column space — into one
asyncio-served admission surface:

* **Routing.**  Arrivals route by tenant name through a
  :class:`~repro.fleet.service.router.TenantHashRouter` (rendezvous
  hashing, so routes are stable as the fleet scales); live migrations
  overlay pins.
* **Admission.**  :meth:`FleetService.submit` enqueues the tenant on
  its shard's queue and resolves to an :class:`AdmissionTicket` when
  the shard's worker decides.  A request waits (in *virtual* time)
  until the shard has a free column; a request older than its patience
  budget is rejected.  Both wall-clock decision latency and virtual
  queue wait are recorded per shard.
* **Serving.**  One asyncio worker per shard alternates queue
  processing with one scheduling segment
  (:meth:`~repro.fleet.service.shard.ShardServer.advance`), so
  admission latency is coupled to how loaded the shard is — the
  hotspot signal is real, not simulated.
* **Clock.**  The service's virtual clock is the *minimum* shard
  clock; :meth:`FleetService.wait_until` lets the load generator pace
  Poisson arrivals against it.  Each worker ticks the clock after its
  segment, and a tick wakes only the waiters that can be due when
  they run: its cost follows the waiters it wakes, not every task
  still waiting.
* **Migration.**  A monitor task samples shard imbalance; when one
  shard's admission queue backs up while another has free columns, a
  resident is extracted hot-side, injected cold-side (the same
  graceful tint-rewrite mechanics as any re-grant — the migrant
  restarts cold but its telemetry follows it), and pinned to its new
  home.  Candidates are priced with the broker's demand curves and
  the tint-rewrite cost model shared with
  :class:`~repro.runtime.policy.RepartitionPolicy`.
* **Faults.**  An exception from a shard's serve loop faults that
  shard alone: it is kept in :attr:`FleetService.faults`, the shard's
  waiting and later admissions resolve with ``"fault"``, and the clock,
  drain and the hotspot monitor go on over the other shards.
  :func:`~repro.fleet.service.loadgen.run_load` then raises, chained
  to the fault, so a driven load never ends as a clean report.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional

from repro.cache.geometry import CacheGeometry
from repro.fleet.broker import ColumnBroker
from repro.fleet.service.router import TenantHashRouter
from repro.fleet.service.shard import ShardServer
from repro.fleet.service.telemetry import (
    LatencyRecorder,
    ServiceSnapshot,
)
from repro.fleet.tenant import FleetConfig, TenantSpec
from repro.inspect.events import EventRing, save_event_streams
from repro.inspect.snapshots import FleetSegmentSnapshot
from repro.layout.session import PlannerSession
from repro.sim.config import TimingConfig


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the daemon needs to serve a shard fleet.

    Attributes:
        shards: Broker shards (each owns one cache's column space).
        geometry: Per-shard cache geometry.
        timing: Cycle model shared by every shard.
        fleet: Per-shard scheduling knobs (quantum, window, phase
            detection) — the segment budget is
            ``fleet.window_instructions``.
        admissions_per_segment: Admission decisions one worker makes
            per segment (admission control is rate-limited work:
            each admit profiles a demand curve).
        patience_instructions: Virtual-time budget a queued admission
            waits for a free column before it is rejected.
        migration_enabled: Run the hotspot monitor.
        monitor_interval_instructions: Virtual time between hotspot
            checks.
        imbalance_threshold: Resident-count max/mean ratio above which
            the monitor treats the fleet as imbalanced even without a
            queue backlog.
        min_hot_residents: Never migrate off a shard with fewer
            residents than this.
        event_capacity: Per-shard bound of the inspection event ring
            (see :class:`~repro.inspect.events.EventRing`); once full
            the oldest events are overwritten and the stream stops
            being a complete, replayable history.
    """

    shards: int = 4
    geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            line_size=16, sets=64, columns=8
        )
    )
    timing: TimingConfig = field(default_factory=TimingConfig)
    fleet: FleetConfig = field(
        default_factory=lambda: FleetConfig(
            quantum_instructions=128,
            window_instructions=4096,
        )
    )
    admissions_per_segment: int = 4
    patience_instructions: int = 65_536
    migration_enabled: bool = True
    monitor_interval_instructions: int = 8_192
    imbalance_threshold: float = 1.5
    min_hot_residents: int = 2
    event_capacity: int = 65_536

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.admissions_per_segment < 1:
            raise ValueError("admissions_per_segment must be >= 1")
        if self.patience_instructions < 1:
            raise ValueError("patience_instructions must be >= 1")
        if self.event_capacity < 1:
            raise ValueError("event_capacity must be >= 1")


@dataclass(frozen=True)
class AdmissionTicket:
    """The service's decision on one admission request.

    Attributes:
        tenant: The tenant the decision concerns.
        shard: The shard that decided (the route at decision time).
        admitted: True when the tenant is now resident.
        reason: ``"admitted"``, ``"rejected"``, ``"timeout"``
            (patience exhausted waiting for a free column),
            ``"fault"`` (the shard's serve loop failed) or
            ``"shutdown"``.
        wall_latency_s: Wall-clock seconds from submit to decision.
        queue_wait_instructions: Virtual time the request waited.
    """

    tenant: str
    shard: int
    admitted: bool
    reason: str
    wall_latency_s: float
    queue_wait_instructions: int


@dataclass
class _PendingAdmission:
    """One queued admission request (internal to the daemon)."""

    spec: TenantSpec
    service_instructions: Optional[int]
    submitted_wall: float
    submitted_virtual: int
    deadline_virtual: int
    future: asyncio.Future


#: Deadline of a :meth:`FleetService.drain` waiter: any tick can be
#: the one that leaves the fleet idle.
_EVERY_TICK = -1


def _rank(entry: tuple) -> int:
    """The wake rank of a parked ``(deadline, rank, waiter)`` entry."""
    return entry[1]


class _ClockWaiter:
    """One task parked on the service clock (internal to the daemon).

    Each parked task waits on its own event, so a tick sets exactly
    the events of the tasks it wakes.  ``woken`` is the batch and rank
    the waking tick saw it with (None when :meth:`FleetService.stop`
    woke it).
    """

    __slots__ = ("event", "woken")

    def __init__(self) -> None:
        self.event = asyncio.Event()
        self.woken: Optional[tuple[list, int]] = None


@dataclass(frozen=True)
class MigrationRecord:
    """One applied live migration.

    Attributes:
        tenant: Who moved.
        source: Shard it left.
        target: Shard it landed on.
        at: Virtual service clock when the monitor decided.
    """

    tenant: str
    source: int
    target: int
    at: int


class FleetService:
    """An asyncio daemon serving tenants across broker shards.

    Args:
        config: Fleet topology, pacing, and migration knobs.

    Use as an async context manager (or call :meth:`start` /
    :meth:`stop`): workers and the hotspot monitor are asyncio tasks
    on the running loop.  All shards share one
    :class:`~repro.layout.session.PlannerSession`, so identical
    workloads admitted anywhere in the fleet share one content-cached
    demand curve — re-admission is cheap by construction.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.session = PlannerSession()
        self.router = TenantHashRouter(self.config.shards)
        self.shards = [
            ShardServer(
                index,
                self.config.geometry,
                self.config.timing,
                self.config.fleet,
                broker=ColumnBroker(
                    self.config.geometry,
                    self.config.timing,
                    session=self.session,
                ),
                event_capacity=self.config.event_capacity,
            )
            for index in range(self.config.shards)
        ]
        self.wall_latency = [
            LatencyRecorder() for _ in range(self.config.shards)
        ]
        self.queue_wait = [
            LatencyRecorder() for _ in range(self.config.shards)
        ]
        self.migrations: list[MigrationRecord] = []
        self.imbalance_timeline: list[tuple[int, float]] = []
        #: The exception that faulted each failed shard, by shard index.
        self.faults: dict[int, Exception] = {}
        self.invariant_checks = 0
        self.invariant_violations = 0
        self._pending: list[list[_PendingAdmission]] = [
            [] for _ in range(self.config.shards)
        ]
        self._queues: list[asyncio.Queue] = []
        self._tasks: list[asyncio.Task] = []
        self._running = False
        # The clock's parked waiters the next tick sees: a heap of
        # (deadline, rank, waiter) entries (see _tick).
        self._ranks = itertools.count()
        self._armed: list[tuple[int, int, _ClockWaiter]] = []
        self._resumed: Optional[tuple[Any, list, int]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn one worker task per shard plus the hotspot monitor."""
        if self._running:
            raise RuntimeError("service is already running")
        self._running = True
        self._armed = []
        self._resumed = None
        self._queues = [
            asyncio.Queue() for _ in range(self.config.shards)
        ]
        self._tasks = [
            asyncio.create_task(self._shard_worker(index))
            for index in range(self.config.shards)
        ]
        if self.config.migration_enabled:
            self._tasks.append(asyncio.create_task(self._monitor()))

    async def stop(self) -> None:
        """Stop workers; reject whatever is still queued."""
        self._running = False
        # Detach the task list before awaiting: after the gather any
        # coroutine may have observed the service as stopped, and the
        # list must not be re-cleared from stale state.
        tasks, self._tasks = self._tasks, []
        for task in tasks:
            task.cancel()
        # The gather also lets every batch a worker tick took re-arm,
        # so the final tick below finds every parked waiter.
        await asyncio.gather(*tasks, return_exceptions=True)
        for shard_index in range(len(self._queues)):
            self._reject_waiting(shard_index, "shutdown")
        self._tick()  # release every task blocked in wait_until/drain

    async def __aenter__(self) -> "FleetService":
        """Start the daemon on context entry."""
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        """Stop the daemon on context exit."""
        await self.stop()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    @property
    def virtual_now(self) -> int:
        """The service clock: the *minimum* shard clock.

        The minimum (not the mean) so that pacing against it never
        lets a loaded shard fall arbitrarily far behind the arrival
        schedule.  Faulted shards are left out while any other serves.
        """
        live = [
            shard.now
            for index, shard in enumerate(self.shards)
            if index not in self.faults
        ]
        return min(live or [shard.now for shard in self.shards])

    async def wait_until(self, virtual_time: int) -> None:
        """Block until the service clock reaches ``virtual_time``.

        Returns at once when the service is not running, and when
        :meth:`stop` is called or every shard has faulted.
        """
        while (
            self._running
            and len(self.faults) < len(self.shards)
            and self.virtual_now < virtual_time
        ):
            await self._park(virtual_time)

    async def submit(
        self,
        spec: TenantSpec,
        service_instructions: Optional[int] = None,
    ) -> AdmissionTicket:
        """Request admission; resolves when the shard decides.

        The tenant routes by name; once admitted it is served until
        ``service_instructions`` are executed (forever when None),
        then auto-departs.  A request routed to a faulted shard
        resolves at once with ``"fault"``.
        """
        if not self._running:
            raise RuntimeError("service is not running")
        request = _PendingAdmission(
            spec=spec,
            service_instructions=service_instructions,
            submitted_wall=time.perf_counter(),  # repro: ignore[R001] -- wall latency is reported telemetry (AdmissionTicket.wall_latency_s), never simulation state
            submitted_virtual=self.virtual_now,
            deadline_virtual=(
                self.virtual_now + self.config.patience_instructions
            ),
            future=asyncio.get_running_loop().create_future(),
        )
        shard_index = self.router.route(spec.name)
        if shard_index in self.faults:
            self._resolve(shard_index, request, admitted=False, reason="fault")
        else:
            await self._queues[shard_index].put(("admit", request))
        return await request.future

    async def depart(self, name: str) -> None:
        """Request a tenant's departure on its routed shard."""
        if not self._running:
            raise RuntimeError("service is not running")
        await self._queues[self.router.route(name)].put(
            ("depart", name)
        )

    async def drain(self) -> None:
        """Wait until no shard that has not faulted has residents or
        queued requests."""
        while self._running and not self._idle():
            await self._park(_EVERY_TICK)

    def snapshot(self) -> ServiceSnapshot:
        """The whole fleet's state at this instant."""
        return self._snapshot(range(len(self.shards)))

    def _snapshot(self, indices: Iterable[int]) -> ServiceSnapshot:
        """The state of the shards at ``indices``, in that order."""
        return ServiceSnapshot(
            shards=tuple(
                self.shards[index].snapshot(
                    queue_depth=len(self._pending[index])
                    + (
                        self._queues[index].qsize()
                        if self._queues
                        else 0
                    )
                )
                for index in indices
            ),
            migrations=len(self.migrations),
        )

    def inspect(self) -> dict[int, FleetSegmentSnapshot]:
        """Deep per-shard inspection (occupancy, grants, detectors).

        Richer than :meth:`snapshot`: exact column ownership maps,
        per-column valid-line counts, per-tenant miss-rate timelines
        and phase-detector state — the data ``repro fleet top`` and
        the heatmap report render.
        """
        return {
            index: shard.inspect()
            for index, shard in enumerate(self.shards)
        }

    def event_rings(self) -> dict[int, EventRing]:
        """Each shard's live inspection event ring, by shard index."""
        return {
            index: shard.events
            for index, shard in enumerate(self.shards)
        }

    def flush_events(self, path: "str | Path") -> Path:
        """Flush every shard's event ring to one mmap-able ``.npz``.

        The archive replays offline via
        :func:`~repro.inspect.replay.replay_events`; when no ring
        overflowed, the replay reconstructs this service's final
        :meth:`snapshot` exactly.
        """
        return save_event_streams(path, self.event_rings())

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    async def _shard_worker(self, shard_index: int) -> None:
        """One shard's serve loop: requests, then one segment.

        An exception from the loop faults the shard: it is kept in
        :attr:`faults`, the shard's waiting admissions resolve with
        ``"fault"``, and a tick lets parked waiters read the clock
        without it.
        """
        shard = self.shards[shard_index]
        queue = self._queues[shard_index]
        pending = self._pending[shard_index]
        columns = self.config.geometry.columns
        try:
            while self._running:
                while not queue.empty():
                    kind, payload = queue.get_nowait()
                    if kind == "admit":
                        pending.append(payload)
                    else:
                        if payload in shard.broker.grants:
                            shard.depart(payload)
                # Decide queued admissions, oldest first, while the
                # shard has capacity and the segment's decision budget
                # lasts.  Everything about to be decided is primed
                # first: one batched kernel call prices all candidate
                # grant sizes for all of them, so the per-request
                # admits below are pure demand-cache hits.
                upcoming = pending[
                    : min(
                        self.config.admissions_per_segment,
                        max(
                            columns - len(shard.broker.resident), 0
                        ),
                    )
                ]
                if len(upcoming) > 1:
                    shard.prime_admissions(
                        [request.spec for request in upcoming]
                    )
                decisions = 0
                while (
                    pending
                    and decisions < self.config.admissions_per_segment
                    and len(shard.broker.resident) < columns
                ):
                    request = pending[0]
                    admitted = shard.admit(
                        request.spec,
                        service_instructions=(
                            request.service_instructions
                        ),
                    )
                    pending.pop(0)
                    decisions += 1
                    self._resolve(
                        shard_index,
                        request,
                        admitted=admitted,
                        reason=(
                            "admitted" if admitted else "rejected"
                        ),
                    )
                # Give up on requests past their patience budget.
                expired = [
                    request
                    for request in pending
                    if shard.now >= request.deadline_virtual
                ]
                for request in expired:
                    pending.remove(request)
                    self._resolve(
                        shard_index, request,
                        admitted=False, reason="timeout",
                    )
                shard.advance()
                self.invariant_checks += 1
                try:
                    shard.check_disjoint()
                except AssertionError:
                    self.invariant_violations += 1
                self._tick(shard.now)
                await asyncio.sleep(0)
        except Exception as error:  # a fault stays in its shard
            self.faults[shard_index] = error
            self._reject_waiting(shard_index, "fault")
            self._tick()

    async def _monitor(self) -> None:
        """The hotspot monitor: sample imbalance, migrate residents."""
        interval = self.config.monitor_interval_instructions
        next_check = interval
        while self._running:
            await self.wait_until(next_check)
            if len(self.faults) == len(self.shards):
                return
            next_check = self.virtual_now + interval
            self._maybe_migrate()

    def _maybe_migrate(self) -> None:
        """Sample the imbalance; move one resident from the hottest to
        the coldest shard.

        Hot = deepest admission backlog, then most residents.  The
        move happens only when the hot shard has a backlog (or the
        resident imbalance exceeds the threshold) and some colder
        shard has a free column to receive the migrant.  Faulted
        shards take no part, in the imbalance sample either: their
        residents never leave.
        """
        snapshot = self._snapshot(
            index
            for index in range(len(self.shards))
            if index not in self.faults
        )
        self.imbalance_timeline.append(
            (self.virtual_now, snapshot.imbalance)
        )
        ranked = sorted(
            snapshot.shards,
            key=lambda s: (s.queue_depth, len(s.residents)),
            reverse=True,
        )
        hot = ranked[0]
        cold = min(ranked, key=lambda s: len(s.residents))
        pressured = hot.queue_depth > 0 or (
            snapshot.imbalance > self.config.imbalance_threshold
        )
        if (
            not pressured
            or hot.shard == cold.shard
            or cold.free_columns < 1
            or len(hot.residents) < self.config.min_hot_residents
            or len(hot.residents) <= len(cold.residents)
        ):
            return
        name = self._cheapest_migrant(hot.shard)
        if name is None:
            return
        migrant = self.shards[hot.shard].extract(name)
        if self.shards[cold.shard].inject(migrant):
            self.router.pin(name, cold.shard)
            self.migrations.append(
                MigrationRecord(
                    tenant=name,
                    source=hot.shard,
                    target=cold.shard,
                    at=self.virtual_now,
                )
            )
        else:
            # Cold shard filled up since the snapshot: put the tenant
            # back where it was; if even that fails the tenant is
            # simply gone (extract already counted it out).
            if not self.shards[hot.shard].inject(migrant):
                self.router.unpin(name)

    def _cheapest_migrant(self, shard_index: int) -> Optional[str]:
        """The hot shard's resident with the lowest migration cost.

        Priced with the same ingredients as
        :meth:`~repro.runtime.policy.RepartitionPolicy.remap_cost_cycles`:
        two tint rewrites (release + re-grant) plus the cold-refill
        estimate from the broker's measured demand curve at the
        tenant's current grant, all weighted by priority — so a cheap
        low-priority tenant moves before an expensive high-priority
        one.
        """
        shard = self.shards[shard_index]
        broker = shard.broker
        best_name: Optional[str] = None
        best_cost: Optional[int] = None
        timing = self.config.timing
        for name in broker.resident:
            demand = broker.demands[name]
            columns = broker.grants[name].count()
            refill = demand.cost(columns) * timing.miss_penalty
            cost = broker.priorities[name] * (
                2 * timing.remap_tint_cycles + refill
            )
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_name = name
        return best_name

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _idle(self) -> bool:
        return all(
            index in self.faults
            or not (
                self._pending[index]
                or self._queues[index].qsize()
                or shard.broker.resident
            )
            for index, shard in enumerate(self.shards)
        )

    def _reject_waiting(self, shard_index: int, reason: str) -> None:
        """Resolve the shard's pending and queued admissions, not
        admitted, with ``reason``."""
        pending, queue = self._pending[shard_index], self._queues[shard_index]
        for request in pending:
            self._resolve(shard_index, request, admitted=False, reason=reason)
        pending.clear()
        while not queue.empty():
            kind, payload = queue.get_nowait()
            if kind == "admit":
                self._resolve(
                    shard_index, payload, admitted=False, reason=reason
                )

    async def _park(self, deadline: int) -> None:
        """Block the calling task until a tick (or :meth:`stop`) wakes it.

        ``deadline`` is the service time at which the task can next be
        due; a tick never wakes it earlier.  A task parking again in
        the step a tick woke it in keeps its place in the wake order.
        """
        waiter = self._enter(deadline)
        await waiter.event.wait()
        if waiter.woken is not None:
            self._resumed = (asyncio.current_task(), *waiter.woken)

    def _enter(self, deadline: int) -> _ClockWaiter:
        """Park a new waiter for the calling task and return it."""
        resumed = self._resumed
        if resumed is not None and resumed[0] is asyncio.current_task():
            _, parked, rank = resumed
            self._resumed = None
        else:
            parked, rank = self._armed, next(self._ranks)
        waiter = _ClockWaiter()
        heapq.heappush(parked, (deadline, rank, waiter))
        return waiter

    def _tick(self, bound: Optional[int] = None) -> None:
        """Wake the clock waiters that can be due; all when ``bound`` is None.

        A worker passes its own shard's clock as ``bound``.  The tasks
        a tick wakes run before that worker's next segment, so the
        service clock they read (the minimum shard clock) is at most
        ``bound``: a waiter whose deadline is later cannot be due and
        is not woken.  The tick takes every parked waiter as its
        batch, wakes the possibly due ones in rank order, and re-arms
        the rest with one ``call_soon`` queued behind the woken tasks,
        so no other tick reaches them until those tasks have run.  The
        result is the wake order of one shared event that every tick
        sets, as ``tests/oracles/clock.py`` implements it: tasks wake
        in the order they parked, a task that parks again in its wake
        step keeps its place, and a batch re-armed while other tasks
        parked goes behind them.
        """
        batch = self._armed
        if not batch:
            return
        self._armed = []
        if bound is None:
            for _, _, waiter in sorted(batch, key=_rank):
                waiter.event.set()
            return
        due = []
        while batch and batch[0][0] <= bound:
            due.append(heapq.heappop(batch))
        for _, rank, waiter in sorted(due, key=_rank):
            waiter.woken = (batch, rank)
            waiter.event.set()
        asyncio.get_running_loop().call_soon(self._rearm, batch)

    def _rearm(self, batch: list) -> None:
        """Make a tick's batch reachable again, after its woken tasks."""
        if self._resumed is not None and self._resumed[1] is batch:
            self._resumed = None
        if self._armed:
            # Tasks parked while the batch was in flight wake before
            # it: rank everything afresh in that order.
            batch = [
                (deadline, next(self._ranks), waiter)
                for entries in (self._armed, batch)
                for deadline, _, waiter in sorted(entries, key=_rank)
            ]
            heapq.heapify(batch)
        self._armed = batch

    def _resolve(
        self,
        shard_index: int,
        request: _PendingAdmission,
        admitted: bool,
        reason: str,
    ) -> None:
        wall = time.perf_counter() - request.submitted_wall  # repro: ignore[R001] -- wall latency is reported telemetry, never simulation state
        waited = max(
            self.shards[shard_index].now - request.submitted_virtual, 0
        )
        self.wall_latency[shard_index].record(wall)
        self.queue_wait[shard_index].record(float(waited))
        if not request.future.done():
            request.future.set_result(
                AdmissionTicket(
                    tenant=request.spec.name,
                    shard=shard_index,
                    admitted=admitted,
                    reason=reason,
                    wall_latency_s=wall,
                    queue_wait_instructions=waited,
                )
            )
