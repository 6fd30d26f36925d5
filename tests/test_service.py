"""The fleet service: shard parity, migration, and the async daemon.

:class:`ShardServer` is the fleet's one segment loop; the offline
:class:`FleetExecutor` replays a recorded schedule into one shard.
Stepping a shard by hand, the way the daemon does, must therefore
produce the same per-tenant telemetry as the executor's replay.  On
top of that sit the live-only behaviours — extract/inject migration,
admission queueing with patience timeouts, and the disjoint-column
audit — exercised here through the real asyncio daemon.
"""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.fleet import (
    ColumnBroker,
    FleetConfig,
    FleetEvent,
    FleetExecutor,
    FleetResult,
    FleetTrace,
    SharedPool,
    StaticEqualSplit,
    TenantSpec,
    TenantStatus,
)
from repro.fleet.service import FleetService, ServiceConfig, ShardServer
from repro.sim.config import MULTITASK_TIMING
from repro.sim.engine.backends import (
    compiled_available,
    reset_backend,
    set_backend,
)
from repro.workloads.suite import make_workload

from oracles.fleet import assert_same_run, run_reference_fleet

TIMING = MULTITASK_TIMING

KERNELS = ["numpy"] + (["compiled"] if compiled_available() else [])

#: The brokers a shard can serve, each built fresh per run.
BROKERS = {
    "column": lambda geometry: ColumnBroker(geometry, TIMING),
    "shared": lambda geometry: SharedPool(
        geometry, TIMING, max_tenants=3
    ),
    "static": lambda geometry: StaticEqualSplit(
        geometry, TIMING, slots=4
    ),
}

CONFIG = FleetConfig(quantum_instructions=128, window_instructions=2048)


def spec_for(index, workload, priority=1, **kwargs):
    run = make_workload(workload, seed=10 + index, **kwargs).record()
    return TenantSpec(
        name=f"{workload}-{index}",
        run=run,
        priority=priority,
        address_offset=index << 32,
    )


@pytest.fixture(scope="module")
def trio():
    return [
        spec_for(0, "crc32", message_bytes=256),
        spec_for(1, "histogram", sample_count=256, bin_count=32),
        spec_for(2, "fir", signal_length=256, tap_count=16),
    ]


@pytest.fixture
def geometry():
    return CacheGeometry(line_size=16, sets=32, columns=8)


def telemetry_view(telemetry):
    return {
        "instructions": telemetry.instructions,
        "accesses": telemetry.accesses,
        "hits": telemetry.hits,
        "misses": telemetry.misses,
        "quanta": telemetry.quanta,
        "wraps": telemetry.wraps,
        "remaps": telemetry.remaps,
    }


class TestShardExecutorParity:
    def test_identical_telemetry_on_same_population(
        self, geometry, trio
    ):
        """Same tenants, same horizon -> identical per-tenant counts."""
        horizon = 20_000
        fleet = FleetTrace(
            events=tuple(
                FleetEvent(time=0, kind="arrival", spec=spec)
                for spec in trio
            ),
            horizon_instructions=horizon,
        )
        offline = FleetExecutor(geometry, TIMING, CONFIG).run(fleet)

        shard = ShardServer(0, geometry, TIMING, CONFIG)
        for spec in trio:
            assert shard.admit(spec)
        segments = 0
        while shard.now < horizon:
            # The offline loop truncates its final segment at the
            # horizon; hand the same budget to the shard.
            budget = min(
                CONFIG.window_instructions, horizon - shard.now
            )
            assert shard.advance(budget) > 0
            segments += 1

        for spec in trio:
            assert telemetry_view(
                shard.runtimes[spec.name].telemetry
            ) == telemetry_view(offline.telemetry[spec.name]), spec.name
        assert shard.segments == segments

    def test_advance_moves_the_virtual_clock(self, geometry, trio):
        shard = ShardServer(0, geometry, TIMING, CONFIG)
        shard.admit(trio[0])
        executed = shard.advance()
        assert executed > 0
        assert shard.now == executed

    def test_idle_shard_still_burns_budget(self, geometry):
        """An empty shard advances its clock (lockstep with peers)."""
        shard = ShardServer(0, geometry, TIMING, CONFIG)
        assert shard.advance(1024) == 0
        assert shard.now == 1024


class TestShardServing:
    """The shard's own contract: brokers, stamps, flags, numbering."""

    @pytest.mark.parametrize("broker_kind", sorted(BROKERS))
    def test_hand_stepped_shard_matches_oracle(
        self, geometry, trio, broker_kind
    ):
        """Stepping a shard the way the daemon does, under any broker
        it can serve, matches the scalar per-quantum oracle: hit
        stream, segments, tint rewrites and whole telemetry."""
        horizon = 12_000
        fleet = FleetTrace(
            events=tuple(
                FleetEvent(time=0, kind="arrival", spec=spec)
                for spec in trio
            ),
            horizon_instructions=horizon,
        )
        make_broker = BROKERS[broker_kind]
        reference = run_reference_fleet(
            geometry, TIMING, CONFIG, fleet, broker=make_broker(geometry)
        )

        shard = ShardServer(
            0, geometry, TIMING, CONFIG, broker=make_broker(geometry)
        )
        for spec in trio:
            assert shard.admit(spec)
        flags = []
        while shard.now < horizon:
            budget = min(
                CONFIG.window_instructions, horizon - shard.now
            )
            shard.advance(budget, collect_flags=True)
            flags.append(shard.hit_flags)
        stepped = FleetResult(
            telemetry={
                name: runtime.telemetry
                for name, runtime in shard.runtimes.items()
            },
            total_instructions=shard.now,
            segments=shard.segments,
            rewrites=list(shard.broker.rewrites),
            hit_stream=np.concatenate(flags),
        )
        assert_same_run(stepped, reference, TIMING)

    def test_explicit_stamps_override_the_clock(self, geometry, trio):
        """A replay stamps each event's scheduled time, which the
        shard clock may already have passed."""
        shard = ShardServer(0, geometry, TIMING, CONFIG)
        assert shard.admit(trio[0])
        shard.advance(1_000)
        assert shard.now >= 1_000
        assert shard.admit(trio[1], at=777)
        shard.advance(1_000)
        shard.depart(trio[1].name, at=1_234)
        assert shard.now not in (777, 1_234)
        telemetry = shard.runtimes[trio[1].name].telemetry
        assert telemetry.arrival_time == 777
        assert telemetry.admitted_at == 777
        assert telemetry.departed_at == 1_234
        assert telemetry.status is TenantStatus.DEPARTED

    def test_stamps_default_to_the_clock(self, geometry, trio):
        shard = ShardServer(0, geometry, TIMING, CONFIG)
        assert shard.admit(trio[0])
        shard.advance(1_000)
        arrived = shard.now
        assert shard.admit(trio[1])
        shard.advance(1_000)
        departed = shard.now
        shard.depart(trio[1].name)
        telemetry = shard.runtimes[trio[1].name].telemetry
        assert telemetry.arrival_time == arrived
        assert telemetry.admitted_at == arrived
        assert telemetry.departed_at == departed

    def test_rejected_admission_stamped_at_scheduled_time(
        self, geometry, trio
    ):
        shard = ShardServer(
            0,
            geometry,
            TIMING,
            CONFIG,
            broker=StaticEqualSplit(geometry, TIMING, slots=1),
        )
        assert shard.admit(trio[0])
        shard.advance(500)
        assert not shard.admit(trio[1], at=55)
        telemetry = shard.runtimes[trio[1].name].telemetry
        assert telemetry.status is TenantStatus.REJECTED
        assert telemetry.arrival_time == 55
        assert telemetry.rejected_at == 55
        assert shard.rejected_count == 1
        assert shard.residents == [trio[0].name]

    def test_inspect_numbers_the_last_completed_segment(
        self, geometry, trio
    ):
        shard = ShardServer(0, geometry, TIMING, CONFIG)
        assert shard.inspect().segment == -1
        shard.advance(256)  # idle: the clock moves, no segment runs
        assert shard.inspect().segment == -1
        shard.admit(trio[0])
        for expected in range(3):
            shard.advance()
            snapshot = shard.inspect()
            assert snapshot.segment == expected
            assert snapshot.now == shard.now
            assert [row.name for row in snapshot.tenants] == [
                trio[0].name
            ]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_collected_flags_cover_the_segment(
        self, geometry, trio, kernel
    ):
        """One flag per access the segment ran, hits summing to the
        residents' sampled hits, on either kernel."""
        shard = ShardServer(0, geometry, TIMING, CONFIG)
        for spec in trio:
            assert shard.admit(spec)
        set_backend(kernel)
        try:
            shard.advance(collect_flags=True)
        finally:
            reset_backend()
        samples = [
            shard.runtimes[spec.name].telemetry.samples[-1]
            for spec in trio
        ]
        assert len(shard.hit_flags) == sum(
            sample.accesses for sample in samples
        )
        assert int(shard.hit_flags.sum()) == sum(
            sample.hits for sample in samples
        )

    def test_flags_kept_only_for_the_segment_that_asked(
        self, geometry, trio
    ):
        shard = ShardServer(0, geometry, TIMING, CONFIG)
        shard.admit(trio[0])
        shard.advance(collect_flags=True)
        assert shard.hit_flags is not None
        shard.advance()
        assert shard.hit_flags is None
        shard.advance(collect_flags=True)
        shard.depart(trio[0].name)
        shard.advance(512, collect_flags=True)  # idle
        assert shard.hit_flags is None

    def test_segment_budget_must_be_positive(self, geometry, trio):
        shard = ShardServer(0, geometry, TIMING, CONFIG)
        shard.admit(trio[0])
        with pytest.raises(ValueError, match="budget"):
            shard.advance(0)
        assert shard.now == 0
        assert shard.segments == 0


class TestColumnLimit:
    """The segment walk takes every grant as a per-job mask, and those
    name ways 0-62: a shard wider than 63 columns is refused when it
    is built, with the job masks' error, under any broker."""

    @pytest.mark.parametrize("broker", ["column", "shared"])
    def test_63_columns_serve(self, broker):
        geometry = CacheGeometry(line_size=16, sets=16, columns=63)
        shard = ShardServer(
            0, geometry, TIMING, CONFIG, broker=BROKERS[broker](geometry)
        )
        for index in range(2):
            assert shard.admit(spec_for(index, "crc32", message_bytes=256))
        assert shard.advance() > 0
        assert any(grant.bits >> 62 for grant in shard.broker.grants.values())

    @pytest.mark.parametrize("columns", [64, 100])
    @pytest.mark.parametrize("broker", ["column", "shared"])
    def test_wider_shards_are_refused(self, columns, broker):
        geometry = CacheGeometry(line_size=16, sets=16, columns=columns)
        refused = pytest.raises(
            ValueError,
            match=(
                rf"^shard 0 full mask names way {columns - 1}; "
                r"per-job masks name ways 0-62$"
            ),
        )
        with refused:
            ShardServer(
                0, geometry, TIMING, CONFIG, broker=BROKERS[broker](geometry)
            )
        fleet = FleetTrace(
            events=(
                FleetEvent(
                    time=0,
                    kind="arrival",
                    spec=spec_for(0, "crc32", message_bytes=256),
                ),
            ),
            horizon_instructions=4096,
        )
        with refused:
            FleetExecutor(geometry, TIMING, CONFIG).run(
                fleet, broker=BROKERS[broker](geometry)
            )

    @pytest.mark.parametrize("columns", [64, 100])
    def test_wider_services_are_refused(self, columns):
        geometry = CacheGeometry(line_size=16, sets=16, columns=columns)
        with pytest.raises(ValueError, match="^shard 0 full mask names way"):
            FleetService(ServiceConfig(shards=2, geometry=geometry))


class TestAdmissionControl:
    def test_overflow_admission_rejected(self, geometry):
        """More tenants than columns -> admit returns False."""
        shard = ShardServer(0, geometry, TIMING, CONFIG)
        admitted = 0
        rejected = None
        for index in range(geometry.columns + 1):
            spec = spec_for(index, "crc32", message_bytes=256)
            if shard.admit(spec):
                admitted += 1
            else:
                rejected = spec.name
                break
        assert admitted == geometry.columns
        assert rejected is not None
        assert (
            shard.runtimes[rejected].telemetry.status
            is TenantStatus.REJECTED
        )
        assert shard.rejected_count == 1

    def test_service_budget_auto_departs(self, geometry, trio):
        shard = ShardServer(0, geometry, TIMING, CONFIG)
        shard.admit(trio[0], service_instructions=1024)
        while trio[0].name in shard.residents:
            shard.advance()
        assert shard.departed_count == 1
        telemetry = shard.runtimes[trio[0].name].telemetry
        assert telemetry.status is TenantStatus.DEPARTED
        assert telemetry.instructions >= 1024


class TestMigration:
    def test_extract_inject_moves_run_state(self, geometry, trio):
        source = ShardServer(0, geometry, TIMING, CONFIG)
        target = ShardServer(1, geometry, TIMING, CONFIG)
        for spec in trio:
            source.admit(spec, service_instructions=50_000)
        source.advance()
        migrant_name = trio[1].name
        before = source.runtimes[migrant_name].telemetry.instructions
        assert before > 0

        migrant = source.extract(migrant_name)
        assert migrant_name not in source.residents
        assert source.migrations_out == 1
        assert migrant.service_remaining is not None
        assert migrant.service_remaining < 50_000

        assert target.inject(migrant)
        assert migrant_name in target.residents
        assert target.migrations_in == 1
        source.broker.check_disjoint()
        target.broker.check_disjoint()

        target.advance()
        after = target.runtimes[migrant_name].telemetry.instructions
        assert after > before  # resumed, not restarted

    def test_inject_charges_a_remap(self, geometry, trio):
        source = ShardServer(0, geometry, TIMING, CONFIG)
        target = ShardServer(1, geometry, TIMING, CONFIG)
        source.admit(trio[0])
        source.advance()
        remaps_before = source.runtimes[
            trio[0].name
        ].telemetry.remaps
        migrant = source.extract(trio[0].name)
        assert target.inject(migrant)
        # At least the migration's own tint rewrite (the broker's
        # admission rebalance may add more).
        assert (
            target.runtimes[trio[0].name].telemetry.remaps
            > remaps_before
        )
        target.advance()
        assert (
            target.runtimes[trio[0].name].telemetry.samples[-1]
            .remap_cycles
            > 0
        )

    def test_inject_into_full_shard_fails_cleanly(
        self, geometry, trio
    ):
        source = ShardServer(0, geometry, TIMING, CONFIG)
        target = ShardServer(1, geometry, TIMING, CONFIG)
        source.admit(trio[0])
        for index in range(3, 3 + geometry.columns):
            target.admit(spec_for(index, "crc32", message_bytes=256))
        migrant = source.extract(trio[0].name)
        assert not target.inject(migrant)
        assert trio[0].name not in target.residents
        target.broker.check_disjoint()


def small_service_config(**overrides):
    base = ServiceConfig(
        shards=2,
        geometry=CacheGeometry(line_size=16, sets=32, columns=8),
        timing=TIMING,
        fleet=FleetConfig(
            quantum_instructions=128,
            window_instructions=1024,
            hysteresis_windows=8,
            min_detect_accesses=256,
        ),
        patience_instructions=8_192,
        monitor_interval_instructions=2_048,
    )
    return dataclasses.replace(base, **overrides)


class TestDaemon:
    def test_submit_serve_drain(self, trio):
        async def scenario():
            async with FleetService(small_service_config()) as service:
                tickets = await asyncio.gather(
                    *(
                        service.submit(spec, service_instructions=4096)
                        for spec in trio
                    )
                )
                await service.drain()
                return tickets, service.snapshot(), service

        tickets, snapshot, service = asyncio.run(scenario())
        assert all(ticket.admitted for ticket in tickets)
        assert {ticket.reason for ticket in tickets} == {"admitted"}
        for ticket in tickets:
            assert 0 <= ticket.shard < 2
            assert ticket.wall_latency_s >= 0.0
            assert ticket.queue_wait_instructions >= 0
        # Drained: everyone served their budget and departed.
        assert all(
            not shard.residents for shard in snapshot.shards
        )
        assert service.invariant_checks > 0
        assert service.invariant_violations == 0

    def test_patience_timeout_rejects(self):
        """Saturate one shard; the overflow times out, not hangs."""
        config = small_service_config(
            shards=1, patience_instructions=2_048
        )
        specs = [
            spec_for(index, "crc32", message_bytes=256)
            for index in range(12)
        ]

        async def scenario():
            async with FleetService(config) as service:
                tickets = await asyncio.gather(
                    *(
                        service.submit(
                            spec, service_instructions=500_000
                        )
                        for spec in specs
                    )
                )
                return tickets

        tickets = asyncio.run(scenario())
        reasons = {ticket.reason for ticket in tickets}
        admitted = [t for t in tickets if t.admitted]
        timed_out = [t for t in tickets if t.reason == "timeout"]
        assert admitted and timed_out, reasons
        for ticket in timed_out:
            assert ticket.queue_wait_instructions >= 2_048

    def test_shutdown_rejects_queued_requests(self, trio):
        config = small_service_config(shards=1)

        async def scenario():
            service = FleetService(config)
            await service.start()
            ticket = await service.submit(
                trio[0], service_instructions=1_000_000
            )
            # Queue one more than fits, then stop before it decides.
            fillers = [
                asyncio.create_task(
                    service.submit(
                        spec_for(
                            20 + index, "crc32", message_bytes=256
                        ),
                        service_instructions=1_000_000,
                    )
                )
                for index in range(10)
            ]
            await asyncio.sleep(0.05)
            await service.stop()
            filled = await asyncio.gather(*fillers)
            return ticket, filled

        ticket, filled = asyncio.run(scenario())
        assert ticket.admitted
        assert any(t.reason == "shutdown" for t in filled) or all(
            t.reason in {"admitted", "timeout"} for t in filled
        )

    def test_explicit_departure_frees_columns(self, trio):
        config = small_service_config(shards=1)

        async def scenario():
            async with FleetService(config) as service:
                ticket = await service.submit(
                    trio[0], service_instructions=1_000_000
                )
                shard = service.shards[ticket.shard]
                resident_before = trio[0].name in shard.residents
                await service.depart(trio[0].name)
                await service.drain()  # departure is queued work
                return resident_before, trio[0].name in shard.residents

        resident_before, resident_after = asyncio.run(scenario())
        assert resident_before and not resident_after


def fail_shard_zero(monkeypatch, method="advance", call=5):
    """Make shard 0's ``call``-th ``ShardServer.<method>`` raise;
    returns a list that holds True once it has."""
    original = getattr(ShardServer, method)
    calls, fired = [], []

    def failing(shard, *args, **kwargs):
        if shard.shard_id == 0:
            calls.append(shard.now)
            if len(calls) == call:
                fired.append(True)
                raise RuntimeError("injected shard fault")
        return original(shard, *args, **kwargs)

    monkeypatch.setattr(ShardServer, method, failing)
    return fired


class TestFaultContainment:
    @pytest.mark.parametrize(
        "method, call",
        [("advance", 5), ("admit", 2), ("prime_admissions", 1)],
    )
    def test_a_faulting_shard_does_not_hang_the_daemon(
        self, monkeypatch, method, call
    ):
        """Shard 0's fifth segment (or second admit, or first batch
        prime) raises: the serve arm ends at once with the fault, every
        ticket resolves (shard 0's waiting ones with "fault"), another
        shard admits after the fault, and stop() returns."""
        from repro.experiments.serve import ServeConfig, _run_arm

        fired = fail_shard_zero(monkeypatch, method, call)
        admit, submit = ShardServer.admit, FleetService.submit
        admitted_after_fault = []
        tickets = []
        services = []

        def watched_admit(shard, *args, **kwargs):
            admitted = admit(shard, *args, **kwargs)
            if admitted and fired:
                admitted_after_fault.append(shard.shard_id)
            return admitted

        async def kept_submit(service, *args, **kwargs):
            if service not in services:
                services.append(service)
            ticket = await submit(service, *args, **kwargs)
            tickets.append(ticket)
            return ticket

        monkeypatch.setattr(ShardServer, "admit", watched_admit)
        monkeypatch.setattr(FleetService, "submit", kept_submit)
        with pytest.raises(
            RuntimeError, match=r"shards \[0\] faulted"
        ) as raised:
            asyncio.run(
                asyncio.wait_for(_run_arm(ServeConfig().quick(), True), 20)
            )
        (service,) = services
        assert list(service.faults) == [0]
        assert raised.value.__cause__ is service.faults[0]
        assert str(service.faults[0]) == "injected shard fault"
        assert len(tickets) == ServeConfig().quick().load.tenants
        faulted = [ticket for ticket in tickets if ticket.reason == "fault"]
        assert faulted and all(ticket.shard == 0 for ticket in faulted)
        assert not any(ticket.admitted for ticket in faulted)
        assert set(admitted_after_fault) - {0}
        assert not service._running

    def test_run_serve_reports_a_shard_fault(self, monkeypatch):
        """`repro experiments serve` does not print a clean report over
        a faulted shard: run_serve raises, chained to the fault."""
        from repro.experiments.serve import ServeConfig, run_serve

        fail_shard_zero(monkeypatch)
        with pytest.raises(RuntimeError, match="faulted") as raised:
            run_serve(ServeConfig().quick())
        assert str(raised.value.__cause__) == "injected shard fault"

    def test_a_faulted_shards_residents_trigger_no_migration(self, trio):
        """The imbalance the monitor samples and acts on leaves a
        faulted shard out: its residents never leave, so counting them
        would push the live shards into migrating."""
        service = FleetService(small_service_config(shards=3))
        for index in range(3, 9):
            service.shards[0].admit(
                spec_for(index, "crc32", message_bytes=256)
            )
        for spec in trio:
            service.shards[1].admit(spec)
        for index in range(9, 11):
            service.shards[2].admit(
                spec_for(index, "crc32", message_bytes=256)
            )
        assert service.snapshot().imbalance > (
            service.config.imbalance_threshold
        )
        service.faults[0] = RuntimeError("injected shard fault")
        service._maybe_migrate()
        assert service.migrations == []
        assert service.imbalance_timeline == [
            (service.virtual_now, 3 / 2.5)
        ]

    def test_every_shard_faulted_releases_every_waiter(
        self, trio, monkeypatch
    ):
        """Every shard faults on its second segment: the waiter parked
        before the faults is released, a later submit resolves with
        "fault", and drain and stop return."""
        advance = ShardServer.advance
        segments = {}

        def failing_advance(shard, *args, **kwargs):
            segments[shard.shard_id] = segments.get(shard.shard_id, 0) + 1
            if segments[shard.shard_id] > 1:
                raise RuntimeError("injected shard fault")
            return advance(shard, *args, **kwargs)

        monkeypatch.setattr(ShardServer, "advance", failing_advance)

        async def scenario():
            async with FleetService(small_service_config()) as service:
                first = await service.submit(trio[0])
                await service.wait_until(10**9)
                later = await service.submit(trio[1])
                await service.drain()
                return service, first, later

        service, first, later = asyncio.run(
            asyncio.wait_for(scenario(), 20)
        )
        assert sorted(service.faults) == [0, 1]
        assert first.admitted
        assert (later.admitted, later.reason) == (False, "fault")
