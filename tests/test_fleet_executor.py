"""The fleet executor: scheduling, events, telemetry, differential.

The bar for the fleet layer is the same as for every other backend
pair in this repository (``docs/testing.md``): the executor's fused
segment loop and the scalar per-quantum oracle
(``tests/oracles/fleet.py``) must produce **bit-identical per-access
hit streams and identical per-tenant telemetry** on the same scenario
— including scenarios where arrivals cut windows short, departures
release columns mid-run and the broker rewrites tints between
segments.
"""

import pytest
from hypothesis import given, settings

from repro.cache.geometry import CacheGeometry
from repro.fleet import (
    ColumnBroker,
    FleetConfig,
    FleetEvent,
    FleetExecutor,
    FleetTrace,
    SharedPool,
    TenantSpec,
    TenantStatus,
    single_tenant_trace,
)
from repro.sim.config import MULTITASK_TIMING
from repro.sim.engine.backends import (
    compiled_available,
    reset_backend,
    set_backend,
)
from repro.workloads.suite import make_workload

from oracles.fleet import assert_same_run, run_reference_fleet
from strategies import fleet_scenario

TIMING = MULTITASK_TIMING

KERNELS = ["numpy"] + (["compiled"] if compiled_available() else [])


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


def run_fleet(geometry, fleet, config=None, broker=None, **kwargs):
    executor = FleetExecutor(
        geometry,
        TIMING,
        config or FleetConfig(
            quantum_instructions=128, window_instructions=2048
        ),
    )
    return executor.run(fleet, broker=broker, **kwargs)


class TestScheduling:
    def test_conservation(self, geometry, trio):
        horizon = 30_000
        fleet = FleetTrace(
            events=tuple(
                FleetEvent(time=0, kind="arrival", spec=spec)
                for spec in trio
            ),
            horizon_instructions=horizon,
        )
        result = run_fleet(geometry, fleet)
        assert result.total_instructions >= horizon
        # Segment budgets are exact: the final quantum is cut to the
        # remaining budget, so overshoot is bounded by one atomic
        # access, not one quantum.
        heaviest_access = max(
            int(spec.run.trace.gaps.max()) + 1 for spec in trio
        )
        assert result.total_instructions < horizon + heaviest_access
        total = sum(
            telemetry.instructions
            for telemetry in result.telemetry.values()
        )
        assert total == result.total_instructions
        for telemetry in result.telemetry.values():
            assert telemetry.accesses == telemetry.hits + telemetry.misses
            assert telemetry.instructions == sum(
                sample.instructions for sample in telemetry.samples
            )

    def test_solo_run_uses_whole_cache(self, geometry, trio):
        result = run_fleet(
            geometry, single_tenant_trace(trio[0], 10_000)
        )
        telemetry = result.telemetry[trio[0].name]
        assert telemetry.status is TenantStatus.RUNNING
        assert all(
            sample.columns == geometry.columns
            for sample in telemetry.samples
        )

    def test_idle_gap_before_first_arrival(self, geometry, trio):
        fleet = FleetTrace(
            events=(
                FleetEvent(time=5_000, kind="arrival", spec=trio[0]),
            ),
            horizon_instructions=12_000,
        )
        result = run_fleet(geometry, fleet)
        telemetry = result.telemetry[trio[0].name]
        assert telemetry.admitted_at >= 5_000
        # Only the tenant's own instructions are accounted.
        assert telemetry.instructions == sum(
            sample.instructions for sample in telemetry.samples
        )


class TestEvents:
    def test_arrival_mid_window_cuts_segment(self, geometry, trio):
        """An arrival lands inside what would be one huge window: the
        segment is cut at the event, so the tenant starts on time
        (quantum granularity), not a window later."""
        config = FleetConfig(
            quantum_instructions=128, window_instructions=50_000
        )
        fleet = FleetTrace(
            events=(
                FleetEvent(time=0, kind="arrival", spec=trio[0]),
                FleetEvent(time=7_000, kind="arrival", spec=trio[1]),
            ),
            horizon_instructions=40_000,
        )
        result = run_fleet(geometry, fleet, config=config)
        late = result.telemetry[trio[1].name]
        assert late.status is TenantStatus.RUNNING
        assert late.admitted_at == 7_000
        # Had the arrival waited for the window's natural end
        # (50k > horizon) it would never run; instead it gets its
        # round-robin half of the remaining ~33k instructions.
        assert late.instructions > 10_000
        # The first tenant's run really was segmented by the arrival.
        first = result.telemetry[trio[0].name]
        assert len(first.samples) >= 2

    def test_arrival_during_inflight_repartition(self, geometry, trio):
        """Back-to-back events: the second arrival lands while the
        first arrival's repartition is being applied at the same
        boundary; both must be admitted onto disjoint columns."""
        broker = ColumnBroker(geometry, TIMING)
        fleet = FleetTrace(
            events=(
                FleetEvent(time=0, kind="arrival", spec=trio[0]),
                FleetEvent(time=1_000, kind="arrival", spec=trio[1]),
                FleetEvent(time=1_001, kind="arrival", spec=trio[2]),
            ),
            horizon_instructions=20_000,
        )
        result = run_fleet(geometry, fleet, broker=broker)
        broker.check_disjoint()
        for spec in trio:
            assert (
                result.telemetry[spec.name].status
                is TenantStatus.RUNNING
            )
        assert len(broker.grants) == 3

    def test_departure_mid_window_releases_columns(
        self, geometry, trio
    ):
        """A departure inside one huge window frees columns for the
        survivor *at the event*, not at the window's natural end."""
        config = FleetConfig(
            quantum_instructions=128, window_instructions=100_000
        )
        fleet = FleetTrace(
            events=(
                FleetEvent(time=0, kind="arrival", spec=trio[0]),
                FleetEvent(time=0, kind="arrival", spec=trio[1]),
                FleetEvent(
                    time=30_000, kind="departure", tenant=trio[1].name
                ),
            ),
            horizon_instructions=80_000,
        )
        result = run_fleet(geometry, fleet, config=config)
        departed = result.telemetry[trio[1].name]
        assert departed.status is TenantStatus.DEPARTED
        assert departed.departed_at == 30_000
        # It was descheduled at the event, not at the window's natural
        # end (100k): it ran its round-robin half of ~30k instructions.
        assert departed.instructions < 20_000
        survivor = result.telemetry[trio[0].name]
        occupancy = survivor.occupancy_history()
        # The survivor's grant grows to the whole cache afterwards.
        assert occupancy[-1] == geometry.columns
        assert occupancy[0] < geometry.columns
        # And the survivor keeps executing past the departure.
        assert survivor.samples[-1].instructions > 0

    def test_rejection_when_zero_columns_free(self, trio):
        geometry = CacheGeometry(line_size=16, sets=32, columns=2)
        late = spec_for(3, "crc32", message_bytes=256)
        fleet = FleetTrace(
            events=(
                FleetEvent(time=0, kind="arrival", spec=trio[0]),
                FleetEvent(time=0, kind="arrival", spec=trio[1]),
                FleetEvent(time=2_000, kind="arrival", spec=trio[2]),
                FleetEvent(
                    time=6_000, kind="departure", tenant=trio[0].name
                ),
                FleetEvent(time=10_000, kind="arrival", spec=late),
            ),
            horizon_instructions=25_000,
        )
        result = run_fleet(geometry, fleet)
        assert result.rejected == [trio[2].name]
        rejected = result.telemetry[trio[2].name]
        assert rejected.status is TenantStatus.REJECTED
        assert rejected.samples == []
        # After a departure freed a column, the next arrival got in.
        assert (
            result.telemetry[late.name].status is TenantStatus.RUNNING
        )

    def test_departure_of_rejected_tenant_is_noop(self, trio):
        geometry = CacheGeometry(line_size=16, sets=32, columns=2)
        fleet = FleetTrace(
            events=(
                FleetEvent(time=0, kind="arrival", spec=trio[0]),
                FleetEvent(time=0, kind="arrival", spec=trio[1]),
                FleetEvent(time=1_000, kind="arrival", spec=trio[2]),
                FleetEvent(
                    time=2_000, kind="departure", tenant=trio[2].name
                ),
            ),
            horizon_instructions=10_000,
        )
        result = run_fleet(geometry, fleet)
        assert (
            result.telemetry[trio[2].name].status
            is TenantStatus.REJECTED
        )

    def test_unknown_departure_raises(self, geometry, trio):
        fleet = FleetTrace(
            events=(
                FleetEvent(time=0, kind="arrival", spec=trio[0]),
                FleetEvent(time=1_000, kind="departure", tenant="ghost"),
            ),
            horizon_instructions=10_000,
        )
        with pytest.raises(ValueError):
            run_fleet(geometry, fleet)


class TestValidation:
    def test_event_validation(self, trio):
        with pytest.raises(ValueError):
            FleetEvent(time=0, kind="arrival")
        with pytest.raises(ValueError):
            FleetEvent(time=0, kind="departure")
        with pytest.raises(ValueError):
            FleetEvent(time=0, kind="resize", tenant="a")
        with pytest.raises(ValueError):
            FleetEvent(time=-1, kind="departure", tenant="a")

    def test_trace_validation(self, trio):
        events = (
            FleetEvent(time=5, kind="arrival", spec=trio[0]),
            FleetEvent(time=1, kind="departure", tenant="x"),
        )
        with pytest.raises(ValueError):
            FleetTrace(events=events, horizon_instructions=100)
        with pytest.raises(ValueError):
            FleetTrace(events=(), horizon_instructions=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(quantum_instructions=0)
        with pytest.raises(ValueError):
            FleetConfig(
                quantum_instructions=100, window_instructions=50
            )

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("min_detect_accesses", 0),
            ("min_detect_accesses", -5),
            ("signature_threshold", 0.0),
            ("miss_rate_threshold", -1.0),
            ("hysteresis_windows", 0),
        ],
    )
    def test_config_refuses_bad_detector_settings(self, field, value):
        """Refused when the config is built, naming the field, not at
        the first admission or segment inside a shard."""
        with pytest.raises(ValueError, match=f"^{field} must be"):
            FleetConfig(**{field: value})


class TestDifferential:
    def test_deterministic_scenario_bit_identical(self, geometry, trio):
        fleet = FleetTrace(
            events=(
                FleetEvent(time=0, kind="arrival", spec=trio[0]),
                FleetEvent(time=3_000, kind="arrival", spec=trio[1]),
                FleetEvent(time=9_000, kind="arrival", spec=trio[2]),
                FleetEvent(
                    time=15_000, kind="departure", tenant=trio[1].name
                ),
            ),
            horizon_instructions=30_000,
        )
        config = FleetConfig(
            quantum_instructions=128, window_instructions=2048
        )
        fast = FleetExecutor(geometry, TIMING, config).run(
            fleet,
            broker=ColumnBroker(geometry, TIMING),
            collect_flags=True,
        )
        reference = run_reference_fleet(
            geometry,
            TIMING,
            config,
            fleet,
            broker=ColumnBroker(geometry, TIMING),
        )
        assert fast.hit_stream is not None
        assert len(fast.hit_stream) > 0
        assert_same_run(fast, reference, TIMING)
        # Events are stamped at their scheduled times, not at the
        # segment edge that applied them.
        assert fast.telemetry[trio[1].name].admitted_at == 3_000
        assert fast.telemetry[trio[1].name].departed_at == 15_000
        # Broker-driven tint rewrites really happened mid-run.
        assert len(fast.rewrites) >= 4

    def test_shared_pool_bit_identical(self, geometry, trio):
        fleet = FleetTrace(
            events=tuple(
                FleetEvent(time=0, kind="arrival", spec=spec)
                for spec in trio
            ),
            horizon_instructions=20_000,
        )
        config = FleetConfig(
            quantum_instructions=64, window_instructions=1024
        )
        fast = FleetExecutor(geometry, TIMING, config).run(
            fleet,
            broker=SharedPool(geometry, TIMING),
            collect_flags=True,
        )
        reference = run_reference_fleet(
            geometry,
            TIMING,
            config,
            fleet,
            broker=SharedPool(geometry, TIMING),
        )
        assert_same_run(fast, reference, TIMING)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_flag_free_run_matches_oracle(self, geometry, trio, kernel):
        """Production runs collect no hit flags, which takes other
        kernel paths; their telemetry must match the oracle's too."""
        fleet = FleetTrace(
            events=(
                FleetEvent(time=0, kind="arrival", spec=trio[0]),
                FleetEvent(time=2_500, kind="arrival", spec=trio[1]),
                FleetEvent(time=6_000, kind="arrival", spec=trio[2]),
                FleetEvent(
                    time=11_000, kind="departure", tenant=trio[0].name
                ),
            ),
            horizon_instructions=16_000,
        )
        config = FleetConfig(
            quantum_instructions=64, window_instructions=1024
        )
        set_backend(kernel)
        try:
            fast = FleetExecutor(geometry, TIMING, config).run(fleet)
        finally:
            reset_backend()
        assert fast.hit_stream is None
        reference = run_reference_fleet(geometry, TIMING, config, fleet)
        reference.hit_stream = None
        assert_same_run(fast, reference, TIMING)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_readmitted_name_walks_its_new_trace(self, geometry, kernel):
        """A name that departs and arrives again with another run is a
        new tenant: its segments walk the new trace, not the departed
        one's blocks under the new trace's schedule."""
        first = TenantSpec(name="a", run=make_workload("crc32").record())
        second = TenantSpec(name="a", run=make_workload("fir").record())
        assert len(first.run.trace) != len(second.run.trace)
        fleet = FleetTrace(
            events=(
                FleetEvent(time=0, kind="arrival", spec=first),
                FleetEvent(time=5_000, kind="departure", tenant="a"),
                FleetEvent(time=6_000, kind="arrival", spec=second),
            ),
            horizon_instructions=14_000,
        )
        config = FleetConfig(
            quantum_instructions=128, window_instructions=2048
        )
        set_backend(kernel)
        try:
            fast = FleetExecutor(geometry, TIMING, config).run(
                fleet, collect_flags=True
            )
        finally:
            reset_backend()
        reference = run_reference_fleet(geometry, TIMING, config, fleet)
        assert_same_run(fast, reference, TIMING)
        assert fast.telemetry["a"].admitted_at == 6_000

    @settings(max_examples=20, deadline=None)
    @given(case=fleet_scenario())
    def test_property_bit_identical(self, case):
        geometry, fleet, config = case
        fast = FleetExecutor(geometry, TIMING, config).run(
            fleet,
            broker=ColumnBroker(geometry, TIMING),
            collect_flags=True,
        )
        reference = run_reference_fleet(
            geometry,
            TIMING,
            config,
            fleet,
            broker=ColumnBroker(geometry, TIMING),
        )
        assert_same_run(fast, reference, TIMING)
