"""The snapshot layer: occupancy, broker maps, executor observers.

The inspection contract has two halves: snapshots must report the
truth (column counts match the reference cache, broker owner maps
match the disjoint grants) and observing must be free (a run's
results are bit-identical with and without an observer wired in).
"""

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.fleet import (
    ColumnBroker,
    FleetConfig,
    FleetEvent,
    FleetExecutor,
    FleetTrace,
    TenantSpec,
)
from repro.inspect import (
    BrokerSnapshot,
    DetectorSnapshot,
    ExecutorWindowSnapshot,
    FleetSegmentSnapshot,
    column_occupancy,
    miss_rate_timeline,
)
from repro.layout.algorithm import DataLayoutPlanner, LayoutConfig
from repro.runtime import AdaptiveConfig, AdaptiveExecutor, PhaseDetector
from repro.sim.config import MULTITASK_TIMING, TimingConfig
from repro.sim.engine.batched import LockstepCache, LockstepState
from repro.sim.executor import TraceExecutor
from repro.workloads.suite import make_workload
from repro.workloads.transform import PhasedFFT

from oracles.column_cache import ReferenceCache

TIMING = TimingConfig(miss_penalty=10, uncached_penalty=25)
LAYOUT = LayoutConfig(columns=4, column_bytes=512, line_size=16)


@pytest.fixture(scope="module")
def run():
    return make_workload("crc32", seed=3, message_bytes=512).record()


@pytest.fixture(scope="module")
def assignment(run):
    return DataLayoutPlanner(LAYOUT).plan(run)


class TestColumnOccupancy:
    def test_cold_caches_are_empty(self):
        geometry = CacheGeometry(line_size=16, sets=32, columns=4)
        assert column_occupancy(LockstepCache(geometry)) == (0,) * 4
        assert column_occupancy(
            LockstepState.cold(geometry.sets, geometry.columns)
        ) == (0,) * 4

    def test_matches_reference_after_identical_runs(self):
        geometry = CacheGeometry(line_size=16, sets=8, columns=4)
        blocks = [(seed * 37) % 64 for seed in range(200)]
        reference = ReferenceCache(geometry)
        reference.run(blocks, uniform_mask=0b1111)
        batched = LockstepCache(geometry)
        batched.run(np.array(blocks, dtype=np.int64), uniform_mask=0b1111)
        reference_counts = reference.occupancy()
        assert reference_counts == column_occupancy(batched)
        assert reference_counts == column_occupancy(batched.state)
        assert all(0 <= count <= 8 for count in reference_counts)
        assert sum(reference_counts) > 0

    def test_rejects_unknown_objects(self):
        with pytest.raises(TypeError):
            column_occupancy(object())


class TestMissRateTimeline:
    def test_from_window_samples(self):
        class Sample:
            def __init__(self, index, accesses, misses):
                self.window_index = index
                self.accesses = accesses
                self.misses = misses

        timeline = miss_rate_timeline(
            [Sample(0, 10, 5), Sample(1, 0, 0), Sample(2, 4, 1)]
        )
        assert timeline == ((0, 0.5), (1, 0.0), (2, 0.25))


class TestDetectorSnapshot:
    def test_snapshot_tracks_windows_and_boundaries(self):
        detector = PhaseDetector(hysteresis_windows=2)
        detector.observe_window([1, 2, 3], misses=1)
        detector.observe_window([1000, 2000, 3000], misses=3)
        snapshot = detector.snapshot()
        assert isinstance(snapshot, DetectorSnapshot)
        assert snapshot.windows == 2
        assert snapshot.boundaries == (1,)
        assert snapshot.in_hysteresis
        exported = snapshot.as_dict()
        assert exported["windows"] == 2
        assert exported["boundaries"] == [1]

    def test_empty_detector(self):
        snapshot = PhaseDetector().snapshot()
        assert snapshot.windows == 0
        assert snapshot.boundaries == ()
        assert not snapshot.in_hysteresis


class TestBrokerSnapshot:
    def test_owner_map_matches_grants(self, run):
        geometry = CacheGeometry(line_size=16, sets=32, columns=8)
        broker = ColumnBroker(geometry, MULTITASK_TIMING)
        broker.admit("a", run, priority=1)
        broker.admit("b", run, priority=2)
        snapshot = broker.snapshot()
        assert isinstance(snapshot, BrokerSnapshot)
        assert snapshot.columns == 8
        for name, bits in snapshot.grants:
            for column in range(8):
                if bits >> column & 1:
                    assert snapshot.owners[column] == name
        owned = sum(
            1 for owner in snapshot.owners if owner is not None
        )
        assert owned + snapshot.free_columns == 8
        assert dict(snapshot.priorities) == {"a": 1, "b": 2}
        exported = snapshot.as_dict()
        assert exported["free_columns"] == snapshot.free_columns


class TestRunWindowed:
    def test_matches_monolithic_run(self, run, assignment):
        executor = TraceExecutor(TIMING)
        whole = executor.run(run.trace, assignment)
        snapshots = []
        windowed = executor.run_windowed(
            run.trace,
            assignment,
            window_accesses=256,
            observer=snapshots.append,
        )
        assert windowed.hits == whole.hits
        assert windowed.misses == whole.misses
        assert windowed.cycles == whole.cycles
        assert windowed.setup_cycles == whole.setup_cycles
        assert windowed.name == whole.name
        assert snapshots, "observer saw no windows"
        assert all(
            isinstance(s, ExecutorWindowSnapshot) for s in snapshots
        )
        assert sum(s.accesses for s in snapshots) == len(run.trace)
        assert sum(s.misses for s in snapshots) >= whole.misses
        sets = TraceExecutor.geometry_for(assignment).sets
        for snapshot in snapshots:
            assert len(snapshot.column_occupancy) == LAYOUT.columns
            assert all(
                0 <= count <= sets
                for count in snapshot.column_occupancy
            )
        # Occupancy only grows: nothing evicts to empty.
        first = sum(snapshots[0].column_occupancy)
        last = sum(snapshots[-1].column_occupancy)
        assert last >= first > 0

    def test_observer_is_optional(self, run, assignment):
        executor = TraceExecutor(TIMING)
        result = executor.run_windowed(
            run.trace, assignment, window_accesses=1024
        )
        assert result.accesses == len(run.trace)


class TestAdaptiveObserver:
    def test_snapshots_do_not_change_results(self):
        run = PhasedFFT(seed=5).record()
        executor = AdaptiveExecutor(
            LAYOUT,
            TIMING,
            AdaptiveConfig(window_accesses=256),
        )
        plain = executor.run(run)
        snapshots = []
        observed = executor.run(run, observer=snapshots.append)
        assert observed.result.cycles == plain.result.cycles
        assert observed.result.misses == plain.result.misses
        assert len(snapshots) == len(observed.observations)
        remap_windows = {
            event.window_index for event in observed.events
        }
        flagged = {
            s.window_index for s in snapshots if s.remapped
        }
        assert flagged == remap_windows
        for snapshot in snapshots:
            assert snapshot.detector is not None
            assert snapshot.detector.windows == (
                snapshot.window_index + 1
            )


class TestFleetObserver:
    def test_segment_snapshots(self):
        specs = [
            TenantSpec(
                name=f"t{i}",
                run=make_workload(
                    "crc32", seed=20 + i, message_bytes=256
                ).record(),
                priority=1,
                address_offset=i << 32,
            )
            for i in range(2)
        ]
        geometry = CacheGeometry(line_size=16, sets=32, columns=8)
        fleet = FleetTrace(
            events=tuple(
                FleetEvent(time=0, kind="arrival", spec=spec)
                for spec in specs
            ),
            horizon_instructions=20_000,
        )
        executor = FleetExecutor(
            geometry,
            MULTITASK_TIMING,
            FleetConfig(
                quantum_instructions=128, window_instructions=2048
            ),
        )
        snapshots = []
        plain = executor.run(fleet)
        observed = executor.run(fleet, observer=snapshots.append)
        assert observed.segments == plain.segments
        # One snapshot per segment, numbered from 0.
        assert [snapshot.segment for snapshot in snapshots] == list(
            range(observed.segments)
        )
        for snapshot in snapshots:
            assert isinstance(snapshot, FleetSegmentSnapshot)
            assert len(snapshot.column_occupancy) == 8
            names = {row.name for row in snapshot.tenants}
            granted = {name for name, _ in snapshot.broker.grants}
            assert names == granted
            # Disjoint grants: each owned column has exactly one owner.
            union = 0
            for _, bits in snapshot.broker.grants:
                assert union & bits == 0
                union |= bits
        for name, telemetry in observed.telemetry.items():
            plain_telemetry = plain.telemetry[name]
            assert telemetry.hits == plain_telemetry.hits
            assert telemetry.misses == plain_telemetry.misses
