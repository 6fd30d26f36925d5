"""The differential-testing oracle: every backend, one machine.

Random traces and geometries drive the reference
:class:`~repro.cache.column_cache.ColumnCache` (through the block-level
adapter in ``tests/oracles/column_cache.py``), the numpy lockstep
kernel, the on-demand-compiled C kernel (skip-marked when no system
compiler is usable) and :class:`~repro.sim.engine.batched.LockstepCache`;
the *per-access* hit and bypass streams (not just totals) must be
bit-identical.  The drawn blocks cover the whole block domain —
negative blocks and blocks up to ``2**58`` — on every backend leg.
The adaptive runtime joins the triangle at the system level: the fast
windowed executor and a live remap replay through the full
TLB/tint/replacement mechanism must agree hit-for-hit and
cycle-for-cycle.

The input strategies live in ``tests/strategies.py`` so a new backend
can reuse them verbatim — see ``docs/testing.md`` for the recipe.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.fleet import (
    ColumnBroker,
    FleetConfig,
    FleetEvent,
    FleetExecutor,
    FleetTrace,
    TenantSpec,
)
from repro.layout.algorithm import LayoutConfig
from repro.runtime import AdaptiveConfig, AdaptiveExecutor, replay_reference
from repro.sim.config import TimingConfig
from repro.sim.engine.backends import (
    compiled_available,
    reset_backend,
    set_backend,
)
from repro.sim.engine.batched import (
    LockstepCache,
    LockstepState,
    lockstep_run,
)

from oracles.column_cache import reference_streams
from oracles.fleet import assert_same_run, run_reference_fleet
from strategies import (
    block_trace_cases,
    fleet_scenario,
    phased_workload,
    record_suite_case,
    suite_cases,
    suite_mask_bits,
)

TIMING = TimingConfig(miss_penalty=13, uncached_penalty=29)

#: The compiled C kernel needs a working system compiler; when there is
#: none the rest of the oracle still runs and these legs skip cleanly.
requires_compiled = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled lockstep kernel unavailable (no usable C compiler)",
)

#: Every kernel backend this host can run.
KERNELS = ("numpy", "compiled") if compiled_available() else ("numpy",)


def lockstep_streams(geometry, blocks, mask_bits, kernel):
    """Per-access (hit, bypass) streams from one cold lockstep run."""
    blocks = np.asarray(blocks, dtype=np.int64)
    return lockstep_run(
        blocks & (geometry.sets - 1),
        blocks >> geometry.index_bits,
        LockstepState.cold(geometry.sets, geometry.columns),
        mask_bits=np.asarray(mask_bits, dtype=np.int64),
        backend=kernel,
    )


@given(case=block_trace_cases())
def test_backends_agree_per_access(case):
    """Reference, both kernels and LockstepCache: identical streams."""
    geometry, blocks, mask_bits = case
    ref_hits, ref_bypasses, reference = reference_streams(
        geometry, blocks, mask_bits
    )
    expected_hits = int(ref_hits.sum())
    expected_bypasses = int(ref_bypasses.sum())
    assert reference.stats.hits == expected_hits
    assert reference.stats.misses == len(blocks) - expected_hits
    assert reference.stats.bypasses == expected_bypasses

    for kernel in KERNELS:
        lock_hits, lock_bypasses = lockstep_streams(
            geometry, blocks, mask_bits, kernel
        )
        assert np.array_equal(lock_hits, ref_hits), kernel
        assert np.array_equal(lock_bypasses, ref_bypasses), kernel

        # The stateful front door: same stream, counters to match.
        cache = LockstepCache(geometry, backend=kernel)
        cache_hits = cache.run_with_flags(blocks, mask_bits=mask_bits)
        assert np.array_equal(cache_hits, ref_hits), kernel
        assert cache.hits == expected_hits
        assert cache.misses == len(blocks) - expected_hits
        assert cache.bypasses == expected_bypasses


@requires_compiled
@given(case=block_trace_cases())
def test_compiled_kernel_agrees_per_access(case):
    """The compiled C kernel joins the matrix: streams, state, misses.

    Per-access hit/bypass flags, the final cache state arrays, and
    the ``collect="misses"`` position set must all be bit-identical
    to the numpy lockstep kernel (itself anchored to the reference
    model above) on every drawn trace.
    """
    geometry, blocks, mask_bits = case
    blocks = np.asarray(blocks, dtype=np.int64)
    masks = np.asarray(mask_bits, dtype=np.int64)
    rows = blocks & (geometry.sets - 1)
    tags = blocks >> geometry.index_bits

    state_numpy = LockstepState.cold(geometry.sets, geometry.columns)
    numpy_hits, numpy_bypasses = lockstep_run(
        rows, tags, state_numpy, mask_bits=masks, backend="numpy"
    )
    state_compiled = LockstepState.cold(geometry.sets, geometry.columns)
    compiled_hits, compiled_bypasses = lockstep_run(
        rows, tags, state_compiled, mask_bits=masks, backend="compiled"
    )
    assert np.array_equal(compiled_hits, numpy_hits)
    assert np.array_equal(compiled_bypasses, numpy_bypasses)
    assert np.array_equal(state_compiled.tags, state_numpy.tags)
    assert np.array_equal(state_compiled.last_use, state_numpy.last_use)
    assert np.array_equal(state_compiled.clock, state_numpy.clock)

    state_misses = LockstepState.cold(geometry.sets, geometry.columns)
    miss_positions = lockstep_run(
        rows,
        tags,
        state_misses,
        mask_bits=masks,
        collect="misses",
        backend="compiled",
    )
    miss_flags = np.zeros(len(blocks), dtype=bool)
    miss_flags[np.asarray(miss_positions, dtype=np.int64)] = True
    assert np.array_equal(miss_flags, ~numpy_hits)


@given(case=block_trace_cases(), kernel=st.sampled_from(KERNELS))
def test_resumed_lockstep_cache_equals_one_shot(case, kernel):
    """Splitting a LockstepCache run across calls must not change the
    stream: the resumed halves equal the reference's one-shot run."""
    geometry, blocks, mask_bits = case
    ref_hits, ref_bypasses, _ = reference_streams(
        geometry, blocks, mask_bits
    )
    resumed = LockstepCache(geometry, backend=kernel)
    cut = len(blocks) // 2
    first = resumed.run_with_flags(blocks[:cut], mask_bits=mask_bits[:cut])
    second = resumed.run_with_flags(blocks[cut:], mask_bits=mask_bits[cut:])
    assert np.array_equal(np.concatenate([first, second]), ref_hits)
    assert resumed.hits == int(ref_hits.sum())
    assert resumed.bypasses == int(ref_bypasses.sum())


# ----------------------------------------------------------------------
# Whole-suite oracle: every registered workload, legacy vs columnar
# ----------------------------------------------------------------------
_SUITE_GEOMETRY = CacheGeometry(line_size=16, sets=16, columns=4)



@pytest.mark.parametrize(
    ("name", "kwargs"),
    suite_cases(),
    ids=[name for name, _ in suite_cases()],
)
class TestWorkloadSuiteColumnar:
    """The columnar pipeline must be invisible: every workload's
    recorded trace and simulated per-access hit/bypass streams are
    bit-identical between the legacy list path and the columnar path,
    on every backend."""

    def test_legacy_and_columnar_recordings_identical(self, name, kwargs):
        """The whole recording matches the reference recorder's: the
        five columns, the name table, the phase markers and the
        workload's outputs."""
        columnar_run = record_suite_case(name, kwargs)
        legacy_run = record_suite_case(name, kwargs, legacy=True)
        columnar, legacy = columnar_run.trace, legacy_run.trace
        for column in (
            "addresses", "sizes", "writes", "gaps", "variable_ids"
        ):
            assert np.array_equal(
                getattr(columnar, column), getattr(legacy, column)
            ), column
        assert columnar.variable_names == legacy.variable_names
        assert columnar_run.phases == legacy_run.phases
        assert list(columnar_run.outputs) == list(legacy_run.outputs)
        for key, value in columnar_run.outputs.items():
            assert np.array_equal(value, legacy_run.outputs[key]), key

    def test_backends_agree_on_recorded_trace(self, name, kwargs):
        """The reference model checks every access of every recorded
        suite trace against the numpy kernel's flag and counting
        modes and the stateful LockstepCache."""
        geometry = _SUITE_GEOMETRY
        trace = record_suite_case(name, kwargs).trace
        blocks = trace.blocks_for(geometry.offset_bits)
        mask_bits = suite_mask_bits(trace, geometry.columns)
        ref_hits, ref_bypasses, _ = reference_streams(
            geometry, blocks, mask_bits
        )

        lock_hits, lock_bypasses = lockstep_streams(
            geometry, blocks, mask_bits, "numpy"
        )
        assert np.array_equal(lock_hits, ref_hits)
        assert np.array_equal(lock_bypasses, ref_bypasses)

        stateful = LockstepCache(geometry, backend="numpy")
        stateful_hits = stateful.run_with_flags(
            blocks, mask_bits=mask_bits
        )
        assert np.array_equal(stateful_hits, ref_hits)

        # The counting mode the sweep engine batches through.
        state = LockstepState.cold(geometry.sets, geometry.columns)
        miss_positions = lockstep_run(
            blocks & (geometry.sets - 1),
            blocks >> geometry.index_bits,
            state,
            mask_bits=mask_bits,
            collect="misses",
            backend="numpy",
        )
        miss_flags = np.zeros(len(blocks), dtype=bool)
        miss_flags[miss_positions] = True
        assert np.array_equal(miss_flags, ~ref_hits)

    @requires_compiled
    def test_compiled_backend_agrees_on_recorded_trace(self, name, kwargs):
        """Compiled kernel on real workload traces.

        One-shot flags and the stateful :class:`LockstepCache` must
        match the numpy lockstep kernel access-for-access on every
        recorded suite workload.
        """
        geometry = _SUITE_GEOMETRY
        trace = record_suite_case(name, kwargs).trace
        blocks = trace.blocks_for(geometry.offset_bits)
        mask_bits = suite_mask_bits(trace, geometry.columns)

        numpy_hits, numpy_bypasses = lockstep_streams(
            geometry, blocks, mask_bits, "numpy"
        )
        compiled_hits, compiled_bypasses = lockstep_streams(
            geometry, blocks, mask_bits, "compiled"
        )
        assert np.array_equal(compiled_hits, numpy_hits)
        assert np.array_equal(compiled_bypasses, numpy_bypasses)

        stateful = LockstepCache(geometry, backend="compiled")
        stateful_hits = stateful.run_with_flags(
            blocks, mask_bits=mask_bits
        )
        assert np.array_equal(stateful_hits, numpy_hits)

    def test_fleet_backends_agree_on_workload(self, name, kwargs):
        geometry = CacheGeometry(line_size=16, sets=8, columns=4)
        run = record_suite_case(name, kwargs)
        spec = TenantSpec(
            name=name, run=run, priority=1, address_offset=0
        )
        fleet = FleetTrace(
            events=(FleetEvent(time=0, kind="arrival", spec=spec),),
            horizon_instructions=4_000,
        )
        config = FleetConfig(
            quantum_instructions=64, window_instructions=512
        )
        fast = FleetExecutor(geometry, TIMING, config).run(
            fleet, collect_flags=True
        )
        reference = run_reference_fleet(geometry, TIMING, config, fleet)
        assert_same_run(fast, reference, TIMING)


# ----------------------------------------------------------------------
# Fused fleet oracle: the multi-tenant kernel walk, both kernels
# ----------------------------------------------------------------------
def _run_fleet(case, kernel, observer=None):
    """One executor run with the session kernel pinned for its span."""
    geometry, fleet, config = case
    set_backend(kernel)
    try:
        return FleetExecutor(geometry, TIMING, config).run(
            fleet,
            broker=ColumnBroker(geometry, TIMING),
            collect_flags=True,
            observer=observer,
        )
    finally:
        reset_backend()


def _run_oracle(case):
    geometry, fleet, config = case
    return run_reference_fleet(
        geometry,
        TIMING,
        config,
        fleet,
        broker=ColumnBroker(geometry, TIMING),
    )


class TestFusedFleetOracle:
    """The fused multi-tenant walk joins the differential matrix.

    Both kernel backends run whole scheduling windows in one entry
    (:func:`~repro.sim.engine.fused.fused_multitask_run`); against any
    drawn fleet scenario — mid-window arrivals and departures, broker
    rebalances, wrapping traces — the per-access hit stream and every
    tenant's whole telemetry must be identical to the scalar
    per-quantum oracle's (``tests/oracles/fleet.py``).
    """

    @settings(max_examples=15, deadline=None)
    @given(case=fleet_scenario())
    def test_fused_numpy_matches_reference(self, case):
        fast = _run_fleet(case, "numpy")
        assert_same_run(fast, _run_oracle(case), TIMING)

    @requires_compiled
    @settings(max_examples=15, deadline=None)
    @given(case=fleet_scenario())
    def test_fused_compiled_matches_reference(self, case):
        fast = _run_fleet(case, "compiled")
        assert_same_run(fast, _run_oracle(case), TIMING)

    @settings(max_examples=10, deadline=None)
    @given(case=fleet_scenario())
    def test_observer_attached_run_is_bit_identical(self, case):
        """The live-inspection observer is read-only: a run with one
        attached still matches the oracle, and the observer sees
        exactly one snapshot per scheduling segment, numbered from
        0, whose residents' detectors read the oracle's windows."""
        kernels = ["numpy"]
        if compiled_available():
            kernels.append("compiled")
        geometry, fleet, config = case
        detectors = []
        reference = run_reference_fleet(
            geometry,
            TIMING,
            config,
            fleet,
            broker=ColumnBroker(geometry, TIMING),
            observer=detectors.append,
        )
        for kernel in kernels:
            snapshots = []
            observed = _run_fleet(
                case, kernel, observer=snapshots.append
            )
            assert_same_run(observed, reference, TIMING)
            assert [snapshot.segment for snapshot in snapshots] == list(
                range(observed.segments)
            )
            assert [
                {row.name: row.detector for row in snapshot.tenants}
                for snapshot in snapshots
            ] == detectors
            resident_names = {
                row.name
                for snapshot in snapshots
                for row in snapshot.tenants
            }
            running = {
                name
                for name, telemetry in observed.telemetry.items()
                if telemetry.samples
            }
            assert running <= resident_names


@given(
    run=phased_workload(),
    window_size=st.sampled_from([32, 64, 128]),
    hysteresis=st.integers(1, 3),
)
@settings(deadline=None)
def test_adaptive_fast_matches_reference_mechanism(
    run, window_size, hysteresis
):
    """Live remapping: fast path == full TLB/tint mechanism.

    The adaptive executor's windowed fast path and a replay through
    ``sim/memory_system.py`` (tint rewrites + TLB flush applied
    mid-trace at the recorded remap positions) must agree on every
    count the timing model consumes.
    """
    layout = LayoutConfig(
        columns=4, column_bytes=512, line_size=16, split_oversized=True
    )
    executor = AdaptiveExecutor(
        layout,
        TIMING,
        AdaptiveConfig(
            window_accesses=window_size,
            signature_threshold=0.3,
            miss_rate_threshold=0.2,
            hysteresis_windows=hysteresis,
        ),
    )
    fast = executor.run(run)
    reference = replay_reference(run, fast, layout, TIMING)
    assert fast.result.cycles == reference.cycles
    assert fast.result.hits == reference.hits
    assert fast.result.misses == reference.misses
    assert fast.result.uncached_accesses == reference.uncached_accesses
    assert fast.result.accesses == reference.accesses
    assert fast.result.instructions == reference.instructions
