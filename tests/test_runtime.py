"""Unit tests for the phase-adaptive runtime subsystem."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout.algorithm import LayoutConfig
from repro.runtime import (
    AdaptiveConfig,
    AdaptiveExecutor,
    PhaseDetector,
    RepartitionPolicy,
    replay_reference,
)
from repro.runtime.detector import jaccard_distance, working_set_signature
from repro.sim.config import EMBEDDED_TIMING, TimingConfig
from repro.sim.executor import TraceExecutor
from repro.workloads.packet import PacketPipeline
from repro.workloads.transform import PhasedFFT

LAYOUT = LayoutConfig(
    columns=4, column_bytes=512, line_size=16, split_oversized=True
)


class TestSignatures:
    def test_identical_windows_distance_zero(self):
        first = working_set_signature([1, 2, 3, 100])
        second = working_set_signature([100, 3, 2, 1, 1])
        assert jaccard_distance(first, second) == 0.0

    def test_disjoint_windows_distance_one(self):
        first = working_set_signature([1, 2, 3])
        second = working_set_signature([1000, 2000, 3000])
        assert jaccard_distance(first, second) == 1.0

    def test_empty_signature(self):
        assert working_set_signature([]) == 0
        assert jaccard_distance(
            working_set_signature([]), working_set_signature([])
        ) == 0.0

    @given(
        blocks=st.lists(st.integers(0, 10**12), max_size=50),
        bits=st.sampled_from([64, 256, 1024]),
    )
    @settings(max_examples=30)
    def test_signature_is_order_insensitive(self, blocks, bits):
        forward = working_set_signature(blocks, bits)
        backward = working_set_signature(list(reversed(blocks)), bits)
        assert forward == backward
        assert forward.bit_count() <= len(set(blocks))


class TestPhaseDetector:
    def test_first_window_is_never_a_boundary(self):
        detector = PhaseDetector()
        observation = detector.observe_window([1, 2, 3], misses=3)
        assert not observation.boundary

    def test_working_set_shift_fires(self):
        detector = PhaseDetector(signature_threshold=0.5)
        detector.observe_window([1, 2, 3, 4], misses=0)
        observation = detector.observe_window([50, 60, 70, 80], misses=0)
        assert observation.boundary
        assert detector.boundary_windows == [1]

    def test_stable_stream_never_fires(self):
        detector = PhaseDetector()
        for _ in range(10):
            observation = detector.observe_window(
                [1, 2, 3, 4], misses=1
            )
            assert not observation.boundary

    def test_miss_rate_jump_fires(self):
        detector = PhaseDetector(
            signature_threshold=0.99, miss_rate_threshold=0.2
        )
        detector.observe_window([1, 2, 3, 4], misses=0)
        observation = detector.observe_window([1, 2, 3, 4], misses=3)
        assert observation.miss_rate_delta == pytest.approx(0.75)
        assert observation.boundary

    def test_hysteresis_suppresses_refire(self):
        detector = PhaseDetector(
            signature_threshold=0.5, hysteresis_windows=3
        )
        detector.observe_window([1, 2, 3], misses=0)
        assert detector.observe_window([10, 11, 12], misses=0).boundary
        # Two more big shifts inside the hysteresis window: suppressed.
        assert not detector.observe_window([20, 21, 22], misses=0).boundary
        assert not detector.observe_window([30, 31, 32], misses=0).boundary
        # Outside the hysteresis window: fires again.
        assert detector.observe_window([40, 41, 42], misses=0).boundary

    def test_reset_forgets_history(self):
        detector = PhaseDetector()
        detector.observe_window([1, 2], misses=0)
        detector.reset()
        assert detector.observations == []
        assert not detector.observe_window([90, 91], misses=0).boundary

    def test_validation(self):
        with pytest.raises(ValueError, match="signature_threshold"):
            PhaseDetector(signature_threshold=0.0)
        with pytest.raises(ValueError, match="miss_rate_threshold"):
            PhaseDetector(miss_rate_threshold=-0.1)
        with pytest.raises(ValueError, match="hysteresis"):
            PhaseDetector(hysteresis_windows=0)


class TestRepartitionPolicy:
    def _run(self, **kwargs):
        return PacketPipeline(batches=1, rounds=1, seed=0, **kwargs).record()

    def test_initial_assignment_is_a_standard_cache(self):
        run = self._run()
        policy = RepartitionPolicy(config=LAYOUT, symbols=run.symbols)
        initial = policy.initial_assignment()
        assert initial.placements == {}
        assert initial.cache_mask.bits == 0b1111

    def test_first_replan_always_installs(self):
        run = self._run()
        policy = RepartitionPolicy(config=LAYOUT, symbols=run.symbols)
        decision = policy.replan(run.trace.slice(0, 512))
        assert decision.remapped
        assert decision.assignment.placements
        assert policy.current is decision.assignment

    def test_same_window_does_not_remap_again(self):
        run = self._run()
        policy = RepartitionPolicy(config=LAYOUT, symbols=run.symbols)
        policy.replan(run.trace.slice(0, 512))
        decision = policy.replan(run.trace.slice(0, 512))
        assert not decision.remapped
        assert decision.reuse_cost == decision.fresh_cost
        assert policy.remap_count == 1

    def test_new_variable_forces_remap(self):
        run = self._run()
        phases = {marker.label: marker for marker in run.phases}
        policy = RepartitionPolicy(config=LAYOUT, symbols=run.symbols)
        parse = phases["parse"]
        policy.replan(run.trace.slice(parse.start, parse.start + 512))
        emit = phases["emit"]  # brings police_tbl, unseen so far
        decision = policy.replan(
            run.trace.slice(emit.start, emit.start + 512)
        )
        assert decision.remapped
        assert decision.reuse_cost is None

    def test_remap_cost_prices_distinct_masks(self):
        run = self._run()
        timing = TimingConfig(remap_tint_cycles=5)
        policy = RepartitionPolicy(
            config=LAYOUT, symbols=run.symbols, timing=timing
        )
        decision = policy.replan(run.trace.slice(0, 512))
        distinct = {
            placement.mask.bits
            for placement in decision.assignment.placements.values()
        }
        assert decision.remap_cycles == len(distinct) * 5

    def test_rejects_scratchpad_layouts(self):
        run = self._run()
        config = LayoutConfig(
            columns=4, column_bytes=512, line_size=16,
            scratchpad_columns=1,
        )
        with pytest.raises(ValueError, match="cache columns only"):
            RepartitionPolicy(config=config, symbols=run.symbols)


class TestAdaptiveExecutor:
    def test_beats_standard_cache_on_rotating_phases(self):
        """The acceptance property: adaptive <= every static layout
        on the phase-heavy pipeline (standard cache included)."""
        run = PacketPipeline(batches=1, rounds=4, seed=0).record()
        executor = AdaptiveExecutor(
            LAYOUT,
            EMBEDDED_TIMING,
            AdaptiveConfig(window_accesses=2048, signature_threshold=0.15),
        )
        adaptive = executor.run(run)
        static = TraceExecutor(EMBEDDED_TIMING).run(
            run.trace, executor.make_policy(run).initial_assignment()
        )
        assert adaptive.result.cycles < static.cycles
        assert adaptive.remap_count >= 4  # one per stage at least

    def test_remap_events_land_on_window_edges(self):
        run = PacketPipeline(batches=1, rounds=2, seed=0).record()
        executor = AdaptiveExecutor(
            LAYOUT,
            EMBEDDED_TIMING,
            AdaptiveConfig(window_accesses=512, signature_threshold=0.15),
        )
        result = executor.run(run)
        assert result.events, "expected at least the initial remap"
        for event in result.events:
            assert event.position % 512 == 0
            assert 0 < event.position < len(run.trace)
        assert result.remap_cycles == sum(
            event.remap_cycles for event in result.events
        )

    def test_totals_are_consistent(self):
        run = PhasedFFT(n=128, transforms=1, seed=1).record()
        executor = AdaptiveExecutor(
            LAYOUT, EMBEDDED_TIMING, AdaptiveConfig(window_accesses=256)
        )
        result = executor.run(run).result
        assert result.accesses == len(run.trace)
        assert result.instructions == run.trace.instruction_count
        assert (
            result.hits + result.misses == result.cached_accesses
        )
        assert (
            result.cached_accesses + result.uncached_accesses
            == result.accesses
        )
        assert result.cycles >= result.instructions

    def test_stable_workload_remaps_once_then_holds(self):
        """The FFT's butterfly stages share one working set: after
        the initial installation the mapping must mostly hold."""
        run = PhasedFFT(n=256, transforms=2, seed=0).record()
        executor = AdaptiveExecutor(
            LAYOUT,
            EMBEDDED_TIMING,
            AdaptiveConfig(window_accesses=256, signature_threshold=0.15),
        )
        result = executor.run(run)
        windows = len(result.observations)
        assert result.remap_count <= max(windows // 4, 1)

    def test_window_size_validation(self):
        with pytest.raises(ValueError, match="window_accesses"):
            AdaptiveConfig(window_accesses=0)

    def test_replay_rejects_scratchpad(self):
        run = PhasedFFT(n=64, transforms=1).record()
        executor = AdaptiveExecutor(LAYOUT, EMBEDDED_TIMING)
        result = executor.run(run)
        bad = LayoutConfig(
            columns=4, column_bytes=512, line_size=16,
            scratchpad_columns=2,
        )
        with pytest.raises(ValueError, match="cache columns"):
            replay_reference(run, result, bad, EMBEDDED_TIMING)
