"""Tests for the executors: fast path, reference path, equivalence."""

import pytest

from repro.layout.algorithm import DataLayoutPlanner, LayoutConfig
from repro.layout.dynamic import DynamicLayoutPlanner
from repro.sim.config import TimingConfig
from repro.sim.executor import TraceExecutor
from repro.workloads.base import Workload
from repro.workloads.mpeg import DequantRoutine, IdctRoutine, MPEGDecodeApp

from oracles.figure2 import run_reference

TIMING = TimingConfig(
    miss_penalty=10, uncached_penalty=25, preload_line_cycles=10
)


class _Loop(Workload):
    def __init__(self, passes=3, **kwargs):
        super().__init__(name="loop", **kwargs)
        self.passes = passes
        self.hot = self.array("hot", 64)
        self.stream = self.array("stream", 512)

    def run(self) -> None:
        self.begin_phase("main")
        for _ in range(self.passes):
            for index in range(512):
                _ = self.stream[index]
                _ = self.hot[index % 64]
        self.end_phase()


def plan(run, scratchpad=0, **kwargs):
    config = LayoutConfig(
        columns=4, column_bytes=512, scratchpad_columns=scratchpad, **kwargs
    )
    return DataLayoutPlanner(config).plan(run)


class TestFastPath:
    def test_basic_accounting(self):
        run = _Loop().record()
        assignment = plan(run)
        result = TraceExecutor(TIMING).run(run.trace, assignment)
        assert result.accesses == len(run.trace)
        assert result.instructions == run.trace.instruction_count
        assert result.hits + result.misses == result.cached_accesses
        assert result.cycles == (
            result.instructions + TIMING.miss_penalty * result.misses
        )

    def test_scratchpad_accesses_cost_one_cycle(self):
        run = _Loop().record()
        pinned = plan(run, scratchpad=1)
        result = TraceExecutor(TIMING).run(run.trace, pinned)
        assert result.scratchpad_accesses > 0
        # Setup charged separately.
        assert result.setup_cycles == 64 * 2 // 16 * 10  # hot: 8 lines

    def test_cpi(self):
        run = _Loop().record()
        result = TraceExecutor(TIMING).run(run.trace, plan(run))
        assert result.cpi == result.cycles / result.instructions
        assert result.cpi >= 1.0

    def test_uncached_accounting(self):
        run = IdctRoutine(blocks=4).record()
        config = LayoutConfig(
            columns=4, column_bytes=512, scratchpad_columns=4,
            split_oversized=False,
        )
        assignment = DataLayoutPlanner(config).plan(run)
        result = TraceExecutor(TIMING).run(run.trace, assignment)
        assert result.uncached_accesses > 0
        assert result.cached_accesses == 0
        assert result.cycles == (
            result.instructions
            + TIMING.uncached_penalty * result.uncached_accesses
        )

    def test_geometry_for(self):
        run = _Loop().record()
        geometry = TraceExecutor.geometry_for(plan(run))
        assert geometry.total_bytes == 2048
        assert geometry.columns == 4


class TestReferenceEquivalence:
    @pytest.mark.parametrize("scratchpad", [0, 1, 2, 4])
    def test_loop_workload(self, scratchpad):
        run = _Loop(passes=2).record()
        assignment = plan(run, scratchpad=scratchpad)
        executor = TraceExecutor(TIMING)
        fast = executor.run(run.trace, assignment)
        reference = run_reference(executor, run.trace, assignment)
        assert fast.cycles == reference.cycles
        assert fast.hits == reference.hits
        assert fast.misses == reference.misses
        assert fast.uncached_accesses == reference.uncached_accesses
        assert fast.scratchpad_accesses == reference.scratchpad_accesses
        assert fast.setup_cycles == reference.setup_cycles

    @pytest.mark.parametrize("scratchpad", [0, 2])
    def test_dequant(self, scratchpad):
        run = DequantRoutine(blocks=4).record()
        assignment = plan(run, scratchpad=scratchpad, split_oversized=False)
        executor = TraceExecutor(TIMING)
        fast = executor.run(run.trace, assignment)
        reference = run_reference(executor, run.trace, assignment)
        assert fast.cycles == reference.cycles
        assert fast.misses == reference.misses

    def test_idct_with_uncached(self):
        run = IdctRoutine(blocks=2).record()
        config = LayoutConfig(
            columns=4, column_bytes=512, scratchpad_columns=3,
            split_oversized=False,
        )
        assignment = DataLayoutPlanner(config).plan(run)
        executor = TraceExecutor(TIMING)
        fast = executor.run(run.trace, assignment)
        reference = run_reference(executor, run.trace, assignment)
        assert fast.cycles == reference.cycles
        assert fast.uncached_accesses == reference.uncached_accesses

    def test_reference_reports_tlb_stats(self):
        run = _Loop().record()
        reference = run_reference(
            TraceExecutor(TIMING), run.trace, plan(run)
        )
        assert reference.tlb_hits + reference.tlb_misses == len(run.trace)
        assert reference.tlb_hits > reference.tlb_misses


class TestPhasedRuns:
    def test_phased_totals(self):
        run = MPEGDecodeApp(blocks=2, frames=1).record()
        config = LayoutConfig(
            columns=4, column_bytes=512, split_oversized=False
        )
        dynamic_plan = DynamicLayoutPlanner(config).plan(run)
        executor = TraceExecutor(TIMING)
        phased = executor.run_phased(run, dynamic_plan)
        assert len(phased.phases) == len(run.phases)
        total = phased.total
        assert total.accesses == len(run.trace)
        assert total.instructions == run.trace.instruction_count
        assert phased.remap_count >= 1

    def test_remap_cost_charged(self):
        run = MPEGDecodeApp(blocks=2, frames=1).record()
        config = LayoutConfig(
            columns=4, column_bytes=512, split_oversized=False,
            scratchpad_columns=1,
        )
        dynamic_plan = DynamicLayoutPlanner(config).plan(run)
        executor = TraceExecutor(TIMING)
        phased = executor.run_phased(run, dynamic_plan)
        remap_cycles = sum(p.remap_cycles for p in phased.phases)
        if phased.remap_count:
            assert remap_cycles > 0
        assert phased.total.cycles >= sum(
            p.result.cycles for p in phased.phases
        )

    def test_missing_phase_label_rejected(self):
        run = MPEGDecodeApp(blocks=1, frames=1).record()
        config = LayoutConfig(
            columns=4, column_bytes=512, split_oversized=False
        )
        dynamic_plan = DynamicLayoutPlanner(config).plan(run)
        dynamic_plan.phases = dynamic_plan.phases[:1]
        with pytest.raises(KeyError):
            TraceExecutor(TIMING).run_phased(run, dynamic_plan)
