"""Tests for partition widening (multi-column masks)."""

from repro.layout.algorithm import DataLayoutPlanner, LayoutConfig
from repro.sim.config import TimingConfig
from repro.sim.executor import TraceExecutor
from repro.workloads.base import Workload

from oracles.figure2 import run_reference

TIMING = TimingConfig(miss_penalty=10)


class _TwoVariables(Workload):
    """One oversized hot structure and one small table."""

    def __init__(self, **kwargs):
        super().__init__(name="two_vars", **kwargs)
        # 1 KB working set, cycled twice: needs two columns to fit.
        self.big = self.array("big", 512)
        self.small = self.array("small", 32)

    def run(self) -> None:
        self.begin_phase("main")
        for _ in range(2):
            for index in range(512):
                _ = self.big[index]
                _ = self.small[index % 32]
        self.end_phase()


def plan(run, widen):
    config = LayoutConfig(
        columns=4,
        column_bytes=512,
        split_oversized=False,
        widen_partitions=widen,
    )
    return DataLayoutPlanner(config).plan(run)


class TestWidening:
    def test_spare_columns_go_to_busiest_partition(self):
        run = _TwoVariables().record()
        assignment = plan(run, widen=True)
        assert assignment.mask_for("big").count() >= 2
        assert assignment.mask_for("small").count() >= 1
        assert not assignment.mask_for("big").overlaps(
            assignment.mask_for("small")
        )
        # Every cache column is used.
        union = assignment.mask_for("big") | assignment.mask_for("small")
        assert union.is_full()

    def test_default_keeps_single_columns(self):
        run = _TwoVariables().record()
        assignment = plan(run, widen=False)
        assert assignment.mask_for("big").count() == 1
        assert assignment.mask_for("small").count() == 1

    def test_widening_reduces_misses(self):
        """The 1 KB structure fits its widened partition but thrashes a
        single 512-byte column."""
        run = _TwoVariables().record()
        executor = TraceExecutor(TIMING)
        narrow = executor.run(run.trace, plan(run, widen=False))
        wide = executor.run(run.trace, plan(run, widen=True))
        assert wide.misses < narrow.misses
        assert wide.cycles < narrow.cycles

    def test_widened_masks_respect_scratchpad(self):
        run = _TwoVariables().record()
        config = LayoutConfig(
            columns=4,
            column_bytes=512,
            scratchpad_columns=1,
            split_oversized=False,
            widen_partitions=True,
        )
        assignment = DataLayoutPlanner(config).plan(run)
        for placement in assignment.placements.values():
            if placement.disposition.value == "cached":
                assert not placement.mask.overlaps(
                    assignment.scratchpad_mask
                )

    def test_reference_equivalence_with_wide_masks(self):
        run = _TwoVariables().record()
        assignment = plan(run, widen=True)
        executor = TraceExecutor(TIMING)
        fast = executor.run(run.trace, assignment)
        reference = run_reference(executor, run.trace, assignment)
        assert fast.cycles == reference.cycles
        assert fast.misses == reference.misses
