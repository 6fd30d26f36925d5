"""Tests for partition, assignment realization and the end-to-end planner."""

import pytest

from repro.layout.algorithm import (
    DataLayoutPlanner,
    LayoutConfig,
    plan_layout,
    predicted_costs,
)
from repro.layout.assignment import Disposition
from repro.layout.partition import split_for_columns, units_of
from repro.mem.address import AddressRange
from repro.mem.page_table import PageTable
from repro.mem.symbols import SymbolTable, Variable, VariableKind
from repro.mem.tint import TintTable
from repro.profiling.profiler import profile_trace
from repro.utils.bitvector import ColumnMask
from repro.workloads.base import Workload
from repro.workloads.mpeg import DequantRoutine, IdctRoutine


class TestSplitForColumns:
    def test_oversized_arrays_split(self):
        table = SymbolTable()
        table.add(Variable("big", AddressRange(0, 2048), element_size=2))
        table.add(Variable("small", AddressRange(4096, 64), element_size=2))
        units = split_for_columns(table, 512)
        assert [v.name for v in units] == [
            "big#0", "big#1", "big#2", "big#3", "small",
        ]

    def test_scalars_never_split(self):
        table = SymbolTable()
        table.add(
            Variable("s", AddressRange(0, 1024), element_size=1024,
                     kind=VariableKind.SCALAR)
        )
        units = split_for_columns(table, 512)
        assert [v.name for v in units] == ["s"]

    def test_units_of(self):
        table = SymbolTable()
        table.add(Variable("big", AddressRange(0, 1024), element_size=2))
        units = split_for_columns(table, 512)
        assert [v.name for v in units_of(units, "big")] == ["big#0", "big#1"]


class _TwoStream(Workload):
    """Two interleaved streams plus one hot table — a canonical case."""

    def __init__(self, **kwargs):
        super().__init__(name="two_stream", **kwargs)
        self.stream_a = self.array("stream_a", 128)
        self.stream_b = self.array("stream_b", 128)
        self.table = self.array("table", 16)

    def run(self) -> None:
        self.begin_phase("main")
        for index in range(128):
            _ = self.stream_a[index]
            _ = self.stream_b[index]
            _ = self.table[index % 16]
        self.end_phase()


class TestPlanner:
    def config(self, scratchpad=0, **kwargs):
        return LayoutConfig(
            columns=4,
            column_bytes=512,
            scratchpad_columns=scratchpad,
            **kwargs,
        )

    def test_interfering_variables_separated(self):
        run = _TwoStream().record()
        assignment = DataLayoutPlanner(self.config()).plan(run)
        masks = {
            name: assignment.mask_for(name)
            for name in ("stream_a", "stream_b", "table")
        }
        # All three interleave heavily: pairwise different columns.
        assert not masks["stream_a"].overlaps(masks["stream_b"])
        assert not masks["stream_a"].overlaps(masks["table"])
        assert assignment.predicted_cost == 0

    def test_scratchpad_pins_hot_table(self):
        run = _TwoStream().record()
        assignment = DataLayoutPlanner(self.config(scratchpad=1)).plan(run)
        assert assignment.disposition_of("table") is Disposition.SCRATCHPAD
        assert assignment.mask_for("table") == ColumnMask.of(3, width=4)

    def test_all_scratchpad_leaves_oversized_uncached(self):
        run = IdctRoutine(blocks=4).record()
        config = LayoutConfig(
            columns=4, column_bytes=512, scratchpad_columns=4,
            split_oversized=False,
        )
        assignment = DataLayoutPlanner(config).plan(run)
        assert assignment.disposition_of("coeffs") is Disposition.UNCACHED
        assert assignment.disposition_of("costab") is Disposition.SCRATCHPAD

    def test_forced_scratchpad(self):
        run = _TwoStream().record()
        config = LayoutConfig(
            columns=4, column_bytes=512, scratchpad_columns=1,
            forced_scratchpad=("stream_a",),
        )
        assignment = DataLayoutPlanner(config).plan(run)
        assert assignment.disposition_of("stream_a") is Disposition.SCRATCHPAD

    def test_forced_unknown_rejected(self):
        run = _TwoStream().record()
        config = LayoutConfig(
            columns=4, column_bytes=512, scratchpad_columns=1,
            forced_scratchpad=("nope",),
        )
        with pytest.raises(KeyError):
            DataLayoutPlanner(config).plan(run)

    def test_forced_without_scratchpad_rejected(self):
        run = _TwoStream().record()
        config = LayoutConfig(
            columns=4, column_bytes=512, scratchpad_columns=0,
            forced_scratchpad=("table",),
        )
        with pytest.raises(ValueError):
            DataLayoutPlanner(config).plan(run)

    def test_forced_too_big_rejected(self):
        run = IdctRoutine(blocks=4).record()
        config = LayoutConfig(
            columns=4, column_bytes=512, scratchpad_columns=1,
            forced_scratchpad=("coeffs",), split_oversized=False,
        )
        with pytest.raises(ValueError, match="does not fit"):
            DataLayoutPlanner(config).plan(run)

    def test_whole_variable_pinning_is_atomic(self):
        """With pin_subarrays=False a split variable is pinned all or
        nothing (the paper's model)."""
        run = DequantRoutine().record()  # coeffs is 1536B -> 3 subarrays
        config = LayoutConfig(
            columns=4, column_bytes=512, scratchpad_columns=2,
            split_oversized=True, pin_subarrays=False,
        )
        assignment = DataLayoutPlanner(config).plan(run)
        dispositions = {
            assignment.disposition_of(f"coeffs#{i}") for i in range(3)
        }
        assert len(dispositions) == 1  # all the same

    def test_subarray_pinning_extension(self):
        run = DequantRoutine().record()
        config = LayoutConfig(
            columns=4, column_bytes=512, scratchpad_columns=2,
            split_oversized=True, pin_subarrays=True,
        )
        assignment = DataLayoutPlanner(config).plan(run)
        pinned = {
            p.name for p in assignment.units_with(Disposition.SCRATCHPAD)
        }
        # qtable plus at least one coeffs subarray fit in 1 KB.
        assert "qtable" in pinned
        assert any(name.startswith("coeffs#") for name in pinned)

    def test_scratchpad_capacity_respected(self):
        for scratchpad in (1, 2, 3, 4):
            run = DequantRoutine().record()
            config = LayoutConfig(
                columns=4, column_bytes=512,
                scratchpad_columns=scratchpad,
            )
            assignment = DataLayoutPlanner(config).plan(run)
            assert (
                assignment.scratchpad_bytes_used()
                <= scratchpad * 512
            )

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LayoutConfig(columns=4, column_bytes=512, scratchpad_columns=5)
        with pytest.raises(ValueError):
            LayoutConfig(columns=4, column_bytes=512, weight_metric="max")

    def test_plan_layout_convenience(self):
        run = _TwoStream().record()
        assignment = plan_layout(run, columns=4, column_bytes=512)
        assert assignment.columns == 4

    def test_predicted_costs_match_plans(self):
        """One ladder pass prices W exactly as a plan per column count."""
        run = IdctRoutine().record()
        units = split_for_columns(run.memory_map.symbols, 512)
        profile = profile_trace(run.trace, units, by_address=True)
        counts = range(1, 9)
        costs = predicted_costs(profile, units, counts)
        assert costs[0] > costs[-1]
        for columns, cost in zip(counts, costs):
            config = LayoutConfig(
                columns=columns, column_bytes=512, split_oversized=False
            )
            plan = DataLayoutPlanner(config).plan_from_profile(profile, units)
            assert plan.predicted_cost == cost

    def test_profile_of_other_units_rejected(self):
        """A whole-variable profile against split units is an error
        for a plan and for the W ladder alike."""
        run = _TwoStream().record()
        symbols = run.memory_map.symbols
        whole = profile_trace(run.trace, symbols, by_address=True)
        split = split_for_columns(symbols, 64)
        planner = DataLayoutPlanner(self.config())
        with pytest.raises(ValueError, match="not layout units"):
            planner.plan_from_profile(whole, split)
        with pytest.raises(ValueError, match="not layout units"):
            predicted_costs(whole, split, [1, 2])

    @pytest.mark.parametrize("metric", ["min", "sum", "unweighted"])
    def test_weight_metrics_run(self, metric):
        run = _TwoStream().record()
        config = LayoutConfig(
            columns=4, column_bytes=512, weight_metric=metric
        )
        assignment = DataLayoutPlanner(config).plan(run)
        assert len(assignment.placements) >= 3


class TestAssignmentRealization:
    def test_realize_installs_tints(self):
        run = _TwoStream().record()
        assignment = DataLayoutPlanner(
            LayoutConfig(columns=4, column_bytes=512, scratchpad_columns=1)
        ).plan(run)
        page_table = PageTable(page_size=64)
        tint_table = TintTable(columns=4)
        unit_tints = assignment.realize(page_table, tint_table)
        # Every cached/scratchpad unit got a tint whose mask matches.
        for name, tint in unit_tints.items():
            assert tint_table.mask_of(tint) == assignment.mask_for(name)
        # Pages of the pinned table carry its tint.
        table_variable = run.memory_map.get("table")
        for vpn in table_variable.range.pages(64):
            assert page_table.entry(vpn).tint == unit_tints["table"]

    def test_realize_uncached_pages(self):
        run = IdctRoutine(blocks=4).record()
        config = LayoutConfig(
            columns=4, column_bytes=512, scratchpad_columns=4,
            split_oversized=False,
        )
        assignment = DataLayoutPlanner(config).plan(run)
        page_table = PageTable(page_size=64)
        tint_table = TintTable(columns=4)
        assignment.realize(page_table, tint_table)
        coeffs = run.memory_map.get("coeffs")
        for vpn in coeffs.range.pages(64):
            assert not page_table.entry(vpn).cached

    def test_realize_rejects_shared_pages(self):
        units = SymbolTable()
        units.add(Variable("a", AddressRange(0, 64)))
        units.add(Variable("b", AddressRange(64, 64)))
        from repro.layout.assignment import (
            ColumnAssignment,
            VariablePlacement,
        )

        placements = {
            "a": VariablePlacement(
                units.get("a"), Disposition.CACHED, ColumnMask.of(0, width=2)
            ),
            "b": VariablePlacement(
                units.get("b"), Disposition.CACHED, ColumnMask.of(1, width=2)
            ),
        }
        assignment = ColumnAssignment(
            columns=2,
            column_bytes=512,
            line_size=16,
            scratchpad_mask=ColumnMask.none(2),
            placements=placements,
            layout_symbols=units,
        )
        page_table = PageTable(page_size=256)  # both units in page 0
        tint_table = TintTable(columns=2)
        with pytest.raises(ValueError, match="share page"):
            assignment.realize(page_table, tint_table)

    def test_describe_renders(self):
        run = _TwoStream().record()
        assignment = plan_layout(run, columns=4, column_bytes=512)
        text = assignment.describe()
        assert "stream_a" in text and "disposition" in text

    def test_column_utilization(self):
        run = _TwoStream().record()
        assignment = plan_layout(run, columns=4, column_bytes=512)
        usage = assignment.column_utilization()
        assert len(usage) == 4
        assert sum(usage) == sum(
            p.variable.size for p in assignment.placements.values()
        )
