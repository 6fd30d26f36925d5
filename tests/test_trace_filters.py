"""Tests for trace transformations (filter, relocate, concatenate).

These entry points feed the multitasking experiment and the trace CLI;
the key invariant is instruction-count bookkeeping: dropped accesses
fold their instructions into the following kept access's gap.
"""

import numpy as np
import pytest

from repro.mem.address import AddressRange
from repro.trace.filters import (
    concatenate,
    filter_by_range,
    filter_by_variable,
    relocate,
)
from repro.trace.columnar import ColumnarRecorder


def build_two_variable_trace():
    builder = ColumnarRecorder(name="mixed")
    # a@0x100 (gap 1), b@0x200 (gap 2), a@0x104 (gap 0), b@0x204 (gap 3)
    builder.add_gap(1)
    builder.append(0x100, variable="a")
    builder.add_gap(2)
    builder.append(0x200, variable="b", is_write=True)
    builder.append(0x104, variable="a")
    builder.add_gap(3)
    builder.append(0x204, variable="b")
    return builder.build()


class TestFilterByVariable:
    def test_keeps_only_named_variables(self):
        trace = build_two_variable_trace()
        kept = filter_by_variable(trace, ["a"])
        assert len(kept) == 2
        assert list(kept.addresses) == [0x100, 0x104]

    def test_instruction_count_preserved_via_gap_folding(self):
        trace = build_two_variable_trace()
        kept = filter_by_variable(trace, ["b"])
        # b's accesses inherit the dropped a-instructions before them.
        assert len(kept) == 2
        assert kept.instruction_count == trace.instruction_count

    def test_write_flags_travel_with_accesses(self):
        trace = build_two_variable_trace()
        kept = filter_by_variable(trace, ["b"])
        assert list(kept.writes) == [True, False]

    def test_unknown_variable_keeps_nothing(self):
        trace = build_two_variable_trace()
        kept = filter_by_variable(trace, ["zzz"])
        assert len(kept) == 0

    def test_keeping_everything_returns_same_trace(self):
        trace = build_two_variable_trace()
        assert filter_by_variable(trace, ["a", "b"]) is trace


class TestFilterByRange:
    def test_range_selection(self):
        trace = build_two_variable_trace()
        kept = filter_by_range(trace, AddressRange(0x200, 0x100))
        assert list(kept.addresses) == [0x200, 0x204]

    def test_empty_range(self):
        trace = build_two_variable_trace()
        kept = filter_by_range(trace, AddressRange(0x900, 0x10))
        assert len(kept) == 0
        assert kept.instruction_count == 0


class TestRelocate:
    def test_shifts_every_address(self):
        trace = build_two_variable_trace()
        moved = relocate(trace, 0x1000)
        assert list(moved.addresses) == [
            address + 0x1000 for address in trace.addresses
        ]
        assert moved.instruction_count == trace.instruction_count

    def test_default_name_mentions_offset(self):
        trace = build_two_variable_trace()
        assert "+0x40" in relocate(trace, 0x40).name

    def test_negative_result_rejected(self):
        trace = build_two_variable_trace()
        with pytest.raises(ValueError, match="negative"):
            relocate(trace, -0x10000)


class TestConcatenate:
    def test_empty_input(self):
        joined = concatenate([])
        assert len(joined) == 0

    def test_join_preserves_order_and_instructions(self):
        first = build_two_variable_trace()
        second = relocate(build_two_variable_trace(), 0x10000)
        joined = concatenate([first, second], name="joined")
        assert len(joined) == len(first) + len(second)
        assert joined.instruction_count == (
            first.instruction_count + second.instruction_count
        )
        assert joined.name == "joined"

    def test_variable_tables_merge_by_name(self):
        first = build_two_variable_trace()
        second = build_two_variable_trace()
        joined = concatenate([first, second])
        assert sorted(joined.variable_names) == ["a", "b"]
        # Both halves reference the shared ids.
        first_ids = joined.variable_ids[: len(first)]
        second_ids = joined.variable_ids[len(first):]
        assert np.array_equal(first_ids, second_ids)
