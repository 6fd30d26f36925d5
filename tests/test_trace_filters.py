"""Tests for trace concatenation.

The broker's demand probes join a tenant's phase windows with
:func:`~repro.trace.filters.concatenate`; the invariants are order,
instruction-count bookkeeping and variable tables merged by name.
"""

import numpy as np

from repro.trace.filters import concatenate
from repro.trace.columnar import ColumnarRecorder


def build_two_variable_trace(base=0):
    builder = ColumnarRecorder(name="mixed")
    # a@0x100 (gap 1), b@0x200 (gap 2), a@0x104 (gap 0), b@0x204 (gap 3)
    builder.add_gap(1)
    builder.append(base + 0x100, variable="a")
    builder.add_gap(2)
    builder.append(base + 0x200, variable="b", is_write=True)
    builder.append(base + 0x104, variable="a")
    builder.add_gap(3)
    builder.append(base + 0x204, variable="b")
    return builder.build()


class TestConcatenate:
    def test_empty_input(self):
        joined = concatenate([])
        assert len(joined) == 0

    def test_join_preserves_order_and_instructions(self):
        first = build_two_variable_trace()
        second = build_two_variable_trace(base=0x10000)
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
