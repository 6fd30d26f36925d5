"""Profiling reference: one trace scan per variable.

:func:`legacy_profile_trace` is the profiler as first written.  It
attributes accesses the way :func:`~repro.profiling.profiler.profile_trace`
does, then finds each variable's positions with its own
``flatnonzero`` scan of the owner column, where production splits one
stable argsort of that column.  The per-variable statistics come from
the profiler's own helpers, so the comparison isolates the grouping.
``tests/test_planner_engine.py`` holds the two to bit-identical
profiles over the whole workload suite and random workloads, and
``benchmarks/perf_smoke.py``'s planner arm asserts identical plans.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mem.symbols import SymbolTable
from repro.profiling.profiler import (
    Profile,
    VariableProfile,
    _attribute_by_address,
    _label_stats,
    _variable_entry,
)
from repro.trace.trace import Trace


def legacy_profile_trace(
    trace: Trace,
    symbols: Optional[SymbolTable] = None,
    by_address: bool = False,
) -> Profile:
    """Profile ``trace`` with one ``flatnonzero`` scan per variable."""
    if by_address and symbols is None:
        raise ValueError("by_address attribution requires a symbol table")

    variables: dict[str, VariableProfile] = {}
    if by_address:
        assert symbols is not None
        ordered = list(symbols)
        owner = _attribute_by_address(trace, symbols)
        for index, variable in enumerate(ordered):
            positions = np.flatnonzero(owner == index)
            if len(positions) == 0:
                continue
            variables[variable.name] = _variable_entry(
                variable.name,
                positions,
                trace,
                variable.size,
                variable.element_size,
                variable.kind,
            )
    else:
        for identifier, name in enumerate(trace.variable_names):
            positions = np.flatnonzero(trace.variable_ids == identifier)
            if len(positions) == 0:
                continue
            size, element_size, kind = _label_stats(
                trace, symbols, name, positions
            )
            variables[name] = _variable_entry(
                name, positions, trace, size, element_size, kind
            )

    unattributed = len(trace) - sum(
        entry.access_count for entry in variables.values()
    )
    return Profile(
        trace_name=trace.name,
        total_accesses=len(trace),
        total_instructions=trace.instruction_count,
        variables=variables,
        unattributed=unattributed,
    )
