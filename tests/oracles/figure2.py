"""Figure 2 reference: every access through the TLB, tints and ColumnCache.

:func:`run_reference` simulates a trace under a column assignment the
way the paper's hardware would.  The assignment is *realized*: tints
installed in a :class:`~repro.mem.tint.TintTable`, page tints written
into a :class:`~repro.mem.page_table.PageTable`, the default tint
remapped to exclude the scratchpad columns, and scratchpad units
preloaded through the cache.  Then every access is translated by the
TLB and delivered, with its page's column mask, to the reference
:class:`~repro.cache.column_cache.ColumnCache` inside a
:class:`~repro.sim.memory_system.MemorySystem`.

Production's :meth:`~repro.sim.executor.TraceExecutor.run` classifies
accesses by layout unit with vectorized lookups and simulates only the
cached ones on :class:`~repro.sim.engine.batched.LockstepCache`.  The
executor suites (``tests/test_executor.py``,
``tests/test_equivalence_property.py``, ``tests/test_widening.py`` and
``tests/test_figure4_reference_crosscheck.py``) hold the two to equal
cycles, hits, misses and access counts.
"""

from __future__ import annotations

from typing import Optional

from repro.layout.assignment import ColumnAssignment, Disposition
from repro.mem.page_table import PageTable
from repro.mem.tint import TintTable
from repro.sim.executor import _SCRATCHPAD, _UNCACHED, TraceExecutor
from repro.sim.memory_system import MemorySystem
from repro.sim.results import SimulationResult
from repro.trace.trace import Trace


def run_reference(
    executor: TraceExecutor,
    trace: Trace,
    assignment: ColumnAssignment,
    page_size: int = 64,
    tlb_capacity: int = 4096,
    name: Optional[str] = None,
) -> SimulationResult:
    """Simulate ``trace`` under ``assignment`` through the Figure 2 path.

    Uses ``executor``'s timing, cache geometry and access
    classification, so only the simulation mechanism differs from
    :meth:`TraceExecutor.run`.
    """
    geometry = executor.geometry_for(assignment)
    page_table = PageTable(page_size=page_size)
    tint_table = TintTable(columns=assignment.columns)
    tint_table.remap(tint_table.default_tint, assignment.cache_mask)
    assignment.realize(page_table, tint_table)

    system = MemorySystem(
        geometry=geometry,
        timing=executor.timing,
        page_table=page_table,
        tint_table=tint_table,
        tlb_capacity=tlb_capacity,
    )
    setup_cycles = 0
    for placement in assignment.units_with(Disposition.SCRATCHPAD):
        setup_cycles += system.preload_region(
            placement.variable.base, placement.variable.size
        )
    system.cache.reset_stats()
    system.cycles = 0

    codes, _ = executor.classify(trace, assignment)
    scratchpad_count = 0
    uncached_count = 0
    cached_count = 0
    hits = 0
    misses = 0
    cycles = 0
    writebacks_before = system.cache.stats.writebacks
    for position in range(len(trace)):
        address = int(trace.addresses[position])
        is_write = bool(trace.writes[position])
        gap = int(trace.gaps[position])
        cycles += gap
        outcome = system.access(address, is_write=is_write)
        cycles += outcome.cycles
        code = codes[position]
        if code == _SCRATCHPAD:
            scratchpad_count += 1
        elif code == _UNCACHED or outcome.bypassed:
            uncached_count += 1
        else:
            cached_count += 1
            if outcome.hit:
                hits += 1
            else:
                misses += 1

    return SimulationResult(
        name=name or trace.name,
        instructions=trace.instruction_count,
        accesses=len(trace),
        cached_accesses=cached_count,
        scratchpad_accesses=scratchpad_count,
        uncached_accesses=uncached_count,
        hits=hits,
        misses=misses,
        writebacks=system.cache.stats.writebacks - writebacks_before,
        cycles=cycles,
        setup_cycles=setup_cycles,
        tlb_hits=system.tlb.stats.hits,
        tlb_misses=system.tlb.stats.misses,
    )
