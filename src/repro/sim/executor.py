"""The trace executor: a trace under a column assignment, in cycles.

Cycle model:

* every instruction (access or gap) costs 1 cycle;
* a cache miss adds ``miss_penalty``;
* an uncached access (uncached page, or a miss with an empty column
  mask) adds ``uncached_penalty``;
* scratchpad-pinned data is preloaded up front (``setup_cycles``) and
  then always hits.

:class:`TraceExecutor` classifies every access by layout unit with
vectorized interval lookup and only simulates the genuinely cached
accesses, in one :class:`~repro.sim.engine.batched.LockstepCache` call
per trace (or window, or phase).  The paper's Figure 2 mechanism —
the assignment realized as page-table tints, every access translated
through the TLB into the reference
:class:`~repro.cache.column_cache.ColumnCache` — lives in
``tests/oracles/figure2.py``; ``tests/test_executor.py`` and
``tests/test_equivalence_property.py`` hold :meth:`TraceExecutor.run`
to it cycle for cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.inspect.snapshots import (
    ExecutorWindowSnapshot,
    column_occupancy,
)
from repro.layout.assignment import ColumnAssignment, Disposition
from repro.sim.engine.batched import LockstepCache
from repro.layout.dynamic import DynamicLayoutPlan
from repro.sim.config import TimingConfig
from repro.sim.results import PhasedRunResult, PhaseResult, SimulationResult
from repro.trace.trace import Trace
from repro.workloads.base import WorkloadRun

_CACHED = 0
_SCRATCHPAD = 1
_UNCACHED = 2


@dataclass
class AttributedCost:
    """Per-variable cost attribution (see :meth:`TraceExecutor.attribute`)."""

    name: str
    accesses: int = 0
    misses: int = 0
    uncached: int = 0
    stall_cycles: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses per access for this variable."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class TraceExecutor:
    """Executes traces under column assignments."""

    def __init__(self, timing: Optional[TimingConfig] = None):
        self.timing = timing or TimingConfig()

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def geometry_for(assignment: ColumnAssignment) -> CacheGeometry:
        """The cache geometry an assignment implies."""
        sets, remainder = divmod(
            assignment.column_bytes, assignment.line_size
        )
        if remainder:
            raise ValueError(
                f"column size {assignment.column_bytes} is not a whole "
                f"number of {assignment.line_size}-byte lines"
            )
        return CacheGeometry(
            line_size=assignment.line_size,
            sets=sets,
            columns=assignment.columns,
        )

    def classify(
        self, trace: Trace, assignment: ColumnAssignment
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-access (disposition code, column-mask bits).

        Accesses outside any placed unit behave like default-tint pages
        remapped to the cache columns (the paper's Figure 3: the default
        tint loses the dedicated columns).
        """
        ordered = list(assignment.layout_symbols)
        bases = np.array([unit.base for unit in ordered], dtype=np.int64)
        ends = np.array(
            [unit.range.end for unit in ordered], dtype=np.int64
        )
        default_bits = assignment.cache_mask.bits

        unit_codes = np.full(len(ordered), _CACHED, dtype=np.int64)
        unit_bits = np.full(len(ordered), default_bits, dtype=np.int64)
        for index, unit in enumerate(ordered):
            placement = assignment.placements.get(unit.name)
            if placement is None:
                continue
            if placement.disposition is Disposition.SCRATCHPAD:
                unit_codes[index] = _SCRATCHPAD
                unit_bits[index] = placement.mask.bits
            elif placement.disposition is Disposition.UNCACHED:
                unit_codes[index] = _UNCACHED
                unit_bits[index] = 0
            else:
                unit_bits[index] = placement.mask.bits

        slot = np.searchsorted(bases, trace.addresses, side="right") - 1
        clipped = np.clip(slot, 0, max(len(ordered) - 1, 0))
        inside = (slot >= 0) & (trace.addresses < ends[clipped])
        codes = np.where(inside, unit_codes[clipped], _CACHED)
        bits = np.where(inside, unit_bits[clipped], default_bits)
        return codes, bits

    def _setup_cycles(self, assignment: ColumnAssignment) -> int:
        """Scratchpad preload cost: every pinned line, once."""
        pinned_lines = sum(
            placement.variable.range.line_count(assignment.line_size)
            for placement in assignment.units_with(Disposition.SCRATCHPAD)
        )
        return pinned_lines * self.timing.preload_line_cycles

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------
    def run(
        self,
        trace: Trace,
        assignment: ColumnAssignment,
        cache: Optional[LockstepCache] = None,
        name: Optional[str] = None,
        charge_setup: bool = True,
    ) -> SimulationResult:
        """Simulate ``trace`` under ``assignment`` (fast path).

        Pass a ``cache`` to carry state across calls (phased runs);
        by default a cold cache is created.  The trace's cached block
        column goes to the cache as numpy arrays, in one kernel call.
        """
        geometry = self.geometry_for(assignment)
        if cache is None:
            cache = LockstepCache(geometry)
        codes, bits = self.classify(trace, assignment)

        cached_positions = np.flatnonzero(codes == _CACHED)
        scratchpad_count = int((codes == _SCRATCHPAD).sum())
        uncached_count = int((codes == _UNCACHED).sum())

        outcome = cache.run(
            trace.blocks_for(geometry.offset_bits)[cached_positions],
            mask_bits=bits[cached_positions],
        )

        timing = self.timing
        # Misses with an empty mask are bypasses: they cost a full
        # uncached round trip and are reported as uncached accesses,
        # matching the reference path's accounting.
        real_misses = outcome.misses - outcome.bypasses
        result = SimulationResult(
            name=name or trace.name,
            instructions=trace.instruction_count,
            accesses=len(trace),
            cached_accesses=len(cached_positions) - outcome.bypasses,
            scratchpad_accesses=scratchpad_count,
            uncached_accesses=uncached_count + outcome.bypasses,
            hits=outcome.hits,
            misses=real_misses,
            cycles=(
                trace.instruction_count
                + real_misses * timing.miss_penalty
                + (uncached_count + outcome.bypasses)
                * timing.uncached_penalty
            ),
            setup_cycles=self._setup_cycles(assignment) if charge_setup else 0,
        )
        return result

    def run_windowed(
        self,
        trace: Trace,
        assignment: ColumnAssignment,
        window_accesses: int = 4096,
        cache: Optional[LockstepCache] = None,
        name: Optional[str] = None,
        charge_setup: bool = True,
        observer: Optional[Any] = None,
    ) -> SimulationResult:
        """Simulate in windows, snapshotting the cache between them.

        Identical accounting to :meth:`run` (one persistent cache
        spans the windows), but after each window the ``observer``
        callback receives an
        :class:`~repro.inspect.snapshots.ExecutorWindowSnapshot` —
        the window's miss rate plus the cache's per-column valid-line
        counts at that instant — turning a monolithic vectorized run
        into a miss-rate timeline with live occupancy, at the cost of
        one kernel call per window.
        """
        if window_accesses < 1:
            raise ValueError(
                f"window_accesses must be >= 1, got {window_accesses}"
            )
        if cache is None:
            cache = LockstepCache(self.geometry_for(assignment))
        totals: Optional[SimulationResult] = None
        window_index = 0
        for start in range(0, max(len(trace), 1), window_accesses):
            stop = min(start + window_accesses, len(trace))
            window_result = self.run(
                trace.slice(start, stop),
                assignment,
                cache=cache,
                charge_setup=False,
            )
            totals = (
                window_result
                if totals is None
                else totals.merged_with(window_result)
            )
            if observer is not None:
                observer(
                    ExecutorWindowSnapshot(
                        window_index=window_index,
                        start=start,
                        stop=stop,
                        accesses=window_result.accesses,
                        misses=window_result.misses,
                        column_occupancy=column_occupancy(cache),
                    )
                )
            window_index += 1
            if stop >= len(trace):
                break
        if totals is None:
            totals = SimulationResult(name=name or trace.name)
        totals.name = name or trace.name
        if charge_setup:
            totals.setup_cycles = self._setup_cycles(assignment)
        return totals

    # ------------------------------------------------------------------
    # Per-variable attribution (layout debugging)
    # ------------------------------------------------------------------
    def attribute(
        self, trace: Trace, assignment: ColumnAssignment
    ) -> dict[str, "AttributedCost"]:
        """Per-layout-unit accesses/misses/stall cycles.

        Runs the trace once with per-access hit flags and charges every
        access to the unit owning its address.  Useful for seeing which
        variable a bad layout is hurting.  Unattributed accesses land
        under ``"<other>"``.
        """
        geometry = self.geometry_for(assignment)
        codes, bits = self.classify(trace, assignment)

        ordered = list(assignment.layout_symbols)
        bases = np.array([unit.base for unit in ordered], dtype=np.int64)
        ends = np.array([unit.range.end for unit in ordered], dtype=np.int64)
        slot = np.searchsorted(bases, trace.addresses, side="right") - 1
        clipped = np.clip(slot, 0, max(len(ordered) - 1, 0))
        inside = (slot >= 0) & (trace.addresses < ends[clipped])

        cached_positions = np.flatnonzero(codes == _CACHED)
        flags = LockstepCache(geometry).run_with_flags(
            trace.blocks_for(geometry.offset_bits)[cached_positions],
            mask_bits=bits[cached_positions],
        )
        hit_at = np.ones(len(trace), dtype=bool)
        hit_at[cached_positions] = flags

        timing = self.timing
        costs: dict[str, AttributedCost] = {}
        for position in range(len(trace)):
            if inside[position]:
                name = ordered[int(clipped[position])].name
            else:
                name = "<other>"
            cost = costs.setdefault(name, AttributedCost(name=name))
            cost.accesses += 1
            code = codes[position]
            if code == _UNCACHED:
                cost.uncached += 1
                cost.stall_cycles += timing.uncached_penalty
            elif code == _CACHED and not hit_at[position]:
                if bits[position] == 0:  # bypass: empty mask
                    cost.uncached += 1
                    cost.stall_cycles += timing.uncached_penalty
                else:
                    cost.misses += 1
                    cost.stall_cycles += timing.miss_penalty
        return costs

    # ------------------------------------------------------------------
    # Phased (dynamic layout) fast path
    # ------------------------------------------------------------------
    def run_phased(
        self,
        run: WorkloadRun,
        plan: DynamicLayoutPlan,
        name: Optional[str] = None,
    ) -> PhasedRunResult:
        """Execute a workload with per-phase assignments.

        Cache state persists across phases; each phase that installs a
        new mapping is charged tint-table writes plus the preload of
        its newly pinned units.
        """
        assignments = {
            phase.label: phase for phase in plan.phases
        }
        result = PhasedRunResult(name=name or run.name)
        cache: Optional[LockstepCache] = None
        active: Optional[ColumnAssignment] = None
        for marker in run.phases:
            phase_plan = assignments.get(marker.label)
            if phase_plan is None:
                raise KeyError(
                    f"dynamic plan has no phase labelled {marker.label!r}"
                )
            assignment = phase_plan.assignment
            if cache is None:
                cache = LockstepCache(self.geometry_for(assignment))
            remap_cycles = 0
            remapped = False
            if assignment is not active:
                remapped = True
                remap_cycles = self._remap_cost(active, assignment)
                active = assignment
            piece = run.trace.slice(marker.start, marker.stop)
            phase_result = self.run(
                piece,
                assignment,
                cache=cache,
                name=f"{run.name}:{marker.label}",
                charge_setup=False,
            )
            result.phases.append(
                PhaseResult(
                    label=marker.label,
                    result=phase_result,
                    remapped=remapped,
                    remap_cycles=remap_cycles,
                )
            )
        return result

    def _remap_cost(
        self,
        previous: Optional[ColumnAssignment],
        fresh: ColumnAssignment,
    ) -> int:
        """Tint-table writes + preload of newly pinned units."""
        timing = self.timing
        cycles = (
            len(fresh.distinct_tint_masks()) * timing.remap_tint_cycles
        )
        previously_pinned = (
            {
                placement.name
                for placement in previous.units_with(Disposition.SCRATCHPAD)
            }
            if previous is not None
            else set()
        )
        for placement in fresh.units_with(Disposition.SCRATCHPAD):
            if placement.name not in previously_pinned:
                cycles += (
                    placement.variable.range.line_count(fresh.line_size)
                    * timing.preload_line_cycles
                )
        return cycles
