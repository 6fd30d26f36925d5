"""Adaptive execution: replay a trace with live column reassignment.

:class:`AdaptiveExecutor` is the fast path: it streams the trace
window by window through one persistent
:class:`~repro.sim.engine.batched.LockstepCache`, classifies each window
under the *currently installed* assignment, feeds the window's blocks
and miss count to the :class:`~repro.runtime.detector.PhaseDetector`,
and lets the :class:`~repro.runtime.policy.RepartitionPolicy` replan
at detected boundaries.  A remap is a bookkeeping change — the next
window simply classifies under the new masks — plus the modeled
tint-write cycles; resident lines stay where they are and remain
findable, exactly the paper's graceful-repartitioning property.

:func:`replay_reference` is the observable twin: it replays the same
trace through the full Figure 2 mechanism
(:class:`~repro.sim.memory_system.MemorySystem`: TLB -> tint table ->
column-masked replacement) and installs each scheduled remap *live* —
tint-table writes, page-tint updates and a TLB flush — mid-replay.
The differential harness asserts the two paths agree hit-for-hit and
cycle-for-cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cache.geometry import CacheGeometry
from repro.inspect.snapshots import (
    DetectorSnapshot,
    ExecutorWindowSnapshot,
    column_occupancy,
)
from repro.layout.algorithm import LayoutConfig
from repro.layout.assignment import ColumnAssignment
from repro.mem.page_table import PageTable
from repro.mem.tint import TintTable
from repro.runtime.detector import PhaseDetector, WindowObservation
from repro.runtime.policy import RepartitionDecision, RepartitionPolicy
from repro.sim.config import TimingConfig
from repro.sim.engine.batched import LockstepCache
from repro.sim.executor import TraceExecutor
from repro.sim.memory_system import MemorySystem
from repro.sim.results import SimulationResult
from repro.workloads.base import WorkloadRun


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive runtime.

    Attributes:
        window_accesses: Accesses per detection window.
        signature_threshold: Working-set Jaccard distance that fires a
            boundary.
        miss_rate_threshold: Miss-rate jump that fires a boundary.
        hysteresis_windows: Minimum windows between boundaries.
        min_benefit_cycles: Predicted benefit a fresh plan must show
            beyond the remap cost before it is installed.
    """

    window_accesses: int = 256
    signature_threshold: float = 0.5
    miss_rate_threshold: float = 0.25
    hysteresis_windows: int = 2
    min_benefit_cycles: int = 0

    def __post_init__(self) -> None:
        if self.window_accesses < 1:
            raise ValueError(
                "window_accesses must be >= 1, got "
                f"{self.window_accesses}"
            )


@dataclass(frozen=True)
class RemapEvent:
    """One live reassignment: which mapping, installed at which access.

    ``position`` is the trace position from which the mapping is in
    force (the start of the window after the boundary fired).
    """

    position: int
    window_index: int
    assignment: ColumnAssignment
    remap_cycles: int


@dataclass
class AdaptiveRunResult:
    """Everything one adaptive replay produced.

    ``result`` carries the aggregate counts (remap cycles included in
    ``cycles``); ``events`` is the remap schedule a reference replay
    can reproduce; ``observations``/``decisions`` expose the
    detector's and policy's reasoning per window/boundary.
    """

    name: str
    result: SimulationResult
    events: list[RemapEvent] = field(default_factory=list)
    observations: list[WindowObservation] = field(default_factory=list)
    decisions: list[RepartitionDecision] = field(default_factory=list)

    @property
    def remap_count(self) -> int:
        """Mappings installed over the run."""
        return len(self.events)

    @property
    def remap_cycles(self) -> int:
        """Total cycles charged to tint-table writes."""
        return sum(event.remap_cycles for event in self.events)

    @property
    def cpi(self) -> float:
        """Clocks per instruction, remap overhead included."""
        return self.result.cpi


class AdaptiveExecutor:
    """Streams traces through a cache with phase-adaptive remapping."""

    def __init__(
        self,
        layout: LayoutConfig,
        timing: Optional[TimingConfig] = None,
        adaptive: Optional[AdaptiveConfig] = None,
    ):
        self.layout = layout
        self.timing = timing or TimingConfig()
        self.adaptive = adaptive or AdaptiveConfig()
        sets, remainder = divmod(layout.column_bytes, layout.line_size)
        if remainder:
            raise ValueError(
                f"column size {layout.column_bytes} is not a whole "
                f"number of {layout.line_size}-byte lines"
            )
        self.geometry = CacheGeometry(
            line_size=layout.line_size, sets=sets, columns=layout.columns
        )

    def make_policy(self, run: WorkloadRun) -> RepartitionPolicy:
        """A fresh repartitioning policy for ``run``'s symbols.

        Exposes the split layout units (``policy.units``) and the
        know-nothing standard-cache mapping
        (``policy.initial_assignment()``) callers need to build
        comparable static candidates.
        """
        return RepartitionPolicy(
            config=self.layout,
            symbols=run.memory_map.symbols,
            timing=self.timing,
            min_benefit_cycles=self.adaptive.min_benefit_cycles,
        )

    def run(
        self,
        run: WorkloadRun,
        policy: Optional[RepartitionPolicy] = None,
        observer: Optional[Any] = None,
    ) -> AdaptiveRunResult:
        """Replay a recorded workload with live repartitioning.

        Args:
            run: The recorded workload to replay.
            policy: Repartitioning policy (default: a fresh one from
                :meth:`make_policy`).
            observer: Live-inspection callback invoked after every
                window with an
                :class:`~repro.inspect.snapshots.ExecutorWindowSnapshot`
                — per-column cache occupancy, the window's miss rate,
                the phase detector's state, and whether the window
                edge remapped.  Read-only: results are bit-identical
                with or without it.
        """
        adaptive = self.adaptive
        timing = self.timing
        if policy is None:
            policy = self.make_policy(run)
        detector = PhaseDetector(
            signature_threshold=adaptive.signature_threshold,
            miss_rate_threshold=adaptive.miss_rate_threshold,
            hysteresis_windows=adaptive.hysteresis_windows,
        )
        cache = LockstepCache(self.geometry)
        executor = TraceExecutor(timing)
        trace = run.trace
        offset_bits = self.geometry.offset_bits
        # Prime the cached block column: every window slice below
        # reads a view of it (columnar end to end, no per-window
        # recomputation, no Python-list round-trips).
        blocks = trace.blocks_for(offset_bits)
        window_size = adaptive.window_accesses

        events: list[RemapEvent] = []
        totals: Optional[SimulationResult] = None
        remap_cycles_total = 0

        window_index = 0
        for start in range(0, len(trace), window_size):
            stop = min(start + window_size, len(trace))
            window = trace.slice(start, stop)
            # One shared accounting path: the standard fast executor,
            # fed the persistent cache so state spans windows.
            window_result = executor.run(
                window,
                policy.current,
                cache=cache,
                charge_setup=False,
            )
            totals = (
                window_result
                if totals is None
                else totals.merged_with(window_result)
            )

            observation = detector.observe_window(
                blocks[start:stop],
                window_result.misses,
            )
            # Window 0 always replans: the initial mapping is the
            # know-nothing standard cache, and the first window is the
            # first evidence to plan from.
            remapped = False
            if (observation.boundary or window_index == 0) and stop < len(
                trace
            ):
                decision = policy.replan(window)
                if decision.remapped:
                    remapped = True
                    remap_cycles_total += decision.remap_cycles
                    events.append(
                        RemapEvent(
                            position=stop,
                            window_index=window_index,
                            assignment=decision.assignment,
                            remap_cycles=decision.remap_cycles,
                        )
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
                        detector=DetectorSnapshot.of(detector),
                        remapped=remapped,
                    )
                )
            window_index += 1

        if totals is None:
            totals = SimulationResult(name=run.name)
        totals.name = run.name
        totals.cycles += remap_cycles_total
        return AdaptiveRunResult(
            name=run.name,
            result=totals,
            events=events,
            observations=detector.observations,
            decisions=policy.decisions,
        )


# ----------------------------------------------------------------------
# Reference replay: the full mechanism, remapped live
# ----------------------------------------------------------------------
def _install(
    assignment: ColumnAssignment,
    page_table: PageTable,
    tint_table: TintTable,
    system: MemorySystem,
) -> None:
    """Install ``assignment`` live: tints, page tints, TLB flush.

    Units the assignment does not place fall back to the default tint
    (the full cache mask) — mirroring the fast path, where
    classification gives unplaced units the default cache mask.
    """
    placed = set(assignment.placements)
    for unit in assignment.layout_symbols:
        if unit.name in placed:
            continue
        for vpn in unit.range.pages(page_table.page_size):
            page_table.set_tint(vpn, page_table.default_tint)
            page_table.set_cached(vpn, True)
    assignment.realize(page_table, tint_table)
    system.tlb.flush()


def replay_reference(
    run: WorkloadRun,
    adaptive_result: AdaptiveRunResult,
    layout: LayoutConfig,
    timing: Optional[TimingConfig] = None,
    page_size: int = 64,
    tlb_capacity: int = 4096,
) -> SimulationResult:
    """Replay through ``MemorySystem`` with live column reassignment.

    Takes the remap schedule an :class:`AdaptiveExecutor` run
    produced and reproduces it through the full TLB/tint/replacement
    mechanism: each :class:`RemapEvent` is applied *at its trace
    position*, mid-replay, by rewriting the tint and page tables and
    flushing the TLB — the cache contents are never touched, which is
    precisely what makes column-cache repartitioning graceful.
    Returns counts directly comparable to
    ``adaptive_result.result`` (the differential harness asserts
    equality).
    """
    timing = timing or TimingConfig()
    if layout.scratchpad_columns != 0:
        raise ValueError(
            "the adaptive runtime repartitions cache columns only"
        )
    sets, remainder = divmod(layout.column_bytes, layout.line_size)
    if remainder:
        raise ValueError(
            f"column size {layout.column_bytes} is not a whole "
            f"number of {layout.line_size}-byte lines"
        )
    geometry = CacheGeometry(
        line_size=layout.line_size, sets=sets, columns=layout.columns
    )
    page_table = PageTable(page_size=page_size)
    tint_table = TintTable(columns=layout.columns)
    system = MemorySystem(
        geometry=geometry,
        timing=timing,
        page_table=page_table,
        tint_table=tint_table,
        tlb_capacity=tlb_capacity,
    )

    trace = run.trace
    events = list(adaptive_result.events)
    next_event = 0
    hits = misses = uncached = cached = 0
    cycles = 0
    for position in range(len(trace)):
        while (
            next_event < len(events)
            and events[next_event].position == position
        ):
            event = events[next_event]
            _install(event.assignment, page_table, tint_table, system)
            cycles += event.remap_cycles
            next_event += 1
        address = int(trace.addresses[position])
        is_write = bool(trace.writes[position])
        cycles += int(trace.gaps[position])
        outcome = system.access(address, is_write=is_write)
        cycles += outcome.cycles
        if not outcome.cached or outcome.bypassed:
            uncached += 1
        else:
            cached += 1
            if outcome.hit:
                hits += 1
            else:
                misses += 1

    return SimulationResult(
        name=f"{run.name}:adaptive-reference",
        instructions=trace.instruction_count,
        accesses=len(trace),
        cached_accesses=cached,
        uncached_accesses=uncached,
        hits=hits,
        misses=misses,
        cycles=cycles,
        tlb_hits=system.tlb.stats.hits,
        tlb_misses=system.tlb.stats.misses,
    )
