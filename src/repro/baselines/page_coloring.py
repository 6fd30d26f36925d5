"""OS page coloring (paper Section 5.1).

"Page coloring refers to intelligent mapping of virtual pages to
physical pages to reduce conflicts in a direct-mapped cache and thus
offers a limited sub-set of column caching abilities ...  page coloring
requires a memory copy to remap a region of memory to a new region of
the cache ...  [and] works [less] well with set-associative caches,
where page coloring potentially wastes a significant amount of space."

The model: a physically-indexed cache has ``page_colors =
column_bytes / page_size`` page-color classes per way; a physical
page's color decides which cache sets it occupies.  The OS chooses a
physical page (hence a color) for each virtual page.  We reuse the
conflict-graph machinery to assign each *variable* a color class, then
relocate its pages to physical pages of that class and simulate the
relocated trace on the plain cache.

The relocation is one page table: ``PageColoringPlan.pages``, the
sorted virtual page numbers of every colored variable, and
``frames``, the physical frame each maps to.  :meth:`translate` looks
a whole address column up in it with one ``np.searchsorted``: an
address on a mapped page becomes ``(frame << page_bits) | offset``,
any other address keeps its identity plus ``2**40``, which keeps it
clear of the colored frames.  Addresses are the trace's uint64 domain
held in int64, so that sum wraps modulo ``2**64`` like every other
int64 address.  The simulated cache then reads the physical byte
addresses itself (``LockstepCache.run(..., offset_bits=...)``).

What the comparison surfaces:

* with enough colors, page coloring isolates conflicting variables
  much like columns — but at page granularity within a way;
* *remapping* a variable to a new color means copying its pages
  (charged via ``copy_byte_cycles``), against a column cache's
  tint-table write;
* the isolation divides each way's sets, so a colored variable only
  ever occupies ``1/page_colors`` of the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.layout.graph import ConflictGraph
from repro.layout.merge import color_with_merging
from repro.profiling.profiler import profile_trace
from repro.sim.config import TimingConfig
from repro.sim.engine.batched import LockstepCache
from repro.sim.results import SimulationResult
from repro.utils.validation import check_power_of_two, log2_exact
from repro.workloads.base import WorkloadRun

#: Added to an unmapped address, to keep it clear of the colored frames.
_IDENTITY_BASE = np.int64(1 << 40)


@dataclass
class PageColoringPlan:
    """Variable -> page-color class, plus the page table.

    ``pages`` holds the relocated virtual page numbers in ascending
    order and ``frames`` the physical frame of each.
    """

    colors: int
    variable_colors: dict[str, int] = field(default_factory=dict)
    pages: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    frames: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    remap_copy_bytes: int = 0

    @property
    def page_map(self) -> dict[int, int]:
        """The page table as a virtual page -> physical frame dict."""
        return dict(zip(self.pages.tolist(), self.frames.tolist()))


class PageColoringBaseline:
    """Page-colored physical placement over a conventional cache."""

    def __init__(
        self,
        cache_geometry: CacheGeometry,
        page_size: int = 64,
        timing: Optional[TimingConfig] = None,
        copy_byte_cycles: int = 1,
    ):
        check_power_of_two(page_size, "page_size")
        if page_size > cache_geometry.column_bytes:
            raise ValueError(
                f"page size {page_size} exceeds one way "
                f"({cache_geometry.column_bytes} bytes): no colors exist"
            )
        self.cache_geometry = cache_geometry
        self.page_size = page_size
        self.timing = timing or TimingConfig()
        self.copy_byte_cycles = copy_byte_cycles
        self.page_colors = cache_geometry.column_bytes // page_size

    # ------------------------------------------------------------------
    def plan(self, run: WorkloadRun) -> PageColoringPlan:
        """Color variables with the conflict-graph machinery."""
        profile = profile_trace(
            run.trace, run.memory_map.symbols, by_address=True
        )
        names = list(profile.variables)
        plan = PageColoringPlan(colors=self.page_colors)
        if not names:
            return plan
        graph = ConflictGraph.from_profile(profile, variables=names)
        result = color_with_merging(graph, k=self.page_colors)
        plan.variable_colors = dict(result.assignment)
        self._build_page_map(run, plan)
        return plan

    def _build_page_map(self, run: WorkloadRun, plan: PageColoringPlan) -> None:
        """Relocate each variable's pages into its color class.

        Physical page ``p`` has color ``p % page_colors``.  Each
        variable's k-th page moves to the k-th free physical page of
        the variable's color; a page two variables share stays with
        the first by name.
        """
        colors = self.page_colors
        next_free = [0] * colors
        page_map: dict[int, int] = {}
        for name, color in sorted(plan.variable_colors.items()):
            variable = run.memory_map.get(name)
            for vpn in variable.range.pages(self.page_size):
                if vpn not in page_map:
                    page_map[vpn] = next_free[color] * colors + color
                    next_free[color] += 1
        pages = sorted(page_map)
        plan.pages = np.array(pages, dtype=np.int64)
        plan.frames = np.array([page_map[p] for p in pages], dtype=np.int64)
        plan.remap_copy_bytes = len(pages) * self.page_size

    def translate(self, addresses: np.ndarray, plan: PageColoringPlan) -> np.ndarray:
        """Apply the plan's page table to a column of addresses."""
        page_bits = log2_exact(self.page_size, "page_size")
        addresses = np.asarray(addresses, dtype=np.int64)
        # Unmapped pages: identity plus the high bit, modulo 2**64.
        physical = addresses + _IDENTITY_BASE
        if not len(plan.pages):
            return physical
        vpns = addresses >> np.int64(page_bits)
        slots = np.searchsorted(plan.pages, vpns)
        np.minimum(slots, len(plan.pages) - 1, out=slots)
        mapped = plan.pages[slots] == vpns
        relocated = (plan.frames[slots] << np.int64(page_bits)) | (
            addresses & np.int64(self.page_size - 1)
        )
        np.copyto(physical, relocated, where=mapped)
        return physical

    # ------------------------------------------------------------------
    def run(
        self,
        run: WorkloadRun,
        plan: Optional[PageColoringPlan] = None,
        charge_initial_copies: bool = False,
    ) -> SimulationResult:
        """Simulate the workload with page-colored placement.

        ``charge_initial_copies=True`` charges the copy cost of moving
        every colored page (the cost page coloring pays to *change* a
        mapping; initial placement is normally free because the OS
        allocates colored frames up front).
        """
        if plan is None:
            plan = self.plan(run)
        trace = run.trace
        outcome = LockstepCache(self.cache_geometry).run(
            self.translate(trace.addresses, plan),
            offset_bits=self.cache_geometry.offset_bits,
        )
        timing = self.timing
        setup = (
            plan.remap_copy_bytes * self.copy_byte_cycles
            if charge_initial_copies
            else 0
        )
        return SimulationResult(
            name=f"{run.name}:page_coloring",
            instructions=trace.instruction_count,
            accesses=len(trace),
            cached_accesses=len(trace),
            hits=outcome.hits,
            misses=outcome.misses,
            cycles=(
                trace.instruction_count
                + outcome.misses * timing.miss_penalty
            ),
            setup_cycles=setup,
        )

    def run_uncolored(self, run: WorkloadRun) -> SimulationResult:
        """Control: the same cache with identity (uncolored) placement."""
        outcome = LockstepCache(self.cache_geometry).run(
            run.trace.addresses, offset_bits=self.cache_geometry.offset_bits
        )
        return SimulationResult(
            name=f"{run.name}:uncolored",
            instructions=run.trace.instruction_count,
            accesses=len(run.trace),
            cached_accesses=len(run.trace),
            hits=outcome.hits,
            misses=outcome.misses,
            cycles=(
                run.trace.instruction_count
                + outcome.misses * self.timing.miss_penalty
            ),
        )
