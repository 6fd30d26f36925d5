"""A Panda/Dutt/Nicolau-style scratchpad allocator (paper Section 5.2).

"The presented algorithm assumes a fixed amount of scratchpad memory
and a fixed-size cache, identifies critical variables and assigns them
to scratchpad memory."

This baseline models that architecture: a *dedicated* scratchpad SRAM
(its own address region, data explicitly copied in) next to a
conventional set-associative cache with no column control.  Variables
are chosen for the scratchpad by access density (accesses per byte),
the standard benefit metric; everything else goes through the cache
with no placement restriction.

Differences from the paper's column cache, which the comparison bench
surfaces:

* the split is fixed — no per-task repartitioning;
* re-assigning a variable to scratchpad requires a memory copy
  (charged via ``copy_byte_cycles``), where a column remap is a tint
  write;
* the cache side has no conflict isolation at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.mem.symbols import Variable
from repro.sim.config import TimingConfig
from repro.sim.engine.batched import LockstepCache
from repro.sim.results import SimulationResult
from repro.workloads.base import WorkloadRun


@dataclass
class PandaPlan:
    """The allocator's decision.

    Attributes:
        scratchpad_variables: Names assigned to the scratchpad SRAM.
        scratchpad_bytes: Bytes they occupy.
        copy_cycles: One-time cost of copying them in.
    """

    scratchpad_variables: list[str] = field(default_factory=list)
    scratchpad_bytes: int = 0
    copy_cycles: int = 0


class PandaBaseline:
    """Dedicated scratchpad + conventional cache.

    Args:
        scratchpad_bytes: Size of the dedicated SRAM.
        cache_geometry: Shape of the conventional cache.
        timing: Stall model (miss penalty etc.).
        copy_byte_cycles: Cycles per byte for the explicit copy into
            scratchpad (reported as setup, like preload).
    """

    def __init__(
        self,
        scratchpad_bytes: int,
        cache_geometry: CacheGeometry,
        timing: Optional[TimingConfig] = None,
        copy_byte_cycles: int = 1,
    ):
        self.scratchpad_bytes = scratchpad_bytes
        self.cache_geometry = cache_geometry
        self.timing = timing or TimingConfig()
        self.copy_byte_cycles = copy_byte_cycles

    # ------------------------------------------------------------------
    def plan(self, run: WorkloadRun) -> PandaPlan:
        """Pick scratchpad residents by access density (whole variables)."""
        counts: dict[str, int] = {}
        for name in run.trace.variables():
            counts[name] = len(run.trace.positions_of(name))
        candidates: list[Variable] = [
            run.memory_map.get(name)
            for name in counts
            if name in run.memory_map.symbols
        ]
        candidates.sort(
            key=lambda variable: (
                -(counts[variable.name] / variable.size),
                variable.base,
            )
        )
        plan = PandaPlan()
        free = self.scratchpad_bytes
        for variable in candidates:
            if counts[variable.name] == 0:
                continue
            if variable.size <= free:
                plan.scratchpad_variables.append(variable.name)
                plan.scratchpad_bytes += variable.size
                free -= variable.size
        plan.copy_cycles = plan.scratchpad_bytes * self.copy_byte_cycles
        return plan

    # ------------------------------------------------------------------
    def run(
        self, run: WorkloadRun, plan: Optional[PandaPlan] = None
    ) -> SimulationResult:
        """Simulate the workload under the Panda architecture."""
        if plan is None:
            plan = self.plan(run)
        trace = run.trace
        # Per-access scratchpad membership, resolved by variable label.
        pad_ids = {
            trace.variable_names.index(name)
            for name in plan.scratchpad_variables
            if name in trace.variable_names
        }
        in_pad = (
            np.isin(trace.variable_ids, list(pad_ids))
            if pad_ids
            else np.zeros(len(trace), dtype=bool)
        )
        cached_positions = np.flatnonzero(~in_pad)
        outcome = LockstepCache(self.cache_geometry).run(
            trace.blocks_for(self.cache_geometry.offset_bits)[
                cached_positions
            ]
        )
        timing = self.timing
        return SimulationResult(
            name=f"{run.name}:panda",
            instructions=trace.instruction_count,
            accesses=len(trace),
            cached_accesses=len(cached_positions),
            scratchpad_accesses=int(in_pad.sum()),
            hits=outcome.hits,
            misses=outcome.misses,
            cycles=(
                trace.instruction_count
                + outcome.misses * timing.miss_penalty
            ),
            setup_cycles=plan.copy_cycles,
        )
