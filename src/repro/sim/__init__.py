"""Trace-driven simulation: timing model, executors, multitasking.

:class:`~repro.sim.executor.TraceExecutor` runs a trace under a
column assignment: vectorized access classification plus the lockstep
cache engine.  The paper's full Figure 2 mechanism — the assignment
realized as page-table tints, every access translated through the TLB,
masks delivered to the reference
:class:`~repro.cache.column_cache.ColumnCache` — is the test suite's
reference (``tests/oracles/figure2.py``), held cycle-for-cycle equal to
the executor.  :class:`~repro.sim.memory_system.MemorySystem`, that
mechanism's TLB-plus-cache core, also drives the adaptive runtime's
scalar replay.

:mod:`repro.sim.multitask` adds the round-robin scheduler of the
paper's Section 4.2 multitasking experiment, and :mod:`repro.sim.
engine` the sweep engine (declarative job specs, parallel scheduling
with result caching, and the batched lockstep hot path) the
experiments submit their sweeps through.
"""

from repro.sim.config import TimingConfig
from repro.sim.engine.scheduler import SweepEngine
from repro.sim.engine.spec import SimJob, SweepSpec
from repro.sim.executor import TraceExecutor
from repro.sim.memory_system import MemorySystem
from repro.sim.multitask import Job, JobResult, MultitaskSimulator
from repro.sim.results import PhaseResult, SimulationResult

__all__ = [
    "Job",
    "JobResult",
    "MemorySystem",
    "MultitaskSimulator",
    "PhaseResult",
    "SimJob",
    "SimulationResult",
    "SweepEngine",
    "SweepSpec",
    "TimingConfig",
    "TraceExecutor",
]
