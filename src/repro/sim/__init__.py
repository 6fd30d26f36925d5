"""Trace-driven simulation: timing model, executors, multitasking.

Two execution paths exist on purpose:

* :class:`~repro.sim.executor.TraceExecutor` — the fast path used by
  the experiments: vectorized access classification + the lockstep
  cache engine.
* :meth:`~repro.sim.executor.TraceExecutor.run_reference` — the full
  mechanism path: assignment realized as page-table tints, every access
  translated through the TLB, masks delivered to the reference
  :class:`~repro.cache.column_cache.ColumnCache`.  Slower, used for
  validation (tests assert both paths agree cycle-for-cycle).

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
