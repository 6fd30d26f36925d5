"""Sweep engine: declarative job specs, parallel scheduling, batching.

The engine turns the repo's experiments from hand-rolled loops into
declarative sweeps:

* :mod:`repro.sim.engine.spec` — :class:`SweepSpec` / :class:`SimJob`,
  the declarative (workload x geometry x policy) enumeration with
  content hashing.
* :mod:`repro.sim.engine.scheduler` — :class:`SweepEngine`, which fans
  jobs over a process pool (or runs them inline) with a
  content-addressed result cache so repeated sweeps are incremental.
* :mod:`repro.sim.engine.backends` — the kernel-backend registry: the
  lockstep inner loop runs on the vectorized numpy kernel or on an
  on-demand-compiled C kernel (``REPRO_KERNEL=auto|numpy|compiled``),
  bit-identical by construction and locked down by the differential
  oracle suite.
* :mod:`repro.sim.engine.batched` — the one cache engine: the
  vectorized lockstep LRU kernel (LRU sets are independent, so a block
  trace sharded by set index can advance every set one access per
  "round") behind the stateful
  :class:`~repro.sim.engine.batched.LockstepCache`, bit-identical to
  the reference :class:`~repro.cache.column_cache.ColumnCache`.
* :mod:`repro.sim.engine.replay` — the one replay path:
  :func:`replay_trace` streams a trace in bounded chunks through one
  cache.
* :mod:`repro.sim.engine.multitask_batch` — the Figure 5 hot path: the
  round-robin schedule is computed in closed form (it does not depend
  on cache contents), and whole quantum sweeps run through one
  lockstep call (or one fused C walk on the compiled backend).
"""

from repro.sim.engine.backends import (
    KERNEL_BACKENDS,
    KernelBackendError,
    active_backend,
    compiled_available,
    reset_backend,
    resolve_backend,
    set_backend,
)
from repro.sim.engine.batched import (
    LockstepCache,
    LockstepState,
    lockstep_run,
)
from repro.sim.engine.cache import ResultCache
from repro.sim.engine.multitask_batch import simulate_multitask_matrix
from repro.sim.engine.scheduler import JobOutcome, SweepEngine
from repro.sim.engine.replay import replay_trace
from repro.sim.engine.spec import SimJob, SweepSpec

__all__ = [
    "JobOutcome",
    "KERNEL_BACKENDS",
    "KernelBackendError",
    "LockstepCache",
    "LockstepState",
    "ResultCache",
    "SimJob",
    "SweepEngine",
    "SweepSpec",
    "active_backend",
    "compiled_available",
    "lockstep_run",
    "replay_trace",
    "reset_backend",
    "resolve_backend",
    "set_backend",
    "simulate_multitask_matrix",
]
