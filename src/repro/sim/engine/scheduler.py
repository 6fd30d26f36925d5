"""The sweep scheduler: fan jobs over a pool, serve repeats from cache.

:class:`SweepEngine` accepts :class:`~repro.sim.engine.spec.SimJob`
lists or a :class:`~repro.sim.engine.spec.SweepSpec`, consults the
content-addressed :class:`~repro.sim.engine.cache.ResultCache`, and
executes the remaining jobs on one of two backends:

* ``"serial"`` — inline in this process (deterministic, no pickling
  requirements; the right choice on one core and inside tests).
* ``"process"`` — a process pool; true parallelism for CPU-bound
  scalar runners.  Runners must be importable top-level functions.

``backend="auto"`` picks ``"process"`` when more than one worker is
both requested and available, else ``"serial"`` — so the same calling
code scales from the 1-CPU container to a many-core CI runner without
changes.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from repro.sim.engine import backends
from repro.sim.engine.cache import MISS, ResultCache
from repro.sim.engine.spec import SimJob, SweepSpec, runner_path

_BACKENDS = ("auto", "serial", "process")


@dataclass
class JobOutcome:
    """One job's result plus execution metadata."""

    job: SimJob
    value: Any
    cached: bool
    seconds: float

    @property
    def label(self) -> str:
        """The job's display label."""
        return self.job.display_label()


def _execute_reference(
    reference: str, params: dict[str, Any]
) -> tuple[Any, float]:
    """Worker-side job execution (top-level: must pickle by name).

    Returns ``(value, seconds)`` — timed in the worker so the outcome
    records the job's own duration, not queue wait or batch time.
    """
    start = time.perf_counter()  # repro: ignore[R001] -- job duration is outcome telemetry, not simulation state
    value = SimJob(runner=reference, params=params).execute()
    return value, time.perf_counter() - start  # repro: ignore[R001] -- job duration is outcome telemetry, not simulation state


class SweepEngine:
    """Runs sweeps: cache lookup, pool fan-out, ordered collection."""

    def __init__(
        self,
        workers: Optional[int] = None,
        backend: str = "auto",
        cache_dir: Optional[str | Path] = None,
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        available = os.cpu_count() or 1
        self.workers = max(1, workers if workers is not None else available)
        if backend == "auto":
            backend = "process" if self.workers > 1 else "serial"
        self.backend = backend
        self.cache = ResultCache(cache_dir)
        self.jobs_executed = 0
        self.jobs_from_cache = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, work: Union[SweepSpec, Sequence[SimJob]]
    ) -> list[JobOutcome]:
        """Execute a spec or job list; outcomes in submission order.

        Every job's digest is checked against the result cache first;
        only misses are executed.  Results are cached by content hash,
        so re-running the same spec is (almost) free and extending an
        axis only simulates the new points.
        """
        jobs = work.jobs() if isinstance(work, SweepSpec) else list(work)
        outcomes: list[Optional[JobOutcome]] = [None] * len(jobs)
        pending: list[tuple[int, SimJob, str]] = []
        for index, job in enumerate(jobs):
            digest = job.content_hash()
            hit = self.cache.get(digest)
            if hit is not MISS:
                outcomes[index] = JobOutcome(
                    job=job, value=hit, cached=True, seconds=0.0
                )
                self.jobs_from_cache += 1
            else:
                pending.append((index, job, digest))

        if pending:
            if self.backend == "serial" or len(pending) == 1:
                self._run_serial(pending, outcomes)
            else:
                self._run_pool(pending, outcomes)
            self.jobs_executed += len(pending)
        return [outcome for outcome in outcomes if outcome is not None]

    def _run_serial(
        self,
        pending: list[tuple[int, SimJob, str]],
        outcomes: list[Optional[JobOutcome]],
    ) -> None:
        for index, job, digest in pending:
            start = time.perf_counter()  # repro: ignore[R001] -- job duration is outcome telemetry, not simulation state
            value = job.execute()
            elapsed = time.perf_counter() - start  # repro: ignore[R001] -- job duration is outcome telemetry, not simulation state
            value = self.cache.put(digest, job, value)
            outcomes[index] = JobOutcome(
                job=job, value=value, cached=False, seconds=elapsed
            )

    def _run_pool(
        self,
        pending: list[tuple[int, SimJob, str]],
        outcomes: list[Optional[JobOutcome]],
    ) -> None:
        # Workers must simulate on the same kernel backend the parent
        # hashed the jobs under (set_backend() overrides are process
        # state, not environment state): pin the resolved choice into
        # the environment the pool inherits.
        os.environ[backends.KERNEL_ENV] = backends.active_backend()
        pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            futures = []
            for index, job, digest in pending:
                future = pool.submit(
                    _execute_reference,
                    runner_path(job.runner),
                    dict(job.params),
                )
                futures.append((index, job, digest, future))
            for index, job, digest, future in futures:
                value, elapsed = future.result()
                value = self.cache.put(digest, job, value)
                outcomes[index] = JobOutcome(
                    job=job, value=value, cached=False, seconds=elapsed
                )
        finally:
            pool.shutdown()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def values(
        self, work: Union[SweepSpec, Sequence[SimJob]]
    ) -> list[Any]:
        """Like :meth:`run` but returning bare values."""
        return [outcome.value for outcome in self.run(work)]

    @property
    def stats(self) -> dict[str, int]:
        """Execution counters (for tests and reporting)."""
        return {
            "executed": self.jobs_executed,
            "from_cache": self.jobs_from_cache,
            "cache_entries": len(self.cache),
        }
