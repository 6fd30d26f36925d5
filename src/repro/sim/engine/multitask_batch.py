"""Batched multitasking simulation: closed-form schedule + lockstep LRU.

The reference :class:`~repro.sim.multitask.MultitaskSimulator` walks
the schedule one quantum slice at a time, which costs Python
bookkeeping per quantum (brutal at quantum=1: one ``searchsorted`` per
access), and then runs the walked stream through the cache.  This
module exploits three structural facts:

1. **The schedule does not depend on cache contents.**  A quantum ends
   after a fixed number of instructions, and instruction counts come
   from the trace alone — so where every quantum starts and stops is a
   pure function of (traces, quantum, budget).  On the compiled kernel
   each point is one call of the C round-robin walk
   (``repro_fleet_segment``, the fleet's segment walk with no cap, so
   every quantum runs whole), which cuts each quantum from the job's
   cursor as it walks it: no schedule is built.  On the numpy kernel
   the start positions of a job's successive quanta are the orbit of
   the successor map "position -> position after one quantum";
   :class:`~repro.sim.multitask.QuantumWalkTables` computes the map for
   *all* positions at once with vectorized ``searchsorted`` and
   :class:`_Schedule` unrolls its orbit.

2. **A schedule is a segment walk.**  Each scheduled quantum is one
   ``(job, start position, accesses)`` segment over the job's wrapped
   trace.  The warm-up is such a walk too (one segment per job: its
   whole trace, ``warmup_passes`` times), run once per variant; every
   point starts from a copy of the warm state.  On the compiled kernel
   each warm-up is one :func:`~repro.sim.engine.fused.fused_multitask_run`
   call, which walks the segments in C without materializing the
   access stream.  The numpy kernel's time grows with its rounds (the
   most accesses landing on one row), so there each schedule's stream
   is gathered once (``fused``'s gather) and the walks of every
   variant with the same associativity are stacked into shared
   lockstep calls, each walk's sets as extra independent rows.

3. **The schedule is geometry-free.**  Cache size, column count and
   column masks do not enter the schedule, so on numpy a whole
   experiment matrix (several geometries x mapped/shared x all quanta
   — Figure 5 is exactly this) reuses each quantum's schedule, its
   per-job totals (instructions, accesses, wraps, quanta) and its
   access stream across every variant.

Results are bit-identical to the per-quantum simulator (asserted by the
equivalence tests): same hits, misses, instructions, wraps and quantum
counts per job, hence the same CPI to the last ulp.
"""

from __future__ import annotations

import copy
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.sim.engine import _compiled, backends
from repro.sim.engine.batched import LockstepState, lockstep_run
from repro.sim.engine.fused import (
    TenantBatch,
    _stream_gather,
    fused_multitask_run,
)
from repro.sim.multitask import (
    Job,
    JobResult,
    QuantumWalkTables,
    check_window,
)
from repro.utils.validation import check_quantum

#: Flush the numpy kernel's stacked walks beyond this many buffered
#: accesses.  Kernel wall time scales with *rounds* (the max accesses
#: landing on one row), not buffered volume, so wider batches are
#: strictly faster as long as the access arrays fit in memory (~100
#: bytes per access at the flush peak); the whole paper-sized Figure 5
#: matrix fits one flush.
MAX_BATCH_ACCESSES = 64_000_000


class _BatchJob:
    """Precomputed per-job arrays shared by every sweep point."""

    def __init__(self, job: Job, geometry: CacheGeometry) -> None:
        if len(job.trace) == 0:
            raise ValueError(f"job {job.name!r} has an empty trace")
        # int64, as the compiled walk reads it; TenantBatch narrows
        # its concatenation for the numpy walks and the warm-ups.
        self.blocks = job.trace.blocks_for(
            geometry.offset_bits, job.address_offset
        )
        self.cum = job.trace.cumulative_instructions
        self.mask_bits = job.mask_bits(geometry.columns)
        self.name = job.name


class _Schedule:
    """The numpy kernel's global round-robin schedule of one point.

    Besides the per-quantum columns it holds each job's totals over
    the schedule (``job_instructions``, ``job_accesses``,
    ``job_wraps``, ``job_quanta``), which every variant's results
    share.  Unlike the fleet's
    :func:`~repro.sim.multitask.quantum_schedule`, the final quantum
    runs whole, as :meth:`MultitaskSimulator.run` runs it.  Each job's
    orbit is unrolled from closed-form tables over every start
    position, built directly, not through the
    :func:`~repro.sim.multitask.walk_tables` memo: no later call
    reuses them, and the memo would keep them alive.  The caller
    checks the window (:func:`~repro.sim.multitask.check_window`).
    """

    def __init__(
        self,
        batch_jobs: Sequence[_BatchJob],
        quantum: int,
        budget: int,
    ) -> None:
        job_count = len(batch_jobs)
        # Every quantum runs >= `quantum` instructions, so this bounds
        # the number of quanta the budget can demand.
        global_bound = -(-budget // quantum)
        per_job = -(-global_bound // job_count) + 1
        # (column, round, job): row r of a column is round-robin round r.
        table = np.empty((4, per_job, job_count), dtype=np.int64)
        for index, batch_job in enumerate(batch_jobs):
            tables = QuantumWalkTables(batch_job.cum, quantum)
            positions = tables.orbit(0, per_job)
            table[:, :, index] = (
                positions,
                tables.accesses[positions],
                tables.ran[positions],
                tables.wraps[positions],
            )
        flat = table.reshape(4, -1)
        executed = np.cumsum(flat[2])
        total_quanta = int(np.searchsorted(executed, budget, "left")) + 1
        job_indices = np.arange(job_count, dtype=np.int64)
        self.tenant_ids = np.tile(job_indices, per_job)[:total_quanta]
        self.positions, self.accesses, self.ran, self.wraps = (
            flat[:, :total_quanta]
        )
        # Job j runs the first job_quanta[j] rounds of its column.
        self.job_quanta = -((job_indices - total_quanta) // job_count)
        totals = np.array(
            [
                [
                    column[:rounds, index].sum()
                    for index, rounds in enumerate(self.job_quanta)
                ]
                for column in table[1:]
            ],
            dtype=np.int64,
        )
        self.job_accesses, self.job_instructions, self.job_wraps = totals
        self.total_accesses = int(self.job_accesses.sum())


class _WarmUp:
    """The warm-up as a segment walk: each job's whole trace,
    ``passes`` times from position 0, in job order — the stream
    :meth:`MultitaskSimulator.warm_up` runs."""

    def __init__(self, batch: TenantBatch, passes: int) -> None:
        self.tenant_ids = np.arange(batch.tenants, dtype=np.int64)
        self.positions = np.zeros(batch.tenants, dtype=np.int64)
        self.accesses = batch.lengths * passes
        self.total_accesses = int(self.accesses.sum())


#: One walk of the matrix: a variant's index, the segments it runs and
#: the state it advances.
_Walk = tuple[int, Union[_Schedule, _WarmUp], LockstepState]


def _results_for_point(
    batch_jobs: Sequence[_BatchJob], rows: Sequence[Sequence[int]]
) -> dict[str, JobResult]:
    """Per-job :class:`JobResult`\\ s from one row a job,
    ``[instructions, accesses, wraps, quanta, hits]``."""
    return {
        batch_job.name: JobResult(
            name=batch_job.name,
            instructions=instructions,
            accesses=accesses,
            hits=hits,
            misses=accesses - hits,
            wraps=wraps,
            quanta=quanta,
        )
        for batch_job, (instructions, accesses, wraps, quanta, hits) in zip(
            batch_jobs, rows
        )
    }


def _segment_rows(
    variants: Sequence[tuple[CacheGeometry, Sequence[Job]]],
    batch_jobs: Sequence[_BatchJob],
    mask_tables: Sequence[np.ndarray],
    warm_states: Sequence[LockstepState],
    quanta: Sequence[int],
    budget: int,
    points: Iterable[tuple[int, int]],
) -> Iterator[list[list[int]]]:
    """Each ``(variant, quantum)`` point as one call of the C
    round-robin walk with no cap, so every quantum runs whole: from a
    copy of the variant's warm state, every job's cursor at 0 and job
    0 first.  Yields one ``[instructions, accesses, wraps, quanta,
    hits]`` row a job."""
    blocks = [batch_job.blocks for batch_job in batch_jobs]
    cumulatives = [batch_job.cum for batch_job in batch_jobs]
    cursors = [0] * len(batch_jobs)
    for variant_index, quantum_index in points:
        geometry = variants[variant_index][0]
        rows = _compiled.fleet_segment_compiled(
            blocks,
            cumulatives,
            cursors,
            mask_tables[variant_index].tolist(),
            int(quanta[quantum_index]),
            budget,
            0,
            copy.deepcopy(warm_states[variant_index]),
            sets_mask=geometry.sets - 1,
            index_bits=geometry.index_bits,
            cap=_compiled.NO_CAP,
        )[0]
        yield [row[1:] for row in rows]


def _schedule_rows(
    variants: Sequence[tuple[CacheGeometry, Sequence[Job]]],
    batch: TenantBatch,
    batch_jobs: Sequence[_BatchJob],
    mask_tables: Sequence[np.ndarray],
    warm_states: Sequence[LockstepState],
    quanta: Sequence[int],
    budget: int,
    points: Sequence[tuple[int, int]],
) -> Iterator[list[list[int]]]:
    """Each ``(variant, quantum)`` point as a walk of its quantum's
    :class:`_Schedule` (built once, shared by every variant) from a
    copy of the variant's warm state, the walks stacked on numpy
    (:func:`_stacked_walks`).  Yields one ``[instructions, accesses,
    wraps, quanta, hits]`` row a job."""
    schedules = [
        _Schedule(batch_jobs, int(quantum), budget) for quantum in quanta
    ]
    walks = (
        (
            variant_index,
            schedules[quantum_index],
            copy.deepcopy(warm_states[variant_index]),
        )
        for variant_index, quantum_index in points
    )
    for (_variant_index, quantum_index), misses in zip(
        points, _stacked_walks(variants, batch, mask_tables, walks)
    ):
        schedule = schedules[quantum_index]
        yield np.column_stack(
            (
                schedule.job_instructions,
                schedule.job_accesses,
                schedule.job_wraps,
                schedule.job_quanta,
                schedule.job_accesses - misses,
            )
        ).tolist()


class _KernelGroup:
    """Accumulates same-associativity walks into one numpy lockstep
    call.

    Streams are assembled straight into preallocated column buffers
    (rows, tags, masks, counting segments) — no per-walk temporaries,
    no flush-time concatenation of the access arrays.
    """

    def __init__(
        self,
        capacity: int,
        block_dtype: np.dtype,
        mask_dtype: np.dtype,
    ) -> None:
        self._rows = np.empty(capacity, dtype=block_dtype)
        self._tags = np.empty(capacity, dtype=block_dtype)
        self._masks = np.empty(capacity, dtype=mask_dtype)
        self._segments = np.empty(capacity, dtype=np.int32)
        self.states: list[LockstepState] = []
        self.walks: list[int] = []
        self.row_count = 0
        self.buffered = 0
        self.segment_count = 0

    def add(
        self,
        walk_index: int,
        stream_blocks: np.ndarray,
        stream_jobs: np.ndarray,
        geometry: CacheGeometry,
        mask_table: np.ndarray,
        state: LockstepState,
    ) -> None:
        """Buffer one walk's stream as extra lockstep rows."""
        count = len(stream_blocks)
        span = slice(self.buffered, self.buffered + count)
        rows = self._rows[span]
        np.bitwise_and(stream_blocks, geometry.sets - 1, out=rows)
        np.add(rows, rows.dtype.type(self.row_count), out=rows)
        np.right_shift(
            stream_blocks, geometry.index_bits, out=self._tags[span]
        )
        np.take(mask_table, stream_jobs, out=self._masks[span])
        # One counting segment per (walk, job): the kernel returns
        # miss positions, and a single bincount over these labels
        # yields every walk's per-job misses at once.
        np.add(
            stream_jobs,
            self.segment_count,
            out=self._segments[span],
            casting="unsafe",
        )
        self.states.append(state)
        self.walks.append(walk_index)
        self.row_count += state.rows
        self.buffered += count
        self.segment_count += len(mask_table)

    def flush(self, misses: list[Optional[np.ndarray]]) -> None:
        """Run the buffered walks in one kernel call: each walk's state
        advances (it takes its rows of the stacked state) and its
        per-job misses land in ``misses[walk_index]``."""
        if not self.walks:
            return
        state = LockstepState(
            tags=np.concatenate([s.tags for s in self.states]),
            last_use=np.concatenate([s.last_use for s in self.states]),
            clock=np.concatenate([s.clock for s in self.states]),
        )
        fill = self.buffered
        segments = self._segments[:fill]
        miss_positions = lockstep_run(
            self._rows[:fill],
            self._tags[:fill],
            state,
            mask_bits=self._masks[:fill],
            collect="misses",
            backend="numpy",
        )
        counts = np.bincount(
            segments[miss_positions], minlength=self.segment_count
        )
        job_count = self.segment_count // len(self.walks)
        row = 0
        for base, walk_index, walk_state in zip(
            range(0, self.segment_count, job_count), self.walks, self.states
        ):
            rows = slice(row, row + walk_state.rows)
            walk_state.tags = state.tags[rows]
            walk_state.last_use = state.last_use[rows]
            walk_state.clock = state.clock[rows]
            misses[walk_index] = counts[base:base + job_count]
            row = rows.stop
        self.states.clear()
        self.walks.clear()
        self.row_count = 0
        self.buffered = 0
        self.segment_count = 0


def _stacked_walks(
    variants: Sequence[tuple[CacheGeometry, Sequence[Job]]],
    batch: TenantBatch,
    mask_tables: Sequence[np.ndarray],
    walks: Iterable[_Walk],
) -> list[np.ndarray]:
    """Every walk on the numpy kernel, same-associativity walks
    stacked into shared lockstep calls; per-job misses, one array a
    walk.

    The kernel's time grows with its rounds (the most accesses landing
    on one row), so stacking multiplies round width instead of round
    count.  Consecutive walks of one schedule share one gathered
    stream.
    """
    walk_list = list(walks)
    # Access totals size each kernel group's column buffers exactly
    # (bounded by the flush threshold plus one stream, since a flush
    # triggers only after an add crosses the threshold).
    totals: dict[int, int] = {}
    rows: dict[int, int] = {}
    for variant_index, schedule, _state in walk_list:
        geometry = variants[variant_index][0]
        ways = geometry.columns
        totals[ways] = totals.get(ways, 0) + schedule.total_accesses
        rows[ways] = rows.get(ways, 0) + geometry.sets
    largest = max(
        (schedule.total_accesses for _, schedule, _ in walk_list),
        default=0,
    )
    groups = {
        ways: _KernelGroup(
            capacity=min(total, MAX_BATCH_ACCESSES + largest),
            block_dtype=(
                np.dtype(np.int64)
                if rows[ways] >= (1 << 31)
                else batch.blocks.dtype
            ),
            mask_dtype=np.dtype(np.int16 if ways <= 15 else np.int64),
        )
        for ways, total in totals.items()
    }
    misses: list[Optional[np.ndarray]] = [None] * len(walk_list)
    gathered: Optional[Union[_Schedule, _WarmUp]] = None
    for walk_index, (variant_index, schedule, state) in enumerate(
        walk_list
    ):
        if schedule is not gathered:
            stream_blocks, stream_jobs = _stream_gather(batch, schedule)
            gathered = schedule
        geometry = variants[variant_index][0]
        group = groups[geometry.columns]
        group.add(
            walk_index,
            stream_blocks,
            stream_jobs,
            geometry,
            mask_tables[variant_index],
            state,
        )
        if group.buffered >= MAX_BATCH_ACCESSES:
            group.flush(misses)
    for group in groups.values():
        group.flush(misses)
    return [walk_misses for walk_misses in misses if walk_misses is not None]


# ----------------------------------------------------------------------
# Public entry point
# ----------------------------------------------------------------------
def simulate_multitask_matrix(
    variants: Sequence[tuple[CacheGeometry, Sequence[Job]]],
    quanta: Sequence[int],
    budget_instructions: int,
    warmup_passes: int = 0,
    kernel: Optional[str] = None,
) -> list[list[dict[str, JobResult]]]:
    """Run a (variant x quantum) experiment matrix through the kernel.

    ``variants`` are (geometry, jobs) pairs that must share the same
    job names, traces, address offsets and line size — they may differ
    in cache size, column count and column masks (Figure 5's
    shared/mapped x 16K/128K matrix).  Each variant warms up once, and
    every point starts from a copy of its variant's warm state.

    ``kernel`` selects the lockstep backend for this matrix
    (``"numpy"`` / ``"compiled"`` / ``"auto"``; None follows the
    session's active backend).  It decides only how the walks (the
    warm-ups, then the points) run.  On the compiled backend each
    warm-up is one fused schedule walk and each point one call of the
    C round-robin walk with no cap, which cuts each quantum as it
    walks it; a matrix with a variant wider than the C kernel's 63
    ways runs wholly on numpy.  On numpy each quantum's schedule is
    built once and reused by every variant, and same-associativity
    walks share stacked lockstep calls.  Results are bit-identical
    either way.

    Returns ``results[variant_index][quantum_index]``, each entry
    equivalent to ``MultitaskSimulator`` + ``warm_up(warmup_passes)``
    + ``run(quantum, budget_instructions)``.

    Raises:
        ValueError: on negative ``warmup_passes`` (before any work),
            no variant, a variant without jobs, duplicate job names,
            variants that differ in line size or jobs, a job mask that
            names a way above 62, a quantum or budget below 1, or a
            quantum above ``2**63 - 1`` minus some job's pass total
            (:func:`~repro.utils.validation.check_quantum`); all before
            the warm-up.
    """
    if warmup_passes < 0:
        raise ValueError(f"passes must be >= 0, got {warmup_passes}")
    if not variants:
        raise ValueError("need at least one variant")
    for geometry, jobs in variants:
        if not jobs:
            raise ValueError("need at least one job")
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate job names: {names}")
    base_geometry = variants[0][0]
    batch_lists = [
        [_BatchJob(job, geometry) for job in jobs]
        for geometry, jobs in variants
    ]
    base_jobs = batch_lists[0]
    for geometry, batch_jobs in zip(
        (geometry for geometry, _ in variants), batch_lists
    ):
        if geometry.line_size != base_geometry.line_size:
            raise ValueError(
                "matrix variants must share one line size (the "
                "schedule and block streams are computed once)"
            )
        if len(batch_jobs) != len(base_jobs):
            raise ValueError("matrix variants must share their jobs")
        for batch_job, base_job in zip(batch_jobs, base_jobs):
            if batch_job.name != base_job.name or not np.array_equal(
                batch_job.blocks, base_job.blocks
            ):
                raise ValueError(
                    "matrix variants must share job traces and "
                    "address offsets"
                )

    budget = int(budget_instructions)
    for quantum in quanta:
        check_window(len(base_jobs), int(quantum), budget, 0)
        for batch_job in base_jobs:
            check_quantum(int(quantum), int(batch_job.cum[-1]))

    # int16 mask palette where the variant's own associativity allows
    # (ways <= 15): the numpy path gathers per-access mask columns from
    # these, so the narrow dtype flows through buffering and the kernel.
    mask_tables = [
        np.array(
            [batch_job.mask_bits for batch_job in batch_jobs],
            dtype=(np.int16 if geometry.columns <= 15 else np.int64),
        )
        for (geometry, _jobs), batch_jobs in zip(variants, batch_lists)
    ]
    kernel_name = (
        backends.active_backend()
        if kernel is None
        else backends.resolve_backend(kernel)
    )
    compiled = kernel_name == "compiled" and all(
        _compiled.supports(geometry.columns) for geometry, _jobs in variants
    )
    batch = TenantBatch.build(
        [batch_job.blocks for batch_job in base_jobs]
    )

    # The warm-up stream is identical for every quantum of a variant,
    # and cache evolution is a pure function of (state, stream): warm
    # each variant once and start every point from a copy.
    warm_states = [
        LockstepState.cold(geometry.sets, geometry.columns)
        for geometry, _jobs in variants
    ]
    if warmup_passes:
        warm_up = _WarmUp(batch, warmup_passes)
        if compiled:
            for (geometry, _jobs), mask_table, state in zip(
                variants, mask_tables, warm_states
            ):
                fused_multitask_run(
                    batch,
                    warm_up,
                    mask_table,
                    state,
                    sets_mask=geometry.sets - 1,
                    index_bits=geometry.index_bits,
                    backend="compiled",
                )
        else:
            _stacked_walks(
                variants,
                batch,
                mask_tables,
                [
                    (variant_index, warm_up, state)
                    for variant_index, state in enumerate(warm_states)
                ],
            )
    points = [
        (variant_index, quantum_index)
        for quantum_index in range(len(quanta))
        for variant_index in range(len(variants))
    ]
    if compiled:
        point_rows = _segment_rows(
            variants, base_jobs, mask_tables, warm_states, quanta, budget,
            points,
        )
    else:
        point_rows = _schedule_rows(
            variants, batch, base_jobs, mask_tables, warm_states, quanta,
            budget, points,
        )
    results: list[list[dict[str, JobResult]]] = [[] for _ in variants]
    for (variant_index, _quantum_index), rows in zip(points, point_rows):
        results[variant_index].append(_results_for_point(base_jobs, rows))
    return results
