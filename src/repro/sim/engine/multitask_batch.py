"""Batched multitasking simulation: closed-form schedule + lockstep LRU.

The reference :class:`~repro.sim.multitask.MultitaskSimulator` walks
the schedule one quantum slice at a time, which costs Python
bookkeeping per quantum (brutal at quantum=1: one ``searchsorted`` per
access), and then runs the walked stream through the cache.  This
module exploits three structural facts:

1. **The schedule does not depend on cache contents.**  A quantum ends
   after a fixed number of instructions, and instruction counts come
   from the trace alone — so where every quantum starts and stops is a
   pure function of (traces, quantum, budget).  The start positions of
   a job's successive quanta are the orbit of the successor map
   "position -> position after one quantum".  On the compiled kernel
   one C call (``repro_quantum_orbit``) walks that orbit quantum by
   quantum, galloping to each quantum's end from the cursor, so it
   costs O(quanta x log accesses-per-quantum) and builds no table over
   the trace.  On the numpy kernel the closed-form tables
   (:func:`~repro.sim.multitask.quantum_tables`) compute the map for
   *all* positions at once with vectorized ``searchsorted``, and
   :func:`~repro.sim.multitask.orbit_positions` unrolls it; that path
   is also the reference the C orbit is tested against.

2. **The cache stream is then data-parallel.**  With the schedule in
   closed form, the full interleaved access stream (round-robin
   quanta, wrapped traces) is materialized with numpy gathers and fed
   to the lockstep kernel, and many sweep points share one kernel
   invocation by stacking each point's sets as extra independent rows
   (the compiled kernel instead walks the schedule's segments in C).

3. **The schedule is geometry-free.**  Cache size, column count and
   column masks do not enter the schedule, so a whole experiment
   matrix (several geometries x mapped/shared x all quanta — Figure 5
   is exactly this) reuses each quantum's schedule, its per-job
   totals (instructions, accesses, wraps, quanta) and its access
   stream across every variant.

Results are bit-identical to the per-quantum simulator (asserted by the
equivalence tests): same hits, misses, instructions, wraps and quantum
counts per job, hence the same CPI to the last ulp.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.sim.engine import _compiled, backends
from repro.sim.engine.batched import (
    DEFAULT_SCALAR_CUTOFF,
    LockstepState,
    lockstep_run,
    narrow_blocks,
)
from repro.sim.multitask import (
    Job,
    JobResult,
    orbit_positions as _orbit_positions,
    quantum_tables as _quantum_tables,
)

#: Flush lockstep batches beyond this many buffered accesses.  Kernel
#: wall time scales with *rounds* (the max accesses landing on one
#: row), not buffered volume, so wider batches are strictly faster as
#: long as the access arrays fit in memory (~100 bytes per access at
#: the flush peak); the whole paper-sized Figure 5 matrix fits one
#: flush.
DEFAULT_MAX_BATCH_ACCESSES = 64_000_000


class _BatchJob:
    """Precomputed per-job arrays shared by every sweep point."""

    def __init__(self, job: Job, geometry: CacheGeometry) -> None:
        if len(job.trace) == 0:
            raise ValueError(f"job {job.name!r} has an empty trace")
        self.blocks = narrow_blocks(
            job.trace.blocks_for(geometry.offset_bits, job.address_offset)
        )
        self.cum = job.trace.cumulative_instructions
        self.total_instructions = int(self.cum[-1])
        self.mask_bits = job.mask_bits(geometry.columns)
        self.name = job.name


# ----------------------------------------------------------------------
# Closed-form schedule (the tables themselves live in sim/multitask —
# the fused fleet hot path consumes them too)
# ----------------------------------------------------------------------
def _job_quanta(
    batch_job: _BatchJob, quantum: int, count: int, compiled: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Start position, accesses, instructions, wraps of the job's
    first ``count`` quanta.

    On the compiled kernel one C call walks the orbit quantum by
    quantum; the numpy path builds the closed-form tables over every
    start position and unrolls their successor map, the reference
    the C orbit is held to.
    """
    if compiled:
        return _compiled.quantum_orbit_compiled(
            batch_job.cum, quantum, 0, count
        )
    next_pos, accesses, ran, wraps = _quantum_tables(
        batch_job.cum, quantum
    )
    positions = _orbit_positions(next_pos, count)
    return positions, accesses[positions], ran[positions], wraps[positions]


class _Schedule:
    """The global round-robin schedule of one sweep point.

    Besides the per-quantum columns it holds each job's totals over
    the schedule (``job_instructions``, ``job_accesses``,
    ``job_wraps``, ``job_quanta``), which every variant's results
    share.
    """

    def __init__(
        self,
        batch_jobs: Sequence[_BatchJob],
        quantum: int,
        budget: int,
        compiled: bool = False,
    ) -> None:
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {quantum}")
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        job_count = len(batch_jobs)
        # Every quantum runs >= `quantum` instructions, so this bounds
        # the number of quanta the budget can demand.
        global_bound = -(-budget // quantum)
        per_job = -(-global_bound // job_count) + 1
        # (column, round, job): row r of a column is round-robin round r.
        table = np.empty((4, per_job, job_count), dtype=np.int64)
        for index, batch_job in enumerate(batch_jobs):
            quanta = _job_quanta(batch_job, quantum, per_job, compiled)
            for column, values in zip(table, quanta):
                column[:, index] = values
        flat = table.reshape(4, -1)
        executed = np.cumsum(flat[2])
        total_quanta = int(np.searchsorted(executed, budget, "left")) + 1
        job_indices = np.arange(job_count, dtype=np.int64)
        self.job_ids = np.tile(job_indices, per_job)[:total_quanta]
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

    def access_stream(
        self, batch_jobs: Sequence[_BatchJob]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Materialize ``(blocks, job_id)`` per scheduled access."""
        lengths = self.accesses
        total = self.total_accesses
        seg_starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1])
        )
        intra = np.arange(total, dtype=np.int64) - np.repeat(
            seg_starts, lengths
        )
        trace_lengths = np.array(
            [len(batch_job.blocks) for batch_job in batch_jobs],
            dtype=np.int64,
        )
        job_per_access = np.repeat(self.job_ids, lengths)
        trace_pos = (
            np.repeat(self.positions, lengths) + intra
        ) % trace_lengths[job_per_access]
        offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(trace_lengths)[:-1])
        )
        blocks_concat = np.concatenate(
            [batch_job.blocks for batch_job in batch_jobs]
        )
        stream_blocks = blocks_concat[offsets[job_per_access] + trace_pos]
        return stream_blocks, job_per_access


def _warmup_stream(
    batch_jobs: Sequence[_BatchJob], passes: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(blocks, job_id)`` of the warm-up phase (job order, then
    passes), matching :meth:`MultitaskSimulator.warm_up`."""
    blocks_parts = []
    job_parts = []
    for index, batch_job in enumerate(batch_jobs):
        if passes:
            tiled = np.tile(batch_job.blocks, passes)
            blocks_parts.append(tiled)
            job_parts.append(
                np.full(len(tiled), index, dtype=np.int64)
            )
    if not blocks_parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(blocks_parts), np.concatenate(job_parts)


def _results_for_point(
    batch_jobs: Sequence[_BatchJob],
    schedule: _Schedule,
    misses: np.ndarray,
) -> dict[str, JobResult]:
    """Assemble per-job :class:`JobResult`\\ s from per-job misses
    and the schedule's per-job totals."""
    return {
        batch_job.name: JobResult(
            name=batch_job.name,
            instructions=int(schedule.job_instructions[index]),
            accesses=int(schedule.job_accesses[index]),
            hits=int(schedule.job_accesses[index] - misses[index]),
            misses=int(misses[index]),
            wraps=int(schedule.job_wraps[index]),
            quanta=int(schedule.job_quanta[index]),
        )
        for index, batch_job in enumerate(batch_jobs)
    }


class _KernelGroup:
    """Accumulates same-associativity points into one lockstep call.

    Streams are assembled straight into preallocated column buffers
    (rows, tags, masks, counting segments) — no per-point temporaries,
    no flush-time concatenation of the access arrays.
    """

    def __init__(
        self,
        ways: int,
        scalar_cutoff: int,
        capacity: int,
        block_dtype: np.dtype,
        mask_dtype: np.dtype,
        backend: Optional[str] = None,
    ) -> None:
        self.ways = ways
        self.scalar_cutoff = scalar_cutoff
        self.backend = backend
        self.capacity = capacity
        self._rows = np.empty(capacity, dtype=block_dtype)
        self._tags = np.empty(capacity, dtype=block_dtype)
        self._masks = np.empty(capacity, dtype=mask_dtype)
        self._segments = np.empty(capacity, dtype=np.int32)
        self.states: list[LockstepState] = []
        self.points: list[tuple[int, int, _Schedule]] = []
        self.row_count = 0
        self.buffered = 0
        self.segment_count = 0

    def add(
        self,
        variant_index: int,
        point_index: int,
        schedule: _Schedule,
        stream_blocks: np.ndarray,
        stream_jobs: np.ndarray,
        geometry: CacheGeometry,
        mask_table: np.ndarray,
        start_state: LockstepState,
        job_count: int,
    ) -> None:
        """Buffer one sweep point's stream as extra lockstep rows."""
        count = len(stream_blocks)
        span = slice(self.buffered, self.buffered + count)
        rows = self._rows[span]
        np.bitwise_and(stream_blocks, geometry.sets - 1, out=rows)
        np.add(rows, rows.dtype.type(self.row_count), out=rows)
        np.right_shift(
            stream_blocks, geometry.index_bits, out=self._tags[span]
        )
        np.take(mask_table, stream_jobs, out=self._masks[span])
        # One counting segment per (point, job): the kernel returns
        # miss positions, and a single bincount over these labels
        # yields every point's per-job misses at once.
        np.add(
            stream_jobs,
            self.segment_count,
            out=self._segments[span],
            casting="unsafe",
        )
        self.states.append(start_state)
        self.points.append((variant_index, point_index, schedule))
        self.row_count += start_state.rows
        self.buffered += count
        self.segment_count += job_count

    def flush(
        self,
        batch_lists: Sequence[Sequence[_BatchJob]],
        results: list[list[Optional[dict[str, JobResult]]]],
    ) -> None:
        """Run the buffered points in one kernel call; fill results."""
        if not self.points:
            return
        # Each point starts from a copy of its (shared, already warmed)
        # start state; concatenation copies, so the originals survive.
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
            scalar_cutoff=self.scalar_cutoff,
            collect="misses",
            backend=self.backend,
        )
        misses = np.bincount(
            segments[miss_positions], minlength=self.segment_count
        )
        base = 0
        for variant_index, point_index, schedule in self.points:
            job_count = len(batch_lists[variant_index])
            results[variant_index][point_index] = _results_for_point(
                batch_lists[variant_index],
                schedule,
                misses[base:base + job_count],
            )
            base += job_count
        self.states.clear()
        self.points.clear()
        self.row_count = 0
        self.buffered = 0
        self.segment_count = 0


def _simulate_matrix_compiled(
    variants: Sequence[tuple[CacheGeometry, Sequence[Job]]],
    batch_lists: Sequence[Sequence[_BatchJob]],
    mask_tables: Sequence[np.ndarray],
    quanta: Sequence[int],
    budget_instructions: int,
    warmup_passes: int,
) -> list[list[dict[str, JobResult]]]:
    """Matrix fast path on the compiled kernel: fused schedule walk.

    Each quantum's schedule comes from the C quantum orbit.  Instead
    of materializing its interleaved access stream and buffering
    (rows, tags, masks) columns for a stacked lockstep call, the C
    kernel walks the schedule's quantum segments directly over the
    concatenated per-job block arrays — zero stream assembly, one
    call per (variant, quantum).  The warm-up runs
    through the same entry as one wrap-around segment per job, which
    reproduces ``_warmup_stream``'s tiling exactly.  Results are
    bit-identical to the numpy path (the schedule, and therefore each
    set's access order, is the same).
    """
    base_jobs = batch_lists[0]
    job_count = len(base_jobs)
    job_lengths = np.array(
        [len(batch_job.blocks) for batch_job in base_jobs],
        dtype=np.int64,
    )
    job_offsets = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(job_lengths)[:-1])
    )
    blocks_concat = np.concatenate(
        [batch_job.blocks for batch_job in base_jobs]
    )
    schedules = [
        _Schedule(
            base_jobs, int(quantum), int(budget_instructions), compiled=True
        )
        for quantum in quanta
    ]
    warm_seg_jobs = np.arange(job_count, dtype=np.int64)
    warm_seg_pos = np.zeros(job_count, dtype=np.int64)
    warm_seg_len = job_lengths * np.int64(warmup_passes)
    results: list[list[dict[str, JobResult]]] = []
    for variant_index, (geometry, _jobs) in enumerate(variants):
        sets_mask = geometry.sets - 1
        index_bits = geometry.index_bits
        mask_table = np.ascontiguousarray(
            mask_tables[variant_index], dtype=np.int64
        )
        warm = LockstepState.cold(geometry.sets, geometry.columns)
        if warmup_passes:
            _compiled.schedule_count_compiled(
                warm_seg_jobs,
                warm_seg_pos,
                warm_seg_len,
                job_offsets,
                job_lengths,
                blocks_concat,
                mask_table,
                warm,
                sets_mask=sets_mask,
                index_bits=index_bits,
                job_hits=np.zeros(job_count, dtype=np.int64),
            )
        variant_results = []
        for schedule in schedules:
            state = LockstepState(
                tags=warm.tags.copy(),
                last_use=warm.last_use.copy(),
                clock=warm.clock.copy(),
            )
            job_hits = np.zeros(job_count, dtype=np.int64)
            _compiled.schedule_count_compiled(
                schedule.job_ids,
                schedule.positions,
                schedule.accesses,
                job_offsets,
                job_lengths,
                blocks_concat,
                mask_table,
                state,
                sets_mask=sets_mask,
                index_bits=index_bits,
                job_hits=job_hits,
            )
            variant_results.append(
                _results_for_point(
                    batch_lists[variant_index],
                    schedule,
                    schedule.job_accesses - job_hits,
                )
            )
        results.append(variant_results)
    return results


# ----------------------------------------------------------------------
# Public entry point
# ----------------------------------------------------------------------
def simulate_multitask_matrix(
    variants: Sequence[tuple[CacheGeometry, Sequence[Job]]],
    quanta: Sequence[int],
    budget_instructions: int,
    warmup_passes: int = 0,
    max_batch_accesses: int = DEFAULT_MAX_BATCH_ACCESSES,
    scalar_cutoff: int = DEFAULT_SCALAR_CUTOFF,
    kernel: Optional[str] = None,
) -> list[list[dict[str, JobResult]]]:
    """Run a (variant x quantum) experiment matrix through the kernel.

    ``variants`` are (geometry, jobs) pairs that must share the same
    job names, traces, address offsets and line size — they may differ
    in cache size, column count and column masks (Figure 5's
    shared/mapped x 16K/128K matrix).  The schedule and interleaved
    access stream of each quantum are computed once and reused by
    every variant; same-associativity points are stacked into shared
    lockstep calls.

    ``kernel`` selects the lockstep backend for this matrix
    (``"numpy"`` / ``"compiled"`` / ``"auto"``; None follows the
    session's active backend).  On the compiled backend the matrix
    takes a fused fast path — the C kernel computes each job's quantum
    orbit and walks the schedule directly, no access stream is
    materialized — with bit-identical results.

    Returns ``results[variant_index][quantum_index]``, each entry
    equivalent to ``MultitaskSimulator`` + ``warm_up(warmup_passes)``
    + ``run(quantum, budget_instructions)``.
    """
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

    # int16 mask palette where the variant's own associativity allows
    # (ways <= 15): per-access mask columns are gathered from these,
    # so the narrow dtype flows through buffering and the kernel.
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
    if kernel_name == "compiled" and all(
        _compiled.supports(geometry.columns)
        for geometry, _jobs in variants
    ):
        return _simulate_matrix_compiled(
            variants,
            batch_lists,
            mask_tables,
            quanta,
            budget_instructions,
            warmup_passes,
        )

    warm_blocks, warm_jobs = _warmup_stream(base_jobs, warmup_passes)

    # The warm-up stream is identical for every quantum of a variant,
    # and cache evolution is a pure function of (state, stream): warm
    # each variant once and start every point from a copy.  Variants
    # sharing an associativity warm in ONE lockstep call — their set
    # banks are disjoint rows, so stacking them multiplies round width
    # instead of round count.
    warm_states: list[Optional[LockstepState]] = [None] * len(variants)
    if len(warm_blocks):
        by_ways: dict[int, list[int]] = {}
        for variant_index, (geometry, _jobs) in enumerate(variants):
            by_ways.setdefault(geometry.columns, []).append(variant_index)
        for ways, variant_indices in by_ways.items():
            row_parts = []
            tag_parts = []
            mask_parts = []
            row_offset = 0
            offsets = []
            for variant_index in variant_indices:
                geometry = variants[variant_index][0]
                # Plain-int operands keep the narrow block dtype.
                row_parts.append(
                    (warm_blocks & (geometry.sets - 1)) + row_offset
                )
                tag_parts.append(warm_blocks >> geometry.index_bits)
                mask_parts.append(mask_tables[variant_index][warm_jobs])
                offsets.append(row_offset)
                row_offset += geometry.sets
            stacked = LockstepState.cold(row_offset, ways)
            lockstep_run(
                np.concatenate(row_parts),
                np.concatenate(tag_parts),
                stacked,
                mask_bits=np.concatenate(mask_parts),
                scalar_cutoff=scalar_cutoff,
                collect="misses",
                backend=kernel_name,
            )
            for variant_index, offset in zip(variant_indices, offsets):
                sets = variants[variant_index][0].sets
                warm_states[variant_index] = LockstepState(
                    tags=stacked.tags[offset:offset + sets].copy(),
                    last_use=stacked.last_use[offset:offset + sets].copy(),
                    clock=stacked.clock[offset:offset + sets].copy(),
                )
    for variant_index, (geometry, _jobs) in enumerate(variants):
        if warm_states[variant_index] is None:
            warm_states[variant_index] = LockstepState.cold(
                geometry.sets, geometry.columns
            )

    results: list[list[Optional[dict[str, JobResult]]]] = [
        [None] * len(quanta) for _ in variants
    ]

    # Schedules are geometry-free, so build them once up front; their
    # access totals size each kernel group's column buffers exactly
    # (bounded by the flush threshold plus one stream, since a flush
    # triggers only after an add crosses the threshold).
    schedules = [
        _Schedule(base_jobs, int(quantum), int(budget_instructions))
        for quantum in quanta
    ]
    per_ways_total: dict[int, int] = {}
    per_ways_rows: dict[int, int] = {}
    largest_stream = max(
        (schedule.total_accesses for schedule in schedules), default=0
    )
    for geometry, _jobs in variants:
        ways = geometry.columns
        per_ways_total[ways] = per_ways_total.get(ways, 0) + sum(
            schedule.total_accesses for schedule in schedules
        )
        per_ways_rows[ways] = (
            per_ways_rows.get(ways, 0) + geometry.sets * len(schedules)
        )
    block_dtype = base_jobs[0].blocks.dtype
    groups: dict[int, _KernelGroup] = {}
    for ways, total in per_ways_total.items():
        groups[ways] = _KernelGroup(
            ways,
            scalar_cutoff,
            capacity=min(total, max_batch_accesses + largest_stream),
            block_dtype=(
                np.dtype(np.int64)
                if per_ways_rows[ways] >= (1 << 31)
                else block_dtype
            ),
            mask_dtype=np.dtype(
                np.int16 if ways <= 15 else np.int64
            ),
            backend=kernel_name,
        )

    for point_index, schedule in enumerate(schedules):
        stream_blocks, stream_jobs = schedule.access_stream(base_jobs)
        for variant_index, (geometry, _jobs) in enumerate(variants):
            group = groups[geometry.columns]
            group.add(
                variant_index,
                point_index,
                schedule,
                stream_blocks,
                stream_jobs,
                geometry,
                mask_tables[variant_index],
                warm_states[variant_index],
                len(batch_lists[variant_index]),
            )
            if group.buffered >= max_batch_accesses:
                group.flush(batch_lists, results)
    for group in groups.values():
        group.flush(batch_lists, results)
    return [
        [point for point in variant_results if point is not None]
        for variant_results in results
    ]
