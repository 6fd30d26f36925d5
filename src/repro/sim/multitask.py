"""Round-robin multitasking simulation (paper Section 4.2).

Several jobs share one processor and one cache.  The scheduler grants
each job a *time quantum* (in instructions), round-robin.  Each job's
trace wraps when exhausted (the paper runs the compression jobs
continuously); cache state persists across context switches — that is
the entire point: at small quanta, the other jobs' intervening accesses
destroy a job's cache contents unless the column cache isolates it.

Per-job column masks express the mapped configuration: job A gets its
own columns, B and C share the rest.  ``mask = None`` means the full
cache (the standard shared configuration).

:class:`MultitaskSimulator` walks the schedule one quantum slice at a
time through :func:`next_quantum_slice` — the independent reference the
closed-form schedule is held to — and runs the walked slices through
the lockstep cache in one pass.  Besides that simulator, this module
owns the **closed-form quantum schedule**: because a quantum ends
after a fixed number of instructions and instruction counts come from
the trace alone, where every quantum starts and stops is a pure
function of (traces, quantum, budget) — no cache state involved.
:func:`quantum_tables` computes one quantum from *every* start
position at once and :meth:`QuantumWalkTables.orbit` unrolls the
successor map; the batched sweep engine
(:mod:`repro.sim.engine.multitask_batch`) schedules through these two
on the numpy kernel.  :func:`quantum_schedule` assembles a whole
round-robin scheduling window (with exact, instruction-precise budget
boundaries), which the fleet segment's numpy path
(:func:`repro.sim.engine.fused.fleet_segment`) walks.  On the compiled
kernel one C walk cuts each quantum by :func:`single_quantum`'s
formula as it runs it, for both: a fleet segment, its final quantum
cut to the budget, and a Figure 5 point, every quantum whole.
:func:`circular_slices` names the one circular range of trace
positions each tenant runs in a window.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.sim.config import TimingConfig
from repro.sim.engine.batched import LockstepCache
from repro.trace.trace import Trace
from repro.utils.bitvector import ColumnMask
from repro.utils.validation import check_mask_ways, check_quantum


def next_quantum_slice(
    cumulative: np.ndarray, position: int, remaining: int
) -> tuple[int, int]:
    """One atomic trace slice of a scheduling quantum.

    Given a job's cumulative instruction counts (``cumulative[i]`` =
    instructions contributed by accesses ``0..i`` of the current pass),
    the current trace ``position`` and the ``remaining`` instructions of
    the quantum, returns ``(stop, ran)``: the slice ``[position,
    stop)`` to execute next (never crossing the end of the trace) and
    the instructions it runs.  An access and its gap are atomic, so the
    slice may overshoot ``remaining`` by the final access's
    instructions; a quantum of 1 advances exactly one access.

    This is the single source of truth for step-by-step quantum
    slicing: the round-robin :class:`MultitaskSimulator` and the
    scalar fleet oracle under ``tests/oracles/`` both slice
    through it, and the closed-form :func:`quantum_schedule` is held
    to it access-for-access.
    """
    done_before = 0 if position == 0 else int(cumulative[position - 1])
    target = done_before + remaining
    stop = int(np.searchsorted(cumulative, target, side="right"))
    if stop == position:
        stop = position + 1  # atomic access: make progress
    stop = min(stop, len(cumulative))
    ran = int(cumulative[stop - 1]) - done_before
    return stop, ran


# ----------------------------------------------------------------------
# Closed-form schedule
# ----------------------------------------------------------------------
def quantum_tables(
    cumulative: np.ndarray, quantum: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One quantum from *every* start position, vectorized.

    For start position ``p`` with ``I(p)`` instructions already
    consumed this pass, the quantum ends at the first access whose
    cumulative instruction count reaches ``I(p) + quantum`` — counting
    across wraps.  Returns ``(next_pos, accesses, ran, wraps)`` arrays
    indexed by start position, where ``ran`` includes the atomic
    overshoot of the final access, exactly like the iterative
    :func:`next_quantum_slice` loop in
    :meth:`MultitaskSimulator._run_quantum`.

    Raises:
        ValueError: when ``quantum`` is outside
            ``[1, 2**63 - 1 - cumulative[-1]]``
            (:func:`~repro.utils.validation.check_quantum`).
    """
    n = len(cumulative)
    total = int(cumulative[-1])
    check_quantum(quantum, total)
    cum_prev = np.concatenate(
        (np.zeros(1, dtype=np.int64), cumulative[:-1])
    )
    target = cum_prev + np.int64(quantum)
    full_passes = (target - 1) // total
    within = target - full_passes * total  # in [1, total]
    end = np.searchsorted(cumulative, within, side="left")
    next_raw = end + 1
    wrap_extra = next_raw >= n
    next_pos = np.where(wrap_extra, 0, next_raw)
    wraps = full_passes + wrap_extra
    accesses = full_passes * n + next_raw - np.arange(n, dtype=np.int64)
    ran = full_passes * total + cumulative[end] - cum_prev
    return next_pos.astype(np.int64), accesses, ran, wraps


class QuantumWalkTables:
    """Memoized closed-form tables for one ``(trace, quantum)`` pair.

    Holds the per-start-position quantum tables plus the composed
    successor powers ``next^(2^k)`` that orbit unrolling needs.  A
    steady-state caller (the fleet's segment loop on the numpy
    kernel) schedules hundreds of windows over the
    same resident traces; rebuilding the O(trace)-sized tables and
    re-composing the doubling maps every window would dwarf the kernel
    walk itself at small windows.  Through :func:`walk_tables` the
    build happens once per resident trace and every subsequent window
    costs only O(quanta) gathers.
    """

    def __init__(self, cumulative: np.ndarray, quantum: int):
        (
            self.next_pos,
            self.accesses,
            self.ran,
            self.wraps,
        ) = quantum_tables(cumulative, quantum)
        self._powers = [self.next_pos]

    def orbit(self, start: int, count: int) -> np.ndarray:
        """First ``count`` orbit positions from ``start`` (none for 0).

        Binary doubling: a length-``m`` prefix extends to ``2m`` by
        applying the composed map ``next^m`` to it, so this is
        O(count + n log count) vectorized gathers instead of a Python
        pointer chase — repeats in the orbit are simply carried along,
        no cycle bookkeeping needed.  The composed ``next^(2^k)`` maps
        persist across calls, so repeat windows skip the O(trace)
        compositions.
        """
        out = np.empty(count, dtype=np.int64)
        out[:1] = start
        filled = 1
        step = 0
        while filled < count:
            if step == len(self._powers):
                last = self._powers[-1]
                self._powers.append(last[last])
            take = min(filled, count - filled)
            out[filled : filled + take] = self._powers[step][out[:take]]
            filled += take
            step += 1
        return out


#: Bounded identity-keyed cache of :class:`QuantumWalkTables`.  An
#: entry pins its cumulative array, so while it lives no *different*
#: array can occupy the same ``id()``; lookups still re-check identity
#: so a recycled id after eviction can never alias.
_WALK_TABLES: (
    "OrderedDict[tuple[int, int], tuple[np.ndarray, QuantumWalkTables]]"
) = OrderedDict()
_WALK_TABLES_MAX = 64


def walk_tables(
    cumulative: np.ndarray, quantum: int
) -> QuantumWalkTables:
    """The memoized :class:`QuantumWalkTables` for this trace + quantum."""
    key = (id(cumulative), quantum)
    entry = _WALK_TABLES.get(key)
    if entry is not None and entry[0] is cumulative:
        _WALK_TABLES.move_to_end(key)
        return entry[1]
    tables = QuantumWalkTables(cumulative, quantum)
    _WALK_TABLES[key] = (cumulative, tables)
    if len(_WALK_TABLES) > _WALK_TABLES_MAX:
        _WALK_TABLES.popitem(last=False)
    return tables


def single_quantum(
    cumulative: np.ndarray, position: int, amount: int
) -> tuple[int, int, int, int]:
    """One quantum of ``amount`` instructions from one start position.

    The scalar counterpart of :func:`quantum_tables` — same formula,
    one position — used to re-cut the final quantum of a scheduling
    window when the remaining budget is smaller than the full quantum.
    The compiled kernel's round-robin walk
    (:func:`repro.sim.engine._compiled.fleet_segment_compiled`) cuts
    every quantum by it.  Returns ``(next_pos, accesses, ran,
    wraps)``.
    """
    n = len(cumulative)
    total = int(cumulative[-1])
    done = 0 if position == 0 else int(cumulative[position - 1])
    target = done + amount
    full_passes = (target - 1) // total
    within = target - full_passes * total
    end = int(np.searchsorted(cumulative, within, side="left"))
    next_raw = end + 1
    wrapped = next_raw >= n
    next_pos = 0 if wrapped else next_raw
    accesses = full_passes * n + next_raw - position
    ran = full_passes * total + int(cumulative[end]) - done
    wraps = full_passes + (1 if wrapped else 0)
    return next_pos, accesses, ran, wraps


@dataclass(frozen=True)
class QuantumSchedule:
    """A whole round-robin scheduling window in closed form.

    Arrays are indexed by scheduled quantum (global round-robin
    order); ``tenant_ids[q]`` indexes the caller's tenant list.  The
    window honours **exact budget boundaries**: the final quantum is
    cut to the remaining instruction budget, so ``executed`` overshoots
    the budget by at most the atomic final access — never by a whole
    quantum.

    Attributes:
        tenant_ids: Tenant index of each scheduled quantum.
        positions: Trace cursor each quantum starts from.
        accesses: Accesses each quantum performs (wraps included).
        ran: Instructions each quantum runs.
        wraps: Trace wraps each quantum causes.
        next_positions: Per-tenant trace cursor after the window.
        executed: Total instructions the window runs.
        next_turn: Round-robin index due after the window.
        total_accesses: Sum of ``accesses``.
    """

    tenant_ids: np.ndarray
    positions: np.ndarray
    accesses: np.ndarray
    ran: np.ndarray
    wraps: np.ndarray
    next_positions: np.ndarray
    executed: int
    next_turn: int
    total_accesses: int


def circular_slices(
    start: int, accesses: int, length: int
) -> list[tuple[int, int]]:
    """``accesses`` positions of a ``length``-access trace from
    ``start``, wrapping at its end, as ``[start, stop)`` pieces.

    A tenant's quanta in one window continue one another (each starts
    where the last stopped, the budget-cut final quantum too), so what
    it ran in a :class:`QuantumSchedule` is this one circular range
    from the cursor it held before the window, its ``accesses`` summed.
    """
    pieces: list[tuple[int, int]] = []
    while accesses > 0:
        stop = min(start + accesses, length)
        pieces.append((start, stop))
        accesses -= stop - start
        start = 0
    return pieces


def check_window(
    tenants: int, quantum: int, budget: int, start_at: int
) -> None:
    """Validate a round-robin window's shape.

    Raises:
        ValueError: when there is no tenant, ``quantum`` or ``budget``
            is below 1, or ``start_at`` is not a tenant index.
    """
    if tenants == 0:
        raise ValueError("need at least one tenant")
    if quantum < 1:
        raise ValueError(f"quantum must be >= 1, got {quantum}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if not 0 <= start_at < tenants:
        raise ValueError(
            f"start_at {start_at} out of range 0..{tenants - 1}"
        )


def quantum_schedule(
    cumulatives: Sequence[np.ndarray],
    positions: Sequence[int],
    quantum: int,
    budget: int,
    start_at: int = 0,
) -> QuantumSchedule:
    """Schedule a round-robin window over ``cumulatives`` in closed form.

    Tenants run in index order starting from ``start_at``, each for
    ``quantum`` instructions (atomic-access overshoot included), until
    at least ``budget`` instructions have run — except the **final**
    quantum, which is scheduled with the *remaining* budget when that
    is smaller than the quantum, making the window boundary exact.
    This matches a step-by-step :func:`next_quantum_slice` walk
    access-for-access.
    """
    count = len(cumulatives)
    check_window(count, quantum, budget, start_at)
    # Every full quantum runs >= `quantum` instructions, so this bounds
    # the number of quanta the budget can demand.
    global_bound = -(-budget // quantum)
    per_tenant = -(-global_bound // count) + 1
    order = [(start_at + offset) % count for offset in range(count)]
    # Interleaved (round, slot) matrices: row r is round-robin round r.
    starts_mat = np.empty((per_tenant, count), dtype=np.int64)
    accesses_mat = np.empty((per_tenant, count), dtype=np.int64)
    ran_mat = np.empty((per_tenant, count), dtype=np.int64)
    wraps_mat = np.empty((per_tenant, count), dtype=np.int64)
    orbits: dict[int, np.ndarray] = {}
    for slot, tenant in enumerate(order):
        tables = walk_tables(cumulatives[tenant], quantum)
        orbit = tables.orbit(int(positions[tenant]), per_tenant + 1)
        orbits[tenant] = orbit
        starts = orbit[:-1]
        starts_mat[:, slot] = starts
        accesses_mat[:, slot] = tables.accesses[starts]
        ran_mat[:, slot] = tables.ran[starts]
        wraps_mat[:, slot] = tables.wraps[starts]
    ran_flat = ran_mat.ravel()
    executed_cum = np.cumsum(ran_flat)
    total_quanta = int(np.searchsorted(executed_cum, budget, "left")) + 1
    take = slice(0, total_quanta)
    tenant_ids = np.resize(
        np.array(order, dtype=np.int64), total_quanta
    )
    sched_positions = starts_mat.ravel()[take].copy()
    sched_accesses = accesses_mat.ravel()[take].copy()
    sched_ran = ran_flat[take].copy()
    sched_wraps = wraps_mat.ravel()[take].copy()
    # Exact boundary: re-cut the final quantum to the remaining budget.
    done_before_last = (
        int(executed_cum[total_quanta - 2]) if total_quanta > 1 else 0
    )
    remaining_budget = budget - done_before_last
    last_tenant = int(tenant_ids[-1])
    truncated_next: Optional[int] = None
    if remaining_budget < quantum:
        next_pos_last, accesses_last, ran_last, wraps_last = (
            single_quantum(
                cumulatives[last_tenant],
                int(sched_positions[-1]),
                remaining_budget,
            )
        )
        sched_accesses[-1] = accesses_last
        sched_ran[-1] = ran_last
        sched_wraps[-1] = wraps_last
        truncated_next = next_pos_last
    executed = done_before_last + int(sched_ran[-1])
    # Per-tenant cursors after the window: the orbit entry right after
    # the tenant's last scheduled quantum (the truncated final quantum
    # overrides its tenant's cursor).
    next_positions = np.array(positions, dtype=np.int64)
    quanta_per_tenant = np.bincount(tenant_ids, minlength=count)
    for tenant in order:
        ran_count = int(quanta_per_tenant[tenant])
        if ran_count:
            next_positions[tenant] = orbits[tenant][ran_count]
    if truncated_next is not None:
        next_positions[last_tenant] = truncated_next
    return QuantumSchedule(
        tenant_ids=tenant_ids,
        positions=sched_positions,
        accesses=sched_accesses,
        ran=sched_ran,
        wraps=sched_wraps,
        next_positions=next_positions,
        executed=executed,
        next_turn=(start_at + total_quanta) % count,
        total_accesses=int(sched_accesses.sum()),
    )


@dataclass
class Job:
    """One schedulable job: a trace plus its column mask.

    Attributes:
        name: Job name.
        trace: The job's reference stream (wraps at the end).
        mask: Columns the job's data may replace into (None = all).
        address_offset: Relocation applied to the trace so jobs live in
            disjoint address spaces.
    """

    name: str
    trace: Trace
    mask: Optional[ColumnMask] = None
    address_offset: int = 0

    def mask_bits(self, columns: int) -> int:
        """The job's replacement mask as raw bits.

        Raises:
            ValueError: when the mask's width is not ``columns``, or
                the mask names a way above 62 (an unmasked job on 64
                or more columns does): the simulators keep per-job
                masks as int64, which name ways 0-62.
        """
        if self.mask is None:
            bits = (1 << columns) - 1
        elif self.mask.width != columns:
            raise ValueError(
                f"job {self.name!r} mask width {self.mask.width} does not "
                f"match {columns} columns"
            )
        else:
            bits = self.mask.bits
        return check_mask_ways(bits, f"job {self.name!r}")


@dataclass
class JobResult:
    """Measured behaviour of one job over the simulated window."""

    name: str
    instructions: int = 0
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    wraps: int = 0
    quanta: int = 0

    def cpi(self, timing: TimingConfig) -> float:
        """Clocks per instruction under the given timing."""
        if self.instructions == 0:
            return 0.0
        cycles = (
            self.instructions
            + self.misses * timing.miss_penalty
            + self.quanta * timing.context_switch_cycles
        )
        return cycles / self.instructions

    @property
    def miss_rate(self) -> float:
        """Miss rate over the job's accesses."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class _JobState:
    """Precomputed arrays + cursor for one job."""

    def __init__(self, job: Job, geometry: CacheGeometry):
        self.job = job
        self.blocks = job.trace.blocks_for(
            geometry.offset_bits, job.address_offset
        )
        # cumulative[i] = instructions contributed by accesses 0..i.
        self.cumulative = job.trace.cumulative_instructions
        self.total_instructions = int(self.cumulative[-1]) if len(
            self.cumulative
        ) else 0
        self.mask_bits = 0  # filled by the simulator
        self.position = 0
        self.result = JobResult(name=job.name)


class MultitaskSimulator:
    """Round-robin scheduler over a shared column cache.

    :meth:`run` walks the schedule quantum by quantum, slice by slice,
    then replays the walked slices in schedule order — each access
    under its job's mask — through one
    :class:`~repro.sim.engine.batched.LockstepCache` pass; the cache
    never needs stepping per slice, because the schedule does not
    depend on cache contents.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        jobs: Sequence[Job],
        timing: Optional[TimingConfig] = None,
    ):
        if not jobs:
            raise ValueError("need at least one job")
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate job names: {names}")
        self.geometry = geometry
        self.timing = timing or TimingConfig()
        self.cache = LockstepCache(geometry)
        self._states = [_JobState(job, geometry) for job in jobs]
        for state in self._states:
            state.mask_bits = state.job.mask_bits(geometry.columns)
            if len(state.blocks) == 0:
                raise ValueError(f"job {state.job.name!r} has an empty trace")
        lengths = np.array(
            [len(state.blocks) for state in self._states], dtype=np.int64
        )
        self._offsets = np.cumsum(lengths) - lengths
        self._blocks = np.concatenate(
            [state.blocks for state in self._states]
        )
        self._mask_table = np.array(
            [state.mask_bits for state in self._states], dtype=np.int64
        )

    def warm_up(self, passes: int = 1) -> None:
        """Run every job's full trace ``passes`` times, then reset
        the per-job counters and trace cursors.

        This populates the cache with steady-state contents so the
        measured CPI reflects scheduling interference, not cold-miss
        amortization.
        """
        if passes < 0:
            raise ValueError(f"passes must be >= 0, got {passes}")
        for state in self._states:
            for _ in range(passes):
                self.cache.run(
                    state.blocks, uniform_mask=state.mask_bits
                )
        for state in self._states:
            state.position = 0
            state.result = JobResult(name=state.job.name)

    def run(
        self,
        quantum_instructions: int,
        total_instructions: int,
    ) -> dict[str, JobResult]:
        """Round-robin all jobs until the instruction budget is spent.

        A quantum ends when the job has executed at least
        ``quantum_instructions`` since it was scheduled (an access and
        its gap are atomic, so a quantum may overshoot by one access's
        instructions — quantum 1 switches after every access).
        """
        if quantum_instructions < 1:
            raise ValueError(
                f"quantum must be >= 1, got {quantum_instructions}"
            )
        if total_instructions < 1:
            raise ValueError(
                f"budget must be >= 1, got {total_instructions}"
            )
        executed_total = 0
        job_index = 0
        slices: list[tuple[int, int, int]] = []
        while executed_total < total_instructions:
            executed_total += self._run_quantum(
                job_index, quantum_instructions, slices
            )
            job_index = (job_index + 1) % len(self._states)
        self._simulate(slices)
        return self.results()

    def _run_quantum(
        self, job_index: int, quantum: int, slices: list
    ) -> int:
        """Walk one quantum of one job, appending its ``(job, start,
        stop)`` trace slices; returns instructions run."""
        state = self._states[job_index]
        remaining = quantum
        executed = 0
        result = state.result
        result.quanta += 1
        while remaining > 0:
            stop, ran = next_quantum_slice(
                state.cumulative, state.position, remaining
            )
            slices.append((job_index, state.position, stop))
            result.instructions += ran
            result.accesses += stop - state.position
            executed += ran
            remaining -= ran
            state.position = stop
            if state.position >= len(state.blocks):
                state.position = 0
                result.wraps += 1
        return executed

    def _simulate(self, slices: list[tuple[int, int, int]]) -> None:
        """Run the walked slices through the cache in one pass and
        credit each job its hits and misses."""
        if not slices:
            return
        jobs, starts, stops = (
            np.array(column, dtype=np.int64) for column in zip(*slices)
        )
        lengths = stops - starts
        job_per_access = np.repeat(jobs, lengths)
        # Access k of slice s reads _blocks[offset(job) + start + k].
        stream_start = np.cumsum(lengths) - lengths
        positions = np.arange(len(job_per_access), dtype=np.int64)
        positions += np.repeat(
            self._offsets[jobs] + starts - stream_start, lengths
        )
        hit_flags = self.cache.run_with_flags(
            self._blocks[positions],
            mask_bits=self._mask_table[job_per_access],
        )
        count = len(self._states)
        hits = np.bincount(job_per_access[hit_flags], minlength=count)
        accesses = np.bincount(job_per_access, minlength=count)
        for index, state in enumerate(self._states):
            state.result.hits += int(hits[index])
            state.result.misses += int(accesses[index] - hits[index])

    def results(self) -> dict[str, JobResult]:
        """Per-job results accumulated so far."""
        return {state.job.name: state.result for state in self._states}
