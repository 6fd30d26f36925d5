"""Fused multi-tenant quantum walks: the fleet's and Figure 5's.

Round-robin quanta over one shared lockstep state run here, a whole
walk per kernel entry, never re-entering Python per quantum.  Two
entries:

* :func:`fleet_segment` runs one scheduling segment of the fleet
  (:class:`~repro.fleet.service.shard.ShardServer`): round-robin
  quanta from the rotation's resident, the final one cut to what is
  left of the budget, with per-resident counts, cursors and
  working-set signatures.  On the **compiled** kernel it is one call
  of the C kernel's ``repro_fleet_segment``, which cuts each quantum
  from the resident's cursor as it walks it: no schedule, no
  concatenated batch, no per-resident call (the Figure 5 matrix's
  points run through the same call with every quantum whole).  On
  **numpy** it builds the closed-form
  :func:`~repro.sim.multitask.quantum_schedule`, walks it with
  :func:`fused_multitask_run` and folds each resident's circular
  window with :func:`~repro.runtime.detector.working_set_signature`.
* :func:`fused_multitask_run` runs a closed-form schedule built ahead
  (a :class:`SegmentWalk`: the Figure 5 matrix's warm-up, or the
  fleet's :class:`~repro.sim.multitask.QuantumSchedule` on numpy).
  The **compiled** path hands the schedule's ``(tenant, position,
  accesses)`` triples to the C kernel's ``repro_fused_multitask``
  walk, which strides each tenant's block array circularly; the
  **numpy** path materializes the stream with one vectorized gather
  (``_stream_gather``, which the Figure 5 matrix's stacked numpy walks
  use too) and feeds a single
  :func:`~repro.sim.engine.batched.lockstep_run` call.

Both backends return identical per-tenant tallies and, on request,
the per-access hit flags in global schedule order, so observer
snapshots, telemetry and differential traces stay bit-identical to
the scalar fleet oracle the test suite keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np

from repro.sim.engine import _compiled, backends
from repro.sim.engine.batched import (
    LockstepState,
    lockstep_run,
    narrow_blocks,
)
from repro.sim.multitask import (
    check_window,
    circular_slices,
    quantum_schedule,
)


@dataclass
class TenantBatch:
    """Concatenated per-tenant block arrays, kernel-ready.

    Built once per Figure 5 matrix, whose every walk strides it, and
    once per segment by :func:`fleet_segment`'s numpy path.

    Attributes:
        blocks: All tenants' block numbers, concatenated in tenant
            order (int32-narrowed when every block fits).
        offsets: Start of each tenant's slice inside ``blocks``.
        lengths: Length of each tenant's slice.
    """

    blocks: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray

    @classmethod
    def build(cls, tenant_blocks: Sequence[np.ndarray]) -> "TenantBatch":
        """Concatenate per-tenant block arrays into one batch."""
        if not tenant_blocks:
            raise ValueError("need at least one tenant")
        lengths = np.array(
            [len(blocks) for blocks in tenant_blocks], dtype=np.int64
        )
        if int(lengths.min()) == 0:
            raise ValueError("tenant traces must be non-empty")
        offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1])
        )
        blocks = narrow_blocks(np.concatenate(tenant_blocks))
        return cls(blocks=blocks, offsets=offsets, lengths=lengths)

    @property
    def tenants(self) -> int:
        """Number of tenants in the batch."""
        return len(self.lengths)


class SegmentWalk(Protocol):
    """The columns a schedule walk reads, one entry per segment.

    A :class:`~repro.sim.multitask.QuantumSchedule` is one, and so are
    the Figure 5 matrix's schedules and warm-up.
    """

    @property
    def tenant_ids(self) -> np.ndarray:
        """Tenant (batch index) each segment runs."""

    @property
    def positions(self) -> np.ndarray:
        """Trace position each segment starts from."""

    @property
    def accesses(self) -> np.ndarray:
        """Accesses each segment runs, wrapping at the trace's end."""

    @property
    def total_accesses(self) -> int:
        """Sum of ``accesses``."""


@dataclass(frozen=True)
class FusedWindowResult:
    """Per-tenant tallies of one fused scheduling window.

    Attributes:
        hits: Cache hits per tenant (indexed like the batch).
        hit_flags: Per-access hit flags in global schedule order when
            requested, else None.
        tenant_per_access: Tenant index of each access in schedule
            order (materialized only alongside ``hit_flags``).
    """

    hits: np.ndarray
    hit_flags: Optional[np.ndarray]
    tenant_per_access: Optional[np.ndarray]


def _stream_gather(
    batch: TenantBatch, schedule: SegmentWalk
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize ``(blocks, tenant_id)`` per scheduled access."""
    lengths = schedule.accesses
    total = schedule.total_accesses
    seg_starts = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1])
    )
    intra = np.arange(total, dtype=np.int64) - np.repeat(
        seg_starts, lengths
    )
    tenant_per_access = np.repeat(schedule.tenant_ids, lengths)
    trace_pos = (
        np.repeat(schedule.positions, lengths) + intra
    ) % batch.lengths[tenant_per_access]
    stream_blocks = batch.blocks[
        batch.offsets[tenant_per_access] + trace_pos
    ]
    return stream_blocks, tenant_per_access


def fused_multitask_run(
    batch: TenantBatch,
    schedule: SegmentWalk,
    mask_table: np.ndarray,
    state: LockstepState,
    *,
    sets_mask: int,
    index_bits: int,
    collect_flags: bool = False,
    backend: Optional[str] = None,
) -> FusedWindowResult:
    """Run one closed-form scheduling window through the kernel.

    Args:
        batch: The resident tenants' concatenated block arrays.
        schedule: The window's closed-form segments (tenant ids
            index the batch).
        mask_table: Per-tenant replacement masks (int64, one entry per
            batch tenant).
        state: Shared lockstep state, advanced in place.
        sets_mask: ``sets - 1`` of the geometry (row = block & mask).
        index_bits: Set-index bits (tag = block >> index_bits).
        collect_flags: Also return per-access hit flags (and the
            tenant id per access) in global schedule order.  Such a
            walk gathers its stream in numpy whatever the backend (the
            C schedule walk writes no flags).
        backend: Kernel backend override (``"numpy"``, ``"compiled"``,
            ``"auto"``); None uses the session's active backend.  An
            associativity the compiled kernel cannot represent
            (``ways > 63``) silently runs on numpy, mirroring
            :func:`~repro.sim.engine.batched.lockstep_run`.

    Returns:
        Per-tenant hits (plus flags when requested) —
        bit-identical across backends and to the scalar per-quantum
        reference loop.
    """
    tenants = batch.tenants
    if len(mask_table) != tenants:
        raise ValueError(
            f"mask_table has {len(mask_table)} entries for "
            f"{tenants} tenants"
        )
    backend_name = (
        backends.active_backend()
        if backend is None
        else backends.resolve_backend(backend)
    )
    table64 = np.ascontiguousarray(mask_table, dtype=np.int64)
    if (
        backend_name == "compiled"
        and _compiled.supports(state.ways)
        and not collect_flags
    ):
        hits = np.zeros(tenants, dtype=np.int64)
        _compiled.fused_multitask_compiled(
            schedule.tenant_ids,
            schedule.positions,
            schedule.accesses,
            batch.offsets,
            batch.lengths,
            batch.blocks,
            table64,
            state,
            sets_mask=sets_mask,
            index_bits=index_bits,
            job_hits=hits,
        )
        return FusedWindowResult(
            hits=hits, hit_flags=None, tenant_per_access=None
        )
    stream_blocks, tenant_per_access = _stream_gather(batch, schedule)
    rows = stream_blocks & sets_mask
    tags = stream_blocks >> index_bits
    masks = table64[tenant_per_access]
    if collect_flags:
        hit_flags, _ = lockstep_run(
            rows,
            tags,
            state,
            mask_bits=masks,
            collect="flags",
            backend=backend_name,
        )
        hits = np.bincount(
            tenant_per_access[hit_flags], minlength=tenants
        )
        return FusedWindowResult(
            hits=hits,
            hit_flags=hit_flags,
            tenant_per_access=tenant_per_access,
        )
    miss_positions = lockstep_run(
        rows,
        tags,
        state,
        mask_bits=masks,
        collect="misses",
        backend=backend_name,
    )
    accesses = np.bincount(tenant_per_access, minlength=tenants)
    misses = np.bincount(
        tenant_per_access[miss_positions], minlength=tenants
    )
    return FusedWindowResult(
        hits=accesses - misses,
        hit_flags=None,
        tenant_per_access=None,
    )


@dataclass(frozen=True)
class FleetSegment:
    """What one fleet segment ran, per resident in the caller's order.

    Attributes:
        counts: Each resident's ``[instructions, accesses, wraps,
            quanta, hits]`` in the segment.
        cursors: Each resident's trace cursor after the segment.
        signatures: Each resident's working-set signature over the
            accesses it ran
            (:func:`~repro.runtime.detector.working_set_signature`),
            when requested, else None.
        executed: Instructions the segment ran.
        next_turn: Index of the resident due next.
        hit_flags: Per-access hit flags in schedule order when
            requested, else None.
    """

    counts: list[list[int]]
    cursors: list[int]
    signatures: Optional[list[int]]
    executed: int
    next_turn: int
    hit_flags: Optional[np.ndarray]


def fleet_segment(
    blocks: Sequence[np.ndarray],
    cumulatives: Sequence[np.ndarray],
    cursors: Sequence[int],
    masks: Sequence[int],
    quantum: int,
    budget: int,
    start_at: int,
    state: LockstepState,
    *,
    sets_mask: int,
    index_bits: int,
    signature_bits: Optional[int] = None,
    collect_flags: bool = False,
    backend: Optional[str] = None,
) -> FleetSegment:
    """Run one fleet scheduling segment through one shared cache.

    Resident ``r`` runs its trace ``blocks[r]`` (int64, with
    cumulative instruction counts ``cumulatives[r]``) circularly from
    ``cursors[r]``, under replacement mask ``masks[r]``.  From
    resident ``start_at``, round-robin, each turn runs one quantum of
    ``min(quantum, budget - executed)`` instructions, cut as
    :func:`~repro.sim.multitask.single_quantum` cuts it, until at
    least ``budget`` instructions have run: the segment overshoots the
    budget by at most the final atomic access.  This is
    :func:`~repro.sim.multitask.quantum_schedule`'s window.

    Args:
        state: Shared lockstep state, advanced in place.
        sets_mask: ``sets - 1`` of the geometry (row = block & mask).
        index_bits: Set-index bits (tag = block >> index_bits).
        signature_bits: Also fold each resident's accesses into a
            working-set signature of this many bits.
        collect_flags: Also return per-access hit flags in schedule
            order.
        backend: Kernel backend override (``"numpy"``, ``"compiled"``,
            ``"auto"``); None uses the session's active backend.  An
            associativity the compiled kernel cannot represent
            (``ways > 63``) runs on numpy.

    Returns:
        Per-resident counts, cursors and signatures, the instructions
        executed, the turn due next and the flags — bit-identical
        across backends and to the scalar per-quantum walk.

    Raises:
        ValueError: on a window :func:`~repro.sim.multitask.check_window`
            refuses, or a ``quantum`` above ``2**63 - 1`` minus some
            resident's pass total
            (:func:`~repro.utils.validation.check_quantum`).
    """
    check_window(len(blocks), quantum, budget, start_at)
    backend_name = (
        backends.active_backend()
        if backend is None
        else backends.resolve_backend(backend)
    )
    if backend_name == "compiled" and _compiled.supports(state.ways):
        rows, executed, next_turn, signatures, hit_flags = (
            _compiled.fleet_segment_compiled(
                blocks,
                cumulatives,
                cursors,
                masks,
                quantum,
                budget,
                start_at,
                state,
                sets_mask=sets_mask,
                index_bits=index_bits,
                signature_bits=signature_bits,
                collect_flags=collect_flags,
            )
        )
        return FleetSegment(
            counts=[row[1:] for row in rows],
            cursors=[row[0] for row in rows],
            signatures=signatures,
            executed=executed,
            next_turn=next_turn,
            hit_flags=hit_flags,
        )
    schedule = quantum_schedule(
        cumulatives, cursors, quantum, budget, start_at
    )
    walk = fused_multitask_run(
        TenantBatch.build(blocks),
        schedule,
        np.array(masks, dtype=np.int64),
        state,
        sets_mask=sets_mask,
        index_bits=index_bits,
        collect_flags=collect_flags,
        backend="numpy",
    )
    per_quantum = np.stack(
        (
            schedule.ran,
            schedule.accesses,
            schedule.wraps,
            np.ones_like(schedule.ran),
        ),
        axis=1,
    )
    totals = np.zeros((len(blocks), 4), dtype=np.int64)
    np.add.at(totals, schedule.tenant_ids, per_quantum)
    counts = np.column_stack((totals, walk.hits)).tolist()
    folded: Optional[list[int]] = None
    if signature_bits:
        # Imported on use: the runtime package loads the adaptive
        # executor, which no other caller of this module needs.
        from repro.runtime.detector import working_set_signature

        folded = []
        for column, start, row in zip(blocks, cursors, counts):
            pieces = circular_slices(start, row[1], len(column))
            window = [column[:0]] + [column[a:b] for a, b in pieces]
            folded.append(
                working_set_signature(
                    np.concatenate(window), signature_bits
                )
            )
    return FleetSegment(
        counts=counts,
        cursors=schedule.next_positions.tolist(),
        signatures=folded,
        executed=schedule.executed,
        next_turn=schedule.next_turn,
        hit_flags=walk.hit_flags,
    )
