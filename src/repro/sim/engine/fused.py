"""Fused multi-tenant quantum walks: the fleet's and Figure 5's.

The fleet's segment loop (:class:`~repro.fleet.service.shard.ShardServer`)
schedules co-resident tenants round-robin over one shared lockstep
state.  Driving the kernel one
Python-level quantum slice at a time costs list bookkeeping, per-slice
``np.full`` mask fills and a concatenation per segment — brutal at
small quanta.  This module runs a whole closed-form schedule
(a :class:`SegmentWalk`: the fleet's
:class:`~repro.sim.multitask.QuantumSchedule` for a scheduling window,
or a segment up to the next admit/depart/rebalance/phase event; the
Figure 5 matrix's per-quantum schedules and its warm-up) in one
kernel entry:

* the **compiled** path hands the schedule's ``(tenant, position,
  accesses)`` triples straight to the C kernel's
  ``repro_fused_multitask`` walk, which strides each tenant's block
  array circularly — the interleaved access stream is never
  materialized;
* the **numpy** path materializes the stream with one vectorized
  gather (``_stream_gather``, which the Figure 5 matrix's stacked
  numpy walks use too) and feeds a single
  :func:`~repro.sim.engine.batched.lockstep_run` call.

Both return identical per-tenant tallies and, on request, the
per-access hit flags in global schedule order, so observer snapshots,
telemetry and differential traces stay bit-identical to the scalar
fleet oracle the test suite keeps.
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


@dataclass
class TenantBatch:
    """Concatenated per-tenant block arrays, kernel-ready.

    Built once per resident set (the shard server keeps it as
    persistent state across ``advance`` calls) so the hot loop never
    re-concatenates traces.

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
            tenant id per access) in global schedule order.
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
    if backend_name == "compiled" and _compiled.supports(state.ways):
        hits = np.zeros(tenants, dtype=np.int64)
        flags_u8 = (
            np.zeros(schedule.total_accesses, dtype=np.uint8)
            if collect_flags
            else None
        )
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
            hit_flags=flags_u8,
        )
        if not collect_flags:
            return FusedWindowResult(
                hits=hits,
                hit_flags=None,
                tenant_per_access=None,
            )
        assert flags_u8 is not None
        tenant_per_access = np.repeat(
            schedule.tenant_ids, schedule.accesses
        )
        return FusedWindowResult(
            hits=hits,
            hit_flags=flags_u8.astype(np.bool_),
            tenant_per_access=tenant_per_access,
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
