"""The bank batch: the broker's measured curve, one row bank per grant.

The reference for :func:`repro.fleet.broker.solo_misses`, which reads
every grant size's misses off one full-width pass's LRU stack depths.
Here each (window, grant size ``c``) pair instead runs as its own bank
of the full ``columns``-way state under the replacement mask
``(1 << c) - 1``: ways outside the mask start cold and are never
filled, so they can neither hit nor be chosen as victims, and the bank
behaves exactly like a solo ``c``-way cache with the same sets.  All
banks of all windows run in one lockstep call, which returns the miss
positions; a ``searchsorted`` over the banks' start offsets splits
them per bank.

:func:`price_every_probe` is the reference for
:func:`repro.fleet.broker.demand_curves` as a whole, as it priced
before flat probes skipped the planner: every computed probe is
profiled and carries its plan curve ``W(1..columns)``, whatever its
measured curve, under the broker's own memo keys.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.fleet.broker import (
    DEFAULT_PROFILE_ACCESSES,
    ColumnDemand,
    Slices,
    _clip,
    solo_misses,
)
from repro.layout.algorithm import predicted_costs
from repro.layout.partition import split_for_columns
from repro.layout.session import PlannerSession, trace_digest, units_digest
from repro.profiling.profiler import profile_trace
from repro.sim.engine.batched import LockstepState, lockstep_run
from repro.trace.filters import concatenate
from repro.workloads.base import WorkloadRun


def bank_batch_solo_misses(
    windows: Sequence[np.ndarray], geometry: CacheGeometry
) -> np.ndarray:
    """``solo_misses``' contract, met by ``columns`` masked banks per
    window: entry ``[i, c - 1]`` is window ``i``'s misses at ``c``
    columns."""
    candidates = geometry.columns
    sets = geometry.sets
    rows_parts = []
    tags_parts = []
    mask_parts = []
    starts = []
    cursor = 0
    bank = 0
    for blocks in windows:
        blocks = np.asarray(blocks, dtype=np.int64)
        local_rows = blocks & np.int64(sets - 1)
        local_tags = blocks >> np.int64(geometry.index_bits)
        for columns in range(1, candidates + 1):
            rows_parts.append(local_rows + bank * sets)
            tags_parts.append(local_tags)
            mask_parts.append(
                np.full(len(blocks), (1 << columns) - 1, dtype=np.int64)
            )
            starts.append(cursor)
            cursor += len(blocks)
            bank += 1
    miss_positions = lockstep_run(
        np.concatenate(rows_parts),
        np.concatenate(tags_parts),
        LockstepState.cold(bank * sets, candidates),
        mask_bits=np.concatenate(mask_parts),
        collect="misses",
    )
    per_bank = np.bincount(
        np.searchsorted(
            np.asarray(starts, dtype=np.int64),
            miss_positions,
            side="right",
        )
        - 1,
        minlength=bank,
    )
    return per_bank.reshape(len(windows), candidates)


def price_every_probe(
    probes: Sequence[tuple[WorkloadRun, Slices]],
    geometry: CacheGeometry,
    profile_accesses: int = DEFAULT_PROFILE_ACCESSES,
    session: Optional[PlannerSession] = None,
) -> list[ColumnDemand]:
    """``demand_curves``' arguments and memo keys; W on every probe."""
    session = session if session is not None else PlannerSession()
    columns = geometry.columns
    column_bytes = geometry.sets * geometry.line_size
    units_list = []
    spans = []
    keys = []
    for run, slices in probes:
        units = run.memory_map.symbols.derived(
            ("units", column_bytes),
            lambda table: split_for_columns(table, column_bytes),
        )
        span = _clip(slices, len(run.trace), profile_accesses)
        units_list.append(units)
        spans.append(span)
        keys.append(
            f"demand:{trace_digest(run.trace)}:{span}:"
            f"{units_digest(units)}:"
            f"{geometry.line_size}:{geometry.sets}:{columns}"
        )

    def compute(indices: list[int]) -> list[ColumnDemand]:
        traces = []
        for index in indices:
            trace = probes[index][0].trace
            pieces = [trace.slice(*piece) for piece in spans[index]]
            traces.append(
                pieces[0] if len(pieces) == 1 else concatenate(pieces)
            )
        misses = solo_misses(
            [trace.blocks_for(geometry.offset_bits) for trace in traces],
            geometry,
        )
        curves = []
        for trace, index, row in zip(traces, indices, misses):
            units = units_list[index]
            profile = profile_trace(trace, units, by_address=True)
            curves.append(
                ColumnDemand(
                    plan_costs=tuple(
                        predicted_costs(profile, units, range(1, columns + 1))
                    ),
                    measured_costs=tuple(int(m) for m in row),
                )
            )
        return curves

    return session.memo_batch(keys, compute)
