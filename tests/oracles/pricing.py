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
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.sim.engine.batched import LockstepState, lockstep_run


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
