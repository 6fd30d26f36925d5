"""Block-level reference: the paper's ``ColumnCache`` over block numbers.

The one scalar model every fast path in the suite is held to.  The
production engine (:class:`~repro.sim.engine.batched.LockstepCache`
over ``lockstep_run``, numpy or compiled) consumes block numbers;
:class:`~repro.cache.column_cache.ColumnCache` consumes addresses and
:class:`~repro.utils.bitvector.ColumnMask` objects.  This module is the
adapter between the two, in two forms:

* :class:`ReferenceCache` — stateful, with ``LockstepCache``'s calling
  convention (per-access ``mask_bits`` or one ``uniform_mask``), for
  oracles that carry state across calls (the scalar fleet oracle steps
  it once per quantum slice);
* :func:`reference_streams` — one-shot per-access hit and bypass
  streams of a whole block trace.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cache.column_cache import ColumnCache
from repro.cache.geometry import CacheGeometry
from repro.utils.bitvector import ColumnMask


class ReferenceCache:
    """A stateful LRU ``ColumnCache`` driven by block numbers."""

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.cache = ColumnCache(geometry, policy="lru")
        self._masks: dict[int, ColumnMask] = {}

    def run(
        self,
        blocks: Sequence[int],
        mask_bits: Optional[Sequence[int]] = None,
        uniform_mask: Optional[int] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Access every block in order; ``(hit_flags, bypass_flags)``.

        Exactly one of ``mask_bits`` (per access) or ``uniform_mask``
        may be given; neither means all columns are permissible.
        """
        if mask_bits is not None and uniform_mask is not None:
            raise ValueError("give either mask_bits or uniform_mask, not both")
        count = len(blocks)
        hits = np.zeros(count, dtype=bool)
        bypasses = np.zeros(count, dtype=bool)
        shift = self.geometry.offset_bits
        uniform = None if uniform_mask is None else self._mask(uniform_mask)
        for position in range(count):
            mask = (
                uniform
                if mask_bits is None
                else self._mask(int(mask_bits[position]))
            )
            result = self.cache.access(
                int(blocks[position]) << shift, mask=mask
            )
            hits[position] = result.hit
            bypasses[position] = result.bypassed
        return hits, bypasses

    def occupancy(self) -> tuple[int, ...]:
        """Valid lines per column."""
        return tuple(self.cache.occupancy())

    def _mask(self, bits: int) -> ColumnMask:
        mask = self._masks.get(bits)
        if mask is None:
            mask = ColumnMask(bits, self.geometry.columns)
            self._masks[bits] = mask
        return mask


def reference_streams(
    geometry: CacheGeometry,
    blocks: Sequence[int],
    mask_bits: Optional[Sequence[int]] = None,
    uniform_mask: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray, ColumnCache]:
    """Per-access ``(hits, bypasses, cache)`` of one cold run."""
    reference = ReferenceCache(geometry)
    hits, bypasses = reference.run(
        blocks, mask_bits=mask_bits, uniform_mask=uniform_mask
    )
    return hits, bypasses, reference.cache
