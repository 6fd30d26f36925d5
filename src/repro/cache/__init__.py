"""Cache substrate: set-associative column cache and scratchpad models.

The centerpiece is :class:`~repro.cache.column_cache.ColumnCache`, the
paper's Section 2 mechanism: a set-associative cache whose *lookup* is
unchanged (the entire set is searched, so remapping never loses resident
data) and whose *replacement* is restricted to a per-access bit vector
of permissible columns.

Also provided:

* pluggable replacement policies (:mod:`repro.cache.replacement`);
* a dedicated scratchpad SRAM model and helpers for emulating
  scratchpad inside cache columns (:mod:`repro.cache.scratchpad`);
* miss classification (cold / capacity / conflict) in
  :mod:`repro.cache.stats`.

``ColumnCache`` is the one scalar model of the mechanism: long traces
run on the lockstep engine
(:class:`~repro.sim.engine.batched.LockstepCache`), which the
differential tests hold to this reference access for access.
"""

from repro.cache.column_cache import AccessResult, ColumnCache, SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import (
    HierarchyTintTable,
    LevelMasks,
    TwoLevelCacheSystem,
)
from repro.cache.replacement import (
    FIFOPolicy,
    LRUPolicy,
    PLRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.cache.scratchpad import ScratchpadMemory, ScratchpadRegion
from repro.cache.stats import CacheStats, MissKind

__all__ = [
    "AccessResult",
    "CacheGeometry",
    "CacheStats",
    "ColumnCache",
    "FIFOPolicy",
    "HierarchyTintTable",
    "LRUPolicy",
    "LevelMasks",
    "MissKind",
    "PLRUPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "ScratchpadMemory",
    "ScratchpadRegion",
    "SetAssociativeCache",
    "TwoLevelCacheSystem",
    "make_policy",
]
