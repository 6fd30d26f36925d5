"""Cache statistics and miss classification.

Misses are classified with the standard three-C model:

* **cold** (compulsory): the line was never referenced before;
* **capacity**: a fully-associative LRU cache of the same total size
  would also have missed;
* **conflict**: everything else — the misses the paper's data-layout
  algorithm exists to remove.

Capacity/conflict classification requires a shadow fully-associative
simulation, so it is opt-in (``classify_misses=True`` on the cache).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum


class MissKind(Enum):
    """Three-C miss classification."""

    COLD = "cold"
    CAPACITY = "capacity"
    CONFLICT = "conflict"
    UNCLASSIFIED = "unclassified"


@dataclass
class CacheStats:
    """Counters for one cache instance.

    ``per_column_fills``/``per_column_hits`` record which column served
    or received each access — the partition-utilization view the
    experiments report.
    """

    columns: int = 0
    hits: int = 0
    misses: int = 0
    reads: int = 0
    writes: int = 0
    fills: int = 0
    evictions: int = 0
    writebacks: int = 0
    bypasses: int = 0
    cold_misses: int = 0
    capacity_misses: int = 0
    conflict_misses: int = 0
    per_column_hits: list[int] = field(default_factory=list)
    per_column_fills: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.per_column_hits:
            self.per_column_hits = [0] * self.columns
        if not self.per_column_fills:
            self.per_column_fills = [0] * self.columns

    @property
    def accesses(self) -> int:
        """Total cache accesses (reads + writes, excluding bypasses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def record_hit(self, column: int, is_write: bool) -> None:
        """Record a hit served by ``column``."""
        self.hits += 1
        self.per_column_hits[column] += 1
        if is_write:
            self.writes += 1
        else:
            self.reads += 1

    def record_miss(self, is_write: bool, kind: MissKind) -> None:
        """Record a miss of the given kind."""
        self.misses += 1
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        if kind is MissKind.COLD:
            self.cold_misses += 1
        elif kind is MissKind.CAPACITY:
            self.capacity_misses += 1
        elif kind is MissKind.CONFLICT:
            self.conflict_misses += 1

    def record_fill(self, column: int) -> None:
        """Record a line filled into ``column``."""
        self.fills += 1
        self.per_column_fills[column] += 1

    def record_eviction(self, dirty: bool) -> None:
        """Record an eviction (and writeback if the line was dirty)."""
        self.evictions += 1
        if dirty:
            self.writebacks += 1

    def reset(self) -> None:
        """Zero every counter, keeping the column count."""
        columns = self.columns
        self.__init__(columns=columns)

    def snapshot(self) -> "CacheStats":
        """An independent copy of the current counters."""
        copy = CacheStats(columns=self.columns)
        for name in (
            "hits", "misses", "reads", "writes", "fills", "evictions",
            "writebacks", "bypasses", "cold_misses", "capacity_misses",
            "conflict_misses",
        ):
            setattr(copy, name, getattr(self, name))
        copy.per_column_hits = list(self.per_column_hits)
        copy.per_column_fills = list(self.per_column_fills)
        return copy


class ShadowFullyAssociative:
    """Shadow fully-associative LRU cache for capacity classification.

    Tracks line residency only (no data, no columns).  A miss here means
    the real cache's miss is a *capacity* miss; a hit here means the
    real cache missed only because of its restricted placement — a
    *conflict* miss.
    """

    def __init__(self, total_lines: int):
        if total_lines <= 0:
            raise ValueError(
                f"total_lines must be positive, got {total_lines}"
            )
        self.total_lines = total_lines
        self._resident: OrderedDict[int, None] = OrderedDict()

    def access(self, block_number: int) -> bool:
        """Touch a line; returns True on (shadow) hit."""
        if block_number in self._resident:
            self._resident.move_to_end(block_number)
            return True
        self._resident[block_number] = None
        if len(self._resident) > self.total_lines:
            self._resident.popitem(last=False)
        return False

    def reset(self) -> None:
        """Empty the shadow cache."""
        self._resident.clear()
