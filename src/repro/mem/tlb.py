"""TLB model with column-caching mapping information.

Paper Section 2.1/2.2: the TLB is augmented to hold the mapping
information (the tint), and a path carries it to the replacement unit.
Because TLB entries cache page-table entries, *re-tinting* a page
requires the corresponding TLB entries to be "flushed or modified in
place to reflect the new bit vector" (Figure 3) — otherwise the stale
tint keeps steering replacements.  This model makes that observable:
:meth:`TLB.lookup` returns whatever tint the TLB holds, stale or not,
unless the experiment calls :meth:`flush`/:meth:`flush_page`/
:meth:`update_page`.

The TLB is fully associative with LRU eviction, the common embedded
configuration; capacity and fill latency are configurable.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.mem.address import page_number
from repro.mem.page_table import PageTable, PageTableEntry
from repro.utils.validation import check_positive


@dataclass
class TLBStats:
    """Hit/miss/flush counters for one TLB."""

    hits: int = 0
    misses: int = 0
    flushes: int = 0
    page_flushes: int = 0
    page_updates: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the TLB."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        self.page_flushes = 0
        self.page_updates = 0


@dataclass
class TLB:
    """Fully-associative, LRU translation look-aside buffer.

    Attributes:
        page_table: Backing page table consulted on a miss.
        capacity: Number of entries (64 is a typical embedded size).
        stats: Hit/miss counters.
    """

    page_table: PageTable
    capacity: int = 64
    stats: TLBStats = field(default_factory=TLBStats)

    def __post_init__(self) -> None:
        check_positive(self.capacity, "capacity")
        self._entries: OrderedDict[int, PageTableEntry] = OrderedDict()

    @property
    def page_size(self) -> int:
        """Page size of the backing page table."""
        return self.page_table.page_size

    def lookup(self, address: int) -> PageTableEntry:
        """Translate ``address``; fills from the page table on a miss.

        Returns the (possibly stale) cached entry on a hit.
        """
        vpn = page_number(address, self.page_size)
        cached = self._entries.get(vpn)
        if cached is not None:
            self.stats.hits += 1
            self._entries.move_to_end(vpn)
            return cached
        self.stats.misses += 1
        entry = self.page_table.entry(vpn)
        self._entries[vpn] = entry
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return entry

    def peek(self, vpn: int) -> PageTableEntry | None:
        """The cached entry for ``vpn`` without touching LRU or stats."""
        return self._entries.get(vpn)

    def flush(self) -> None:
        """Invalidate every entry (the heavy hammer after re-tinting)."""
        self._entries.clear()
        self.stats.flushes += 1

    def flush_page(self, vpn: int) -> bool:
        """Invalidate one page's entry; True if it was resident."""
        present = self._entries.pop(vpn, None) is not None
        if present:
            self.stats.page_flushes += 1
        return present

    def update_page(self, vpn: int) -> bool:
        """Refresh one page's entry in place from the page table.

        This is the paper's "modified in place" alternative to a flush.
        Returns True if the page was resident.
        """
        if vpn not in self._entries:
            return False
        self._entries[vpn] = self.page_table.entry(vpn)
        self.stats.page_updates += 1
        return True

    def is_coherent(self) -> bool:
        """True if every cached entry matches the page table.

        Used by tests to demonstrate the Figure 3 hazard: re-tinting
        without a flush leaves the TLB incoherent.
        """
        return all(
            self.page_table.entry(vpn) == entry
            for vpn, entry in self._entries.items()
        )

    def __len__(self) -> int:
        return len(self._entries)
