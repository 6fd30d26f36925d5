"""Scratchpad memory: the dedicated-SRAM baseline and column emulation.

Two models live here:

* :class:`ScratchpadMemory` — a conventional dedicated scratchpad SRAM
  in its own address region (the paper's Section 1.1 baseline).  Data
  must be explicitly copied in and out; once resident, access time is
  perfectly predictable.
* :class:`ColumnScratchpad` — the paper's Section 2.3 emulation: a
  memory region equal in size to a set of cache columns is mapped
  one-to-one onto those columns and preloaded.  Because no other region
  maps there, preloaded lines can never be evicted; the columns behave
  exactly like scratchpad.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cache.column_cache import ColumnCache
from repro.mem.address import AddressRange
from repro.utils.bitvector import ColumnMask
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ScratchpadRegion:
    """A named region resident in scratchpad."""

    name: str
    range: AddressRange


@dataclass
class ScratchpadStats:
    """Access/copy counters for a dedicated scratchpad."""

    accesses: int = 0
    copies_in: int = 0
    copies_out: int = 0
    bytes_copied_in: int = 0
    bytes_copied_out: int = 0


class ScratchpadMemory:
    """A dedicated software-managed on-chip SRAM.

    The scratchpad holds explicitly-installed address ranges from the
    normal address space (modelling the common embedded idiom of
    copying a structure into scratchpad and back).  ``contains`` decides
    whether an access is served at scratchpad latency.

    >>> pad = ScratchpadMemory(capacity=1024)
    >>> pad.copy_in("qtable", AddressRange(0x1000, 128))
    ScratchpadRegion(name='qtable', range=AddressRange(base=0x1000, size=0x80))
    >>> pad.contains(0x1040)
    True
    """

    def __init__(self, capacity: int):
        check_positive(capacity, "capacity")
        self.capacity = capacity
        self.stats = ScratchpadStats()
        self._regions: dict[str, ScratchpadRegion] = {}

    @property
    def used_bytes(self) -> int:
        """Bytes currently occupied."""
        return sum(region.range.size for region in self._regions.values())

    @property
    def free_bytes(self) -> int:
        """Bytes still available."""
        return self.capacity - self.used_bytes

    def copy_in(self, name: str, address_range: AddressRange) -> ScratchpadRegion:
        """Install a region; raises if it does not fit or overlaps."""
        if name in self._regions:
            raise ValueError(f"region {name!r} already in scratchpad")
        if address_range.size > self.free_bytes:
            raise ValueError(
                f"region {name!r} of {address_range.size} bytes does not fit: "
                f"{self.free_bytes} bytes free of {self.capacity}"
            )
        for other in self._regions.values():
            if other.range.overlaps(address_range):
                raise ValueError(
                    f"region {name!r} overlaps resident region {other.name!r}"
                )
        region = ScratchpadRegion(name=name, range=address_range)
        self._regions[name] = region
        self.stats.copies_in += 1
        self.stats.bytes_copied_in += address_range.size
        return region

    def copy_out(self, name: str) -> ScratchpadRegion:
        """Evict a region (modelling the explicit copy back)."""
        try:
            region = self._regions.pop(name)
        except KeyError:
            raise KeyError(f"region {name!r} not in scratchpad") from None
        self.stats.copies_out += 1
        self.stats.bytes_copied_out += region.range.size
        return region

    def contains(self, address: int) -> bool:
        """True if ``address`` is scratchpad-resident."""
        return any(
            region.range.contains(address)
            for region in self._regions.values()
        )

    def access(self, address: int) -> bool:
        """Record an access; True if served by the scratchpad."""
        resident = self.contains(address)
        if resident:
            self.stats.accesses += 1
        return resident

    def __contains__(self, address: object) -> bool:
        return isinstance(address, int) and self.contains(address)


@dataclass
class ColumnScratchpad:
    """Scratchpad emulation inside cache columns (paper Section 2.3).

    Binds a memory region one-to-one to a set of columns of a
    :class:`ColumnCache`.  The region must be no larger than the
    dedicated columns; :meth:`preload` warms every line; once loaded,
    as long as *no other* address is given a mask overlapping
    ``mask``, the lines are pinned (verified by :meth:`is_pinned`).

    Attributes:
        cache: The column cache hosting the emulation.
        region: The memory region to pin.
        mask: The dedicated columns.
    """

    cache: ColumnCache
    region: AddressRange
    mask: ColumnMask
    preload_lines: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.mask.width != self.cache.geometry.columns:
            raise ValueError(
                f"mask width {self.mask.width} does not match cache with "
                f"{self.cache.geometry.columns} columns"
            )
        if self.mask.is_empty():
            raise ValueError("scratchpad emulation needs at least one column")
        capacity = self.mask.count() * self.cache.geometry.column_bytes
        if self.region.size > capacity:
            raise ValueError(
                f"region of {self.region.size} bytes exceeds the "
                f"{capacity} bytes offered by columns {list(self.mask)}"
            )
        lines_needed = self.region.line_count(self.cache.geometry.line_size)
        per_set = self._lines_per_set()
        if any(count > self.mask.count() for count in per_set.values()):
            raise ValueError(
                "region does not map one-to-one onto the dedicated "
                f"columns: some set receives more than {self.mask.count()} "
                f"of its {lines_needed} lines; align the region to the "
                "column size"
            )

    def _lines_per_set(self) -> dict[int, int]:
        """How many of the region's lines map to each set."""
        counts: dict[int, int] = {}
        for line_base in self.region.lines(self.cache.geometry.line_size):
            set_index = self.cache.geometry.set_index(line_base)
            counts[set_index] = counts.get(set_index, 0) + 1
        return counts

    def preload(self) -> int:
        """Load every line of the region into the dedicated columns.

        Returns the number of lines loaded.  This is the explicit
        warm-up the paper requires "as with a dedicated SRAM".
        """
        self.preload_lines = self.cache.preload(self.region, mask=self.mask)
        return self.preload_lines

    def is_pinned(self) -> bool:
        """True if every line of the region is currently resident."""
        line_size = self.cache.geometry.line_size
        return all(
            self.cache.contains(line_base)
            for line_base in self.region.lines(line_size)
        )

    def resident_line_count(self) -> int:
        """Number of the region's lines currently resident."""
        line_size = self.cache.geometry.line_size
        return sum(
            1
            for line_base in self.region.lines(line_size)
            if self.cache.contains(line_base)
        )
