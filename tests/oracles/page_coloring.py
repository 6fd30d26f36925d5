"""Page coloring one page and one access at a time.

The reference for :class:`repro.baselines.page_coloring.PageColoringBaseline`,
which keeps its relocation as a sorted page table and translates a
whole address column with one ``searchsorted``.  Here the relocation
is a dict built page by page, and every access is looked up in it on
its own:

* :func:`reference_page_map` — each colored variable, by name, moves
  its pages to the next free frames of its color; a page two
  variables share stays with the first;
* :func:`reference_translate` — a mapped page becomes ``(frame <<
  page_bits) | offset``, anything else its identity plus ``2**40``,
  as exact Python integers (the production column holds them modulo
  ``2**64`` in int64: :func:`fold_int64`);
* :func:`reference_counts` — hits and misses of those addresses on a
  cold :class:`~oracles.column_cache.ReferenceCache`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.cache.geometry import CacheGeometry
from repro.mem.layout import MemoryMap

from oracles.column_cache import reference_streams

#: Added to an unmapped address, to keep it clear of the colored frames.
IDENTITY_BASE = 1 << 40


def reference_page_map(
    memory_map: MemoryMap,
    variable_colors: Mapping[str, int],
    page_size: int,
    colors: int,
) -> tuple[dict[int, int], int]:
    """``(virtual page -> physical frame, copied bytes)``.

    Physical frame ``p`` has color ``p % colors``.
    """
    next_free = {color: 0 for color in range(colors)}
    page_map: dict[int, int] = {}
    copied = 0
    for name, color in sorted(variable_colors.items()):
        variable = memory_map.get(name)
        for vpn in variable.range.pages(page_size):
            if vpn in page_map:
                continue
            page_map[vpn] = next_free[color] * colors + color
            next_free[color] += 1
            copied += page_size
    return page_map, copied


def reference_translate(
    addresses: Sequence[int], page_map: Mapping[int, int], page_size: int
) -> list[int]:
    """Each address's physical address, one dict lookup per access."""
    page_bits = page_size.bit_length() - 1
    physical = []
    for address in addresses:
        address = int(address)
        frame = page_map.get(address >> page_bits)
        if frame is None:
            physical.append(IDENTITY_BASE + address)
        else:
            physical.append(
                (frame << page_bits) | (address & (page_size - 1))
            )
    return physical


def fold_int64(value: int) -> int:
    """``value`` modulo ``2**64``, read as a two's-complement int64."""
    return (value + (1 << 63)) % (1 << 64) - (1 << 63)


def reference_counts(
    geometry: CacheGeometry, physical: Sequence[int]
) -> tuple[int, int]:
    """``(hits, misses)`` of the folded addresses on a cold cache."""
    shift = geometry.offset_bits
    blocks = [fold_int64(address) >> shift for address in physical]
    hits, _bypasses, _cache = reference_streams(geometry, blocks)
    hit_count = int(hits.sum())
    return hit_count, len(blocks) - hit_count
