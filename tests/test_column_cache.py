"""Tests for the column cache — the paper's Section 2 semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.column_cache import ColumnCache, SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.stats import MissKind
from repro.mem.address import AddressRange
from repro.utils.bitvector import ColumnMask


def geometry(sets=4, columns=4, line=16):
    return CacheGeometry(line_size=line, sets=sets, columns=columns)


def full(columns=4):
    return ColumnMask.all_columns(columns)


class TestBasicBehaviour:
    def test_miss_then_hit(self):
        cache = ColumnCache(geometry())
        first = cache.access(0x100)
        second = cache.access(0x100)
        assert not first.hit and first.filled
        assert second.hit

    def test_same_line_different_offsets_hit(self):
        cache = ColumnCache(geometry())
        cache.access(0x100)
        assert cache.access(0x10F).hit

    def test_adjacent_line_misses(self):
        cache = ColumnCache(geometry())
        cache.access(0x100)
        assert not cache.access(0x110).hit

    def test_mask_width_checked(self):
        cache = ColumnCache(geometry(columns=4))
        with pytest.raises(ValueError, match="width"):
            cache.access(0, mask=ColumnMask.of(0, width=8))

    def test_policy_shape_checked(self):
        from repro.cache.replacement import LRUPolicy

        with pytest.raises(ValueError, match="shape"):
            ColumnCache(geometry(sets=4), policy=LRUPolicy(sets=8, ways=4))

    def test_stats_counts(self):
        cache = ColumnCache(geometry())
        cache.access(0x100)
        cache.access(0x100, is_write=True)
        stats = cache.stats
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.reads == 1
        assert stats.writes == 1
        assert stats.hit_rate == 0.5


class TestColumnRestriction:
    def test_fills_only_into_permitted_columns(self):
        cache = ColumnCache(geometry())
        mask = ColumnMask.of(1, 2, width=4)
        for block in range(16):
            result = cache.access(block * 16 * 4, mask=mask)  # all set 0
            if result.filled:
                assert result.column in (1, 2)

    def test_lookup_ignores_mask(self):
        """A line resident outside the mask still hits (paper 2.1)."""
        cache = ColumnCache(geometry())
        cache.access(0x100, mask=ColumnMask.of(0, width=4))
        line = cache.find_line(0x100)
        assert line.column == 0
        result = cache.access(0x100, mask=ColumnMask.of(3, width=4))
        assert result.hit
        # Data did not move.
        assert cache.find_line(0x100).column == 0

    def test_graceful_repartitioning(self):
        """Remapped data stays until replaced, then refills to the new
        column — the paper's repartitioning story."""
        cache = ColumnCache(geometry(sets=1))
        old_mask = ColumnMask.of(0, width=4)
        new_mask = ColumnMask.of(2, width=4)
        cache.access(0x0, mask=old_mask)
        # After remapping, accesses still hit in the old column.
        assert cache.access(0x0, mask=new_mask).hit
        # Force eviction: fill column 0 with a conflicting line.
        cache.access(0x40, mask=old_mask)  # same set, column 0
        assert not cache.contains(0x0)
        # The next access caches it in the new column.
        refill = cache.access(0x0, mask=new_mask)
        assert refill.filled and refill.column == 2

    def test_empty_mask_bypasses(self):
        cache = ColumnCache(geometry())
        result = cache.access(0x100, mask=ColumnMask.none(4))
        assert result.bypassed and not result.filled
        assert cache.stats.bypasses == 1
        assert not cache.contains(0x100)

    def test_empty_mask_still_hits_resident_line(self):
        cache = ColumnCache(geometry())
        cache.access(0x100, mask=full())
        assert cache.access(0x100, mask=ColumnMask.none(4)).hit

    def test_disjoint_masks_never_interfere(self):
        """Isolation: a stream restricted to columns 2-3 cannot evict
        data in columns 0-1."""
        cache = ColumnCache(geometry(sets=4))
        mine = ColumnMask.of(0, 1, width=4)
        other = ColumnMask.of(2, 3, width=4)
        cache.access(0x0, mask=mine)
        cache.access(0x40, mask=mine)
        for block in range(64):
            cache.access(0x10000 + block * 16, mask=other)
        assert cache.contains(0x0)
        assert cache.contains(0x40)


class TestWritePolicy:
    def test_write_allocate_fills(self):
        cache = ColumnCache(geometry(), write_allocate=True)
        result = cache.access(0x100, is_write=True)
        assert result.filled
        assert cache.find_line(0x100).dirty

    def test_write_no_allocate_bypasses(self):
        cache = ColumnCache(geometry(), write_allocate=False)
        result = cache.access(0x100, is_write=True)
        assert result.bypassed
        assert not cache.contains(0x100)

    def test_write_no_allocate_read_still_fills(self):
        cache = ColumnCache(geometry(), write_allocate=False)
        assert cache.access(0x100, is_write=False).filled

    def test_dirty_eviction_reports_writeback(self):
        cache = ColumnCache(geometry(sets=1, columns=1))
        cache.access(0x0, is_write=True)
        result = cache.access(0x40)
        assert result.evicted_address == 0x0
        assert result.writeback
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = ColumnCache(geometry(sets=1, columns=1))
        cache.access(0x0)
        assert not cache.access(0x40).writeback

    def test_write_hit_marks_dirty(self):
        cache = ColumnCache(geometry())
        cache.access(0x100)
        cache.access(0x100, is_write=True)
        assert cache.find_line(0x100).dirty


class TestMissClassification:
    def test_cold_miss(self):
        cache = ColumnCache(geometry(), classify_misses=True)
        assert cache.access(0x100).miss_kind is MissKind.COLD

    def test_capacity_miss(self):
        cache = ColumnCache(
            geometry(sets=2, columns=2), classify_misses=True
        )
        # Touch 3x the cache capacity sequentially, twice: the second
        # pass misses because the working set exceeds total capacity.
        lines = 12
        for _ in range(2):
            for index in range(lines):
                result = cache.access(index * 16)
        assert result.miss_kind is MissKind.CAPACITY

    def test_conflict_miss(self):
        cache = ColumnCache(
            geometry(sets=2, columns=2), classify_misses=True
        )
        # Three lines in the same set of a 2-way cache; total working
        # set (3 lines) fits the 4-line cache, so misses are conflicts.
        for _ in range(3):
            for index in range(3):
                result = cache.access(index * 32)  # all set 0
        assert result.miss_kind is MissKind.CONFLICT
        assert cache.stats.conflict_misses > 0

    def test_masked_self_conflicts_classified_as_conflicts(self):
        """Misses caused purely by a restrictive mask are conflicts."""
        cache = ColumnCache(geometry(sets=1, columns=4), classify_misses=True)
        one_column = ColumnMask.of(0, width=4)
        for _ in range(3):
            for index in range(2):
                cache.access(index * 16, mask=one_column)
        assert cache.stats.conflict_misses > 0
        assert cache.stats.capacity_misses == 0


class TestBulkOperations:
    def test_preload_touches_every_line(self):
        cache = ColumnCache(geometry())
        count = cache.preload(AddressRange(0x100, 0x50))
        assert count == 5
        assert cache.contains(0x100) and cache.contains(0x140)

    def test_flush(self):
        cache = ColumnCache(geometry())
        cache.access(0x100, is_write=True)
        dirty = cache.flush()
        assert dirty == 1
        assert not cache.contains(0x100)

    def test_flush_preserves_cold_history(self):
        cache = ColumnCache(geometry())
        cache.access(0x100)
        cache.flush()
        result = cache.access(0x100)
        assert result.miss_kind is MissKind.UNCLASSIFIED  # not cold again

    def test_flush_with_history_reset(self):
        cache = ColumnCache(geometry())
        cache.access(0x100)
        cache.flush(invalidate_history=True)
        assert cache.access(0x100).miss_kind is MissKind.COLD

    def test_flush_columns_selective(self):
        cache = ColumnCache(geometry(sets=1))
        cache.access(0x00, mask=ColumnMask.of(0, width=4))
        cache.access(0x40, mask=ColumnMask.of(1, width=4))
        invalidated = cache.flush_columns(ColumnMask.of(0, width=4))
        assert invalidated == 1
        assert not cache.contains(0x00)
        assert cache.contains(0x40)

    def test_invalidate_address(self):
        cache = ColumnCache(geometry())
        cache.access(0x100)
        assert cache.invalidate_address(0x100)
        assert not cache.invalidate_address(0x100)

    def test_occupancy(self):
        cache = ColumnCache(geometry(sets=2, columns=2))
        cache.access(0x00, mask=ColumnMask.of(1, width=2))
        cache.access(0x10, mask=ColumnMask.of(1, width=2))
        assert cache.occupancy() == [0, 2]

    def test_resident_lines(self):
        cache = ColumnCache(geometry())
        cache.access(0x100, is_write=True)
        lines = list(cache.resident_lines())
        assert len(lines) == 1
        assert lines[0].address == 0x100
        assert lines[0].dirty


class TestFullMaskEquivalence:
    @given(
        addresses=st.lists(st.integers(0, 1023), min_size=1, max_size=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_full_mask_equals_standard_cache(self, addresses):
        """Property: all-ones masks make the column cache a standard
        set-associative cache."""
        g = geometry(sets=4, columns=2)
        column = ColumnCache(g)
        standard = SetAssociativeCache(g)
        for address in addresses:
            masked = column.access(address, mask=full(2))
            plain = standard.access(address)
            assert masked.hit == plain.hit
            assert masked.column == plain.column

    def test_stats_snapshot_delta(self):
        cache = ColumnCache(geometry())
        cache.access(0x100)
        before = cache.stats.snapshot()
        cache.access(0x100)
        cache.access(0x200)
        assert cache.stats.hits - before.hits == 1
        assert cache.stats.misses - before.misses == 1
