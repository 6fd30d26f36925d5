"""Tests for cache statistics and simulation result containers."""

import pytest

from repro.cache.stats import CacheStats, MissKind, ShadowFullyAssociative
from repro.sim.results import PhasedRunResult, PhaseResult, SimulationResult


class TestCacheStats:
    def test_rates_empty(self):
        stats = CacheStats(columns=2)
        assert stats.hit_rate == 0.0
        assert stats.miss_rate == 0.0

    def test_record_hit_and_miss(self):
        stats = CacheStats(columns=2)
        stats.record_hit(0, is_write=False)
        stats.record_miss(is_write=True, kind=MissKind.COLD)
        assert stats.accesses == 2
        assert stats.hit_rate == 0.5
        assert stats.reads == 1 and stats.writes == 1
        assert stats.cold_misses == 1
        assert stats.per_column_hits == [1, 0]

    def test_reset_preserves_columns(self):
        stats = CacheStats(columns=3)
        stats.record_fill(2)
        stats.reset()
        assert stats.fills == 0
        assert stats.per_column_fills == [0, 0, 0]

    def test_snapshot_is_independent(self):
        stats = CacheStats(columns=1)
        snap = stats.snapshot()
        stats.record_fill(0)
        assert snap.fills == 0


class TestShadow:
    def test_lru_semantics(self):
        shadow = ShadowFullyAssociative(total_lines=2)
        assert not shadow.access(1)
        assert not shadow.access(2)
        assert shadow.access(1)       # refresh
        assert not shadow.access(3)   # evicts 2
        assert not shadow.access(2)
        assert shadow.access(3)

    def test_reset(self):
        shadow = ShadowFullyAssociative(total_lines=2)
        shadow.access(1)
        shadow.reset()
        assert not shadow.access(1)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ShadowFullyAssociative(0)


class TestSimulationResult:
    def test_cpi_and_miss_rate(self):
        result = SimulationResult(
            name="t", instructions=200, cached_accesses=100, hits=90,
            misses=10, cycles=300,
        )
        assert result.cpi == 1.5
        assert result.miss_rate == 0.1

    def test_empty(self):
        result = SimulationResult(name="t")
        assert result.cpi == 0.0
        assert result.miss_rate == 0.0

    def test_total_cycles(self):
        result = SimulationResult(name="t", cycles=100, setup_cycles=20)
        assert result.total_cycles == 120

    def test_merged_with(self):
        first = SimulationResult(name="a", instructions=10, cycles=15,
                                 misses=2)
        second = SimulationResult(name="b", instructions=20, cycles=25,
                                  misses=3)
        merged = first.merged_with(second)
        assert merged.instructions == 30
        assert merged.cycles == 40
        assert merged.misses == 5
        assert merged.name == "a+b"


class TestPhasedRunResult:
    def test_total_includes_remap_cycles(self):
        phased = PhasedRunResult(name="app")
        phased.phases.append(
            PhaseResult(
                label="p1",
                result=SimulationResult(name="p1", instructions=10,
                                        cycles=12),
                remapped=True,
                remap_cycles=5,
            )
        )
        phased.phases.append(
            PhaseResult(
                label="p2",
                result=SimulationResult(name="p2", instructions=10,
                                        cycles=11),
                remapped=False,
            )
        )
        total = phased.total
        assert total.cycles == 12 + 11 + 5
        assert total.instructions == 20
        assert phased.remap_count == 1

    def test_empty_phases(self):
        phased = PhasedRunResult(name="empty")
        assert phased.total.cycles == 0
        assert phased.remap_count == 0
