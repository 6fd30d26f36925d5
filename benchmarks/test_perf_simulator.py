"""Simulator throughput benchmarks (engineering, not paper results).

Guards the performance of the two cache models: the lockstep engine
behind :class:`~repro.sim.engine.batched.LockstepCache` (which every
production path runs on) and the reference column cache (which the
validation suite depends on).  These run multiple rounds — they
measure wall time, unlike the figure benches.
"""

import numpy as np

from repro.cache.column_cache import ColumnCache
from repro.cache.geometry import CacheGeometry
from repro.sim.engine.batched import LockstepCache
from repro.utils.bitvector import ColumnMask

GEOMETRY = CacheGeometry(line_size=16, sets=128, columns=8)
TRACE_LENGTH = 50_000


def _addresses():
    rng = np.random.default_rng(42)
    # 60% hot working set, 40% streaming.
    hot = rng.integers(0, 8192, int(TRACE_LENGTH * 0.6))
    cold = np.arange(int(TRACE_LENGTH * 0.4)) * 16 + 1 << 20
    mixed = np.concatenate([hot, cold])
    rng.shuffle(mixed)
    return mixed


def test_lockstep_cache_throughput(benchmark):
    """Lockstep engine: full-mask simulation of a 50k-access trace."""
    blocks = _addresses() >> GEOMETRY.offset_bits

    def run():
        return LockstepCache(GEOMETRY).run(blocks)

    result = benchmark(run)
    assert result.hits + result.misses == TRACE_LENGTH


def test_lockstep_cache_masked_throughput(benchmark):
    """Lockstep engine with per-access masks."""
    blocks = _addresses() >> GEOMETRY.offset_bits
    rng = np.random.default_rng(7)
    masks = rng.integers(1, 256, TRACE_LENGTH)

    def run():
        return LockstepCache(GEOMETRY).run(blocks, mask_bits=masks)

    result = benchmark(run)
    assert result.accesses == TRACE_LENGTH


def test_reference_cache_throughput(benchmark):
    """Reference model on a 5k slice (it is ~10x slower by design)."""
    addresses = _addresses()[:5000].tolist()
    mask = ColumnMask.all_columns(8)

    def run():
        cache = ColumnCache(GEOMETRY)
        for address in addresses:
            cache.access(int(address), mask=mask)
        return cache.stats.accesses

    accesses = benchmark(run)
    assert accesses == 5000
