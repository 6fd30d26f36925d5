"""Running telemetry totals and the O(residents) shard snapshot.

:class:`~repro.fleet.tenant.TenantTelemetry` keeps running totals that
:meth:`~repro.fleet.tenant.TenantTelemetry.record` updates with every
sample, and :class:`~repro.fleet.service.shard.ShardServer` keeps
lifetime totals over every runtime it holds.  Both must equal a
from-scratch re-summation of the samples after any sequence of
population changes, and a snapshot must read no sample at all.
"""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.fleet import FleetConfig, TenantSpec, TenantStatus
from repro.fleet.service import ShardServer
from repro.fleet.tenant import TenantTelemetry, WindowSample
from repro.sim.config import MULTITASK_TIMING
from repro.workloads.suite import make_workload

from oracles.fleet import sample_totals, shard_aggregates

TIMING = MULTITASK_TIMING
CONFIG = FleetConfig(quantum_instructions=128, window_instructions=2048)
GEOMETRY = CacheGeometry(line_size=16, sets=32, columns=4)


KINDS = (
    ("crc32", {"message_bytes": 256}),
    ("histogram", {"sample_count": 256, "bin_count": 32}),
    ("fir", {"signal_length": 256, "tap_count": 16}),
)


@pytest.fixture(scope="module")
def specs():
    specs = []
    for index in range(6):
        workload, kwargs = KINDS[index % len(KINDS)]
        run = make_workload(workload, seed=30 + index, **kwargs).record()
        specs.append(
            TenantSpec(
                name=f"{workload}-{index}",
                run=run,
                priority=1 + index % 2,
                address_offset=index << 32,
            )
        )
    return specs


class _Untouchable(list):
    """A sample list that fails the test if anything reads it."""

    def _fail(self, *args, **kwargs):
        raise AssertionError("snapshot() read a sample list")

    __iter__ = __getitem__ = __len__ = __reversed__ = _fail


def assert_consistent(shard):
    """Totals equal sums over samples; snapshot equals a recompute."""
    for name, runtime in shard.runtimes.items():
        telemetry = runtime.telemetry
        expected = sample_totals(telemetry)
        assert {
            key: getattr(telemetry, key) for key in expected
        } == expected, name
    real = {
        name: runtime.telemetry.samples
        for name, runtime in shard.runtimes.items()
    }
    for runtime in shard.runtimes.values():
        runtime.telemetry.samples = _Untouchable()
    try:
        snapshot = shard.snapshot()
    finally:
        for name, runtime in shard.runtimes.items():
            runtime.telemetry.samples = real[name]
    assert (snapshot.cpi, snapshot.miss_rate) == shard_aggregates(shard)
    for row in snapshot.residents:
        telemetry = shard.runtimes[row.name].telemetry
        counts = sample_totals(telemetry)
        assert row.instructions == counts["instructions"]
        assert row.cpi == TenantTelemetry(
            row.name, row.priority, samples=list(telemetry.samples)
        ).cpi(TIMING)


def test_record_keeps_totals_and_cpi_matches_resummed_samples():
    samples = [
        WindowSample(
            window_index=index,
            columns=1 + index % 3,
            instructions=100 + 7 * index,
            accesses=40 + index,
            hits=30 + index // 2,
            misses=10 + index - index // 2,
            quanta=1 + index % 2,
            remap_cycles=5 * (index % 4),
        )
        for index in range(9)
    ]
    recorded = TenantTelemetry("t", 1)
    for sample in samples:
        recorded.record(sample)
    built = TenantTelemetry("t", 1, samples=list(samples))
    for telemetry in (recorded, built):
        assert telemetry.samples == samples
        assert {
            key: getattr(telemetry, key)
            for key in sample_totals(telemetry)
        } == sample_totals(telemetry)
    assert recorded == built
    for skip in (0, 1, 4, 9, 12):
        kept = samples[skip:]
        instructions = sum(s.instructions for s in kept)
        cycles = (
            instructions
            + sum(s.misses for s in kept) * TIMING.miss_penalty
            + sum(s.quanta for s in kept) * TIMING.context_switch_cycles
            + sum(s.remap_cycles for s in kept)
        )
        expected = cycles / instructions if instructions else 0.0
        assert recorded.cpi(TIMING, skip_samples=skip) == expected


def test_totals_and_snapshot_follow_every_population_change(specs):
    """Admit, advance, depart, extract and inject, checked each step."""
    shard = ShardServer(0, GEOMETRY, TIMING, CONFIG)
    other = ShardServer(1, GEOMETRY, TIMING, CONFIG)
    a, b, c, d, x, y = specs

    def step(*shards):
        for each in shards:
            assert_consistent(each)

    step(shard)
    assert shard.admit(a) and shard.admit(b)
    step(shard)
    shard.advance()
    step(shard)
    shard.depart(a.name)
    step(shard)
    shard.advance()
    step(shard)
    # Re-admitting a departed name replaces its runtime (and its
    # history's share of the shard totals).
    departed = shard.runtimes[a.name]
    assert departed.telemetry.instructions > 0
    assert shard.admit(a)
    assert shard.runtimes[a.name] is not departed
    step(shard)
    shard.advance()
    step(shard)

    assert other.admit(x) and other.admit(y)
    other.advance()
    other.advance()
    step(other)
    migrant = other.extract(x.name)
    step(other)
    assert migrant.runtime.telemetry.instructions > 0

    assert shard.admit(c) and shard.admit(d)  # four of four columns
    step(shard)
    # Injecting into a full shard leaves a REJECTED runtime, history
    # and all, in the shard's runtimes.
    assert not shard.inject(migrant)
    assert shard.runtimes[x.name].telemetry.status is TenantStatus.REJECTED
    step(shard)
    shard.advance()
    step(shard)

    moved = shard.extract(b.name)
    step(shard)
    assert other.inject(moved)
    step(other)
    shard.advance()
    other.advance()
    step(shard, other)
