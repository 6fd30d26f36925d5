"""Equivalence tests for the lockstep kernel and the sharded path.

The lockstep kernel, the set-sharded runner and the chunked streaming
entry point must all be bit-identical to the scalar
:class:`~repro.cache.fastsim.FastColumnCache` — same hit, miss and
bypass counts on every trace, for every mask shape, at every
scalar-cutoff setting (the cutoff only moves the vector/scalar
boundary, never the results).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.fastsim import FastColumnCache
from repro.cache.geometry import CacheGeometry
from repro.sim.engine.batched import (
    LockstepCache,
    LockstepState,
    batched_simulate,
    lockstep_run,
)
from repro.sim.engine.sharded import (
    _stream_one_shard,
    simulate_columnar_sharded,
)
from repro.trace.trace import Trace

from strategies import mask_labelled_trace


def counts(result):
    return (result.hits, result.misses, result.bypasses)


@st.composite
def kernel_case(draw):
    """Random (geometry, blocks, masks, cutoff) tuple."""
    sets = draw(st.sampled_from([1, 2, 4, 8, 16]))
    columns = draw(st.integers(1, 8))
    geometry = CacheGeometry(line_size=16, sets=sets, columns=columns)
    length = draw(st.integers(1, 300))
    block_span = draw(st.sampled_from([4, 64, 1024]))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, block_span, length).astype(np.int64)
    mask_kind = draw(st.sampled_from(["none", "uniform", "per-access"]))
    uniform = None
    masks = None
    if mask_kind == "uniform":
        uniform = draw(st.integers(0, (1 << columns) - 1))
    elif mask_kind == "per-access":
        masks = rng.integers(0, 1 << columns, length).astype(np.int64)
    cutoff = draw(st.sampled_from([0, 3, 10_000]))
    return geometry, blocks, masks, uniform, cutoff


class TestLockstepEquivalence:
    @given(case=kernel_case())
    @settings(max_examples=120, deadline=None)
    def test_counts_match_scalar(self, case):
        geometry, blocks, masks, uniform, cutoff = case
        cache = FastColumnCache(geometry)
        if masks is not None:
            reference = cache.run(blocks.tolist(), mask_bits=masks.tolist())
        else:
            reference = cache.run(blocks.tolist(), uniform_mask=uniform)
        batched = batched_simulate(
            blocks,
            geometry,
            mask_bits=masks,
            uniform_mask=uniform,
            scalar_cutoff=cutoff,
        )
        assert counts(batched) == counts(reference)

    @given(case=kernel_case())
    @settings(max_examples=60, deadline=None)
    def test_flags_match_scalar_flags(self, case):
        geometry, blocks, masks, uniform, cutoff = case
        cache = FastColumnCache(geometry)
        if masks is not None:
            reference = cache.run_with_flags(
                blocks.tolist(), mask_bits=masks.tolist()
            )
        else:
            reference = cache.run_with_flags(
                blocks.tolist(), uniform_mask=uniform
            )
        _, hit_flags, _ = batched_simulate(
            blocks,
            geometry,
            mask_bits=masks,
            uniform_mask=uniform,
            scalar_cutoff=cutoff,
            return_flags=True,
        )
        assert np.array_equal(hit_flags, reference)

    def test_state_persists_across_calls(self):
        geometry = CacheGeometry(line_size=16, sets=8, columns=4)
        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 256, 4000).astype(np.int64)
        cache = FastColumnCache(geometry)
        first = cache.run(blocks[:2000].tolist())
        second = cache.run(blocks[2000:].tolist())
        state = LockstepState.cold(geometry.sets, geometry.columns)
        batched_first = batched_simulate(blocks[:2000], geometry, state=state)
        batched_second = batched_simulate(blocks[2000:], geometry, state=state)
        assert counts(batched_first) == counts(first)
        assert counts(batched_second) == counts(second)

    def test_stacked_rows_are_independent(self):
        """Two points stacked with a row offset equal two separate runs."""
        geometry = CacheGeometry(line_size=16, sets=4, columns=2)
        rng = np.random.default_rng(4)
        blocks_a = rng.integers(0, 64, 500).astype(np.int64)
        blocks_b = rng.integers(0, 64, 500).astype(np.int64)
        separate_a = batched_simulate(blocks_a, geometry)
        separate_b = batched_simulate(blocks_b, geometry)
        state = LockstepState.cold(2 * geometry.sets, geometry.columns)
        rows = np.concatenate(
            (
                blocks_a & (geometry.sets - 1),
                (blocks_b & (geometry.sets - 1)) + geometry.sets,
            )
        )
        tags = np.concatenate(
            (
                blocks_a >> geometry.index_bits,
                blocks_b >> geometry.index_bits,
            )
        )
        hit_flags, _ = lockstep_run(rows, tags, state)
        assert int(hit_flags[:500].sum()) == separate_a.hits
        assert int(hit_flags[500:].sum()) == separate_b.hits

    def test_rejects_both_mask_kinds(self):
        state = LockstepState.cold(4, 2)
        with pytest.raises(ValueError, match="not both"):
            lockstep_run(
                np.zeros(1, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                state,
                mask_bits=np.ones(1, dtype=np.int64),
                uniform_mask=1,
            )

    def test_empty_trace(self):
        state = LockstepState.cold(4, 2)
        hit, bypass = lockstep_run(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), state
        )
        assert len(hit) == 0 and len(bypass) == 0


class TestCompactDtypeGate:
    """The int32 hot path must refuse when *any* tag is wide —
    including tags already resident from a previous batch."""

    def test_wide_resident_tag_then_small_batch(self):
        geometry = CacheGeometry(line_size=16, sets=4, columns=2)
        # Row 0 holds a tag >= 2^31; a later small-tag batch must not
        # narrow the resident state and falsely hit.
        wide = np.array([(1 << 36) + 7 * 4], dtype=np.int64)
        small = np.array([7 * 4], dtype=np.int64)
        lock = LockstepCache(geometry)
        lock.run(wide)
        outcome = lock.run(small)
        reference = FastColumnCache(geometry)
        reference.run(wide.tolist())
        expected = reference.run(small.tolist())
        assert (outcome.hits, outcome.misses) == (
            expected.hits,
            expected.misses,
        )

    def test_wide_and_narrow_batches_match_scalar(self):
        geometry = CacheGeometry(line_size=16, sets=8, columns=4)
        rng = np.random.default_rng(11)
        wide = (
            rng.integers(0, 64, 300).astype(np.int64) + (1 << 40)
        ) * 16
        narrow = rng.integers(0, 1024, 300).astype(np.int64) * 16
        for first, second in ((wide, narrow), (narrow, wide)):
            lock = LockstepCache(geometry)
            scalar = FastColumnCache(geometry)
            for batch in (first >> 4, second >> 4):
                lock_flags = lock.run_with_flags(batch)
                scalar_flags = scalar.run_with_flags(batch.tolist())
                assert np.array_equal(lock_flags, scalar_flags)


class TestShardedEquivalence:
    @given(case=kernel_case(), shards=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_counts_match_scalar(self, case, shards):
        geometry, blocks, masks, uniform, _cutoff = case
        cache = FastColumnCache(geometry)
        if masks is not None:
            reference = cache.run(blocks.tolist(), mask_bits=masks.tolist())
            trace, variable_masks = mask_labelled_trace(
                geometry, blocks, masks
            )
            sharded = simulate_columnar_sharded(
                trace,
                geometry,
                shards=shards,
                variable_masks=variable_masks,
            )
        else:
            reference = cache.run(blocks.tolist(), uniform_mask=uniform)
            sharded = simulate_columnar_sharded(
                Trace.from_columns(blocks << geometry.offset_bits),
                geometry,
                shards=shards,
                uniform_mask=uniform,
            )
        assert counts(sharded) == counts(reference)

    def test_shards_partition_all_accesses(self):
        """Each shard worker streams exactly the accesses whose set
        index falls in its shard: together the shards cover the trace
        once, and their tallies sum to the unsharded run's."""
        geometry = CacheGeometry(line_size=16, sets=8, columns=2)
        rng = np.random.default_rng(5)
        blocks = rng.integers(0, 64, 400).astype(np.int64)
        trace = Trace.from_columns(blocks << geometry.offset_bits)
        shards = 3
        tallies = [
            _stream_one_shard(
                trace, geometry, shard, shards, 37, None, None, None,
                "numpy",
            )
            for shard in range(shards)
        ]
        rows = blocks & (geometry.sets - 1)
        for shard, (accesses, _hits, _bypasses) in enumerate(tallies):
            assert accesses == int(np.count_nonzero(rows % shards == shard))
        assert sum(tally[0] for tally in tallies) == len(blocks)
        reference = FastColumnCache(geometry).run(blocks.tolist())
        assert sum(tally[1] for tally in tallies) == reference.hits
        assert sum(tally[2] for tally in tallies) == reference.bypasses


class TestChunkedRun:
    def test_chunked_equals_single_run(self):
        geometry = CacheGeometry(line_size=16, sets=8, columns=4)
        rng = np.random.default_rng(5)
        blocks = rng.integers(0, 512, 10_000).astype(np.int64)
        masks = rng.integers(0, 16, 10_000).astype(np.int64)
        reference = FastColumnCache(geometry).run(
            blocks.tolist(), mask_bits=masks.tolist()
        )
        streaming = FastColumnCache(geometry).run_chunked(
            blocks, mask_bits=masks, chunk_size=777
        )
        assert counts(streaming) == counts(reference)

    def test_chunked_uniform_mask(self):
        geometry = CacheGeometry(line_size=16, sets=4, columns=2)
        blocks = np.arange(1000, dtype=np.int64) % 64
        reference = FastColumnCache(geometry).run(
            blocks.tolist(), uniform_mask=0b01
        )
        streaming = FastColumnCache(geometry).run_chunked(
            blocks, uniform_mask=0b01, chunk_size=64
        )
        assert counts(streaming) == counts(reference)

    def test_chunk_size_validation(self):
        geometry = CacheGeometry(line_size=16, sets=4, columns=2)
        with pytest.raises(ValueError, match="chunk_size"):
            FastColumnCache(geometry).run_chunked(
                np.zeros(1, dtype=np.int64), chunk_size=0
            )
