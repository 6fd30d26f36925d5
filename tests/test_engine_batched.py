"""Equivalence tests for the lockstep kernel and its stateful cache.

The lockstep kernel (at every scalar-cutoff setting — the cutoff only
moves the vector/scalar boundary, never the results) and the stateful
:class:`~repro.sim.engine.batched.LockstepCache` must both be
bit-identical to the reference ``ColumnCache``
(``tests/oracles/column_cache.py``) — same hit, miss and bypass counts
on every trace, for every mask shape.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.sim.engine.batched import (
    LockstepCache,
    LockstepState,
    lockstep_run,
)

from oracles.column_cache import ReferenceCache, reference_streams


def counts(result):
    return (result.hits, result.misses, result.bypasses)


def reference_counts(geometry, blocks, masks=None, uniform=None):
    """(hits, misses, bypasses) of one cold reference run."""
    hits, bypasses, _ = reference_streams(
        geometry, blocks, mask_bits=masks, uniform_mask=uniform
    )
    return (
        int(hits.sum()),
        len(blocks) - int(hits.sum()),
        int(bypasses.sum()),
    )


def kernel_streams(geometry, blocks, masks, uniform, cutoff):
    """Per-access (hit, bypass) flags of one cold numpy lockstep run."""
    return lockstep_run(
        blocks & (geometry.sets - 1),
        blocks >> geometry.index_bits,
        LockstepState.cold(geometry.sets, geometry.columns),
        mask_bits=masks,
        uniform_mask=uniform,
        scalar_cutoff=cutoff,
        backend="numpy",
    )


@st.composite
def kernel_case(draw):
    """Random (geometry, blocks, masks, cutoff) tuple."""
    sets = draw(st.sampled_from([1, 2, 4, 8, 16]))
    columns = draw(st.integers(1, 8))
    geometry = CacheGeometry(line_size=16, sets=sets, columns=columns)
    length = draw(st.integers(1, 300))
    block_span = draw(st.sampled_from([4, 64, 1024]))
    block_base = draw(st.sampled_from([0, -512, -(1 << 40)]))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, block_span, length).astype(np.int64)
    blocks += block_base
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
    def test_counts_match_reference(self, case):
        geometry, blocks, masks, uniform, cutoff = case
        hit_flags, bypass_flags = kernel_streams(
            geometry, blocks, masks, uniform, cutoff
        )
        assert (
            int(hit_flags.sum()),
            len(blocks) - int(hit_flags.sum()),
            int(bypass_flags.sum()),
        ) == reference_counts(geometry, blocks, masks, uniform)

    @given(case=kernel_case())
    @settings(max_examples=60, deadline=None)
    def test_flags_match_reference_flags(self, case):
        geometry, blocks, masks, uniform, cutoff = case
        reference, _, _ = reference_streams(
            geometry, blocks, mask_bits=masks, uniform_mask=uniform
        )
        hit_flags, _ = kernel_streams(
            geometry, blocks, masks, uniform, cutoff
        )
        assert np.array_equal(hit_flags, reference)

    def test_state_persists_across_calls(self):
        geometry = CacheGeometry(line_size=16, sets=8, columns=4)
        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 256, 4000).astype(np.int64)
        reference = ReferenceCache(geometry)
        first, _ = reference.run(blocks[:2000])
        second, _ = reference.run(blocks[2000:])
        cache = LockstepCache(geometry, backend="numpy")
        assert cache.run(blocks[:2000]).hits == int(first.sum())
        assert cache.run(blocks[2000:]).hits == int(second.sum())

    def test_stacked_rows_are_independent(self):
        """Two points stacked with a row offset equal two separate runs."""
        geometry = CacheGeometry(line_size=16, sets=4, columns=2)
        rng = np.random.default_rng(4)
        blocks_a = rng.integers(0, 64, 500).astype(np.int64)
        blocks_b = rng.integers(0, 64, 500).astype(np.int64)
        separate_a = LockstepCache(geometry).run(blocks_a)
        separate_b = LockstepCache(geometry).run(blocks_b)
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
        lock = LockstepCache(geometry, backend="numpy")
        lock.run(wide)
        outcome = lock.run(small)
        reference = ReferenceCache(geometry)
        reference.run(wide)
        expected, _ = reference.run(small)
        assert outcome.hits == int(expected.sum()) == 0

    def test_wide_and_narrow_batches_match_reference(self):
        geometry = CacheGeometry(line_size=16, sets=8, columns=4)
        rng = np.random.default_rng(11)
        wide = (
            rng.integers(0, 64, 300).astype(np.int64) + (1 << 40)
        ) * 16
        narrow = rng.integers(0, 1024, 300).astype(np.int64) * 16
        for first, second in ((wide, narrow), (narrow, wide)):
            lock = LockstepCache(geometry, backend="numpy")
            reference = ReferenceCache(geometry)
            for batch in (first >> 4, second >> 4):
                lock_flags = lock.run_with_flags(batch)
                reference_flags, _ = reference.run(batch)
                assert np.array_equal(lock_flags, reference_flags)
