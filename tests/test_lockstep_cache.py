"""Contract tests for :class:`~repro.sim.engine.batched.LockstepCache`.

The stateful front door of the one cache engine, on both kernel
backends, against the block-level reference ``ColumnCache``
(``tests/oracles/column_cache.py``): miss-then-hit, bypass, uniform
masks, mask-argument validation, flush, state across calls, counters
that agree with the flags, and chunk boundaries.  Then the regressions
of the engine's edges: negative blocks (the empty-line rule), and
per-access masks on caches too wide for a mask lookup table.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.inspect.snapshots import column_occupancy
from repro.sim.engine.backends import compiled_available
from repro.sim.engine.batched import (
    LockstepCache,
    LockstepState,
    lockstep_run,
)

from oracles.column_cache import ReferenceCache, reference_streams

KERNELS = [
    "numpy",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            not compiled_available(),
            reason="compiled lockstep kernel unavailable",
        ),
    ),
]


def geometry(sets=4, columns=4, line_size=16):
    return CacheGeometry(line_size=line_size, sets=sets, columns=columns)


def trace(length, seed, columns, span=48):
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, span, length).astype(np.int64)
    masks = rng.integers(0, 1 << columns, length).astype(np.int64)
    return blocks, masks


@pytest.mark.parametrize("kernel", KERNELS)
class TestContract:
    def test_miss_then_hit(self, kernel):
        cache = LockstepCache(geometry(), backend=kernel)
        result = cache.run(np.array([0x10, 0x10]))
        assert (result.hits, result.misses, result.bypasses) == (1, 1, 0)
        assert result.accesses == 2
        assert result.miss_rate == pytest.approx(0.5)

    def test_empty_mask_bypasses(self, kernel):
        cache = LockstepCache(geometry(), backend=kernel)
        result = cache.run(np.array([0x10, 0x10]), mask_bits=[0, 0])
        assert (result.hits, result.misses, result.bypasses) == (0, 2, 2)
        assert column_occupancy(cache) == (0, 0, 0, 0)

    @pytest.mark.parametrize("uniform_mask", [None, 0b01, 0b10, 0])
    def test_uniform_mask_matches_reference(self, kernel, uniform_mask):
        g = geometry(sets=1, columns=2)
        blocks = np.array([0, 1, 2, 0, 2, 1, 1, 0])
        expected, bypasses, _ = reference_streams(
            g, blocks, uniform_mask=uniform_mask
        )
        cache = LockstepCache(g, backend=kernel)
        flags = cache.run_with_flags(blocks, uniform_mask=uniform_mask)
        assert np.array_equal(flags, expected)
        assert cache.bypasses == int(bypasses.sum())

    def test_one_column_mask_keeps_only_the_last_block(self, kernel):
        g = geometry(sets=1, columns=2)
        cache = LockstepCache(g, backend=kernel)
        cache.run(np.array([0, 1, 2]), uniform_mask=0b01)
        assert list(cache.run_with_flags(np.array([2, 0]))) == [True, False]

    @pytest.mark.parametrize("method", ["run", "run_with_flags"])
    def test_rejects_both_mask_kinds(self, kernel, method):
        cache = LockstepCache(geometry(), backend=kernel)
        with pytest.raises(ValueError, match="not both"):
            getattr(cache, method)([0], mask_bits=[1], uniform_mask=1)

    def test_flush_empties_but_keeps_counters(self, kernel):
        cache = LockstepCache(geometry(), backend=kernel)
        cache.run(np.array([0x10, 0x10]))
        cache.flush()
        assert column_occupancy(cache) == (0, 0, 0, 0)
        assert list(cache.run_with_flags(np.array([0x10]))) == [False]
        assert (cache.hits, cache.misses) == (1, 2)

    def test_state_persists_across_calls(self, kernel):
        cache = LockstepCache(geometry(), backend=kernel)
        cache.run(np.array([0x10]))
        assert cache.run(np.array([0x10])).hits == 1
        total = cache.result()
        assert (total.hits, total.misses, total.accesses) == (1, 1, 2)

    def test_flag_count_equals_hit_count(self, kernel):
        g = geometry()
        blocks, masks = trace(5000, seed=11, columns=4, span=128)
        counting = LockstepCache(g, backend=kernel)
        counted = counting.run(blocks, mask_bits=masks)
        flagging = LockstepCache(g, backend=kernel)
        flags = flagging.run_with_flags(blocks, mask_bits=masks)
        assert int(flags.sum()) == counted.hits
        assert flagging.result() == counting.result()
        expected, bypasses, _ = reference_streams(g, blocks, masks)
        assert np.array_equal(flags, expected)
        assert counted.bypasses == int(bypasses.sum())

    @pytest.mark.parametrize("chunk", [1, 63, 64, 65, 256, 257, 258])
    def test_chunk_boundaries_carry_state(self, kernel, chunk):
        """Streaming in chunks of any size (including 1, len-1, len
        and len+1) leaves the same stream, counters and resident
        state as one run: a follow-up trace sees the same hits."""
        g = geometry()
        blocks, masks = trace(257, seed=11, columns=4)
        follow_up, follow_masks = trace(100, seed=5, columns=4)
        reference = ReferenceCache(g)
        expected, _ = reference.run(blocks, mask_bits=masks)
        chunked = LockstepCache(g, backend=kernel)
        flags = np.concatenate(
            [
                chunked.run_with_flags(
                    blocks[start:start + chunk],
                    mask_bits=masks[start:start + chunk],
                )
                for start in range(0, len(blocks), chunk)
            ]
        )
        assert np.array_equal(flags, expected)
        assert chunked.hits == int(expected.sum())
        assert column_occupancy(chunked) == reference.occupancy()
        follow_expected, _ = reference.run(
            follow_up, mask_bits=follow_masks
        )
        assert np.array_equal(
            chunked.run_with_flags(follow_up, mask_bits=follow_masks),
            follow_expected,
        )

    @given(
        seed=st.integers(0, 2**31),
        length=st.integers(1, 200),
        columns=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_per_access_flags_are_exact(self, kernel, seed, length, columns):
        g = geometry(columns=columns)
        blocks, masks = trace(length, seed, columns)
        expected, _, _ = reference_streams(g, blocks, masks)
        flags = LockstepCache(g, backend=kernel).run_with_flags(
            blocks, mask_bits=masks
        )
        assert np.array_equal(flags, expected)


# ----------------------------------------------------------------------
# Negative blocks: a line is valid iff it was used, whatever its tag
# ----------------------------------------------------------------------
#: 64 sets x 4 columns x 64-byte lines: block -2 (address -128) has
#: tag -1, the tag cold lines hold.
NEGATIVE_GEOMETRY = geometry(sets=64, columns=4, line_size=64)


@pytest.mark.parametrize("kernel", KERNELS)
class TestNegativeBlocks:
    @pytest.mark.parametrize(
        ("addresses", "expected"),
        [
            # (a) Tag -1 must not hit the cold line of its set.
            ([-128, -128 + 7 * 4096], [False, False]),
            # (b) The first access to a tag -1 block is a miss.
            ([-128] * 3, [False, True, True]),
            # (c) Tag -1 evicted as the LRU victim is gone.
            (
                [-128 - 4096 * k for k in range(5)] + [-128],
                [False] * 6,
            ),
        ],
        ids=["a-cold-line", "b-first-access", "c-evicted"],
    )
    def test_reproductions(self, kernel, addresses, expected):
        blocks = np.array(addresses, dtype=np.int64) >> 6
        reference, _, _ = reference_streams(NEGATIVE_GEOMETRY, blocks)
        assert list(reference) == expected
        cache = LockstepCache(NEGATIVE_GEOMETRY, backend=kernel)
        assert list(cache.run_with_flags(blocks)) == expected
        # Scalar cutoff 0 keeps the numpy kernel in its vector rounds
        # (by default so few rows finish in the scalar tail).
        rows = blocks & (NEGATIVE_GEOMETRY.sets - 1)
        for cutoff in (0, 1000):
            hits, _ = lockstep_run(
                rows,
                blocks >> NEGATIVE_GEOMETRY.index_bits,
                LockstepState.cold(NEGATIVE_GEOMETRY.sets, 4),
                scalar_cutoff=cutoff,
                backend=kernel,
            )
            assert list(hits) == expected, cutoff

    def test_occupancy_after_negative_trace(self, kernel):
        """column_occupancy counts valid lines by the state's rule:
        lines filled with negative tags count, cold ones do not."""
        rng = np.random.default_rng(7)
        blocks = rng.integers(-300, 40, 500).astype(np.int64)
        masks = rng.integers(0, 16, 500).astype(np.int64)
        reference = ReferenceCache(NEGATIVE_GEOMETRY)
        reference.run(blocks, mask_bits=masks)
        cache = LockstepCache(NEGATIVE_GEOMETRY, backend=kernel)
        cache.run(blocks, mask_bits=masks)
        assert column_occupancy(cache) == reference.occupancy()
        assert 0 < sum(reference.occupancy()) < 256

    def test_tags_spanning_the_whole_int64_range(self, kernel):
        """A batch holding both int64 extremes and tag -1 still never
        hits an empty line (the numpy kernel's placeholder tag for
        empty lines must be a value the batch does not carry)."""
        low, high = -(1 << 63), (1 << 63) - 1
        tags = np.array([low, high, -1, low, high, -1], dtype=np.int64)
        state = LockstepState.cold(1, 4)
        hits, _ = lockstep_run(
            np.zeros(len(tags), dtype=np.int64), tags, state,
            scalar_cutoff=0, backend=kernel,
        )
        assert list(hits) == [False, False, False, True, True, True]
        assert column_occupancy(state) == (1, 1, 1, 0)
        assert list(state.tags[0]) == [low, high, -1, -1]

    def test_wide_negative_then_small_batch(self, kernel):
        """A resident tag far below -2**31 must not narrow onto a
        small tag in a later batch (the int32 gate checks both
        ends)."""
        g = geometry(sets=4, columns=2)
        wide = np.array([-(1 << 40) + 7 * 4], dtype=np.int64)
        small = np.array([7 * 4], dtype=np.int64)
        cache = LockstepCache(g, backend=kernel)
        cache.run(wide)
        assert list(cache.run_with_flags(small)) == [False]
        assert list(cache.run_with_flags(wide)) == [True]


# ----------------------------------------------------------------------
# Wide caches: per-access masks without a 2**ways table
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("columns", [13, 30, 63])
def test_wide_per_access_masks_match_reference(kernel, columns):
    """Per-access masks on caches past the mask-table width: the numpy
    kernel derives candidate ways from each miss's mask bits (a
    ``2**30``-row table would need 8 GiB)."""
    g = geometry(sets=2, columns=columns)
    rng = np.random.default_rng(columns)
    blocks = rng.integers(-4 * columns, 4 * columns, 1500).astype(np.int64)
    palette = [
        (1 << columns) - 1,
        1,
        1 << (columns - 1),
        int(rng.integers(1, 1 << min(columns, 62))),
        0,
    ]
    masks = np.array(
        [palette[int(i)] for i in rng.integers(0, len(palette), 1500)],
        dtype=np.int64,
    )
    expected, bypasses, _ = reference_streams(g, blocks, masks)
    cache = LockstepCache(g, backend=kernel)
    flags = cache.run_with_flags(blocks, mask_bits=masks)
    assert np.array_equal(flags, expected)
    assert cache.bypasses == int(bypasses.sum())


# ----------------------------------------------------------------------
# Caches wider than an int64 mask: 64 and 100 ways
# ----------------------------------------------------------------------
@st.composite
def wide_way_cases(draw):
    """A 64- or 100-way cache and blocks with per-access int64 masks.

    An int64 mask names ways 0-62 only, so a full mask does not fit:
    the palette holds ways 0-62, single ways, a random pattern and,
    when drawn, the empty mask (every miss bypasses).
    """
    columns = draw(st.sampled_from([64, 100]))
    sets = draw(st.sampled_from([1, 2, 128]))
    g = geometry(sets=sets, columns=columns)
    length = draw(st.one_of(st.just(1), st.integers(1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    span = draw(st.sampled_from([8, sets * columns, 3 * sets * columns]))
    blocks = rng.integers(-(span // 2), span, length).astype(np.int64)
    palette = [(1 << 63) - 1, 1, 1 << 62, int(rng.integers(1, 1 << 62))]
    if draw(st.booleans()):
        palette.append(0)
    masks = np.array(
        [palette[int(i)] for i in rng.integers(0, len(palette), length)],
        dtype=np.int64,
    )
    return g, blocks, masks


@pytest.mark.parametrize("kernel", KERNELS)
@given(case=wide_way_cases())
def test_wide_way_masks_through_lockstep_cache(kernel, case):
    """Past 63 ways the compiled backend runs on numpy; per-access
    masks match the reference on both."""
    g, blocks, masks = case
    expected, bypasses, _ = reference_streams(g, blocks, masks)
    reference = ReferenceCache(g)
    reference.run(blocks, mask_bits=masks)
    flagging = LockstepCache(g, backend=kernel)
    assert np.array_equal(
        flagging.run_with_flags(blocks, mask_bits=masks), expected
    )
    counting = LockstepCache(g, backend=kernel)
    result = counting.run(blocks, mask_bits=masks)
    assert result == flagging.result()
    assert result.hits == int(expected.sum())
    assert result.bypasses == int(bypasses.sum())
    assert column_occupancy(counting) == reference.occupancy()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("cutoff", [0, 10**9])
@given(case=wide_way_cases())
def test_wide_way_masks_through_lockstep_run(kernel, cutoff, case):
    """Every collect mode, through the round loop (cutoff 0) or the
    scalar tail: the reference's outcomes and one final state."""
    g, blocks, masks = case
    hits, bypasses, _ = reference_streams(g, blocks, masks)
    rows = blocks & np.int64(g.sets - 1)
    tags = blocks >> np.int64(g.index_bits)
    states = {}
    outputs = {}
    for collect in ("flags", "misses", "depths"):
        states[collect] = LockstepState.cold(g.sets, g.columns)
        outputs[collect] = lockstep_run(
            rows,
            tags,
            states[collect],
            mask_bits=masks,
            scalar_cutoff=cutoff,
            collect=collect,
            backend=kernel,
        )
    assert np.array_equal(outputs["flags"][0], hits)
    assert np.array_equal(outputs["flags"][1], bypasses)
    assert np.array_equal(
        np.sort(outputs["misses"]), np.flatnonzero(~hits)
    )
    assert np.array_equal(outputs["depths"] < g.columns, hits)
    for collect in ("misses", "depths"):
        for field in ("tags", "last_use", "clock"):
            assert np.array_equal(
                getattr(states[collect], field),
                getattr(states["flags"], field),
            ), (collect, field)
