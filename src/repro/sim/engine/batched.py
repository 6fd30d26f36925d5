"""Vectorized lockstep LRU: simulate many independent cache sets at once.

This is the one fast engine for the paper's Section 2 mechanism — a
column cache searches every column on lookup and replaces only inside
the access's column mask — and :class:`LockstepCache` is its stateful
front door.  The reference
:class:`~repro.cache.column_cache.ColumnCache` walks a trace one
access at a time; this module instead exploits that under (masked)
LRU, cache sets never interact: an access touches exactly the set its
block indexes, and replacement decisions depend only on the relative
recency of lines *within that set*.  So the trace is sharded by set
index (vectorized with numpy) and **every set advances one access per
round**.  Each round touches each set at most once, so the per-round
work — tag compare, LRU victim selection, fill — is a handful of numpy
operations over all active sets simultaneously.

Rows generalize sets: a "row" is one independent LRU set, and callers
may stack the sets of many unrelated simulations (different sweep
points) into one state so a whole sweep advances in lockstep.  That is
what makes the engine's hot path fast on a single core: the Python
interpreter executes O(max accesses per set) round steps instead of
O(total accesses) per-access steps.

Layout: accesses are stably sorted by row once, rows (groups) are
ordered by access count descending, and the per-group state is packed
into a dense prefix — so every round reads its state as a contiguous
slice ``[:alive]`` instead of a fancy gather, and ``alive`` only
shrinks.  Skewed traces (a few very hot rows) would degenerate into
many narrow rounds; once ``alive`` drops below ``scalar_cutoff`` the
residual accesses are finished by a scalar per-row loop seeded from
the packed state.

Bit-exactness: per-row clocks preserve each set's recency order, the
victim scan resolves ties toward the lowest way exactly like the
reference model, an empty mask is a counted bypass, and a line is
valid iff it has ever been used (:meth:`LockstepState.valid`), so any
int64 tag — negative ones included — is a real tag.  The differential
oracle (``tests/test_differential_oracle.py``) drives this kernel, its
compiled twin and ``ColumnCache`` with identical random traces and
asserts equal per-access outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, cast

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.sim.engine import _compiled, backends

#: Default round width below which the scalar tail takes over
#: (tuned on the Figure 5 matrix; correctness is cutoff-independent).
DEFAULT_SCALAR_CUTOFF = 96

#: Sentinel larger than any real timestamp (victim scan masking).
_FAR = np.int64(1) << np.int64(62)

#: 32-bit twin of :data:`_FAR`, and the magnitude bound below which
#: the kernel may run its hot path on int32 columns.
_FAR32 = 1 << 30

#: Widest associativity whose per-access masks map to candidate ways
#: through a precomputed ``2**ways``-row table (48 KiB at 12 ways);
#: wider caches derive each miss row's candidates from its mask bits.
_MASK_TABLE_MAX_WAYS = 12


@dataclass
class FastSimResult:
    """Aggregate outcome of a simulation run."""

    hits: int
    misses: int
    bypasses: int

    @property
    def accesses(self) -> int:
        """Total accesses simulated."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


@dataclass
class LockstepState:
    """Mutable cache state for a bank of independent LRU rows.

    Attributes:
        tags: ``(rows, ways)`` resident tag per line (any int64; ``-1``
            in lines that were never filled, but only :meth:`valid`
            lines hold a meaningful tag).
        last_use: ``(rows, ways)`` per-row timestamp of last touch,
            ``-1`` = never used.
        clock: ``(rows,)`` accesses seen per row so far (the per-row
            clock; recency comparisons never cross rows).
    """

    tags: np.ndarray
    last_use: np.ndarray
    clock: np.ndarray

    @classmethod
    def cold(cls, rows: int, ways: int) -> "LockstepState":
        """Everything-invalid state for ``rows`` independent sets."""
        if rows < 1 or ways < 1:
            raise ValueError(
                f"need rows >= 1 and ways >= 1, got {rows}x{ways}"
            )
        return cls(
            tags=np.full((rows, ways), -1, dtype=np.int64),
            last_use=np.full((rows, ways), -1, dtype=np.int64),
            clock=np.zeros(rows, dtype=np.int64),
        )

    @property
    def rows(self) -> int:
        """Number of independent LRU rows."""
        return self.tags.shape[0]

    @property
    def ways(self) -> int:
        """Associativity of every row."""
        return self.tags.shape[1]

    def valid(self) -> np.ndarray:
        """``(rows, ways)`` valid-line mask: the one empty-line rule.

        A line is valid iff it has been used (``last_use >= 0``); its
        tag is then whatever was filled, negative values included.
        Both kernels and every occupancy reader follow this rule.
        """
        return self.last_use >= 0


def narrow_blocks(blocks: np.ndarray) -> np.ndarray:
    """``blocks`` as int32 when every value fits, else unchanged.

    Narrow block columns keep the gather/sort/kernel paths on half the
    memory traffic; both kernels accept int32 or int64.  Both ends are
    checked, so very negative blocks never wrap onto small ones.
    """
    if (
        blocks.dtype != np.int32
        and -(1 << 31) <= int(blocks.min())
        and int(blocks.max()) < (1 << 31)
    ):
        return blocks.astype(np.int32)
    return blocks


def _sort_by_row(rows: np.ndarray) -> np.ndarray:
    """Stable argsort by row, using a narrow key when it fits (numpy
    picks radix sort for small integer dtypes — much faster than
    comparison sorting the full int64 key)."""
    peak = int(rows.max())  # callers guarantee a non-empty batch
    if peak < (1 << 15):
        key = rows.astype(np.int16)
    elif peak < (1 << 31):
        key = rows.astype(np.int32)
    else:
        key = rows
    return np.argsort(key, kind="stable")


#: Outcome codes of the scalar tail (a filled miss is 0).
_HIT = 1
_BYPASS = 2


def _scalar_finish_group(
    tags_row: np.ndarray,
    use_row: np.ndarray,
    clock_base: int,
    group_tags: np.ndarray,
    group_masks: Optional[np.ndarray],
    uniform_candidates: Optional[tuple[int, ...]],
    first_occurrence: int,
    depths: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Finish one row's residual accesses with the scalar LRU loop.

    Operates directly on the packed state rows, so lockstep rounds and
    the scalar tail compose exactly.  Returns one outcome code per
    access: ``_HIT``, ``_BYPASS`` or 0 for a filled miss.  When
    ``depths`` is given, each hit also stores its stack depth there
    (misses leave their entry untouched).
    """
    ways = len(tags_row)
    tag_to_way = {
        int(tags_row[way]): way
        for way in range(ways)
        if use_row[way] >= 0
    }
    codes = bytearray(len(group_tags))
    for offset in range(len(group_tags)):
        tag = int(group_tags[offset])
        clock = clock_base + first_occurrence + offset
        way = tag_to_way.get(tag)
        if way is not None:
            if depths is not None:
                depths[offset] = int((use_row > use_row[way]).sum())
            use_row[way] = clock
            codes[offset] = _HIT
            continue
        if uniform_candidates is not None:
            candidates = uniform_candidates
        else:
            bits = int(group_masks[offset])
            candidates = tuple(w for w in range(ways) if bits >> w & 1)
        if not candidates:
            codes[offset] = _BYPASS
            continue
        victim = -1
        best = 1 << 62
        for candidate in candidates:
            use = int(use_row[candidate])
            if use < best:
                best = use
                victim = candidate
        if best >= 0:  # the victim line is valid: evict its tag
            del tag_to_way[int(tags_row[victim])]
        tags_row[victim] = tag
        tag_to_way[tag] = victim
        use_row[victim] = clock
    return np.frombuffer(codes, dtype=np.uint8)


def _absent_tag(tags: np.ndarray, low: int, high: int) -> int:
    """An int64 value not among ``tags`` (whose extremes are given).

    Just below the minimum when that fits in int64 (and, for batches
    that fit the compact int32 gate, in int32 too), else just above
    the maximum, else — a batch spanning the whole int64 range — the
    first gap between its distinct values.
    """
    if low > -(1 << 63):
        return low - 1
    if high < (1 << 63) - 1:
        return high + 1
    distinct = np.unique(tags)
    # Differences of sorted int64 values, exact once read as uint64.
    steps = (distinct[1:] - distinct[:-1]).view(np.uint64)
    return int(distinct[int(np.flatnonzero(steps > 1)[0])]) + 1


def lockstep_run(
    rows: np.ndarray,
    tags: np.ndarray,
    state: LockstepState,
    mask_bits: Optional[np.ndarray] = None,
    uniform_mask: Optional[int] = None,
    scalar_cutoff: int = DEFAULT_SCALAR_CUTOFF,
    collect: str = "flags",
    backend: Optional[str] = None,
) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
    """Simulate one batch of accesses against a bank of LRU rows.

    Args:
        rows: Per-access row (set) index (any integer dtype), all
            within ``state.rows``.
        tags: Per-access tag (any integer dtype, any value —
            emptiness is tracked by ``last_use``, not by tag).
        state: Mutable cache state, advanced in place.
        mask_bits: Per-access replacement masks, or None.
        uniform_mask: One mask for every access (mutually exclusive
            with ``mask_bits``); None means all ways.
        scalar_cutoff: Once fewer than this many rows remain active in
            a round, the residual accesses finish in the scalar tail
            loop (guards against skewed row distributions); the
            compiled backend, being scalar throughout, ignores it.
        collect: ``"flags"`` returns per-access flag arrays;
            ``"misses"`` skips all per-access flag materialization and
            returns only the positions of the misses — the batching
            engine's counting path, measurably faster on huge batches;
            ``"depths"`` returns each access's LRU stack depth.
        backend: Kernel backend for this call — ``"numpy"``,
            ``"compiled"`` or ``"auto"``; None (the default) uses the
            session's active backend
            (:func:`repro.sim.engine.backends.active_backend`).  The
            backends are bit-identical in outcomes and state; an
            associativity the compiled kernel cannot represent
            (``ways > 63``) silently runs on numpy.

    Returns:
        With ``collect="flags"``: ``(hit_flags, bypass_flags)``
        boolean arrays in access order.  The flags are disjoint: a hit
        sets only ``hit_flags``, a miss with an empty mask sets only
        ``bypass_flags``, and a filled miss sets neither.
        With ``collect="misses"``: one int64 array of the access
        positions that missed (bypasses included), in no particular
        order.
        With ``collect="depths"``: each access's LRU stack depth, in
        access order (uint8 up to 255 ways): a hit line's rank among
        its row's valid ways by ``last_use`` before the touch (0 =
        most recently used), ``state.ways`` on a miss or bypass.  On
        a cold, unmasked state an access hits in a ``c``-way cache
        iff its depth is below ``c`` (LRU is a stack algorithm).
        State evolution is identical in all modes.
    """
    if mask_bits is not None and uniform_mask is not None:
        raise ValueError("give either mask_bits or uniform_mask, not both")
    if collect not in ("flags", "misses", "depths"):
        raise ValueError(f"unknown collect mode {collect!r}")
    misses_only = collect == "misses"
    flags = collect == "flags"
    rows = np.ascontiguousarray(rows)
    tags = np.ascontiguousarray(tags)
    n = len(rows)
    ways = state.ways
    depth_dtype = np.min_scalar_type(ways)
    hit_flags = bypass_flags = None
    if flags:
        hit_flags = np.zeros(n, dtype=bool)
        bypass_flags = np.zeros(n, dtype=bool)
    if n == 0:
        if misses_only:
            return np.zeros(0, dtype=np.int64)
        if not flags:
            return np.zeros(0, dtype=depth_dtype)
        return hit_flags, bypass_flags
    if len(tags) != n:
        raise ValueError("rows and tags length mismatch")

    backend_name = (
        backends.active_backend()
        if backend is None
        else backends.resolve_backend(backend)
    )
    if backend_name == "compiled" and _compiled.supports(ways):
        if mask_bits is not None and len(mask_bits) != n:
            raise ValueError("mask_bits length mismatch")
        return _compiled.lockstep_run_compiled(
            rows, tags, state, mask_bits, uniform_mask, collect
        )
    full_mask = (1 << ways) - 1
    masks_sorted: Optional[np.ndarray] = None
    uniform_candidates: Optional[tuple[int, ...]] = None
    uniform_cand_row: Optional[np.ndarray] = None
    if mask_bits is not None:
        masks = np.ascontiguousarray(mask_bits)
        if len(masks) != n:
            raise ValueError("mask_bits length mismatch")
    else:
        masks = None
        bits = full_mask if uniform_mask is None else int(uniform_mask)
        uniform_candidates = tuple(
            w for w in range(ways) if bits >> w & 1
        )
        uniform_cand_row = np.array(
            [bits >> w & 1 > 0 for w in range(ways)], dtype=bool
        )

    # ------------------------------------------------------------------
    # Group accesses by row; order groups by size descending so every
    # round works on the dense prefix [:alive] of the packed state.
    # ------------------------------------------------------------------
    order = _sort_by_row(rows)
    sorted_rows = rows[order]
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    sizes = np.diff(np.append(starts, n))
    group_rows = sorted_rows[starts]
    by_size = np.argsort(sizes, kind="stable")[::-1]
    starts_d = starts[by_size]
    sizes_d = sizes[by_size]
    rows_d = group_rows[by_size]
    group_count = len(rows_d)
    total_rounds = int(sizes_d[0])

    tags_sorted = tags[order]
    if masks is not None:
        masks_sorted = masks[order]

    # ------------------------------------------------------------------
    # Transpose to round-major order.  Round r serves the dense group
    # ranks 0..alive[r]-1, so with accesses laid out round-by-round
    # every round reads/writes *contiguous slices* — no per-round
    # gathers or index arithmetic in the hot loop.  The transposed
    # position of access (group rank g, intra index r) is
    # ``round_start[r] + g``.
    # ------------------------------------------------------------------
    size_histogram = np.bincount(sizes_d, minlength=total_rounds + 1)
    alive_by_round = group_count - np.cumsum(size_histogram)[:total_rounds]
    round_start = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(alive_by_round))
    )
    rank_of_group = np.empty(group_count, dtype=np.int64)
    rank_of_group[by_size] = np.arange(group_count, dtype=np.int64)
    intra = np.arange(n, dtype=np.int64)
    intra -= np.repeat(starts, sizes)
    transposed = round_start[intra]
    transposed += np.repeat(rank_of_group, sizes)

    # Value dtype: the round loop and the transposed columns are pure
    # memory traffic, so when tags and clocks fit in 32 bits (they do
    # for every realistic trace) the whole hot path runs on half the
    # bytes.  State in/out stays int64 — this is internal only.  The
    # gate bounds both ends of the batch's tags AND of the resident
    # state's tags (a previous batch may have filled wide or very
    # negative tags that would otherwise wrap on the narrowing astype
    # and falsely match small tags); resident last_use values are
    # bounded by the rows' clocks.
    clock_limit = int(state.clock[rows_d].max()) + total_rounds
    tag_low = int(tags_sorted.min())
    tag_high = int(tags_sorted.max())
    resident_tags = state.tags[rows_d]
    compact = (
        -_FAR32 < tag_low
        and tag_high < _FAR32
        and -_FAR32 < int(resident_tags.min())
        and int(resident_tags.max()) < _FAR32
        and clock_limit < _FAR32
    )
    value_dtype = np.int32 if compact else np.int64
    far = np.int32(_FAR32) if compact else _FAR

    tags_t = np.empty(n, dtype=value_dtype)
    tags_t[transposed] = tags_sorted.astype(value_dtype, copy=False)

    # Packed state: one dense row per active group.  Empty lines get a
    # tag no access of this batch carries, so the round loop's plain
    # tag compare can never hit one (any tag value is a real tag).
    packed_tags = resident_tags.astype(value_dtype)
    packed_use = state.last_use[rows_d].astype(value_dtype)
    empty_lines = packed_use < 0
    np.copyto(
        packed_tags,
        _absent_tag(tags_sorted, tag_low, tag_high),
        where=empty_lines,
    )
    clock_base = state.clock[rows_d].astype(value_dtype)
    # Flat views: every per-round update below is one 1D scatter.
    flat_tags = packed_tags.reshape(-1)
    flat_use = packed_use.reshape(-1)
    row_base = np.arange(group_count, dtype=np.int64) * np.int64(ways)

    miss_parts: list[np.ndarray] = []
    hit_t = bypass_t = None
    if flags:
        hit_t = np.zeros(n, dtype=bool)
        bypass_t = np.zeros(n, dtype=bool)
    depth_t = (
        None if collect != "depths" else np.full(n, ways, depth_dtype)
    )
    way_shift = np.arange(ways, dtype=np.int64)
    row_index = np.arange(group_count, dtype=np.int64)

    mask_table: Optional[np.ndarray] = None
    if masks is not None:
        if ways <= _MASK_TABLE_MAX_WAYS:
            # mask bits -> candidate-way boolean row, every mask value.
            mask_table = (
                (np.arange(1 << ways, dtype=np.int64)[:, None] >> way_shift)
                & 1
            ) > 0
        any_empty_mask = bool((masks == 0).any())
        # Past 63 ways the full mask does not fit in int64, so those
        # caches go without the all-full shortcut below.
        full_row_mask = np.int64(full_mask) if ways < 64 else None
    uniform_full = (
        masks is None
        and len(uniform_candidates) == ways
    )

    # Round-loop scratch, allocated once.  Every vector op below
    # writes into these via ``out=``/``copyto`` — per-round
    # temporaries would exceed the allocator's mmap threshold and
    # page-fault fresh memory every round, which costs more than the
    # arithmetic itself.
    match_buf = np.empty((group_count, ways), dtype=bool)
    way_buf = np.empty(group_count, dtype=np.intp)
    victim_buf = np.empty(group_count, dtype=np.intp)
    probe_buf = np.empty(group_count, dtype=np.int64)
    taken_buf = np.empty(group_count, dtype=value_dtype)
    hit_buf = np.empty(group_count, dtype=bool)
    clock_buf = np.empty(group_count, dtype=value_dtype)

    # With <= 8 ways the match matrix packs into one byte per row:
    # a byte of 0 is a miss, otherwise a 256-entry table maps the
    # (unique) set bit to its way — cheaper than argmax + tag probe.
    packed_way = ways <= 8
    if packed_way:
        way_lut = np.zeros(256, dtype=np.intp)
        for bits_value in range(1, 256):
            way_lut[bits_value] = (
                (bits_value & -bits_value).bit_length() - 1
            )

    # First round the vectorized loop leaves for the scalar tail.
    narrow = np.flatnonzero(alive_by_round < scalar_cutoff)
    stop_round = int(narrow[0]) if len(narrow) else total_rounds

    for round_index in range(stop_round):
        alive = int(alive_by_round[round_index])
        chunk = slice(
            int(round_start[round_index]),
            int(round_start[round_index]) + alive,
        )
        chunk_tags = tags_t[chunk]
        # A resident tag occupies exactly one way, so the match matrix
        # has at most one set bit per row.
        match = match_buf[:alive]
        np.equal(
            packed_tags[:alive], chunk_tags[:, None], out=match
        )
        way = way_buf[:alive]
        hit = hit_buf[:alive]
        if packed_way:
            match_bits = np.packbits(
                match, axis=1, bitorder="little"
            )[:, 0]
            np.take(way_lut, match_bits, out=way)
            np.not_equal(match_bits, 0, out=hit)
            probe = probe_buf[:alive]
            np.add(row_base[:alive], way, out=probe)
        else:
            # argmax finds the matching way; rows without a match get
            # way 0 and fail the equality probe.
            match.argmax(axis=1, out=way)
            probe = probe_buf[:alive]
            np.add(row_base[:alive], way, out=probe)
            taken = taken_buf[:alive]
            np.take(flat_tags, probe, out=taken)
            np.equal(taken, chunk_tags, out=hit)
        if flags:
            hit_t[chunk] = hit
        if depth_t is not None:
            # Rank each hit line among its row's lines before the
            # touch (empty lines hold last_use -1 and never count).
            hit_rows = np.flatnonzero(hit)
            last = flat_use[probe[hit_rows]]
            depth_t[chunk.start + hit_rows] = (
                packed_use[hit_rows] > last[:, None]
            ).sum(axis=1)
        clock_now = clock_buf[:alive]
        np.add(clock_base[:alive], round_index, out=clock_now)

        if bool(hit.all()):
            # Pure-hit round: LRU touch only, no fills.
            flat_use[probe] = clock_now
            continue

        # LRU-touch the hits, then fill only the miss subset (the
        # packed rows are 0..alive-1, so the miss row index doubles as
        # the flat state offset — every update is a 1D scatter).
        if bool(hit.any()):
            touched = probe[hit]
            flat_use[touched] = clock_now[hit]
            miss_idx = np.flatnonzero(~hit)
        else:
            miss_idx = np.arange(alive, dtype=np.int64)
        # Sorted-order positions of this round's misses (the miss row
        # rank doubles as the group index); masks are only consulted
        # on misses, so they are gathered from sorted order here
        # instead of being transposed up front like the tags.
        miss_sorted = starts_d[miss_idx] + round_index
        if misses_only:
            miss_parts.append(miss_sorted)
        miss_tags = chunk_tags[miss_idx]
        miss_use = packed_use[miss_idx]
        victim = victim_buf[: len(miss_idx)]
        if masks is not None:
            miss_masks = masks_sorted[miss_sorted]
            if (
                any_empty_mask
                or full_row_mask is None
                or not bool((miss_masks == full_row_mask).all())
            ):
                if mask_table is not None:
                    allowed = mask_table[miss_masks]
                else:
                    allowed = (
                        (miss_masks.astype(np.int64)[:, None] >> way_shift)
                        & 1
                    ) > 0
                np.copyto(miss_use, far, where=~allowed)
            if any_empty_mask:
                fillable = miss_masks != 0
                if not bool(fillable.all()):
                    if flags:
                        bypass_at = np.zeros(alive, dtype=bool)
                        bypass_at[miss_idx[~fillable]] = True
                        bypass_t[chunk] = bypass_at
                    miss_idx = miss_idx[fillable]
                    miss_use = miss_use[fillable]
                    miss_tags = miss_tags[fillable]
                    victim = victim_buf[: len(miss_idx)]
        elif not uniform_candidates:
            # Empty uniform mask: every miss bypasses, nothing fills.
            if flags:
                bypass_at = np.zeros(alive, dtype=bool)
                bypass_at[miss_idx] = True
                bypass_t[chunk] = bypass_at
            continue
        elif not uniform_full:
            np.copyto(miss_use, far, where=~uniform_cand_row)
        if len(miss_idx):
            miss_use.argmin(axis=1, out=victim)
            target = miss_idx * np.int64(ways) + victim
            flat_tags[target] = miss_tags
            flat_use[target] = clock_now[miss_idx]

    if stop_round < total_rounds:
        # Skew tail: few hot rows remain; finish each one scalar.
        alive = int(alive_by_round[stop_round])
        for group in range(alive):
            start = int(starts_d[group])
            size = int(sizes_d[group])
            span = slice(start + stop_round, start + size)
            group_depths = (
                None
                if depth_t is None
                else np.full(size - stop_round, ways, depth_dtype)
            )
            codes = _scalar_finish_group(
                packed_tags[group],
                packed_use[group],
                int(clock_base[group]),
                tags_sorted[span],
                masks_sorted[span] if masks is not None else None,
                uniform_candidates,
                stop_round,
                group_depths,
            )
            if misses_only:
                miss_parts.append(
                    start + stop_round + np.flatnonzero(codes != _HIT)
                )
                continue
            out_positions = (
                round_start[stop_round:size] + row_index[group]
            )
            if depth_t is not None:
                depth_t[out_positions] = group_depths
                continue
            hit_t[out_positions[codes == _HIT]] = True
            bypass_t[out_positions[codes == _BYPASS]] = True

    # Write packed state back (still-empty lines get their -1 tag
    # back); un-transpose the flags in one gather.
    np.copyto(packed_tags, -1, where=packed_use < 0)
    state.tags[rows_d] = packed_tags
    state.last_use[rows_d] = packed_use
    state.clock[rows_d] = clock_base + sizes_d
    if misses_only:
        if not miss_parts:
            return np.zeros(0, dtype=np.int64)
        return order[np.concatenate(miss_parts)]
    if depth_t is not None:
        depths = np.empty(n, dtype=depth_dtype)
        depths[order] = depth_t[transposed]
        return depths
    hit_flags[order] = hit_t[transposed]
    bypass_flags[order] = bypass_t[transposed]
    return hit_flags, bypass_flags


class LockstepCache:
    """A stateful column cache backed by the lockstep kernel.

    The production cache model: executors, baselines, the trace CLI
    and the multitask simulator all run on it.  It consumes *numpy
    block columns* (the columnar trace pipeline), or byte-address
    columns with the geometry's offset bits: state persists across
    :meth:`run` calls, counters accumulate, and the per-access
    outcomes are bit-identical to the reference
    :class:`~repro.cache.column_cache.ColumnCache` — but each call is
    one kernel invocation, with no Python-list round-trip.

    On the compiled backend a call hands the column itself to
    :func:`~repro.sim.engine._compiled.lockstep_run_compiled`, which
    derives rows and tags in the C loop and counts hits and bypasses:
    :meth:`run` builds no per-access array and :meth:`run_with_flags`
    only the hit flags it returns.  The numpy backend (and caches past
    the C kernel's 63 ways) splits rows and tags for
    :func:`lockstep_run` and sums its flags: the reference path.

    ``backend`` pins every call to one kernel backend (``"numpy"`` /
    ``"compiled"`` / ``"auto"``); None follows the session's active
    backend (see :mod:`repro.sim.engine.backends`).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        backend: Optional[str] = None,
    ) -> None:
        self.geometry = geometry
        self.sets = geometry.sets
        self.ways = geometry.columns
        self.index_bits = geometry.index_bits
        self.backend = backend
        self.state = LockstepState.cold(self.sets, self.ways)
        self.hits = 0
        self.misses = 0
        self.bypasses = 0

    def run(
        self,
        blocks: np.ndarray | Sequence[int],
        mask_bits: Optional[np.ndarray | Sequence[int]] = None,
        uniform_mask: Optional[int] = None,
        offset_bits: int = 0,
    ) -> FastSimResult:
        """Advance the cache over one batch; per-call counts.

        ``blocks`` holds block numbers, or byte addresses when
        ``offset_bits`` (the geometry's ``offset_bits``) is given:
        ``run(addresses, offset_bits=g.offset_bits)`` equals
        ``run(addresses >> g.offset_bits)``, without building the
        block column.
        """
        result, _hits = self._run(
            blocks, mask_bits, uniform_mask, offset_bits, flags=False
        )
        return result

    def run_with_flags(
        self,
        blocks: np.ndarray | Sequence[int],
        mask_bits: Optional[np.ndarray | Sequence[int]] = None,
        uniform_mask: Optional[int] = None,
    ) -> np.ndarray:
        """Like :meth:`run` but returns the per-access hit flags."""
        _result, hit_flags = self._run(
            blocks, mask_bits, uniform_mask, 0, flags=True
        )
        return hit_flags

    def _run(
        self,
        values: np.ndarray | Sequence[int],
        mask_bits: Optional[np.ndarray | Sequence[int]],
        uniform_mask: Optional[int],
        offset_bits: int,
        flags: bool,
    ) -> tuple[FastSimResult, Optional[np.ndarray]]:
        if mask_bits is not None and uniform_mask is not None:
            raise ValueError(
                "give either mask_bits or uniform_mask, not both"
            )
        if not 0 <= offset_bits < 64:
            raise ValueError(
                f"offset_bits must be in [0, 64), got {offset_bits}"
            )
        values = np.ascontiguousarray(values, dtype=np.int64)
        masks = (
            None
            if mask_bits is None
            else np.ascontiguousarray(mask_bits, dtype=np.int64)
        )
        if masks is not None and len(masks) != len(values):
            raise ValueError("mask_bits length mismatch")
        backend = (
            backends.active_backend()
            if self.backend is None
            else backends.resolve_backend(self.backend)
        )
        hit_flags: Optional[np.ndarray]
        if backend == "compiled" and _compiled.supports(self.ways):
            counts = np.zeros(2, dtype=np.int64)
            outcome = _compiled.lockstep_run_compiled(
                values,
                None,
                self.state,
                masks,
                uniform_mask,
                "hits" if flags else "counts",
                shift=offset_bits,
                counts=counts,
            )
            hit_flags = cast(np.ndarray, outcome) if flags else None
            hits, bypasses = int(counts[0]), int(counts[1])
        else:
            blocks = (
                values >> np.int64(offset_bits) if offset_bits else values
            )
            hit_flags, bypass_flags = lockstep_run(
                blocks & np.int64(self.sets - 1),
                blocks >> np.int64(self.index_bits),
                self.state,
                mask_bits=masks,
                uniform_mask=uniform_mask,
                backend="numpy",
            )
            hits = int(hit_flags.sum())
            bypasses = int(bypass_flags.sum())
        result = FastSimResult(
            hits=hits, misses=len(values) - hits, bypasses=bypasses
        )
        self.hits += result.hits
        self.misses += result.misses
        self.bypasses += result.bypasses
        return result, hit_flags

    def flush(self) -> None:
        """Invalidate everything (counters are kept)."""
        self.state = LockstepState.cold(self.sets, self.ways)

    def result(self) -> FastSimResult:
        """Cumulative counts since construction."""
        return FastSimResult(
            hits=self.hits, misses=self.misses, bypasses=self.bypasses
        )
