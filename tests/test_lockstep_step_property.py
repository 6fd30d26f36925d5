"""The C kernel's per-access step: probe the row's last way, then scan once.

``step()`` in ``sim/engine/_lockstep.c`` serves both C walks
(``repro_lockstep_flags`` and ``repro_fused_multitask``).  Each call
keeps a table of 4096 one-byte slots, zeroed at entry; slot
``row & 4095`` names the way that row last hit or filled.  The step
probes that way first, as a valid line, and only when the probe fails
scans the ways once, stopping at a match and tracking the mask's LRU
victim on the way.  The search order must not change any outcome, so
held here, on both kernels:

* stacked banks of more than 4096 rows in the rows/tags form, and an
  8192-set cache in the values form (blocks, or byte addresses with
  random in-line offsets), whose rows ``r`` and ``r + 4096`` share a
  slot, give every collect mode's outputs as the reference
  ``ColumnCache`` does, and leave numpy's final ``tags``, ``last_use``
  and ``clock`` and the reference's resident lines;
* the state carries over several calls, each of which restarts the
  slot table, under masks that change between calls (uniform, per
  access, mask 0 included); batches of one access, 63-way caches and
  negative tags (``-1`` is the tag of a cold line) are drawn;
* the fused schedule walk with per-job masks equals
  ``MultitaskSimulator`` through the Figure 5 matrix, and equals the
  reference window by window when a schedule is cut into several
  calls.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.sim.engine import _compiled
from repro.sim.engine.backends import (
    compiled_available,
    reset_backend,
    set_backend,
)
from repro.sim.engine.batched import (
    LockstepCache,
    LockstepState,
    lockstep_run,
)
from repro.sim.engine.fused import TenantBatch, fused_multitask_run
from repro.sim.engine.multitask_batch import simulate_multitask_matrix
from repro.sim.multitask import Job, MultitaskSimulator, quantum_schedule
from repro.trace.trace import Trace
from repro.utils.bitvector import ColumnMask

from oracles.column_cache import ReferenceCache

#: Every kernel backend this host can run.
KERNELS = ("numpy", "compiled") if compiled_available() else ("numpy",)

#: Slots of the C step's way table: rows r and r + SLOTS share one.
SLOTS = 4096

#: Associativities drawn: the edges, the paper's, and the C limit.
WAYS = (1, 2, 3, 4, 8, 63)

#: The reference embeds every row as one set of an 8192-set cache.
REFERENCE_SETS = 2 * SLOTS

#: The input forms of repro_lockstep_flags drawn here.
FORMS = ("rows", "blocks", "addresses")

LINE_SIZE = 16
OFFSET_BITS = 4


def reference_lines(cache):
    """``{(row, way, tag)}`` of the reference's valid lines."""
    return {
        (line.set_index, line.column, line.tag)
        for line in cache.cache.resident_lines()
    }


def resident_lines(state):
    """The same set for a lockstep state."""
    rows, ways = np.nonzero(state.valid())
    return {
        (int(row), int(way), int(state.tags[row, way]))
        for row, way in zip(rows, ways)
    }


def assert_same_state(state, expected, label):
    assert np.array_equal(state.tags, expected.tags), label
    assert np.array_equal(state.last_use, expected.last_use), label
    assert np.array_equal(state.clock, expected.clock), label


@st.composite
def mask_spec(draw, ways, length, rng):
    """One call's masks: all ways, one uniform mask (0 included), or
    per-access masks from a palette that may hold 0."""
    full = (1 << ways) - 1
    kind = draw(st.sampled_from(["all", "uniform", "per-access"]))
    if kind == "all":
        return {}
    if kind == "uniform":
        return {
            "uniform_mask": draw(
                st.one_of(st.just(0), st.just(full), st.integers(0, full))
            )
        }
    palette = np.array(
        draw(st.lists(st.integers(0, full), min_size=1, max_size=4)),
        dtype=np.int64,
    )
    return {"mask_bits": palette[rng.integers(0, len(palette), length)]}


@st.composite
def aliasing_cases(draw):
    """``(ways, row count, batches)``; each batch is ``(rows, tags,
    masks)`` over rows ``r`` and ``r + 4096`` for a few ``r``, with
    tags from -3 up (``-1`` is the cold tag)."""
    ways = draw(st.sampled_from(WAYS))
    residues = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tag_span = draw(st.sampled_from([2, ways + 1, 2 * ways + 3]))
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        length = draw(st.one_of(st.just(1), st.integers(1, 80)))
        rows = rng.integers(0, residues, length) + SLOTS * rng.integers(
            0, 2, length
        )
        tags = rng.integers(-3, tag_span, length)
        masks = draw(mask_spec(ways, length, rng))
        batches.append((rows.astype(np.int64), tags.astype(np.int64), masks))
    return ways, SLOTS + residues, batches


def kernel_outcome(kernel, mode, form, rows, tags, masks, state):
    """One call in one collect mode; ``(hits, bypasses, depths,
    counts)`` with None for what the mode does not give.  The rows
    form goes through ``lockstep_run`` (``"hits"`` and ``"counts"``
    through the compiled entry itself); the values forms through the
    compiled entry, or ``LockstepCache`` on numpy."""
    blocks = tags * REFERENCE_SETS + rows
    values = blocks
    shift = 0
    if form == "addresses":
        shift = OFFSET_BITS
        offsets = (rows * 7 + tags) % LINE_SIZE
        values = (blocks << OFFSET_BITS) | offsets
    mask_bits = masks.get("mask_bits")
    uniform_mask = masks.get("uniform_mask")
    if kernel == "numpy" and form != "rows":
        cache = LockstepCache(
            CacheGeometry(LINE_SIZE, REFERENCE_SETS, state.ways),
            backend="numpy",
        )
        cache.state = state
        if mode == "hits":
            hits = cache.run_with_flags(
                blocks, mask_bits=mask_bits, uniform_mask=uniform_mask
            )
            return hits, None, None, None
        result = cache.run(
            values,
            mask_bits=mask_bits,
            uniform_mask=uniform_mask,
            offset_bits=shift,
        )
        return None, None, None, (result.hits, result.bypasses)
    if form == "rows" and mode in ("flags", "misses", "depths"):
        outcome = lockstep_run(
            rows, tags, state, mask_bits, uniform_mask,
            collect=mode, backend=kernel,
        )
    else:
        keys, key_tags = (rows, tags) if form == "rows" else (values, None)
        counts = np.array([3, 5], dtype=np.int64)
        outcome = _compiled.lockstep_run_compiled(
            keys, key_tags, state, mask_bits, uniform_mask, mode,
            shift=shift, counts=counts,
        )
        if mode == "counts":
            return None, None, None, (counts[0] - 3, counts[1] - 5)
    if mode == "flags":
        return outcome[0], outcome[1], None, None
    if mode == "hits":
        return outcome, None, None, None
    if mode == "misses":
        hits = np.ones(len(rows), dtype=bool)
        hits[outcome] = False
        return hits, None, None, None
    return None, None, outcome, None


def modes(kernel, form):
    """The collect modes one kernel offers for one input form."""
    if kernel == "compiled":
        return ("flags", "misses", "depths", "hits", "counts")
    if form == "rows":
        return ("flags", "misses", "depths")
    return ("hits", "counts")


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("kernel", KERNELS)
@given(case=aliasing_cases())
def test_aliased_slots_carry_state_in_every_mode(case, kernel, form):
    ways, row_count, batches = case
    if form != "rows":
        row_count = REFERENCE_SETS
    reference = ReferenceCache(CacheGeometry(LINE_SIZE, REFERENCE_SETS, ways))
    expected = LockstepState.cold(row_count, ways)
    states = {
        mode: LockstepState.cold(row_count, ways)
        for mode in modes(kernel, form)
    }
    for rows, tags, masks in batches:
        ref_hits, ref_bypasses = reference.run(
            (tags * REFERENCE_SETS + rows).tolist(), **masks
        )
        depths = lockstep_run(
            rows, tags, expected, collect="depths", backend="numpy", **masks
        )
        assert np.array_equal(depths < ways, ref_hits)
        for mode, state in states.items():
            hits, bypasses, got_depths, counts = kernel_outcome(
                kernel, mode, form, rows, tags, masks, state
            )
            if hits is not None:
                assert np.array_equal(hits, ref_hits), mode
            if bypasses is not None:
                assert np.array_equal(bypasses, ref_bypasses), mode
            if got_depths is not None:
                assert np.array_equal(got_depths, depths), mode
            if counts is not None:
                assert tuple(map(int, counts)) == (
                    int(ref_hits.sum()),
                    int(ref_bypasses.sum()),
                ), mode
    lines = reference_lines(reference)
    assert resident_lines(expected) == lines
    for mode, state in states.items():
        assert_same_state(state, expected, mode)


@pytest.mark.parametrize("kernel", KERNELS)
def test_probe_of_a_cold_way_needs_a_valid_line(kernel):
    """Tag -1 is the tag every cold line holds: the first access with
    it misses, in a fresh row and in a row whose slot another row
    (4096 rows away) pointed at one of its ways."""
    state = LockstepState.cold(SLOTS + 1, 4)
    rows = np.array([SLOTS, SLOTS, 0, 0, 0], dtype=np.int64)
    tags = np.array([7, 9, -1, -1, 9], dtype=np.int64)
    hits, bypasses = lockstep_run(rows, tags, state, backend=kernel)
    assert hits.tolist() == [False, False, False, True, False]
    assert not bypasses.any()
    assert state.tags[0].tolist() == [-1, 9, -1, -1]
    assert state.last_use[0].tolist() == [1, 2, -1, -1]


@pytest.mark.parametrize("kernel", KERNELS)
def test_victim_is_the_lowest_oldest_way_inside_the_mask(kernel):
    """Ties among empty candidates go to the lowest way; a way outside
    the mask is never the victim, however old; a probe that names a
    way outside the mask still finds a hit there."""
    state = LockstepState.cold(1, 4)
    rows = np.zeros(6, dtype=np.int64)
    tags = np.array([1, 2, 3, 4, 1, 5], dtype=np.int64)
    masks = np.array([0b1111, 0b1111, 0b1100, 0b1100, 0b0110, 0b0100])
    hits, _ = lockstep_run(rows, tags, state, mask_bits=masks, backend=kernel)
    assert hits.tolist() == [False] * 4 + [True, False]
    # 1 -> way 0, 2 -> way 1, 3 -> way 2 (the lower of two empty
    # candidates), 4 -> way 3; 1 hits at way 0 under a mask without
    # it; 5 evicts way 2, its only candidate, though way 1 is older.
    assert state.tags[0].tolist() == [1, 2, 5, 4]


# ----------------------------------------------------------------------
# The fused schedule walk
# ----------------------------------------------------------------------
@st.composite
def fused_cases(draw):
    """Jobs whose blocks fall in sets r and r + 4096 of an 8192-set
    cache (or a 2-set one), each under its own mask (0 included)."""
    ways = draw(st.sampled_from(WAYS))
    sets = draw(st.sampled_from([2, REFERENCE_SETS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    full = (1 << ways) - 1
    tag_span = draw(st.sampled_from([2, ways + 2]))
    jobs = []
    for index in range(draw(st.integers(1, 3))):
        length = draw(st.integers(1, 60))
        rows = rng.integers(0, 3, length) + SLOTS * rng.integers(
            0, 2, length
        )
        rows %= sets
        tags = rng.integers(-2, tag_span, length) + 100 * index
        bits = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
        jobs.append((tags * sets + rows, rng.integers(0, 3, length), bits))
    quantum = draw(st.sampled_from([1, 2, 5, 40]))
    return CacheGeometry(LINE_SIZE, sets, ways), jobs, quantum


def make_jobs(geometry, jobs):
    return [
        Job(
            name=f"job{index}",
            trace=Trace.from_columns(
                (blocks << geometry.offset_bits).astype(np.int64),
                gaps=gaps.astype(np.int64),
            ),
            mask=ColumnMask(bits, geometry.columns),
        )
        for index, (blocks, gaps, bits) in enumerate(jobs)
    ]


@pytest.mark.parametrize("kernel", KERNELS)
@given(
    case=fused_cases(),
    warmup=st.integers(0, 2),
    budget=st.sampled_from([1, 30, 400]),
)
def test_matrix_with_per_job_masks_equals_simulator(
    case, warmup, budget, kernel
):
    geometry, job_specs, quantum = case
    jobs = make_jobs(geometry, job_specs)
    matrix = simulate_multitask_matrix(
        [(geometry, jobs)], [quantum], budget,
        warmup_passes=warmup, kernel=kernel,
    )[0][0]
    set_backend("numpy")
    try:
        simulator = MultitaskSimulator(geometry, jobs)
        simulator.warm_up(warmup)
        expected = simulator.run(quantum, budget)
    finally:
        reset_backend()
    assert matrix == expected


def schedule_stream(job_blocks, schedule):
    """``(blocks, job per access)`` of one window, in schedule order."""
    blocks, owners = [], []
    for job, start, count in zip(
        schedule.tenant_ids, schedule.positions, schedule.accesses
    ):
        trace = job_blocks[job]
        for step in range(int(count)):
            blocks.append(int(trace[(int(start) + step) % len(trace)]))
            owners.append(int(job))
    return blocks, np.array(owners, dtype=np.int64)


@pytest.mark.parametrize("kernel", KERNELS)
@given(
    case=fused_cases(),
    budgets=st.lists(st.sampled_from([1, 7, 60]), min_size=1, max_size=4),
)
def test_fused_windows_carry_state(case, budgets, kernel):
    """One schedule cut into several fused calls: each call restarts
    the slot table.  Every window's per-tenant hits equal numpy's walk
    of it, whose hit flags equal the reference's on the same stream;
    the final state equals numpy's."""
    geometry, job_specs, quantum = case
    job_blocks = [blocks for blocks, _gaps, _bits in job_specs]
    cumulatives = [np.cumsum(gaps + 1) for _blocks, gaps, _bits in job_specs]
    mask_table = np.array([bits for *_rest, bits in job_specs], dtype=np.int64)
    batch = TenantBatch.build(job_blocks)
    options = {
        "sets_mask": geometry.sets - 1,
        "index_bits": geometry.index_bits,
    }
    state = LockstepState.cold(geometry.sets, geometry.columns)
    expected = LockstepState.cold(geometry.sets, geometry.columns)
    reference = ReferenceCache(geometry)
    positions, turn = [0] * len(job_specs), 0
    for budget in budgets:
        schedule = quantum_schedule(
            cumulatives, positions, quantum, budget, start_at=turn
        )
        window = fused_multitask_run(
            batch, schedule, mask_table, state, backend=kernel, **options,
        )
        walk = fused_multitask_run(
            batch, schedule, mask_table, expected,
            collect_flags=True, backend="numpy", **options,
        )
        blocks, owners = schedule_stream(job_blocks, schedule)
        ref_hits, _ = reference.run(blocks, mask_bits=mask_table[owners])
        assert np.array_equal(walk.hit_flags, ref_hits)
        assert np.array_equal(walk.tenant_per_access, owners)
        assert np.array_equal(window.hits, walk.hits)
        positions = [int(p) for p in schedule.next_positions]
        turn = schedule.next_turn
    assert_same_state(state, expected, kernel)
    assert resident_lines(state) == reference_lines(reference)


@pytest.mark.parametrize("kernel", KERNELS)
@given(case=fused_cases(), budget=st.sampled_from([1, 7, 60]))
def test_fused_flags_come_from_any_backend(case, budget, kernel):
    """Flags asked of either backend are returned (the compiled one
    walks such a window on numpy): flags, owners, hits and the final
    state equal a numpy walk's, and each tenant's flags sum to its
    hits."""
    geometry, job_specs, quantum = case
    job_blocks = [blocks for blocks, _gaps, _bits in job_specs]
    cumulatives = [np.cumsum(gaps + 1) for _blocks, gaps, _bits in job_specs]
    mask_table = np.array([bits for *_rest, bits in job_specs], dtype=np.int64)
    batch = TenantBatch.build(job_blocks)
    options = {
        "sets_mask": geometry.sets - 1,
        "index_bits": geometry.index_bits,
        "collect_flags": True,
    }
    schedule = quantum_schedule(
        cumulatives, [0] * len(job_specs), quantum, budget
    )
    state = LockstepState.cold(geometry.sets, geometry.columns)
    expected = LockstepState.cold(geometry.sets, geometry.columns)
    got = fused_multitask_run(
        batch, schedule, mask_table, state, backend=kernel, **options,
    )
    walk = fused_multitask_run(
        batch, schedule, mask_table, expected, backend="numpy", **options,
    )
    assert np.array_equal(got.hit_flags, walk.hit_flags)
    assert np.array_equal(got.tenant_per_access, walk.tenant_per_access)
    assert np.array_equal(got.hits, walk.hits)
    assert np.array_equal(
        got.hits,
        np.bincount(
            got.tenant_per_access,
            weights=got.hit_flags,
            minlength=len(job_specs),
        ).astype(np.int64),
    )
    assert_same_state(state, expected, kernel)
