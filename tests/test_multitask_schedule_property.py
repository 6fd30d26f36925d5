"""The closed-form multitask schedule vs a step-by-step rebuild.

``repro.sim.engine.multitask_batch`` computes where every round-robin
quantum of a Figure 5 point starts and stops: on the numpy kernel in
closed form, through vectorized successor tables and their unrolled
orbit (:class:`~repro.sim.multitask.QuantumWalkTables`); on the
compiled kernel by cutting each quantum as the C segment walk
(``repro_fleet_segment`` with no cap) runs it.  These property tests
rebuild the schedule the way the scalar
:class:`~repro.sim.multitask.MultitaskSimulator` walks it — one
quantum at a time, one searchsorted per step, honoring the atomic
overshoot of the final access — and assert the closed form matches
*entry by entry*: same job order, same start positions, same access
counts, same instructions executed, same wrap counts, for random
quantum and trace lengths.  A second property holds the fleet's
window, :func:`~repro.sim.multitask.quantum_schedule` with its
budget-cut final quantum, and each tenant's
:func:`~repro.sim.multitask.circular_slices`, to the scalar walk the
fleet oracle makes (``tests/oracles/fleet.py``).  A third holds the
segment walk, cut at its budget on either kernel and with no cap on
the compiled one, to those schedules and scalar walks.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.runtime.detector import working_set_signature
from repro.sim.engine import _compiled
from repro.sim.engine.backends import compiled_available
from repro.sim.engine.batched import LockstepState
from repro.sim.engine.fused import (
    FleetSegment,
    TenantBatch,
    _stream_gather,
    fleet_segment,
    fused_multitask_run,
)
from repro.sim.engine.multitask_batch import _BatchJob, _Schedule
from repro.sim.multitask import (
    Job,
    circular_slices,
    next_quantum_slice,
    quantum_schedule,
)
from repro.trace.columnar import ColumnarRecorder

from oracles.column_cache import ReferenceCache

requires_compiled = pytest.mark.skipif(
    not compiled_available(), reason="compiled kernel unavailable"
)

GEOMETRY = CacheGeometry(line_size=16, sets=4, columns=2)


def build_trace(rng, length, name):
    builder = ColumnarRecorder(name=name)
    for _ in range(length):
        builder.add_gap(int(rng.integers(0, 6)))
        builder.append(int(rng.integers(0, 1024)) * 2)
    return builder.build()


def scalar_schedule(cumulatives, quantum, budget):
    """Step-by-step round-robin schedule, mirroring the simulator.

    Returns a list of (job, start_position, accesses, ran, wraps)
    entries in execution order.
    """
    positions = [0] * len(cumulatives)
    entries = []
    executed = 0
    job = 0
    while executed < budget:
        cumulative = cumulatives[job]
        n = len(cumulative)
        start = position = positions[job]
        remaining = quantum
        accesses = 0
        ran_total = 0
        wraps = 0
        while remaining > 0:
            done_before = (
                int(cumulative[position - 1]) if position > 0 else 0
            )
            target = done_before + remaining
            stop = int(np.searchsorted(cumulative, target, side="right"))
            if stop == position:
                stop = position + 1  # atomic access: make progress
            stop = min(stop, n)
            ran = int(cumulative[stop - 1]) - done_before
            accesses += stop - position
            ran_total += ran
            remaining -= ran
            position = stop
            if position >= n:
                position = 0
                wraps += 1
        positions[job] = position
        entries.append((job, start, accesses, ran_total, wraps))
        executed += ran_total
        job = (job + 1) % len(cumulatives)
    return entries


@st.composite
def schedule_case(draw):
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    job_count = draw(st.integers(1, 3))
    jobs = [
        Job(
            name=f"job{index}",
            trace=build_trace(
                rng, draw(st.integers(1, 60)), f"job{index}"
            ),
            address_offset=index << 20,
        )
        for index in range(job_count)
    ]
    quantum = draw(
        st.integers(1, 50) | st.sampled_from([997, 10_000, 10**6])
    )
    budget = draw(st.integers(1, 5000))
    return jobs, quantum, budget


@given(case=schedule_case())
@settings(deadline=None)
def test_closed_form_schedule_matches_scalar_walk(case):
    jobs, quantum, budget = case
    batch_jobs = [_BatchJob(job, GEOMETRY) for job in jobs]
    schedule = _Schedule(batch_jobs, quantum, budget)
    expected = scalar_schedule(
        [batch_job.cum for batch_job in batch_jobs], quantum, budget
    )
    assert len(schedule.tenant_ids) == len(expected)
    for index, (job, start, accesses, ran, wraps) in enumerate(expected):
        assert int(schedule.tenant_ids[index]) == job, index
        assert int(schedule.positions[index]) == start, index
        assert int(schedule.accesses[index]) == accesses, index
        assert int(schedule.ran[index]) == ran, index
        assert int(schedule.wraps[index]) == wraps, index
    assert schedule.total_accesses == sum(
        entry[2] for entry in expected
    )
    # Per-job totals, which every variant's results read.
    for job in range(len(jobs)):
        entries = [entry for entry in expected if entry[0] == job]
        assert int(schedule.job_quanta[job]) == len(entries), job
        for column, totals in (
            (2, schedule.job_accesses),
            (3, schedule.job_instructions),
            (4, schedule.job_wraps),
        ):
            assert int(totals[job]) == sum(
                entry[column] for entry in entries
            ), (job, column)


@given(case=schedule_case())
@settings(deadline=None)
def test_access_stream_walks_each_trace_in_order(case):
    """The stream the numpy path gathers for a schedule is each
    quantum's trace slice, wrapped."""
    jobs, quantum, budget = case
    batch_jobs = [_BatchJob(job, GEOMETRY) for job in jobs]
    schedule = _Schedule(batch_jobs, quantum, budget)
    batch = TenantBatch.build([batch_job.blocks for batch_job in batch_jobs])
    stream_blocks, stream_jobs = _stream_gather(batch, schedule)
    cursor = 0
    for index in range(len(schedule.tenant_ids)):
        job = int(schedule.tenant_ids[index])
        start = int(schedule.positions[index])
        count = int(schedule.accesses[index])
        trace_blocks = batch_jobs[job].blocks
        expected = [
            trace_blocks[(start + offset) % len(trace_blocks)]
            for offset in range(count)
        ]
        got = stream_blocks[cursor:cursor + count]
        assert got.tolist() == expected, index
        assert (stream_jobs[cursor:cursor + count] == job).all()
        cursor += count
    assert cursor == len(stream_blocks)


def walk_window(cumulatives, positions, quantum, budget, start_at, cap=None):
    """One fleet window walked as ``tests/oracles/fleet.py`` walks a
    segment: round-robin from ``start_at``, one
    :func:`next_quantum_slice` at a time, each quantum cut to
    ``min(quantum, cap - executed)`` until ``budget`` instructions have
    run.  ``cap`` defaults to the budget; with
    :data:`~repro.sim.engine._compiled.NO_CAP` every quantum runs
    whole, as :class:`~repro.sim.multitask.MultitaskSimulator` runs it.

    Returns the ``(tenant, start, accesses, ran, wraps)`` entries,
    each tenant's slices, the cursors after the window, the
    instructions executed and the turn due next.
    """
    cap = budget if cap is None else cap
    positions = list(positions)
    slices = [[] for _ in cumulatives]
    entries = []
    executed = 0
    turn = start_at
    while executed < budget:
        cumulative = cumulatives[turn]
        start = positions[turn]
        accesses = ran_total = wraps = 0
        remaining = min(quantum, cap - executed)
        while remaining > 0:
            position = positions[turn]
            stop, ran = next_quantum_slice(cumulative, position, remaining)
            slices[turn].append((position, stop))
            accesses += stop - position
            ran_total += ran
            remaining -= ran
            executed += ran
            positions[turn] = stop
            if stop >= len(cumulative):
                positions[turn] = 0
                wraps += 1
        entries.append((turn, start, accesses, ran_total, wraps))
        turn = (turn + 1) % len(cumulatives)
    return entries, slices, positions, executed, turn


def merge_adjacent(pieces):
    merged = []
    for start, stop in pieces:
        if merged and merged[-1][1] == start:
            start = merged.pop()[0]
        merged.append((start, stop))
    return merged


@st.composite
def window_case(draw):
    """1-4 tenants on traces of 1 access up, any cursors and
    ``start_at``; quanta below a trace's instructions and several
    passes above them; budgets that cut the final quantum."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    cumulatives = [
        np.cumsum(rng.integers(0, 6, size=length) + 1) for length in lengths
    ]
    positions = [draw(st.integers(0, len(c) - 1)) for c in cumulatives]
    longest = max(int(c[-1]) for c in cumulatives)
    quantum = draw(st.integers(1, 30) | st.integers(1, 4 * longest))
    budget = draw(st.integers(1, 3 * quantum) | st.integers(1, 3000))
    start_at = draw(st.integers(0, len(cumulatives) - 1))
    return cumulatives, positions, quantum, budget, start_at


@given(case=window_case())
@settings(deadline=None)
def test_fleet_window_matches_the_scalar_walk(case):
    """Entry by entry, then the cursors, ``executed`` and the next
    turn; each tenant's circular window is its walked slices with the
    adjacent ones merged."""
    cumulatives, positions, quantum, budget, start_at = case
    schedule = quantum_schedule(
        cumulatives, positions, quantum, budget, start_at
    )
    entries, slices, cursors, executed, turn = walk_window(
        cumulatives, positions, quantum, budget, start_at
    )
    columns = (
        schedule.tenant_ids,
        schedule.positions,
        schedule.accesses,
        schedule.ran,
        schedule.wraps,
    )
    assert list(zip(*(column.tolist() for column in columns))) == entries
    assert schedule.next_positions.tolist() == cursors
    assert schedule.executed == executed
    assert schedule.next_turn == turn
    for tenant, cumulative in enumerate(cumulatives):
        accesses = sum(entry[2] for entry in entries if entry[0] == tenant)
        assert circular_slices(
            positions[tenant], accesses, len(cumulative)
        ) == merge_adjacent(slices[tenant]), tenant


@pytest.mark.parametrize(
    ("start", "accesses", "length", "pieces"),
    [
        (4, 0, 10, []),
        (0, 10, 10, [(0, 10)]),
        (7, 3, 10, [(7, 10)]),
        (3, 25, 10, [(3, 10), (0, 10), (0, 8)]),
        (0, 3, 1, [(0, 1), (0, 1), (0, 1)]),
    ],
)
def test_circular_slices(start, accesses, length, pieces):
    assert circular_slices(start, accesses, length) == pieces


# ----------------------------------------------------------------------
# The segment walk: one call per fleet segment, on both kernels, or per
# Figure 5 point, on the compiled one.
# ----------------------------------------------------------------------

#: The kernels :func:`~repro.sim.engine.fused.fleet_segment` runs on.
SEGMENT_KERNELS = [
    pytest.param("numpy", id="numpy"),
    pytest.param("compiled", id="compiled", marks=requires_compiled),
]

SEGMENT_GEOMETRY = CacheGeometry(line_size=16, sets=4, columns=4)

#: Where a resident's blocks sit: low, below zero, at and above 2**32,
#: and near either end of the block domain.
SEGMENT_BASES = (0, -(1 << 36), 1 << 32, -(1 << 58), (1 << 58) - 64)


@st.composite
def segment_case(draw):
    """1-8 residents, each on a trace of 1 access up (some shorter than
    a quantum, so one quantum wraps several passes; some with a gap of
    at least 2**32; some charging every access one instruction), its
    blocks anywhere in :data:`SEGMENT_BASES`, any cursor and any mask
    (0 is a bypass); quantum 1 up to four times the shortest pass, or
    that pass's total +- 1; 1-4 calls, each with a budget below the
    quantum, ``k * quantum + (-1, 0, 1)`` or any, from any
    ``start_at``; a signature width (powers of two or not); and the
    cap: the budget, or none (``whole``: every quantum runs whole,
    each call from every cursor at 0 and resident 0 first, as a
    Figure 5 point runs)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    blocks, cumulatives = [], []
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.sampled_from([1, 2]) | st.integers(1, 40))
        gaps = rng.integers(0, 6, size=length)
        kind = draw(st.sampled_from(["random", "zero", "huge"]))
        if kind == "zero":
            gaps[:] = 0
        elif kind == "huge":
            gaps[draw(st.integers(0, length - 1))] = draw(
                st.integers(2**32, 2**32 + 9)
            )
        base = draw(st.sampled_from(SEGMENT_BASES))
        blocks.append(base + rng.integers(0, 24, size=length))
        cumulatives.append(np.cumsum(gaps + 1))
    shortest = min(min(int(c[-1]) for c in cumulatives), 5000)
    quantum = draw(
        st.just(1)
        | st.integers(1, 30)
        | st.integers(1, 4 * shortest)
        | st.sampled_from([max(1, shortest - 1), shortest, shortest + 1])
    )
    budget = (
        st.integers(1, max(1, quantum - 1))
        | st.builds(
            lambda k, delta: max(1, k * quantum + delta),
            st.integers(1, 4),
            st.sampled_from([-1, 0, 1]),
        )
        | st.integers(1, 3000)
    )
    budgets = draw(st.lists(budget, min_size=1, max_size=4))
    cursors = [draw(st.integers(0, len(column) - 1)) for column in blocks]
    masks = [draw(st.integers(0, 15)) for _ in blocks]
    start_at = draw(st.integers(0, len(blocks) - 1))
    signature_bits = draw(st.sampled_from([1024, 61, 8, 1]))
    whole = draw(st.booleans())
    return (
        blocks,
        cumulatives,
        cursors,
        masks,
        quantum,
        budgets,
        start_at,
        signature_bits,
        whole,
    )


def schedule_counts(schedule, hits):
    """Per-tenant ``[instructions, accesses, wraps, quanta, hits]`` of
    a closed-form schedule, summed quantum by quantum."""
    counts = [[0, 0, 0, 0, hit] for hit in hits]
    columns = (schedule.ran, schedule.accesses, schedule.wraps)
    for tenant, ran, accesses, wraps in zip(
        schedule.tenant_ids.tolist(), *(column.tolist() for column in columns)
    ):
        row = counts[tenant]
        row[0] += ran
        row[1] += accesses
        row[2] += wraps
        row[3] += 1
    return counts


def walk_segment(
    kernel, whole, blocks, cumulatives, cursors, masks, quantum, budget,
    turn, state, signature_bits, options,
):
    """The walk under test: the fleet's segment, cut at its budget; or,
    ``whole``, the compiled walk with no cap, which collects no flags."""
    if not whole:
        return fleet_segment(
            blocks, cumulatives, cursors, masks, quantum, budget, turn,
            state, signature_bits=signature_bits, collect_flags=True,
            backend=kernel, **options,
        )
    rows, executed, next_turn, signatures, hit_flags = (
        _compiled.fleet_segment_compiled(
            blocks, cumulatives, cursors, masks, quantum, budget, turn,
            state, cap=_compiled.NO_CAP, signature_bits=signature_bits,
            **options,
        )
    )
    assert hit_flags is None
    return FleetSegment(
        counts=[row[1:] for row in rows],
        cursors=[row[0] for row in rows],
        signatures=signatures,
        executed=executed,
        next_turn=next_turn,
        hit_flags=None,
    )


@pytest.mark.parametrize("kernel", SEGMENT_KERNELS)
@given(case=segment_case())
@settings(deadline=None)
@example(
    case=(
        [np.array([5]), np.array([-7, 2**32])],
        [np.array([2**32 + 1]), np.array([1, 3])],
        [0, 1],
        [0, 15],
        3,
        [1, 7, 2],
        1,
        61,
        False,
    )
)
@example(
    case=(
        [np.array([5, 6, 7]), np.array([-7, 2**32])],
        [np.array([1, 2, 9]), np.array([1, 3])],
        [0, 0],
        [3, 12],
        4,
        [1, 10, 25],
        0,
        8,
        True,
    )
)
def test_fleet_segment_matches_schedule_and_scalar_walk(case, kernel):
    """Call by call, state carried over: per-resident counts, cursors,
    ``executed``, the next turn and the hits equal the closed-form
    schedule walked by numpy's gather, and the scalar
    :func:`next_quantum_slice` walk stepped through the reference
    cache; each signature is
    :func:`~repro.runtime.detector.working_set_signature` of the
    resident's circular window; the final state equals numpy's.

    Cut at its budget, the walk is the fleet's segment on either
    kernel: its schedule is :func:`~repro.sim.multitask.quantum_schedule`
    and its hit flags are checked too.  With no cap (compiled only),
    each call is a Figure 5 point: its schedule is the numpy matrix's
    :class:`~repro.sim.engine.multitask_batch._Schedule`, entry by
    entry and in its per-job totals."""
    (
        blocks,
        cumulatives,
        cursors,
        masks,
        quantum,
        budgets,
        turn,
        signature_bits,
        whole,
    ) = case
    whole = whole and kernel == "compiled"
    cap = _compiled.NO_CAP if whole else None
    geometry = SEGMENT_GEOMETRY
    options = {
        "sets_mask": geometry.sets - 1,
        "index_bits": geometry.index_bits,
    }
    batch = TenantBatch.build(blocks)
    mask_table = np.array(masks, dtype=np.int64)
    state = LockstepState.cold(geometry.sets, geometry.columns)
    expected = LockstepState.cold(geometry.sets, geometry.columns)
    reference = ReferenceCache(geometry)
    for budget in budgets:
        if whole:
            cursors, turn = [0] * len(blocks), 0
        got = walk_segment(
            kernel, whole, blocks, cumulatives, cursors, masks, quantum,
            budget, turn, state, signature_bits, options,
        )
        entries, _slices, walked, executed, next_turn = walk_window(
            cumulatives, cursors, quantum, budget, turn, cap
        )

        if whole:
            schedule = _Schedule(
                [SimpleNamespace(cum=column) for column in cumulatives],
                quantum,
                budget,
            )
        else:
            schedule = quantum_schedule(
                cumulatives, cursors, quantum, budget, turn
            )
            assert got.cursors == schedule.next_positions.tolist()
            assert got.executed == schedule.executed
            assert got.next_turn == schedule.next_turn
        columns = (
            schedule.tenant_ids,
            schedule.positions,
            schedule.accesses,
            schedule.ran,
            schedule.wraps,
        )
        assert list(zip(*(column.tolist() for column in columns))) == entries
        walk = fused_multitask_run(
            batch, schedule, mask_table, expected,
            collect_flags=True, backend="numpy", **options,
        )
        assert got.counts == schedule_counts(schedule, walk.hits.tolist())
        if whole:
            assert got.counts == np.column_stack(
                (
                    schedule.job_instructions,
                    schedule.job_accesses,
                    schedule.job_wraps,
                    schedule.job_quanta,
                    walk.hits,
                )
            ).tolist()
        else:
            assert got.hit_flags.tolist() == walk.hit_flags.tolist()

        flags = []
        scalar = [[0, 0, 0, 0, 0] for _ in blocks]
        for tenant, start, accesses, ran, wraps in entries:
            column = blocks[tenant]
            stream = [
                int(column[(start + k) % len(column)])
                for k in range(accesses)
            ]
            hit_flags, _ = reference.run(stream, uniform_mask=masks[tenant])
            flags.extend(hit_flags.tolist())
            row = scalar[tenant]
            row[0] += ran
            row[1] += accesses
            row[2] += wraps
            row[3] += 1
            row[4] += int(hit_flags.sum())
        assert got.counts == scalar
        assert got.cursors == walked
        assert (got.executed, got.next_turn) == (executed, next_turn)
        if not whole:
            assert got.hit_flags.tolist() == flags

        for tenant, column in enumerate(blocks):
            pieces = circular_slices(
                cursors[tenant], got.counts[tenant][1], len(column)
            )
            window = [
                int(column[position])
                for start, stop in pieces
                for position in range(start, stop)
            ]
            assert got.signatures[tenant] == working_set_signature(
                window, signature_bits
            ), tenant
        cursors, turn = got.cursors, got.next_turn
    assert np.array_equal(state.tags, expected.tags)
    assert np.array_equal(state.last_use, expected.last_use)
    assert np.array_equal(state.clock, expected.clock)


@pytest.mark.parametrize("kernel", SEGMENT_KERNELS)
def test_fleet_segment_refuses_an_overflowing_quantum(kernel):
    """A quantum above ``2**63 - 1`` minus any resident's pass total
    raises :func:`~repro.utils.validation.check_quantum`'s error,
    before anything is walked."""
    state = LockstepState.cold(4, 2)
    with pytest.raises(ValueError, match="quantum must be in"):
        fleet_segment(
            [np.array([1, 2]), np.array([3, 4, 5])],
            [np.array([1, 2]), np.array([1, 2, 3])],
            [0, 0],
            [3, 3],
            2**63 - 3,
            10,
            0,
            state,
            sets_mask=3,
            index_bits=2,
            backend=kernel,
        )
    assert not state.clock.any()


@requires_compiled
@pytest.mark.parametrize(
    ("cumulative", "cursor", "message"),
    [
        (np.array([1, 2, 3]), 3, "cursor 3"),
        (np.array([1, 2]), 0, "3 blocks and 2 instruction counts"),
        (np.array([0, 0, 0]), 0, "at least one"),
    ],
    ids=["cursor-off-trace", "columns-differ", "zero-total"],
)
def test_compiled_segment_rejects_inputs_outside_its_domain(
    cumulative, cursor, message
):
    """What the C segment cannot survive (a cursor off the trace,
    columns of different lengths, a zero pass total) is refused before
    anything is walked."""
    state = LockstepState.cold(4, 2)
    with pytest.raises(ValueError, match=message):
        _compiled.fleet_segment_compiled(
            [np.array([1, 2, 3])], [cumulative], [cursor], [3], 4, 10, 0,
            state, sets_mask=3, index_bits=2,
        )
    assert not state.clock.any()


@requires_compiled
@pytest.mark.parametrize(
    ("cap", "collect_flags", "message"),
    [
        (9, False, r"cap must be in \[10, "),
        (_compiled.NO_CAP + 1, False, r"cap must be in \[10, "),
        (11, True, "hit flags"),
        (_compiled.NO_CAP, True, "hit flags"),
    ],
    ids=["below-budget", "above-int64", "flags-past-budget", "flags-uncapped"],
)
def test_compiled_segment_refuses_a_cap_it_cannot_honor(
    cap, collect_flags, message
):
    """A cap below the budget (its walk would cut quanta of no
    instructions) and flags asked of a walk that may run past its
    budget (the flag buffer holds ``budget`` accesses) are refused
    before anything is walked."""
    state = LockstepState.cold(4, 2)
    with pytest.raises(ValueError, match=message):
        _compiled.fleet_segment_compiled(
            [np.array([1, 2, 3])], [np.array([1, 2, 3])], [0], [3], 4, 10,
            0, state, sets_mask=3, index_bits=2, cap=cap,
            collect_flags=collect_flags,
        )
    assert not state.clock.any()
