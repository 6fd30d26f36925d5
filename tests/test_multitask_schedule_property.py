"""The closed-form multitask schedule vs a step-by-step rebuild.

``repro.sim.engine.multitask_batch`` computes where every round-robin
quantum starts and stops in closed form: on the numpy kernel through
vectorized successor tables and their unrolled orbit
(:class:`~repro.sim.multitask.QuantumWalkTables`), on the compiled
kernel through the C quantum orbit (``repro_quantum_orbit``).  These
property tests rebuild the schedule the way the scalar
:class:`~repro.sim.multitask.MultitaskSimulator` walks it — one
quantum at a time, one searchsorted per step, honoring the atomic
overshoot of the final access — and assert both closed forms match
*entry by entry*: same job order, same start positions, same access
counts, same instructions executed, same wrap counts, for random
quantum and trace lengths.  A second property holds the C orbit to
both numpy references directly, on the edges of its input domain.  A
third holds the fleet's window, :func:`~repro.sim.multitask.quantum_schedule`
with its budget-cut final quantum, and each tenant's
:func:`~repro.sim.multitask.circular_slices`, to the scalar walk the
fleet oracle makes (``tests/oracles/fleet.py``).
"""

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
    TenantBatch,
    _stream_gather,
    fleet_segment,
    fused_multitask_run,
)
from repro.sim.engine.multitask_batch import _BatchJob, _Schedule
from repro.sim.multitask import (
    Job,
    QuantumWalkTables,
    circular_slices,
    next_quantum_slice,
    quantum_schedule,
    single_quantum,
)
from repro.trace.columnar import ColumnarRecorder

from oracles.column_cache import ReferenceCache

requires_compiled = pytest.mark.skipif(
    not compiled_available(), reason="compiled kernel unavailable"
)

#: The two orbit paths a schedule can be built on.
ORBITS = [
    pytest.param(False, id="numpy-orbit"),
    pytest.param(True, id="compiled-orbit", marks=requires_compiled),
]

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


@pytest.mark.parametrize("compiled", ORBITS)
@given(case=schedule_case())
@settings(deadline=None)
def test_closed_form_schedule_matches_scalar_walk(case, compiled):
    jobs, quantum, budget = case
    batch_jobs = [_BatchJob(job, GEOMETRY) for job in jobs]
    schedule = _Schedule(batch_jobs, quantum, budget, compiled=compiled)
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


@st.composite
def orbit_case(draw):
    """``(gaps, quantum, start, count)`` on the orbit's domain edges:
    1-access traces, all-zero gaps, one gap >= 2**32; quanta of 1,
    the pass total, total +- 1 and several passes."""
    length = draw(st.sampled_from([1, 2]) | st.integers(1, 80))
    kind = draw(st.sampled_from(["random", "zero", "huge"]))
    if kind == "zero":
        gaps = [0] * length
    else:
        gaps = draw(
            st.lists(st.integers(0, 5), min_size=length, max_size=length)
        )
        if kind == "huge":
            gaps[draw(st.integers(0, length - 1))] = draw(
                st.integers(2**32, 2**32 + 9)
            )
    total = sum(gaps) + length
    quantum = draw(
        st.sampled_from([1, total, max(1, total - 1), total + 1])
        | st.integers(1, 2 * total)
        | st.builds(
            lambda passes, extra: passes * total + extra,
            st.integers(2, 5),
            st.integers(-1, 3),
        )
    )
    start = draw(st.integers(0, length - 1))
    count = draw(st.integers(0, 3000))
    return gaps, quantum, start, count


@requires_compiled
@given(case=orbit_case())
@settings(deadline=None)
@example(case=([0], 1, 0, 5))
@example(case=([2, 1], 3, 1, 0))
@example(case=([0, 0, 0, 0], 1, 2, 9))
@example(case=([3, 0, 1], 4, 0, 12))
@example(case=([0, 2**32, 0], 2**32 + 3, 1, 7))
def test_compiled_orbit_matches_tables_and_single_quantum(case):
    """The C orbit, entry for entry, against the closed-form tables
    unrolled along their successor map
    (:meth:`~repro.sim.multitask.QuantumWalkTables.orbit`) and against
    :func:`~repro.sim.multitask.single_quantum` iterated from the
    start; counts start at 0, where both orbits are empty."""
    gaps, quantum, start, count = case
    cumulative = np.cumsum(np.array(gaps, dtype=np.int64) + 1)
    got = _compiled.quantum_orbit_compiled(cumulative, quantum, start, count)
    assert all(column.dtype == np.int64 for column in got)
    assert all(len(column) == count for column in got)

    tables = QuantumWalkTables(cumulative, quantum)
    positions = tables.orbit(start, count)
    tabled = (
        positions,
        tables.accesses[positions],
        tables.ran[positions],
        tables.wraps[positions],
    )
    for name, column, expected in zip(
        ("positions", "accesses", "ran", "wraps"), got, tabled
    ):
        assert column.tolist() == expected.tolist(), name

    position = start
    for index in range(count):
        next_position, quantum_accesses, quantum_ran, quantum_wraps = (
            single_quantum(cumulative, position, quantum)
        )
        assert (
            int(got[0][index]),
            int(got[1][index]),
            int(got[2][index]),
            int(got[3][index]),
        ) == (position, quantum_accesses, quantum_ran, quantum_wraps), index
        position = next_position


@requires_compiled
@pytest.mark.parametrize(
    ("cumulative", "quantum", "start", "message"),
    [
        (np.zeros(0, dtype=np.int64), 1, 0, "at least one"),
        (np.array([0, 0, 0], dtype=np.int64), 1, 0, "at least one"),
        (np.array([1, 2, 3], dtype=np.int64), 1, 3, "start 3"),
        (np.array([1, 2, 3], dtype=np.int64), 0, 0, "quantum"),
        (np.array([1, 2, 3], dtype=np.int64), 2**63 - 3, 0, "quantum"),
    ],
    ids=["empty", "zero-total", "start-off-trace", "quantum-0", "overflow"],
)
def test_compiled_orbit_rejects_inputs_outside_its_domain(
    cumulative, quantum, start, message
):
    """What the C loop cannot survive (a zero pass total, a cursor off
    the trace, an overflowing target) is refused before the call."""
    with pytest.raises(ValueError, match=message):
        _compiled.quantum_orbit_compiled(cumulative, quantum, start, 4)


def walk_window(cumulatives, positions, quantum, budget, start_at):
    """One fleet window walked as ``tests/oracles/fleet.py`` walks a
    segment: round-robin from ``start_at``, one
    :func:`next_quantum_slice` at a time, each quantum cut to
    ``min(quantum, budget - executed)``.

    Returns the ``(tenant, start, accesses, ran, wraps)`` entries,
    each tenant's slices, the cursors after the window, the
    instructions executed and the turn due next.
    """
    positions = list(positions)
    slices = [[] for _ in cumulatives]
    entries = []
    executed = 0
    turn = start_at
    while executed < budget:
        cumulative = cumulatives[turn]
        start = positions[turn]
        accesses = ran_total = wraps = 0
        remaining = min(quantum, budget - executed)
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
# The fleet's segment entry: one call per segment, on both kernels.
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
    at least 2**32), its blocks anywhere in :data:`SEGMENT_BASES`, any
    cursor and any mask (0 is a bypass); quantum 1 up to four times
    the shortest pass; 1-4 calls, each with a budget below the quantum,
    ``k * quantum + (-1, 0, 1)`` or any, from any ``start_at``; and a
    signature width (powers of two or not)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    blocks, cumulatives = [], []
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.sampled_from([1, 2]) | st.integers(1, 40))
        gaps = rng.integers(0, 6, size=length)
        if draw(st.integers(0, 5)) == 0:
            gaps[draw(st.integers(0, length - 1))] = draw(
                st.integers(2**32, 2**32 + 9)
            )
        base = draw(st.sampled_from(SEGMENT_BASES))
        blocks.append(base + rng.integers(0, 24, size=length))
        cumulatives.append(np.cumsum(gaps + 1))
    shortest = min(int(c[-1]) for c in cumulatives)
    quantum = draw(
        st.just(1) | st.integers(1, 30) | st.integers(1, 4 * min(shortest, 5000))
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
    return (
        blocks,
        cumulatives,
        cursors,
        masks,
        quantum,
        budgets,
        start_at,
        signature_bits,
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
    )
)
def test_fleet_segment_matches_schedule_and_scalar_walk(case, kernel):
    """Segment by segment, state carried over: per-resident counts,
    cursors, ``executed``, the next turn and the hit flags equal
    :func:`~repro.sim.multitask.quantum_schedule` walked by numpy's
    gather, and the scalar :func:`next_quantum_slice` walk stepped
    through the reference cache; each signature is
    :func:`~repro.runtime.detector.working_set_signature` of the
    resident's circular window; the final state equals numpy's."""
    (
        blocks,
        cumulatives,
        cursors,
        masks,
        quantum,
        budgets,
        turn,
        signature_bits,
    ) = case
    geometry = SEGMENT_GEOMETRY
    options = {
        "sets_mask": geometry.sets - 1,
        "index_bits": geometry.index_bits,
    }
    state = LockstepState.cold(geometry.sets, geometry.columns)
    expected = LockstepState.cold(geometry.sets, geometry.columns)
    reference = ReferenceCache(geometry)
    for budget in budgets:
        got = fleet_segment(
            blocks, cumulatives, cursors, masks, quantum, budget, turn,
            state, signature_bits=signature_bits, collect_flags=True,
            backend=kernel, **options,
        )

        schedule = quantum_schedule(
            cumulatives, cursors, quantum, budget, turn
        )
        walk = fused_multitask_run(
            TenantBatch.build(blocks), schedule,
            np.array(masks, dtype=np.int64), expected,
            collect_flags=True, backend="numpy", **options,
        )
        assert got.counts == schedule_counts(schedule, walk.hits.tolist())
        assert got.cursors == schedule.next_positions.tolist()
        assert got.executed == schedule.executed
        assert got.next_turn == schedule.next_turn
        assert got.hit_flags.tolist() == walk.hit_flags.tolist()

        entries, _slices, walked, executed, next_turn = walk_window(
            cumulatives, cursors, quantum, budget, turn
        )
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
