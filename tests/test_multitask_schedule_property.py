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
both numpy references directly, on the edges of its input domain.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.sim.engine import _compiled
from repro.sim.engine.backends import compiled_available
from repro.sim.engine.fused import TenantBatch, _stream_gather
from repro.sim.engine.multitask_batch import _BatchJob, _Schedule
from repro.sim.multitask import Job, QuantumWalkTables, single_quantum
from repro.trace.columnar import ColumnarRecorder

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
