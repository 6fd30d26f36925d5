"""The closed-form multitask schedule vs a step-by-step rebuild.

``repro.sim.engine.multitask_batch`` computes where every round-robin
quantum starts and stops in closed form (vectorized successor tables +
orbit tiling).  These property tests rebuild the schedule the way the
scalar :class:`~repro.sim.multitask.MultitaskSimulator` walks it — one
quantum at a time, one searchsorted per step, honoring the atomic
overshoot of the final access — and assert the closed form matches
*entry by entry*: same job order, same start positions, same access
counts, same instructions executed, same wrap counts, for random
quantum and trace lengths.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.sim.engine.multitask_batch import _BatchJob, _Schedule
from repro.sim.multitask import Job
from repro.trace.columnar import ColumnarRecorder

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
    assert len(schedule.job_ids) == len(expected)
    for index, (job, start, accesses, ran, wraps) in enumerate(expected):
        assert int(schedule.job_ids[index]) == job, index
        assert int(schedule.positions[index]) == start, index
        assert int(schedule.accesses[index]) == accesses, index
        assert int(schedule.ran[index]) == ran, index
        assert int(schedule.wraps[index]) == wraps, index
    assert schedule.total_accesses == sum(
        entry[2] for entry in expected
    )


@given(case=schedule_case())
@settings(deadline=None)
def test_access_stream_walks_each_trace_in_order(case):
    """The materialized stream is each quantum's trace slice, wrapped."""
    jobs, quantum, budget = case
    batch_jobs = [_BatchJob(job, GEOMETRY) for job in jobs]
    schedule = _Schedule(batch_jobs, quantum, budget)
    stream_blocks, stream_jobs = schedule.access_stream(batch_jobs)
    cursor = 0
    for index in range(len(schedule.job_ids)):
        job = int(schedule.job_ids[index])
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
