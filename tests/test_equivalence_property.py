"""Property test: fast and reference executors agree on random workloads.

This is the strongest cross-validation in the suite: random variable
sets, random interleaved traces, random scratchpad/cache splits — the
vectorized fast path and the full TLB/tint/replacement mechanism must
produce identical cycle counts and miss totals.  The sweep engine's
lockstep kernel joins the same triangle: on the cached access stream
every planner assignment produces, it must agree with the reference
cache bit-for-bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout.algorithm import DataLayoutPlanner, LayoutConfig
from repro.sim.config import TimingConfig
from repro.sim.engine.batched import LockstepState, lockstep_run
from repro.sim.executor import TraceExecutor

from oracles.column_cache import reference_streams
from oracles.figure2 import run_reference
from strategies import random_workload

TIMING = TimingConfig(miss_penalty=13, uncached_penalty=29,
                      preload_line_cycles=7)


@given(workload=random_workload())
@settings(max_examples=40, deadline=None)
def test_fast_matches_reference_on_random_workloads(workload):
    run, scratchpad, split = workload
    config = LayoutConfig(
        columns=4,
        column_bytes=512,
        scratchpad_columns=scratchpad,
        split_oversized=split,
    )
    assignment = DataLayoutPlanner(config).plan(run)
    executor = TraceExecutor(TIMING)
    fast = executor.run(run.trace, assignment)
    reference = run_reference(executor, run.trace, assignment)
    assert fast.cycles == reference.cycles
    assert fast.hits == reference.hits
    assert fast.misses == reference.misses
    assert fast.uncached_accesses == reference.uncached_accesses
    assert fast.scratchpad_accesses == reference.scratchpad_accesses
    assert fast.setup_cycles == reference.setup_cycles


@given(
    workload=random_workload(),
    cutoff=st.sampled_from([0, 2, 10_000]),
)
@settings(max_examples=40, deadline=None)
def test_lockstep_matches_reference_on_planner_masks(workload, cutoff):
    """The engine's lockstep kernel on real planner-produced masks.

    Extracts the cached access stream exactly as the fast executor
    does, then runs it through the reference cache and the lockstep
    kernel: hit and bypass streams must be bit-identical for every
    random layout.
    """
    run, scratchpad, split = workload
    config = LayoutConfig(
        columns=4,
        column_bytes=512,
        scratchpad_columns=scratchpad,
        split_oversized=split,
    )
    assignment = DataLayoutPlanner(config).plan(run)
    executor = TraceExecutor(TIMING)
    geometry = executor.geometry_for(assignment)
    codes, bits = executor.classify(run.trace, assignment)
    cached = np.flatnonzero(codes == 0)
    blocks = run.trace.addresses[cached] >> geometry.offset_bits
    masks = bits[cached]

    ref_hits, ref_bypasses, _ = reference_streams(geometry, blocks, masks)
    lock_hits, lock_bypasses = lockstep_run(
        blocks & (geometry.sets - 1),
        blocks >> geometry.index_bits,
        LockstepState.cold(geometry.sets, geometry.columns),
        mask_bits=masks,
        scalar_cutoff=cutoff,
        backend="numpy",
    )
    assert np.array_equal(lock_hits, ref_hits)
    assert np.array_equal(lock_bypasses, ref_bypasses)
