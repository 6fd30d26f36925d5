"""Cross-check: a Figure 4 sweep point through the full mechanism.

The figure experiments use the fast executor; this test re-runs one
representative partition point of each routine through the complete
TLB -> tint -> replacement-unit path and asserts identical cycles —
tying the headline results to the faithful hardware model.
"""

import pytest

from repro.layout.algorithm import DataLayoutPlanner, LayoutConfig
from repro.sim.config import EMBEDDED_TIMING
from repro.sim.executor import TraceExecutor
from repro.workloads.mpeg import DequantRoutine, IdctRoutine, PlusRoutine

from oracles.figure2 import run_reference


@pytest.mark.parametrize(
    "factory,kwargs,scratchpad",
    [
        (DequantRoutine, {}, 4),       # the all-scratchpad optimum
        (DequantRoutine, {}, 0),       # the all-cache worst case
        (PlusRoutine, {}, 2),          # a middle point
        (IdctRoutine, {"blocks": 4}, 2),  # idct with spills possible
    ],
)
def test_sweep_point_matches_reference(factory, kwargs, scratchpad):
    run = factory(**kwargs).record()
    config = LayoutConfig(
        columns=4,
        column_bytes=512,
        scratchpad_columns=scratchpad,
        split_oversized=False,
    )
    assignment = DataLayoutPlanner(config).plan(run)
    executor = TraceExecutor(EMBEDDED_TIMING)
    fast = executor.run(run.trace, assignment)
    reference = run_reference(executor, run.trace, assignment)
    assert fast.cycles == reference.cycles
    assert fast.misses == reference.misses
    assert fast.uncached_accesses == reference.uncached_accesses
