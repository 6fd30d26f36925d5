"""Figure 4: scratchpad-versus-cache partitioning of 2 KB on-chip memory.

Paper Section 4.1: "For each of these routines, the amount of memory is
fixed at 2KB and the ratio between cache and scratchpad memory is
varied.  There are four columns in this cache.  At one extreme, all
four columns are used as a scratchpad, and at the other extreme, all
four columns used as a 4-way set-associative cache ...  For each memory
partition, the data layout algorithm was used to determine the mapping
of variables to columns."

* 4(a) ``dequant``  — fits in 2 KB: all-scratchpad is optimal.
* 4(b) ``plus``     — fits in 2 KB: all-scratchpad is optimal.
* 4(c) ``idct``     — exceeds 2 KB: needs cache columns.
* 4(d) combined     — every static partition versus a column cache that
  remaps per routine (sum of each routine's best partition plus the
  remap overhead).

The planner here colors *whole variables* (``split_oversized=False``),
per the paper's footnote 2 ("we will restrict ourselves to assigning
variables to a single column"); the subarray-vertex variant is the A5
ablation bench.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from repro.experiments.report import ExperimentSeries, ShapeCheck
from repro.layout.algorithm import DataLayoutPlanner, LayoutConfig
from repro.sim.config import EMBEDDED_TIMING, TimingConfig
from repro.sim.engine.scheduler import SweepEngine
from repro.sim.engine.spec import SweepSpec
from repro.sim.executor import TraceExecutor
from repro.workloads.base import Workload, WorkloadRun
from repro.workloads.mpeg import DequantRoutine, IdctRoutine, PlusRoutine

#: Dotted path of the per-point sweep runner.
POINT_RUNNER = "repro.experiments.runners:figure4_point"

ROUTINES: dict[str, Callable[..., Workload]] = {
    "dequant": DequantRoutine,
    "plus": PlusRoutine,
    "idct": IdctRoutine,
}


@dataclass(frozen=True)
class Figure4Config:
    """Parameters of the Figure 4 experiments.

    Defaults model the paper's setup: 2 KB of on-chip memory in four
    512-byte columns with 16-byte lines.
    """

    columns: int = 4
    column_bytes: int = 512
    line_size: int = 16
    timing: TimingConfig = EMBEDDED_TIMING
    split_oversized: bool = False
    pin_subarrays: bool = False
    seed: int = 0
    routine_kwargs: tuple[tuple[str, tuple[tuple[str, int], ...]], ...] = ()

    @property
    def total_bytes(self) -> int:
        """Total on-chip memory."""
        return self.columns * self.column_bytes

    def kwargs_for(self, routine: str) -> dict[str, int]:
        """Constructor overrides for one routine (quick modes)."""
        for name, pairs in self.routine_kwargs:
            if name == routine:
                return dict(pairs)
        return {}

    def quick(self) -> "Figure4Config":
        """The fast variant.

        Figure 4 already runs in well under a second at full size (the
        routine traces are tens of thousands of accesses), and shrinking
        the working sets distorts the scratchpad/cache tension the
        figure is about — so quick mode keeps the full configuration.
        """
        return self


@lru_cache(maxsize=16)
def _record_routine(
    routine: str, seed: int, kwargs_key: tuple[tuple[str, int], ...]
) -> WorkloadRun:
    """Record one routine's trace (cached across sweep points)."""
    factory = ROUTINES[routine]
    return factory(seed=seed, **dict(kwargs_key)).record()


def _plan_and_run(
    run: WorkloadRun,
    config: Figure4Config,
    cache_columns: int,
):
    """One sweep point: plan the layout and simulate the routine."""
    layout_config = LayoutConfig(
        columns=config.columns,
        column_bytes=config.column_bytes,
        line_size=config.line_size,
        scratchpad_columns=config.columns - cache_columns,
        split_oversized=config.split_oversized,
        pin_subarrays=config.pin_subarrays,
        seed=config.seed,
    )
    assignment = DataLayoutPlanner(layout_config).plan(run)
    executor = TraceExecutor(config.timing)
    result = executor.run(run.trace, assignment)
    return result, assignment


def base_params(config: Figure4Config) -> dict:
    """The config as JSON-serializable runner parameters."""
    return {
        "columns": config.columns,
        "column_bytes": config.column_bytes,
        "line_size": config.line_size,
        "split_oversized": config.split_oversized,
        "pin_subarrays": config.pin_subarrays,
        "seed": config.seed,
        "routine_kwargs": [
            [name, [list(pair) for pair in pairs]]
            for name, pairs in config.routine_kwargs
        ],
        "timing": dataclasses.asdict(config.timing),
    }


def run_figure4_routine(
    routine: str,
    config: Figure4Config | None = None,
    engine: Optional[SweepEngine] = None,
) -> ExperimentSeries:
    """Sweep one routine over every scratchpad/cache partition.

    The partition axis is submitted to the sweep engine as a
    declarative :class:`SweepSpec`; on a multi-core host the points
    simulate in parallel, and repeated sweeps are served from the
    engine's content-addressed cache.
    """
    config = config or Figure4Config()
    if routine not in ROUTINES:
        raise ValueError(
            f"unknown routine {routine!r}; choose from {sorted(ROUTINES)}"
        )
    engine = engine or SweepEngine(workers=1, backend="serial")
    x_values = list(range(config.columns + 1))
    spec = SweepSpec(
        name=f"figure4-{routine}",
        runner=POINT_RUNNER,
        base={**base_params(config), "routine": routine},
        axes={"cache_columns": x_values},
    )
    outcomes = engine.run(spec)
    cycles = [outcome.value["cycles"] for outcome in outcomes]
    pinned_bytes = [
        outcome.value["scratchpad_bytes"] for outcome in outcomes
    ]
    first = outcomes[0].value
    series = ExperimentSeries(
        name=f"figure4-{routine}",
        x_label="cache_columns",
        x_values=x_values,
        notes=[
            f"{config.total_bytes}B on-chip memory, "
            f"{config.columns} columns x {config.column_bytes}B, "
            f"miss penalty {config.timing.miss_penalty}",
            f"trace: {first['trace_accesses']} accesses, "
            f"{first['trace_instructions']} instructions",
        ],
    )
    series.add("cycles", cycles)
    series.add("scratchpad_bytes", pinned_bytes)
    return series


@dataclass
class Figure4dResult:
    """The combined-application result.

    Attributes:
        series: Static-partition totals plus the flat column-cache line.
        per_routine: Cycle counts per routine per partition.
        column_cache_cycles: Sum of per-routine minima plus remap
            overhead (the dynamically repartitioned column cache).
        remap_overhead: Cycles charged for the per-routine remaps.
    """

    series: ExperimentSeries
    per_routine: dict[str, list[int]]
    column_cache_cycles: int
    remap_overhead: int

    @property
    def best_static_cycles(self) -> int:
        """The best static partition's total."""
        return min(self.series.series["static_total"])

    @property
    def improvement(self) -> float:
        """Fractional gain of the column cache over the best static."""
        best = self.best_static_cycles
        if best == 0:
            return 0.0
        return (best - self.column_cache_cycles) / best


def run_figure4d(
    config: Figure4Config | None = None,
    engine: Optional[SweepEngine] = None,
) -> Figure4dResult:
    """Figure 4(d): combined application, static versus column cache.

    The full (routine x partition) product goes through the sweep
    engine as one declarative spec.
    """
    config = config or Figure4Config()
    engine = engine or SweepEngine(workers=1, backend="serial")
    x_values = list(range(config.columns + 1))
    routines = list(ROUTINES)
    spec = SweepSpec(
        name="figure4d-combined",
        runner=POINT_RUNNER,
        base=base_params(config),
        axes={"routine": routines, "cache_columns": x_values},
    )
    outcomes = engine.run(spec)
    per_routine: dict[str, list[int]] = {}
    masks_per_routine: dict[str, list[list[int]]] = {}
    for outcome in outcomes:
        routine = outcome.job.params["routine"]
        per_routine.setdefault(routine, []).append(
            outcome.value["cycles"]
        )
        masks_per_routine.setdefault(routine, []).append(
            outcome.value["mask_bits"]
        )

    static_total = [
        sum(per_routine[routine][index] for routine in per_routine)
        for index in x_values
    ]

    # The column cache runs each routine at its own best partition and
    # pays the remap overhead: the tint-table writes of Section 2.2
    # (the paper's "almost instantaneous" path).  Scratchpad *data*
    # loads are charged to neither scheme: each routine's working data
    # must be brought on chip once per activation under any partition,
    # static or dynamic, so it cancels out of the comparison.
    timing = config.timing
    column_cycles = 0
    remap_overhead = 0
    for routine, cycles in per_routine.items():
        best_index = min(range(len(cycles)), key=cycles.__getitem__)
        column_cycles += cycles[best_index]
        best_masks = masks_per_routine[routine][best_index]
        remap_overhead += (len(best_masks) + 1) * timing.remap_tint_cycles
    column_cycles += remap_overhead

    series = ExperimentSeries(
        name="figure4d-combined",
        x_label="cache_columns",
        x_values=x_values,
        notes=[
            "column cache remaps per routine; overhead "
            f"{remap_overhead} cycles included",
        ],
    )
    series.add("static_total", static_total)
    series.add("column_cache", [column_cycles] * len(x_values))
    return Figure4dResult(
        series=series,
        per_routine=per_routine,
        column_cache_cycles=column_cycles,
        remap_overhead=remap_overhead,
    )


# ----------------------------------------------------------------------
# Shape checks: what "reproduced" means for Figure 4
# ----------------------------------------------------------------------
def check_figure4a(series: ExperimentSeries) -> list[ShapeCheck]:
    """Dequant fits in 2 KB: all-scratchpad optimal, cache degrades."""
    cycles = series.series["cycles"]
    return [
        ShapeCheck(
            claim="dequant: all-scratchpad extreme is optimal",
            passed=cycles[0] == min(cycles),
            detail=f"cycles={cycles}",
        ),
        ShapeCheck(
            claim="dequant: full-cache extreme is the worst partition",
            passed=cycles[-1] == max(cycles),
            detail=f"cycles={cycles}",
        ),
        ShapeCheck(
            claim="dequant: cycle count is monotone as scratchpad shrinks",
            passed=all(a <= b for a, b in zip(cycles, cycles[1:])),
            detail=f"cycles={cycles}",
        ),
    ]


def check_figure4b(series: ExperimentSeries) -> list[ShapeCheck]:
    """Plus fits in 2 KB: same expectations as dequant."""
    cycles = series.series["cycles"]
    return [
        ShapeCheck(
            claim="plus: all-scratchpad extreme is optimal",
            passed=cycles[0] == min(cycles),
            detail=f"cycles={cycles}",
        ),
        ShapeCheck(
            claim="plus: cycle count is monotone as scratchpad shrinks",
            passed=all(a <= b for a, b in zip(cycles, cycles[1:])),
            detail=f"cycles={cycles}",
        ),
    ]


def check_figure4c(series: ExperimentSeries) -> list[ShapeCheck]:
    """Idct exceeds 2 KB: scratchpad extreme is catastrophic."""
    cycles = series.series["cycles"]
    return [
        ShapeCheck(
            claim="idct: all-scratchpad extreme is the worst partition",
            passed=cycles[0] == max(cycles),
            detail=f"cycles={cycles}",
        ),
        ShapeCheck(
            claim="idct: all-scratchpad is at least 2x worse than best",
            passed=cycles[0] >= 2 * min(cycles),
            detail=f"ratio={cycles[0] / min(cycles):.2f}",
        ),
        ShapeCheck(
            claim="idct: a multi-column cache beats a single cache column",
            passed=min(cycles[2:]) < cycles[1],
            detail=f"cycles={cycles}",
        ),
    ]


def check_figure4d(result: Figure4dResult) -> list[ShapeCheck]:
    """Column cache at least matches the best static partition."""
    static = result.series.series["static_total"]
    best_static = min(static)
    optima = {
        routine: min(
            range(len(cycles)), key=cycles.__getitem__
        )
        for routine, cycles in result.per_routine.items()
    }
    return [
        ShapeCheck(
            claim="combined: per-routine optimal partitions differ",
            passed=len(set(optima.values())) > 1,
            detail=f"optima={optima}",
        ),
        ShapeCheck(
            claim="combined: column cache beats the best static partition",
            passed=result.column_cache_cycles < best_static,
            detail=(
                f"column={result.column_cache_cycles}, "
                f"best static={best_static}, "
                f"improvement={result.improvement:.1%}"
            ),
        ),
        ShapeCheck(
            claim="combined: column cache beats every static partition",
            passed=all(
                result.column_cache_cycles < total for total in static
            ),
            detail=f"static={static}",
        ),
    ]
