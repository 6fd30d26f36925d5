"""The adaptive-runtime comparison: static vs page coloring vs adaptive.

The paper's software-controlled cache promises that column mappings
can change "almost instantaneously" at runtime (Section 3.2); the
figures only ever exercise it with *known* phase structure (Figure
4(d) remaps per routine).  This experiment closes the loop with the
:mod:`repro.runtime` subsystem: the adaptive executor must *discover*
the phases from the reference stream and repartition live, and is
scored against

* ``best_static`` — the cheapest of: the unpartitioned standard
  cache, the planner's full-trace assignment, and every per-phase
  assignment applied statically (an oracle static sweep; the adaptive
  runtime gets none of this knowledge);
* ``page_coloring`` — the OS-level baseline of Section 5.1.

Each workload is one :class:`~repro.sim.engine.spec.SimJob` submitted
through the sweep engine, so comparisons run batched/parallel and
repeat runs hit the engine's content-addressed result cache.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.experiments.report import ExperimentSeries, ShapeCheck
from repro.sim.config import EMBEDDED_TIMING, TimingConfig
from repro.sim.engine.scheduler import SweepEngine
from repro.sim.engine.spec import SimJob

#: Dotted path of the per-workload comparison runner.
POINT_RUNNER = "repro.experiments.runners:adaptive_point"


@dataclass(frozen=True)
class WorkloadCase:
    """One workload of the comparison and its runtime knobs.

    ``window_accesses`` should approximate one sweep of the
    workload's inner loop so working-set signatures are stable within
    a phase.
    """

    workload: str
    window_accesses: int
    kwargs: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class AdaptiveComparisonConfig:
    """Parameters of the adaptive comparison experiment."""

    cases: tuple[WorkloadCase, ...] = (
        WorkloadCase(
            "packet",
            window_accesses=2048,
            kwargs=(("batches", 2), ("rounds", 4)),
        ),
        WorkloadCase(
            "twopass",
            window_accesses=512,
            kwargs=(("blocks", 8), ("frames", 2)),
        ),
        WorkloadCase(
            "fft_phased",
            window_accesses=256,
            kwargs=(("n", 256), ("transforms", 2)),
        ),
    )
    columns: int = 4
    column_bytes: int = 512
    line_size: int = 16
    signature_threshold: float = 0.15
    miss_rate_threshold: float = 0.25
    hysteresis_windows: int = 2
    min_benefit_cycles: int = 0
    seed: int = 0
    timing: TimingConfig = EMBEDDED_TIMING

    def quick(self) -> "AdaptiveComparisonConfig":
        """Smaller workloads for a fast smoke run."""
        return dataclasses.replace(
            self,
            cases=(
                WorkloadCase(
                    "packet",
                    window_accesses=2048,
                    kwargs=(("batches", 1), ("rounds", 2)),
                ),
                WorkloadCase(
                    "twopass",
                    window_accesses=512,
                    kwargs=(("blocks", 4), ("frames", 1)),
                ),
                WorkloadCase(
                    "fft_phased",
                    window_accesses=256,
                    kwargs=(("n", 128), ("transforms", 1)),
                ),
            ),
        )

    def jobs(self) -> list[SimJob]:
        """One engine job per workload case."""
        jobs = []
        for case in self.cases:
            jobs.append(
                SimJob(
                    runner=POINT_RUNNER,
                    params={
                        "workload": case.workload,
                        "workload_kwargs": [
                            list(pair) for pair in case.kwargs
                        ],
                        "columns": self.columns,
                        "column_bytes": self.column_bytes,
                        "line_size": self.line_size,
                        "window_accesses": case.window_accesses,
                        "signature_threshold": self.signature_threshold,
                        "miss_rate_threshold": self.miss_rate_threshold,
                        "hysteresis_windows": self.hysteresis_windows,
                        "min_benefit_cycles": self.min_benefit_cycles,
                        "seed": self.seed,
                        "timing": dataclasses.asdict(self.timing),
                    },
                    label=f"adaptive[{case.workload}]",
                )
            )
        return jobs


@dataclass
class AdaptiveComparisonResult:
    """Per-workload comparison points plus the rendered series."""

    series: ExperimentSeries
    points: dict[str, dict[str, Any]] = field(default_factory=dict)

    def point(self, workload: str) -> dict[str, Any]:
        """The raw comparison numbers of one workload."""
        return self.points[workload]


def run_adaptive_comparison(
    config: AdaptiveComparisonConfig | None = None,
    engine: Optional[SweepEngine] = None,
) -> AdaptiveComparisonResult:
    """Run the comparison for every configured workload."""
    config = config or AdaptiveComparisonConfig()
    engine = engine or SweepEngine(workers=1, backend="serial")
    outcomes = engine.run(config.jobs())
    points = {
        outcome.value["workload"]: outcome.value for outcome in outcomes
    }
    names = [case.workload for case in config.cases]
    series = ExperimentSeries(
        name="adaptive-comparison",
        x_label="workload",
        x_values=names,
        notes=[
            f"{config.columns} columns x {config.column_bytes}B, "
            f"miss penalty {config.timing.miss_penalty}; best_static "
            "is an oracle over standard/full-profile/per-phase "
            "layouts",
        ],
    )
    series.add(
        "best_static_cpi",
        [round(points[name]["best_static_cpi"], 4) for name in names],
    )
    series.add(
        "page_coloring_cpi",
        [round(points[name]["page_coloring_cpi"], 4) for name in names],
    )
    series.add(
        "adaptive_cpi",
        [round(points[name]["adaptive_cpi"], 4) for name in names],
    )
    series.add("remaps", [points[name]["remaps"] for name in names])
    return AdaptiveComparisonResult(series=series, points=points)


def check_adaptive(result: AdaptiveComparisonResult) -> list[ShapeCheck]:
    """What "reproduced" means for the adaptive comparison."""
    checks = []
    wins = [
        name
        for name, point in result.points.items()
        if point["adaptive_cpi"] <= point["best_static_cpi"]
    ]
    checks.append(
        ShapeCheck(
            claim=(
                "adaptive CPI <= best static layout on a phase-heavy "
                "workload"
            ),
            passed=bool(wins),
            detail=f"wins={wins or 'none'}",
        )
    )
    packet = result.points.get("packet")
    if packet is not None:
        checks.append(
            ShapeCheck(
                claim=(
                    "packet: every partitioned static layout loses to "
                    "the standard cache (no static partition captures "
                    "the rotating phases)"
                ),
                passed=packet["best_static_label"] == "standard",
                detail=f"best static={packet['best_static_label']}",
            )
        )
        checks.append(
            ShapeCheck(
                claim="packet: adaptive beats page coloring",
                passed=packet["adaptive_cpi"]
                < packet["page_coloring_cpi"],
                detail=(
                    f"adaptive={packet['adaptive_cpi']:.3f}, "
                    f"page coloring={packet['page_coloring_cpi']:.3f}"
                ),
            )
        )
    worst_ratio = max(
        point["adaptive_cpi"] / point["best_static_cpi"]
        for point in result.points.values()
    )
    checks.append(
        ShapeCheck(
            claim=(
                "adaptivity costs <= 10% over best static even on "
                "statically layout-friendly workloads"
            ),
            passed=worst_ratio <= 1.10,
            detail=f"worst adaptive/static ratio={worst_ratio:.3f}",
        )
    )
    return checks
