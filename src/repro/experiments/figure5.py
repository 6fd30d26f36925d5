"""Figure 5: multitasking CPI versus context-switch time quantum.

Paper Section 4.2: three gzip jobs round-robin on one processor; job
A's CPI is measured while the time quantum sweeps 1 .. 1M instructions,
for a 16 KB and a 128 KB cache, each with and without column mapping.
Mapped means job A owns a large fraction of the columns exclusively and
jobs B and C share the rest.

Scaling note (recorded in EXPERIMENTS.md): the paper's gzip jobs ran
over full files; our jobs compress 4 KB synthetic text, so traces are
~65 k accesses and wrap.  The quantum axis is kept at the paper's
1..1048576 range — quanta beyond the trace length behave as batch
scheduling, exactly as in the paper.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.experiments.report import ExperimentSeries, ShapeCheck
from repro.sim.config import MULTITASK_TIMING, TimingConfig
from repro.sim.engine.scheduler import SweepEngine
from repro.sim.engine.spec import SimJob
from repro.sim.multitask import Job
from repro.utils.bitvector import ColumnMask
from repro.workloads.base import WorkloadRun
from repro.workloads.gzip_like import make_gzip_job

#: Dotted path of the whole-matrix sweep runner.
MATRIX_RUNNER = "repro.experiments.runners:figure5_matrix"

#: Disjoint per-job address spaces.
_JOB_SPACE_BITS = 32


@dataclass(frozen=True)
class Figure5Config:
    """Parameters of the Figure 5 experiment.

    ``horizon_instructions`` is the per-point instruction budget (the
    name shared with the fleet configs).
    """

    cache_sizes_kb: tuple[int, ...] = (16, 128)
    columns: int = 8
    line_size: int = 16
    quanta: tuple[int, ...] = tuple(4 ** k for k in range(11))
    job_names: tuple[str, ...] = ("A", "B", "C")
    measured_job: str = "A"
    a_columns: int = 6
    input_bytes: int = 4096
    window_bits: int = 12
    hash_bits: int = 11
    horizon_instructions: int = 600_000
    warmup_passes: int = 1
    timing: TimingConfig = MULTITASK_TIMING

    def quick(self) -> "Figure5Config":
        """A smaller variant for fast smoke runs."""
        return Figure5Config(
            cache_sizes_kb=self.cache_sizes_kb,
            columns=self.columns,
            line_size=self.line_size,
            quanta=tuple(4 ** k for k in range(0, 11, 2)),
            job_names=self.job_names,
            measured_job=self.measured_job,
            a_columns=self.a_columns,
            input_bytes=1024,
            window_bits=self.window_bits,
            hash_bits=self.hash_bits,
            horizon_instructions=120_000,
            warmup_passes=self.warmup_passes,
            timing=self.timing,
        )


@lru_cache(maxsize=8)
def _record_jobs(
    job_names: tuple[str, ...],
    input_bytes: int,
    window_bits: int,
    hash_bits: int,
) -> dict[str, WorkloadRun]:
    """Record the compression jobs once per configuration."""
    return {
        name: make_gzip_job(
            name,
            input_bytes=input_bytes,
            window_bits=window_bits,
            hash_bits=hash_bits,
        ).record()
        for name in job_names
    }


def _geometry(config: Figure5Config, cache_kb: int) -> CacheGeometry:
    total = cache_kb * 1024
    sets = total // (config.line_size * config.columns)
    return CacheGeometry(
        line_size=config.line_size, sets=sets, columns=config.columns
    )


def _jobs(
    config: Figure5Config,
    runs: dict[str, WorkloadRun],
    mapped: bool,
) -> list[Job]:
    jobs = []
    for index, name in enumerate(config.job_names):
        if not mapped:
            mask = None
        elif name == config.measured_job:
            mask = ColumnMask.contiguous(0, config.a_columns, config.columns)
        else:
            mask = ColumnMask.contiguous(
                config.a_columns,
                config.columns - config.a_columns,
                config.columns,
            )
        jobs.append(
            Job(
                name=name,
                trace=runs[name].trace,
                mask=mask,
                address_offset=index << _JOB_SPACE_BITS,
            )
        )
    return jobs


def matrix_job(config: Figure5Config) -> SimJob:
    """The Figure 5 matrix as one declarative sweep job."""
    return SimJob(
        runner=MATRIX_RUNNER,
        params={
            "cache_sizes_kb": list(config.cache_sizes_kb),
            "columns": config.columns,
            "line_size": config.line_size,
            "quanta": list(config.quanta),
            "job_names": list(config.job_names),
            "measured_job": config.measured_job,
            "a_columns": config.a_columns,
            "input_bytes": config.input_bytes,
            "window_bits": config.window_bits,
            "hash_bits": config.hash_bits,
            # The key keeps its pre-rename spelling: it feeds the
            # job's content hash, so cached results stay valid.
            "budget_instructions": config.horizon_instructions,
            "warmup_passes": config.warmup_passes,
            "timing": dataclasses.asdict(config.timing),
        },
        label="figure5-matrix",
    )


def run_figure5(
    config: Figure5Config | None = None,
    engine: Optional[SweepEngine] = None,
) -> ExperimentSeries:
    """All four Figure 5 curves, submitted through the sweep engine.

    The matrix runs as one engine job: the round-robin schedule is
    shared across all four curves and every sweep point advances in
    lockstep, so this is several times faster than the scalar
    per-point loop (and a repeat run is served from the engine's
    result cache).
    """
    config = config or Figure5Config()
    engine = engine or SweepEngine(workers=1, backend="serial")
    value = engine.values([matrix_job(config)])[0]
    series = ExperimentSeries(
        name="figure5-multitasking",
        x_label="quantum",
        x_values=list(config.quanta),
        notes=[
            f"{len(config.job_names)} gzip jobs ({config.input_bytes}B "
            f"input each), job {config.measured_job} measured; mapped = "
            f"{config.a_columns}/{config.columns} columns exclusive",
            f"budget {config.horizon_instructions} instructions per point",
        ],
    )
    for (cache_kb, mapped), cpis in zip(value["labels"], value["cpis"]):
        suffix = " mapped" if mapped else ""
        series.add(f"gzip.{cache_kb}k{suffix}", list(cpis))
    return series


# ----------------------------------------------------------------------
# Shape checks: what "reproduced" means for Figure 5
# ----------------------------------------------------------------------
def _spread(values: list[float]) -> float:
    return max(values) - min(values)


def check_figure5(
    series: ExperimentSeries, config: Figure5Config | None = None
) -> list[ShapeCheck]:
    """The paper's four qualitative claims about Figure 5."""
    config = config or Figure5Config()
    small = min(config.cache_sizes_kb)
    large = max(config.cache_sizes_kb)
    shared_small = series.series[f"gzip.{small}k"]
    mapped_small = series.series[f"gzip.{small}k mapped"]
    shared_large = series.series[f"gzip.{large}k"]
    mapped_large = series.series[f"gzip.{large}k mapped"]
    checks = [
        ShapeCheck(
            claim=(
                f"{small}k shared: CPI varies significantly with the "
                "time quantum"
            ),
            passed=_spread(shared_small) > 3 * _spread(mapped_small),
            detail=(
                f"shared spread={_spread(shared_small):.3f}, "
                f"mapped spread={_spread(mapped_small):.3f}"
            ),
        ),
        ShapeCheck(
            claim=(
                f"{small}k mapped: CPI is lower than shared at small "
                "quanta"
            ),
            passed=mapped_small[0] < shared_small[0],
            detail=(
                f"mapped={mapped_small[0]:.3f}, shared={shared_small[0]:.3f}"
            ),
        ),
        ShapeCheck(
            claim=(
                f"{small}k: shared and mapped CPIs converge at batch "
                "quanta"
            ),
            passed=abs(mapped_small[-1] - shared_small[-1])
            < 0.25 * (shared_small[0] - shared_small[-1]),
            detail=(
                f"batch mapped={mapped_small[-1]:.3f}, "
                f"shared={shared_small[-1]:.3f}"
            ),
        ),
        ShapeCheck(
            claim=f"{large}k: larger cache lowers CPI for all quanta",
            passed=all(
                big <= small_value
                for big, small_value in zip(shared_large, shared_small)
            )
            and all(
                big <= small_value
                for big, small_value in zip(mapped_large, mapped_small)
            ),
            detail=(
                f"{large}k max={max(shared_large):.3f}, "
                f"{small}k min={min(shared_small):.3f}"
            ),
        ),
        ShapeCheck(
            claim=(
                f"{large}k: performance variation of the mapped cache "
                "stays very small"
            ),
            passed=_spread(mapped_large) <= _spread(shared_small) / 3,
            detail=f"spread={_spread(mapped_large):.3f}",
        ),
    ]
    return checks
