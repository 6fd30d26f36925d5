"""The four benchmark workloads, driven through ``repro``'s public API.

Each workload builds its inputs from the run's seed, runs one *round*
of real work per :meth:`run` call (the measured phase), and checks the
simulated outputs outside the measured phase.  The worker process
(``worker.py``) decides how many rounds to run; a run always makes at
least :attr:`Workload.rounds` rounds, and the deterministic metrics
(miss rate, queue waits) come from exactly those rounds, so they
repeat bit for bit for a seed however fast the host is.

Why these four (details in README.md): ``figure5`` is the paper's
multitasking experiment (recording, schedule construction, schedule
walk kernel); ``serve`` is the fleet daemon at its 1000-tenant
headline (Python control plane); ``replay`` is the trace-driven cache
sweep (kernel and its row/tag preparation); ``adaptive`` is the only
path through the runtime, the scalar executor and page coloring.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import io
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Callable, ContextManager, Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.experiments import figure5 as figure5_module
from repro.experiments.adaptive import (
    AdaptiveComparisonConfig,
    check_adaptive,
    run_adaptive_comparison,
)
from repro.experiments.figure5 import Figure5Config, check_figure5, run_figure5
from repro.experiments.serve import ServeConfig
from repro.fleet.service.daemon import FleetService
from repro.fleet.service.loadgen import (
    build_arrivals,
    default_workload_pool,
    run_load,
)
from repro.inspect import diff_replay, load_event_streams, replay_events
from repro.layout.algorithm import LayoutConfig
from repro.runtime import AdaptiveConfig, AdaptiveExecutor
from repro.runtime.adaptive import replay_reference
from repro.sim.engine import multitask_batch
from repro.sim.engine.scheduler import SweepEngine
from repro.sim.multitask import Job, MultitaskSimulator
from repro.trace.cli import main as trace_main
from repro.trace.generator import zipf_accesses
from repro.utils.bitvector import ColumnMask
from repro.workloads.gzip_like import make_gzip_job
from repro.workloads.suite import make_workload

SpanFactory = Callable[[str], ContextManager[Any]]
Sampler = Optional[Callable[[], Awaitable[None]]]


def no_span(layer: str) -> ContextManager[Any]:
    """The untraced stand-in for :meth:`tracer.Tracer.span`."""
    return contextlib.nullcontext()


def sub_seed(seed: int, index: int) -> int:
    """The seed of round ``index`` of a run seeded with ``seed``."""
    return seed * 1000 + index


@dataclass
class Outcome:
    """What one round produced.

    Attributes:
        ops: Operations the round attempted (matrix points, admission
            requests, sweep points, workload comparisons).
        failed: Operations that failed (a refused admission counts).
        accesses: Simulated memory accesses, every job, tenant and
            sweep point included.
        misses: Simulated misses behind ``sim_miss_rate``.
        rate_base: Accesses those misses are counted over.
        signature: The round's deterministic outputs, compared between
            the traced and the untraced pass.
        extra: Workload-specific deterministic figures (numbers go to
            the run record) and objects the checks need.
        host: Workload-specific host-time figures.
    """

    ops: int
    failed: int
    accesses: int
    misses: int
    rate_base: int
    signature: Any
    extra: dict[str, Any] = field(default_factory=dict)
    host: dict[str, float] = field(default_factory=dict)


class Workload:
    """Interface every workload implements."""

    name = ""
    #: Rounds every run makes; the deterministic metrics cover them.
    rounds = 1
    #: Share of a round spent in native code: the weight of the native
    #: calibration loop in the host slowness (calibration.py).
    native_share = 0.0

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        """``tiny`` selects the self-test sizes; ``scratch`` is the
        per-run temporary directory."""
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        """Construct the engine or service (part of ``setup_s``)."""

    def shape(self) -> dict[str, Any]:
        """The workload's shape parameters, for the run manifest."""
        raise NotImplementedError

    def prepare(self, index: int) -> Any:
        """Build the inputs of round ``index`` (not measured)."""
        raise NotImplementedError

    def run(self, inputs: Any, span: SpanFactory = no_span, sampler: Sampler = None) -> Outcome:
        """One round of work: the measured phase.

        ``span`` opens trace spans; ``sampler``, when the workload runs
        an event loop, is started as a task beside the work.
        """
        raise NotImplementedError

    def check(self, inputs: Any, outcome: Outcome) -> list[str]:
        """Per-round output checks (not measured); problems found."""
        return []

    def verify(self, first: Outcome) -> tuple[int, int, list[str]]:
        """Run-level checks against round 0's outcome (not measured).

        Returns (operations checked, operations failed, problems).
        """
        return 0, 0, []

    def result_cache_hits(self) -> int:
        """Sweep result-cache hits so far (must stay 0)."""
        return 0


# ----------------------------------------------------------------------
# figure5: the paper's multitasking matrix
# ----------------------------------------------------------------------
class Figure5(Workload):
    """Paper-size Figure 5 matrices over fresh gzip inputs.

    ``make_gzip_job`` seeds a job's input from the sum of its name's
    code points, so each round names its three jobs with one extra
    character chosen to hit a fresh seed drawn from the run's seed:
    no recording or memo can serve a round from an earlier one.
    """

    name = "figure5"
    rounds = 3
    LABELS = ("A", "B", "C")

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        super().__init__(seed, tiny, scratch)
        self.config = Figure5Config().quick() if tiny else Figure5Config()
        rng = np.random.default_rng(seed)
        self._input_seeds = rng.permutation(np.arange(1000, 50_000))
        self._matrices: list[Any] = []
        original = multitask_batch.simulate_multitask_matrix

        # The CLI entry point returns CPIs only; keeping the matrix the
        # runner computed gives per-job accesses and misses.
        def keep_matrix(*args: Any, **kwargs: Any) -> Any:
            matrix = original(*args, **kwargs)
            self._matrices.append(matrix)
            return matrix

        multitask_batch.simulate_multitask_matrix = keep_matrix

    def setup(self) -> None:
        self.engine = SweepEngine(workers=1, backend="serial")

    def shape(self) -> dict[str, Any]:
        config = self.config
        return {
            "jobs": len(config.job_names),
            "input_bytes": config.input_bytes,
            "cache_sizes_kb": list(config.cache_sizes_kb),
            "columns": config.columns,
            "a_columns": config.a_columns,
            "quanta": list(config.quanta),
            "horizon_instructions": config.horizon_instructions,
            "warmup_passes": config.warmup_passes,
        }

    def prepare(self, index: int) -> Figure5Config:
        # Keep one round's recordings resident, like one CLI run.
        figure5_module._record_jobs.cache_clear()
        seeds = self._input_seeds[3 * index: 3 * index + 3]
        names = tuple(
            label + chr(int(value) - ord(label))
            for label, value in zip(self.LABELS, seeds)
        )
        return dataclasses.replace(
            self.config, job_names=names, measured_job=names[0]
        )

    def run(self, config: Figure5Config, span: SpanFactory = no_span, sampler: Sampler = None) -> Outcome:
        series = run_figure5(config, self.engine)
        matrix = self._matrices.pop()
        results = [
            (job.accesses, job.misses)
            for variant in matrix
            for point in variant
            for job in point.values()
        ]
        accesses = sum(count for count, _ in results)
        misses = sum(count for _, count in results)
        cpis = tuple(tuple(curve) for curve in series.series.values())
        return Outcome(
            ops=sum(len(curve) for curve in cpis),
            failed=0,
            accesses=accesses,
            misses=misses,
            rate_base=accesses,
            signature=(tuple(results), cpis),
            extra={"matrix": matrix, "config": config},
        )

    def check(self, config: Figure5Config, outcome: Outcome) -> list[str]:
        problems = []
        cpis = [value for curve in outcome.signature[1] for value in curve]
        expected = 2 * len(config.cache_sizes_kb) * len(config.quanta)
        if len(cpis) != expected:
            problems.append(f"figure5: {len(cpis)} points, expected {expected}")
        if not all(math.isfinite(value) and value >= 1.0 for value in cpis):
            problems.append("figure5: a CPI is not finite and >= 1")
        return problems

    def verify(self, first: Outcome) -> tuple[int, int, list[str]]:
        problems: list[str] = []
        failed = 0
        # (1) One sampled point of round 0 on the scalar simulator.
        config = first.extra["config"]
        matrix = first.extra["matrix"]
        rng = np.random.default_rng([self.seed, 5])
        variants = [
            (cache_kb, mapped)
            for cache_kb in config.cache_sizes_kb
            for mapped in (False, True)
        ]
        variant = int(rng.integers(len(variants)))
        cheap = [i for i, q in enumerate(config.quanta) if q >= 64]
        quantum_index = int(rng.choice(cheap))
        cache_kb, mapped = variants[variant]
        quantum = config.quanta[quantum_index]
        scalar = self._scalar_point(config, cache_kb, mapped, quantum)
        batched = matrix[variant][quantum_index]
        for name, job in batched.items():
            if (job.accesses, job.misses) != (
                scalar[name].accesses,
                scalar[name].misses,
            ):
                problems.append(
                    f"figure5: {cache_kb}k mapped={mapped} q={quantum} "
                    f"job {name}: batched {job.accesses}/{job.misses} "
                    f"!= scalar {scalar[name].accesses}/{scalar[name].misses}"
                )
        if problems:
            failed += 1
        # (2) The paper's own inputs pass the paper's shape checks.
        paper = self.config
        series = run_figure5(paper, SweepEngine(workers=1, backend="serial"))
        self._matrices.clear()
        points = sum(len(curve) for curve in series.series.values())
        bad = [check.claim for check in check_figure5(series, paper) if not check.passed]
        if bad:
            failed += points
            problems.append(f"figure5: shape checks failed: {bad}")
        return 1 + points, failed, problems

    def _scalar_point(
        self, config: Figure5Config, cache_kb: int, mapped: bool, quantum: int
    ) -> dict[str, Any]:
        """One matrix point on the scalar round-robin simulator."""
        sets = cache_kb * 1024 // (config.line_size * config.columns)
        geometry = CacheGeometry(
            line_size=config.line_size, sets=sets, columns=config.columns
        )
        jobs = []
        for index, name in enumerate(config.job_names):
            mask = None
            if mapped and name == config.measured_job:
                mask = ColumnMask.contiguous(0, config.a_columns, config.columns)
            elif mapped:
                mask = ColumnMask.contiguous(
                    config.a_columns,
                    config.columns - config.a_columns,
                    config.columns,
                )
            run = make_gzip_job(
                name,
                input_bytes=config.input_bytes,
                window_bits=config.window_bits,
                hash_bits=config.hash_bits,
            ).record()
            jobs.append(
                Job(name=name, trace=run.trace, mask=mask, address_offset=index << 32)
            )
        simulator = MultitaskSimulator(geometry, jobs, config.timing)
        simulator.warm_up(config.warmup_passes)
        return simulator.run(quantum, config.horizon_instructions)

    def result_cache_hits(self) -> int:
        return self.engine.stats["from_cache"]


# ----------------------------------------------------------------------
# serve: the fleet daemon at its headline population
# ----------------------------------------------------------------------
def nearest_rank(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ordered list (rank ``ceil(f * n)``)."""
    return ordered[max(math.ceil(fraction * len(ordered)), 1) - 1]


class Serve(Workload):
    """1000 Poisson tenants against the ``ServeConfig()`` daemon.

    Open loop in virtual time: every tenant task waits for its arrival
    on the service clock, whatever the host speed.  Each round serves
    a fresh population drawn from the run's seed; round 0 runs on the
    service built during set-up.
    """

    name = "serve"
    rounds = 5
    #: Virtual instructions an admission may queue before it is
    #: refused.  ``ServeConfig()`` uses 32,768, which refused 1-13
    #: admissions on 4 of 10 seeds; at this value no tenant of any
    #: measured seed waited half as long, so no admission fails.
    PATIENCE = 262_144

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        super().__init__(seed, tiny, scratch)
        base = ServeConfig()
        self.service_config = dataclasses.replace(
            base.service,
            migration_enabled=True,
            patience_instructions=self.PATIENCE,
        )
        self.load = dataclasses.replace(
            base.load, tenants=60 if tiny else base.load.tenants
        )
        self._service: Optional[FleetService] = None

    def setup(self) -> None:
        self._service = FleetService(self.service_config)

    def shape(self) -> dict[str, Any]:
        service, load = self.service_config, self.load
        return {
            "shards": service.shards,
            "sets": service.geometry.sets,
            "columns": service.geometry.columns,
            "migration": service.migration_enabled,
            "patience_instructions": service.patience_instructions,
            "tenants": load.tenants,
            "mean_interarrival_instructions": load.mean_interarrival_instructions,
            "mean_service_instructions": load.mean_service_instructions,
            "hot_fraction": load.hot_fraction,
            "hot_shard": load.hot_shard,
        }

    def prepare(self, index: int) -> tuple[FleetService, list[Any]]:
        service = self._service or FleetService(self.service_config)
        self._service = None
        load = dataclasses.replace(self.load, seed=sub_seed(self.seed, index))
        arrivals = build_arrivals(
            load, service.router, runs=default_workload_pool(load.seed)
        )
        return service, arrivals

    def run(self, inputs: Any, span: SpanFactory = no_span, sampler: Sampler = None) -> Outcome:
        service, arrivals = inputs

        async def serve() -> Any:
            # The sampler only reads the clock; it touches no service
            # state and every other task keeps its order.
            beside = asyncio.create_task(sampler()) if sampler else None
            try:
                async with service:
                    report = await run_load(service, arrivals)
                    return report, service.snapshot()
            finally:
                if beside is not None:
                    beside.cancel()
                    await asyncio.gather(beside, return_exceptions=True)

        with span("fleet.service.daemon"):
            report, snapshot = asyncio.run(serve())
        telemetry = [
            runtime.telemetry
            for shard in service.shards
            for runtime in shard.runtimes.values()
        ]
        accesses = sum(t.accesses for t in telemetry)
        misses = sum(t.misses for t in telemetry)
        # Refused tickets rank above every admitted wait.
        ranked = sorted(
            (not ticket.admitted, ticket.queue_wait_instructions)
            for ticket in report.tickets
        )
        waits = [float(wait) for _, wait in ranked]
        return Outcome(
            ops=len(report.tickets),
            failed=report.rejected,
            accesses=accesses,
            misses=misses,
            rate_base=accesses,
            signature=(
                tuple((t.tenant, t.admitted, t.queue_wait_instructions) for t in report.tickets),
                len(service.migrations),
                service.invariant_checks,
                accesses,
                misses,
            ),
            extra={
                "service": service,
                "snapshot": snapshot,
                "admitted": report.admitted,
                "rejected": report.rejected,
                "migrations": len(service.migrations),
                "audits": service.invariant_checks,
                "violations": service.invariant_violations,
                "queue_wait_p50_instr": nearest_rank(waits, 0.50),
                "queue_wait_p99_instr": nearest_rank(waits, 0.99),
                "events_recorded": sum(s.events_recorded for s in snapshot.shards),
                "events_dropped": sum(s.events_dropped for s in snapshot.shards),
            },
            host={"admissions_per_s": report.admissions_per_second},
        )

    def check(self, inputs: Any, outcome: Outcome) -> list[str]:
        extra = outcome.extra
        service, snapshot = extra.pop("service"), extra.pop("snapshot")
        problems = []
        if extra["violations"] or not extra["audits"]:
            problems.append(
                f"serve: {extra['violations']} disjoint-column violations "
                f"in {extra['audits']} audits"
            )
        if snapshot.residents:
            problems.append(f"serve: {snapshot.residents} tenants never drained")
        if extra["events_dropped"]:
            problems.append(f"serve: event rings dropped {extra['events_dropped']}")
        path = service.flush_events(self.scratch / "events.npz")
        with open(path, "rb") as handle:
            os.fsync(handle.fileno())
        stream = load_event_streams(path, mmap=False)
        differences = diff_replay(
            replay_events(stream, self.service_config.geometry.columns),
            snapshot.as_dict(),
        )
        path.unlink()
        if differences:
            problems.append(f"serve: event replay differs: {differences[:3]}")
        return problems


# ----------------------------------------------------------------------
# replay: trace-driven cache sweep, one `repro trace replay` per point
# ----------------------------------------------------------------------
_COUNTS = re.compile(r"accesses=(\d+) hits=(\d+) misses=(\d+)")
#: Accesses per streamed window of a replay point.
REPLAY_CHUNK = 1 << 18


def replay_point(path: Path, point: tuple[int, int, Optional[int]], kernel: str) -> tuple[int, int, int]:
    """Run ``repro trace replay`` on one sweep point; its counts."""
    size, columns, mask = point
    argv = [
        "replay", str(path),
        "--size", str(size),
        "--line-size", "16",
        "--columns", str(columns),
        "--chunk-size", str(REPLAY_CHUNK),
        "--kernel", kernel,
    ]
    if mask is not None:
        argv += ["--mask", str(mask)]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = trace_main(argv, prog="repro trace")
    found = _COUNTS.search(printed.getvalue())
    if code != 0 or found is None:
        raise RuntimeError(f"repro trace replay {argv} failed: {printed.getvalue()!r}")
    accesses, hits, misses = (int(value) for value in found.groups())
    return accesses, hits, misses


class Replay(Workload):
    """A seeded Zipf trace swept over cache sizes, columns and masks.

    The trace spans 4 MB, far beyond the largest (256 KB) cache, and
    is written once per run before anything is measured; every point
    memory-maps it and streams it in 256K-access chunks, exactly as
    ``repro trace replay`` does.  Rounds repeat the same sweep.
    """

    name = "replay"
    rounds = 1
    #: A round is mostly native code (kernel and numpy preparation,
    #: about 85 % of it).  Under idle, CPU-hog and memory-hog periods
    #: its median calibrated round varied 1.7 % at this weight, 15 %
    #: on the interpreted loop alone and 4.4 % on the native one alone.
    native_share = 0.8
    SIZES = (4096, 16384, 65536, 262144)
    COLUMNS = (4, 8, 16)
    SPAN_BYTES = 1 << 22

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        super().__init__(seed, tiny, scratch)
        self.count = 20_000 if tiny else 1_000_000
        self.path = scratch / "replay.npz"
        # Each cache at every column count, with all columns and with
        # the low half only (a uniform mask, as `--mask` gives).
        self.points = [
            (size, columns, mask)
            for size in self.SIZES
            for columns in self.COLUMNS
            for mask in (None, (1 << (columns // 2)) - 1)
        ]
        self._written = False

    def shape(self) -> dict[str, Any]:
        return {
            "trace_accesses": self.count,
            "span_bytes": self.SPAN_BYTES,
            "points": len(self.points),
            "cache_sizes": list(self.SIZES),
            "columns": list(self.COLUMNS),
            "masks": ["all", "low half"],
            "chunk_accesses": REPLAY_CHUNK,
        }

    def prepare(self, index: int) -> Path:
        if not self._written:
            trace = zipf_accesses(
                0x10000, self.SPAN_BYTES, self.count, element_size=4, seed=self.seed
            )
            written = trace.save_npz(self.path)
            # Flush now so no writeback overlaps a measured round.
            with open(written, "rb") as handle:
                os.fsync(handle.fileno())
            self._written = True
        return self.path

    def run(self, path: Path, span: SpanFactory = no_span, sampler: Sampler = None) -> Outcome:
        counts = tuple(replay_point(path, point, "compiled") for point in self.points)
        accesses = sum(point[0] for point in counts)
        misses = sum(point[2] for point in counts)
        return Outcome(
            ops=len(counts),
            failed=0,
            accesses=accesses,
            misses=misses,
            rate_base=accesses,
            signature=counts,
        )

    def check(self, path: Path, outcome: Outcome) -> list[str]:
        bad = [
            point
            for point, (accesses, hits, misses) in zip(self.points, outcome.signature)
            if accesses != self.count or hits + misses != accesses
        ]
        return [f"replay: inconsistent counts at {bad}"] if bad else []

    def verify(self, first: Outcome) -> tuple[int, int, list[str]]:
        index = int(np.random.default_rng([self.seed, 5]).integers(len(self.points)))
        numpy_counts = replay_point(self.path, self.points[index], "numpy")
        if numpy_counts != first.signature[index]:
            return 1, 1, [
                f"replay: point {self.points[index]} compiled "
                f"{first.signature[index]} != numpy {numpy_counts}"
            ]
        return 1, 0, []


# ----------------------------------------------------------------------
# adaptive: static vs page coloring vs the phase-adaptive runtime
# ----------------------------------------------------------------------
class Adaptive(Workload):
    """``AdaptiveComparisonConfig()`` cases over fresh seeds."""

    name = "adaptive"
    rounds = 3

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        super().__init__(seed, tiny, scratch)
        base = AdaptiveComparisonConfig()
        self.config = base.quick() if tiny else base

    def setup(self) -> None:
        self.engine = SweepEngine(workers=1, backend="serial")

    def shape(self) -> dict[str, Any]:
        return {
            "cases": [
                {"workload": case.workload, "window_accesses": case.window_accesses,
                 **dict(case.kwargs)}
                for case in self.config.cases
            ],
            "columns": self.config.columns,
            "column_bytes": self.config.column_bytes,
        }

    def prepare(self, index: int) -> AdaptiveComparisonConfig:
        return dataclasses.replace(self.config, seed=sub_seed(self.seed, index))

    def run(
        self, config: AdaptiveComparisonConfig, span: SpanFactory = no_span, sampler: Sampler = None
    ) -> Outcome:
        points = run_adaptive_comparison(config, self.engine).points
        # Every static candidate, page coloring and the adaptive run
        # each simulate the whole trace once.
        accesses = sum(
            point["accesses"] * (len(point["static_cycles"]) + 2)
            for point in points.values()
        )
        return Outcome(
            ops=len(points),
            failed=0,
            accesses=accesses,
            misses=sum(point["adaptive_misses"] for point in points.values()),
            rate_base=sum(point["accesses"] for point in points.values()),
            signature=tuple(
                (name, point["adaptive_cycles"], point["adaptive_misses"],
                 point["remaps"], tuple(sorted(point["static_cycles"].items())),
                 point["page_coloring_cycles"])
                for name, point in sorted(points.items())
            ),
            extra={"points": points, "config": config},
        )

    def check(self, config: AdaptiveComparisonConfig, outcome: Outcome) -> list[str]:
        names = {case.workload for case in config.cases}
        points = outcome.extra["points"]
        if set(points) != names:
            return [f"adaptive: compared {sorted(points)}, expected {sorted(names)}"]
        bad = [name for name, point in points.items() if not point["adaptive_cycles"] > 0]
        return [f"adaptive: no cycles for {bad}"] if bad else []

    def verify(self, first: Outcome) -> tuple[int, int, list[str]]:
        problems = []
        failed = 0
        # (1) The fast path equals the full TLB/tint reference on one
        # case of round 0.
        config = first.extra["config"]
        case = min(config.cases, key=lambda c: c.window_accesses)
        point = first.extra["points"][case.workload]
        run = make_workload(case.workload, seed=config.seed, **dict(case.kwargs)).record()
        layout = LayoutConfig(
            columns=config.columns,
            column_bytes=config.column_bytes,
            line_size=config.line_size,
            split_oversized=True,
        )
        fast = AdaptiveExecutor(
            layout,
            config.timing,
            AdaptiveConfig(
                window_accesses=case.window_accesses,
                signature_threshold=config.signature_threshold,
                miss_rate_threshold=config.miss_rate_threshold,
                hysteresis_windows=config.hysteresis_windows,
                min_benefit_cycles=config.min_benefit_cycles,
            ),
        ).run(run)
        reference = replay_reference(run, fast, layout, config.timing)
        got = (fast.result.cycles, fast.result.misses, fast.result.hits)
        want = (reference.cycles, reference.misses, reference.hits)
        if got != want or got[:2] != (point["adaptive_cycles"], point["adaptive_misses"]):
            failed += 1
            problems.append(
                f"adaptive: {case.workload} fast {got} reference {want} "
                f"engine {(point['adaptive_cycles'], point['adaptive_misses'])}"
            )
        # (2) The default seed passes the experiment's shape checks.
        result = run_adaptive_comparison(self.config, SweepEngine(workers=1, backend="serial"))
        bad = [check.claim for check in check_adaptive(result) if not check.passed]
        if bad:
            failed += len(result.points)
            problems.append(f"adaptive: shape checks failed: {bad}")
        return 1 + len(result.points), failed, problems

    def result_cache_hits(self) -> int:
        return self.engine.stats["from_cache"]


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (Figure5, Serve, Replay, Adaptive)
}
