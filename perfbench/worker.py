"""One workload process: set up, run rounds, verify, report as JSON.

``run.py`` starts this script in a fresh interpreter for every run
(and for every set-up probe), so each measurement pays the real cold
costs of the ``repro`` command: the console script's import chain,
kernel backend resolution and ``.so`` load, and engine or service
construction.  The last line of standard output is one JSON object.

Modes:
    setup  -- set up, report the set-up times, exit (a probe).
    run    -- set up, then measured rounds for ``--seconds`` (at least
              the workload's fixed round count), per-round checks,
              run-level verification.
    trace  -- like ``run`` for half the time with no wrapper installed,
              then one more round on round 0's inputs with every layer
              wrapped (see tracer.py), reporting per-layer figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any


def _setup(args: argparse.Namespace) -> tuple[Any, dict[str, float]]:
    # Nothing but the standard library is imported before this point,
    # so the import chain below is timed whole (numpy included).
    started = time.monotonic()
    import repro.cli  # noqa: F401  (the `repro` console script's imports)

    imported = time.monotonic()
    from repro.sim.engine import backends

    # Pin the compiled kernel: `auto` would fall back to numpy quietly.
    backend = backends.set_backend("compiled")
    if backend != "compiled":
        raise SystemExit(f"kernel backend resolved to {backend!r}, not compiled")
    loaded = time.monotonic()

    import workloads

    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.tiny, Path(args.scratch)
    )
    workload.setup()
    ready = time.monotonic()
    return workload, {
        "setup_s": ready - args.launched,
        "cli.import_s": imported - started,
        "sim.engine.backends.load_s": loaded - imported,
    }


def _rounds(
    workload: Any, seconds: float, force_mismatch: bool, clock: Any
) -> dict[str, Any]:
    """Measured rounds until ``seconds`` pass (at least the fixed count).

    A round is timed by the process's CPU time: the work is one thread
    with no I/O, so this is its wall time less whatever the hypervisor
    stole.  It is reported in reference seconds (calibration.py), at
    the median slowness of the calibrations taken inside the round
    when the workload runs them (serve's rounds last seconds; their
    own time is subtracted), else at the mean of the ones just before
    and just after it.
    """
    from calibration import reference_seconds

    walls: list[float] = []
    cpus: list[float] = []
    references: list[float] = []
    rates: list[float] = []
    outcomes = []
    problems: list[str] = []
    attempted = failed = 0
    begun = time.perf_counter()
    before = clock.measure()
    index = 0
    while index < workload.rounds or time.perf_counter() - begun < seconds:
        inputs = workload.prepare(index)
        samples: list[float] = []
        gc.collect()
        spent = clock.spent_s
        start, cpu_start = time.perf_counter(), time.process_time()
        outcome = workload.run(
            inputs, sampler=lambda: clock.sample_periodically(samples)
        )
        inside = clock.spent_s - spent
        cpu = time.process_time() - cpu_start - inside
        wall = time.perf_counter() - start - inside
        after = clock.measure()
        slowness = statistics.median(samples) if samples else (before + after) / 2
        reference = reference_seconds(cpu, slowness)
        before = after
        found = workload.check(inputs, outcome)
        if force_mismatch and index == 0:
            found.append("forced mismatch (self-test)")
        if found:
            problems += found
            outcome.failed = outcome.ops
        walls.append(wall)
        cpus.append(cpu)
        references.append(reference)
        rates.append(outcome.accesses / reference)
        attempted += outcome.ops
        failed += outcome.failed
        outcomes.append(outcome if index < workload.rounds else None)
        index += 1
    fixed = outcomes[: workload.rounds]
    return {
        "walls": walls,
        "cpus": cpus,
        "references": references,
        "rates": rates,
        "fixed": fixed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "miss_rate": sum(o.misses for o in fixed) / sum(o.rate_base for o in fixed),
    }


def _outputs(fixed: list[Any]) -> list[dict[str, Any]]:
    """The deterministic outputs of the fixed rounds, for the record."""
    rows = []
    for outcome in fixed:
        row = {
            "ops": outcome.ops,
            "failed": outcome.failed,
            "accesses": outcome.accesses,
            "misses": outcome.misses,
        }
        row.update(
            (key, value)
            for key, value in outcome.extra.items()
            if isinstance(value, (int, float, str))
        )
        rows.append(row)
    return rows


def _kernel() -> dict[str, Any]:
    import hashlib
    import numpy

    from repro.sim.engine import _compiled, backends

    library = Path(_compiled.load()._name)
    return {
        "backend": backends.active_backend(),
        "compiler": _compiled._find_compiler(),
        "library": library.name,
        "library_sha256": hashlib.sha256(library.read_bytes()).hexdigest(),
        "numpy": numpy.__version__,
    }


def run(args: argparse.Namespace) -> dict[str, Any]:
    workload, setup = _setup(args)
    from calibration import Calibration

    # Set-up is scaled like every set-up probe: interpreted loop only.
    after_setup = Calibration().measure()
    clock = Calibration(workload.native_share)
    measured = _rounds(workload, args.seconds, args.force_mismatch, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops, failed, problems = workload.verify(measured["fixed"][0])
    return {
        "setup": setup,
        "after_setup_slowness": after_setup,
        "kernel": _kernel(),
        "shape": workload.shape(),
        "attempted": measured["attempted"] + ops,
        "failed": measured["failed"] + failed,
        "problems": measured["problems"] + problems,
        "metrics": {
            "wall_s": statistics.median(measured["references"]),
            "peak_rss_mb": peak_rss_mb,
            "sim_accesses_per_s": statistics.median(measured["rates"]),
            "sim_miss_rate": measured["miss_rate"],
        },
        "rounds": {
            "count": len(measured["walls"]),
            "walls_s": measured["walls"],
            "cpu_s": measured["cpus"],
            "reference_s": measured["references"],
            "fixed": _outputs(measured["fixed"]),
        },
    }


def trace(args: argparse.Namespace) -> dict[str, Any]:
    workload, setup = _setup(args)
    import tracer as tracing
    from calibration import Calibration, reference_seconds

    after_setup = Calibration().measure()
    clock = Calibration(workload.native_share)
    measured = _rounds(workload, args.seconds / 2, args.force_mismatch, clock)
    untraced = measured["fixed"][0]
    recorder = tracing.Tracer()
    recorder.watch_sessions()
    workload.setup()
    inputs = workload.prepare(0)
    recorder.install()
    gc.collect()
    before = clock.measure()
    cpu = time.process_time()
    start = time.perf_counter()
    outcome = workload.run(inputs, span=recorder.span)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    recorder.uninstall()
    slowness = (before + clock.measure()) / 2
    overhead = reference_seconds(cpu, slowness) - statistics.median(measured["references"])
    problems = measured["problems"] + workload.check(inputs, outcome)
    failed = measured["failed"] + outcome.failed
    if outcome.signature != untraced.signature:
        problems.append("traced outputs differ from the untraced run's")
        failed += outcome.ops
    spans_path = Path(args.spans_out)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(recorder.export()))
    return {
        "setup": setup,
        "after_setup_slowness": after_setup,
        "kernel": _kernel(),
        "shape": workload.shape(),
        "attempted": measured["attempted"] + outcome.ops,
        "failed": failed,
        "problems": problems,
        "layers": layer_metrics(recorder, workload, outcome, wall, cpu, overhead),
    }


def layer_metrics(
    recorder: Any, workload: Any, outcome: Any, wall: float, cpu: float, overhead: float
) -> dict[str, float]:
    """Every per-layer metric of one traced round (0 where unused).

    Times are host seconds of the traced round, except the tracing
    overhead: traced minus untraced round, in reference seconds of CPU
    time, as the untraced rounds are measured.
    """
    import workloads

    self_s, calls, top = recorder.layer_times()
    counts = recorder.counts
    kernel_calls = calls["sim.engine.kernel"]
    hits = sum(session.cache.hits for session in recorder.sessions)
    lookups = hits + sum(session.cache.misses for session in recorder.sessions)
    latencies = sorted((span.end - span.start) * 1e3 for span in recorder.requests)
    extra = outcome.extra
    residual = wall - top
    metrics = {
        "workloads.record_s": self_s["workloads.record"],
        "workloads.record_calls": calls["workloads.record"],
        "workloads.recorded_accesses": counts["workloads.recorded_accesses"],
        "trace.load_s": self_s["trace.load"],
        "trace.blocks_s": self_s["trace.blocks"],
        "trace.chunks": counts["trace.chunks"],
        "profiling.profile_s": self_s["profiling.profile"],
        "profiling.profile_calls": calls["profiling.profile"],
        "layout.plan_s": self_s["layout.plan"],
        "layout.plan_calls": calls["layout.plan"],
        "layout.session_hit_ratio": hits / lookups if lookups else 0.0,
        "sim.multitask.schedule_s": self_s["sim.multitask.schedule"],
        "sim.multitask.schedule_calls": calls["sim.multitask.schedule"],
        "sim.engine.kernel_s": self_s["sim.engine.kernel"],
        "sim.engine.kernel_calls": kernel_calls,
        "sim.engine.kernel_accesses": counts["sim.engine.kernel_accesses"],
        "sim.engine.accesses_per_call": (
            counts["sim.engine.kernel_accesses"] / kernel_calls if kernel_calls else 0.0
        ),
        "sim.engine.prep_s": self_s["sim.engine.prep"],
        "sim.engine.matrix_self_s": self_s["sim.engine.matrix"],
        "sim.engine.fused_self_s": self_s["sim.engine.fused"],
        "sim.engine.sweep_self_s": self_s["sim.engine.sweep"],
        "sim.engine.result_cache_hits": workload.result_cache_hits(),
        "sim.executor.run_s": self_s["sim.executor.run"],
        "sim.executor.accesses": counts["sim.executor.accesses"],
        "baselines.page_coloring_s": self_s["baselines.page_coloring"],
        "runtime.adaptive_s": self_s["runtime.adaptive"],
        "runtime.windows": counts["runtime.windows"],
        "runtime.remaps": counts["runtime.remaps"],
        "fleet.broker.price_s": self_s["fleet.broker.price"],
        "fleet.broker.price_calls": calls["fleet.broker.price"],
        "fleet.broker.admit_s": self_s["fleet.broker.admit"],
        "fleet.broker.admit_calls": calls["fleet.broker.admit"],
        "fleet.service.shard.admit_s": self_s["fleet.service.shard.admit"],
        "fleet.service.shard.advance_s": self_s["fleet.service.shard.advance"],
        "fleet.service.shard.advance_calls": calls["fleet.service.shard.advance"],
        "fleet.service.shard.snapshot_s": self_s["fleet.service.shard.snapshot"],
        "fleet.service.shard.snapshot_calls": calls["fleet.service.shard.snapshot"],
        "fleet.service.shard.audit_s": self_s["fleet.service.shard.audit"],
        "fleet.service.daemon.self_s": self_s["fleet.service.daemon"],
        "fleet.service.daemon.admit_latency_p50_ms": (
            workloads.nearest_rank(latencies, 0.50) if latencies else 0.0
        ),
        "fleet.service.daemon.admit_latency_p99_ms": (
            workloads.nearest_rank(latencies, 0.99) if latencies else 0.0
        ),
        "fleet.service.daemon.clock_wakeups": counts["fleet.service.daemon.clock_wakeups"],
        "fleet.service.daemon.migrations": extra.get("migrations", 0),
        "fleet.service.daemon.admissions_per_s": outcome.host.get("admissions_per_s", 0.0),
        "fleet.service.daemon.queue_wait_p50_instr": extra.get("queue_wait_p50_instr", 0.0),
        "fleet.service.daemon.queue_wait_p99_instr": extra.get("queue_wait_p99_instr", 0.0),
        "inspect.events_recorded": extra.get("events_recorded", 0),
        "inspect.events_dropped": extra.get("events_dropped", 0),
        "experiments.assemble_s": self_s["experiments"],
        "trace.cli_s": self_s["trace.cli"],
        "process.cpu_s": cpu,
        "tracing.wall_s": wall,
        "tracing.overhead_s": overhead,
        "tracing.residual_s": residual,
        "tracing.accounted_share": (sum(self_s.values()) + residual) / wall,
        "tracing.spans": len(recorder.spans),
    }
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--scratch", required=True, help="per-run temporary directory")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--force-mismatch", action="store_true",
                        help="self-test: fail round 0's verification")
    args = parser.parse_args()
    if args.mode == "setup":
        result: dict[str, Any] = {"setup": _setup(args)[1]}
    elif args.mode == "run":
        result = run(args)
    else:
        result = trace(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
