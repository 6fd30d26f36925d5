"""Sweep-engine runners for the paper's experiments.

Top-level functions referenced by dotted path
(``"repro.experiments.runners:figure4_point"``) so the
:class:`~repro.sim.engine.scheduler.SweepEngine` can execute them in
worker processes.  Parameters and return values are plain
JSON-serializable data — that is what makes jobs content-hashable and
their results disk-cacheable.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.sim.config import TimingConfig


def _timing_from(params: Optional[Mapping[str, int]]) -> TimingConfig:
    """Rebuild a :class:`TimingConfig` from its serialized fields."""
    if params is None:
        return TimingConfig()
    return TimingConfig(**dict(params))


# ----------------------------------------------------------------------
# Figure 4: scratchpad/cache partition sweeps
# ----------------------------------------------------------------------
def figure4_point(
    *,
    routine: str,
    cache_columns: int,
    columns: int,
    column_bytes: int,
    line_size: int,
    split_oversized: bool,
    pin_subarrays: bool,
    seed: int,
    routine_kwargs: Sequence[Sequence[Any]] = (),
    timing: Optional[Mapping[str, int]] = None,
) -> dict[str, Any]:
    """One Figure 4 sweep point: plan the layout, simulate the routine.

    Returns cycles, pinned scratchpad bytes, and the distinct
    non-uncached placement masks (Figure 4(d) prices its per-routine
    remap from those).
    """
    from repro.experiments.figure4 import (
        Figure4Config,
        _plan_and_run,
        _record_routine,
    )
    from repro.layout.assignment import Disposition

    config = Figure4Config(
        columns=columns,
        column_bytes=column_bytes,
        line_size=line_size,
        timing=_timing_from(timing),
        split_oversized=split_oversized,
        pin_subarrays=pin_subarrays,
        seed=seed,
        routine_kwargs=tuple(
            (name, tuple((key, value) for key, value in pairs))
            for name, pairs in routine_kwargs
        ),
    )
    run = _record_routine(
        routine,
        config.seed,
        tuple(sorted(config.kwargs_for(routine).items())),
    )
    result, assignment = _plan_and_run(run, config, cache_columns)
    masks = {
        placement.mask.bits
        for placement in assignment.placements.values()
        if placement.disposition is not Disposition.UNCACHED
    }
    return {
        "cycles": int(result.cycles),
        "scratchpad_bytes": int(assignment.scratchpad_bytes_used()),
        "mask_bits": sorted(masks),
        "trace_accesses": int(result.accesses),
        "trace_instructions": int(result.instructions),
    }


# ----------------------------------------------------------------------
# Figure 5: the multitasking matrix
# ----------------------------------------------------------------------
def figure5_matrix(
    *,
    cache_sizes_kb: Sequence[int],
    columns: int,
    line_size: int,
    quanta: Sequence[int],
    job_names: Sequence[str],
    measured_job: str,
    a_columns: int,
    input_bytes: int,
    window_bits: int,
    hash_bits: int,
    budget_instructions: int,
    warmup_passes: int,
    timing: Optional[Mapping[str, int]] = None,
) -> dict[str, Any]:
    """The whole Figure 5 matrix through the batched hot path.

    Computes job CPI for every (cache size x shared/mapped x quantum)
    point in one :func:`~repro.sim.engine.multitask_batch.
    simulate_multitask_matrix` call — the schedule is shared across
    variants and all points advance in lockstep.  Returns
    ``{"cpis": [...]}`` with one curve per (cache_kb, mapped) pair in
    ``for cache_kb: for mapped in (False, True)`` order.
    """
    from repro.experiments.figure5 import (
        Figure5Config,
        _geometry,
        _jobs,
        _record_jobs,
    )
    from repro.sim.engine.multitask_batch import simulate_multitask_matrix

    timing_config = _timing_from(timing)
    config = Figure5Config(
        cache_sizes_kb=tuple(cache_sizes_kb),
        columns=columns,
        line_size=line_size,
        quanta=tuple(quanta),
        job_names=tuple(job_names),
        measured_job=measured_job,
        a_columns=a_columns,
        input_bytes=input_bytes,
        window_bits=window_bits,
        hash_bits=hash_bits,
        horizon_instructions=budget_instructions,
        warmup_passes=warmup_passes,
        timing=timing_config,
    )
    runs = _record_jobs(
        config.job_names,
        config.input_bytes,
        config.window_bits,
        config.hash_bits,
    )
    variants = []
    labels = []
    for cache_kb in config.cache_sizes_kb:
        for mapped in (False, True):
            variants.append(
                (_geometry(config, cache_kb), _jobs(config, runs, mapped))
            )
            labels.append([int(cache_kb), bool(mapped)])
    matrix = simulate_multitask_matrix(
        variants,
        list(config.quanta),
        config.horizon_instructions,
        warmup_passes=config.warmup_passes,
    )
    cpis = [
        [
            float(point[config.measured_job].cpi(timing_config))
            for point in variant_points
        ]
        for variant_points in matrix
    ]
    return {"labels": labels, "cpis": cpis}


# ----------------------------------------------------------------------
# Adaptive-runtime comparison: static vs page coloring vs adaptive
# ----------------------------------------------------------------------
def adaptive_point(
    *,
    workload: str,
    workload_kwargs: Sequence[Sequence[Any]] = (),
    columns: int,
    column_bytes: int,
    line_size: int,
    window_accesses: int,
    signature_threshold: float,
    miss_rate_threshold: float,
    hysteresis_windows: int,
    min_benefit_cycles: int,
    seed: int,
    timing: Optional[Mapping[str, int]] = None,
) -> dict[str, Any]:
    """One workload's static/page-coloring/adaptive comparison.

    Static candidates: the unpartitioned standard cache, the planner's
    full-trace assignment, and each phase profile's assignment applied
    statically over the whole trace — ``best_static`` is the cheapest.
    The adaptive runtime must discover the phase structure on its own.
    """
    from repro.baselines.page_coloring import PageColoringBaseline
    from repro.layout.algorithm import DataLayoutPlanner, LayoutConfig
    from repro.profiling.profiler import profile_trace
    from repro.runtime import AdaptiveConfig, AdaptiveExecutor
    from repro.sim.executor import TraceExecutor
    from repro.workloads.suite import make_workload

    timing_config = _timing_from(timing)
    run = make_workload(
        workload, seed=seed, **dict(workload_kwargs)
    ).record()
    layout = LayoutConfig(
        columns=columns,
        column_bytes=column_bytes,
        line_size=line_size,
        split_oversized=True,
    )
    planner = DataLayoutPlanner(layout)
    executor = TraceExecutor(timing_config)
    adaptive_executor = AdaptiveExecutor(
        layout,
        timing_config,
        AdaptiveConfig(
            window_accesses=window_accesses,
            signature_threshold=signature_threshold,
            miss_rate_threshold=miss_rate_threshold,
            hysteresis_windows=hysteresis_windows,
            min_benefit_cycles=min_benefit_cycles,
        ),
    )

    static_cycles: dict[str, int] = {}
    policy = adaptive_executor.make_policy(run)
    policy_units = policy.units
    static_cycles["standard"] = int(
        executor.run(run.trace, policy.initial_assignment()).cycles
    )
    static_cycles["full_profile"] = int(
        executor.run(run.trace, planner.plan(run)).cycles
    )
    for label in run.phase_labels():
        profile = profile_trace(
            run.phase_trace(label), policy_units, by_address=True
        )
        assignment = planner.plan_from_profile(profile, policy_units)
        static_cycles[f"phase:{label}"] = int(
            executor.run(run.trace, assignment).cycles
        )

    coloring = PageColoringBaseline(
        adaptive_executor.geometry, page_size=64, timing=timing_config
    )
    page_coloring_cycles = int(coloring.run(run).cycles)

    adaptive_result = adaptive_executor.run(run)
    instructions = int(run.trace.instruction_count)
    best_static = min(static_cycles.values())
    return {
        "workload": workload,
        "instructions": instructions,
        "accesses": int(len(run.trace)),
        "adaptive_cycles": int(adaptive_result.result.cycles),
        "adaptive_misses": int(adaptive_result.result.misses),
        "remaps": int(adaptive_result.remap_count),
        "remap_cycles": int(adaptive_result.remap_cycles),
        "boundary_windows": [
            int(observation.index)
            for observation in adaptive_result.observations
            if observation.boundary
        ],
        "static_cycles": static_cycles,
        "best_static_cycles": int(best_static),
        "best_static_label": min(static_cycles, key=static_cycles.get),
        "page_coloring_cycles": page_coloring_cycles,
        "adaptive_cpi": adaptive_result.result.cycles / instructions,
        "best_static_cpi": best_static / instructions,
        "page_coloring_cpi": page_coloring_cycles / instructions,
    }


# ----------------------------------------------------------------------
# Layout-search: race the planner backends over one workload
# ----------------------------------------------------------------------
def layout_search_point(
    *,
    workload: str,
    workload_kwargs: Sequence[Sequence[Any]] = (),
    case_label: Optional[str] = None,
    backend: str,
    columns: int,
    column_bytes: int,
    line_size: int,
    beam_width: int = 8,
    evolution_population: int = 32,
    evolution_generations: int = 60,
    seed: int = 0,
    timing: Optional[Mapping[str, int]] = None,
) -> dict[str, Any]:
    """Plan one workload's layout with one backend and measure it.

    Records the workload, plans through the named
    :class:`~repro.layout.backends.PlannerBackend`, validates the
    assignment structurally (:meth:`~repro.layout.assignment.
    ColumnAssignment.check_valid`), and replays the trace under it for
    the measured CPI.  Returns predicted W, CPI, plan wall time and
    any validity problems.
    """
    import time

    from repro.layout.algorithm import DataLayoutPlanner, LayoutConfig
    from repro.sim.executor import TraceExecutor
    from repro.workloads.suite import make_workload

    timing_config = _timing_from(timing)
    run = make_workload(
        workload, seed=seed, **dict(workload_kwargs)
    ).record()
    config = LayoutConfig(
        columns=columns,
        column_bytes=column_bytes,
        line_size=line_size,
        backend=backend,
        beam_width=beam_width,
        evolution_population=evolution_population,
        evolution_generations=evolution_generations,
        seed=seed,
    )
    planner = DataLayoutPlanner(config)
    start = time.perf_counter()
    assignment = planner.plan(run)
    plan_seconds = time.perf_counter() - start
    result = TraceExecutor(timing_config).run(run.trace, assignment)
    instructions = int(run.trace.instruction_count)
    return {
        "workload": workload,
        "case_label": case_label if case_label is not None else workload,
        "backend": backend,
        "predicted_cost": int(assignment.predicted_cost),
        "cycles": int(result.cycles),
        "misses": int(result.misses),
        "accesses": int(result.accesses),
        "instructions": instructions,
        "cpi": result.cycles / instructions,
        "plan_seconds": round(plan_seconds, 6),
        "placements": len(assignment.placements),
        "validity_problems": assignment.check_valid(),
    }


# ----------------------------------------------------------------------
# Fleet serving: broker vs shared vs static equal split
# ----------------------------------------------------------------------
def fleet_isolation_point(
    *,
    tenants: Sequence[Sequence[Any]],
    columns: int,
    sets: int,
    line_size: int,
    quantum_instructions: int,
    window_instructions: int,
    horizon_instructions: int,
    ramp_windows: int,
    min_benefit_cycles: int,
    equal_slots: int,
    seed: int,
    timing: Optional[Mapping[str, int]] = None,
) -> dict[str, Any]:
    """The fixed-mix isolation comparison (one engine job).

    Serves the same co-resident tenant mix under the column broker,
    the shared cache and a static equal split, and scores every
    tenant's steady-state CPI against a solo run of the same tenant
    through the same scheduler.  ``tenants`` rows are
    ``[workload, kwargs_pairs, priority]``.
    """
    from repro.cache.geometry import CacheGeometry
    from repro.fleet import (
        ColumnBroker,
        FleetConfig,
        FleetEvent,
        FleetExecutor,
        FleetTrace,
        SharedPool,
        StaticEqualSplit,
        TenantSpec,
        single_tenant_trace,
    )
    from repro.fleet.tenant import TENANT_SPACE_BITS
    from repro.workloads.suite import make_workload

    timing_config = _timing_from(timing)
    geometry = CacheGeometry(
        line_size=line_size, sets=sets, columns=columns
    )
    config = FleetConfig(
        quantum_instructions=quantum_instructions,
        window_instructions=window_instructions,
    )
    executor = FleetExecutor(geometry, timing_config, config)

    specs = []
    for index, (workload, kwargs_pairs, priority) in enumerate(tenants):
        run = make_workload(
            workload, seed=seed + index, **dict(kwargs_pairs)
        ).record()
        specs.append(
            TenantSpec(
                name=f"{workload}-{index}",
                run=run,
                priority=int(priority),
                address_offset=index << TENANT_SPACE_BITS,
            )
        )
    fleet = FleetTrace(
        events=tuple(
            FleetEvent(time=0, kind="arrival", spec=spec)
            for spec in specs
        ),
        horizon_instructions=horizon_instructions,
    )

    solo_cpis = {}
    for spec in specs:
        outcome = executor.run(
            single_tenant_trace(spec, horizon_instructions)
        )
        solo_cpis[spec.name] = outcome.telemetry[spec.name].cpi(
            timing_config, skip_samples=ramp_windows
        )

    def make_broker(mode: str):
        if mode == "broker":
            return ColumnBroker(
                geometry,
                timing_config,
                min_benefit_cycles=min_benefit_cycles,
            )
        if mode == "shared":
            return SharedPool(geometry, timing_config)
        return StaticEqualSplit(geometry, timing_config, slots=equal_slots)

    per_tenant: dict[str, dict[str, Any]] = {
        spec.name: {"solo_cpi": float(solo_cpis[spec.name])}
        for spec in specs
    }
    rewrite_counts = {}
    for mode in ("broker", "shared", "equal"):
        outcome = executor.run(fleet, broker=make_broker(mode))
        rewrite_counts[mode] = len(outcome.rewrites)
        for spec in specs:
            telemetry = outcome.telemetry[spec.name]
            cpi = telemetry.cpi(
                timing_config, skip_samples=ramp_windows
            )
            entry = per_tenant[spec.name]
            entry[f"{mode}_cpi"] = float(cpi)
            entry[f"{mode}_ratio"] = float(
                cpi / solo_cpis[spec.name]
            )
            if mode == "broker":
                history = telemetry.occupancy_history()
                entry["broker_columns"] = int(
                    history[-1] if history else 0
                )
                entry["broker_remaps"] = int(telemetry.remaps)
                entry["broker_miss_rate"] = float(telemetry.miss_rate)
    return {
        "tenant_order": [spec.name for spec in specs],
        "tenants": per_tenant,
        "tint_rewrites": rewrite_counts,
        "horizon_instructions": int(horizon_instructions),
    }


def fleet_churn_point(
    *,
    mix: Sequence[Sequence[Any]],
    columns: int,
    sets: int,
    line_size: int,
    quantum_instructions: int,
    window_instructions: int,
    horizon_instructions: int,
    mean_interarrival: float,
    mean_service: float,
    priorities: Sequence[int],
    min_benefit_cycles: int,
    seed: int,
    timing: Optional[Mapping[str, int]] = None,
) -> dict[str, Any]:
    """A Poisson churn stress of the broker (one engine job).

    Generates an arrival/departure stream over the workload ``mix``
    (rows are ``[workload, kwargs_pairs]``), serves it with the
    broker on a deliberately tight column budget, and reports the
    structural outcomes the shape checks audit: rejections vs peak
    occupancy, departure re-grants, rewrite reasons.
    """
    from repro.cache.geometry import CacheGeometry
    from repro.fleet import (
        ColumnBroker,
        FleetConfig,
        FleetExecutor,
        WorkloadMixEntry,
        generate_fleet_trace,
    )
    from repro.fleet.tenant import TenantStatus

    timing_config = _timing_from(timing)
    geometry = CacheGeometry(
        line_size=line_size, sets=sets, columns=columns
    )
    fleet = generate_fleet_trace(
        horizon_instructions=horizon_instructions,
        mix=[
            WorkloadMixEntry(
                workload,
                tuple(
                    (key, value) for key, value in kwargs_pairs
                ),
            )
            for workload, kwargs_pairs in mix
        ],
        mean_interarrival=mean_interarrival,
        mean_service=mean_service,
        seed=seed,
        priorities=tuple(int(p) for p in priorities),
    )
    executor = FleetExecutor(
        geometry,
        timing_config,
        FleetConfig(
            quantum_instructions=quantum_instructions,
            window_instructions=window_instructions,
        ),
    )
    outcome = executor.run(
        fleet,
        broker=ColumnBroker(
            geometry,
            timing_config,
            min_benefit_cycles=min_benefit_cycles,
        ),
    )

    # Residency from the telemetry timelines — the single definition
    # both audits below use: a tenant is resident at time t from its
    # admission (inclusive) to its departure (exclusive).
    def residents_at(time: int) -> int:
        return sum(
            1
            for telemetry in outcome.telemetry.values()
            if telemetry.admitted_at is not None
            and telemetry.admitted_at <= time
            and (
                telemetry.departed_at is None
                or telemetry.departed_at > time
            )
        )

    admission_times = [
        telemetry.admitted_at
        for telemetry in outcome.telemetry.values()
        if telemetry.admitted_at is not None
    ]
    # Residency only changes at admissions, so they are the only
    # candidate times for the peak.
    peak = max(map(residents_at, admission_times), default=0)
    rejected = [
        telemetry
        for telemetry in outcome.telemetry.values()
        if telemetry.status is TenantStatus.REJECTED
    ]
    rejections = len(rejected)
    departures_with_residents = sum(
        1
        for telemetry in outcome.telemetry.values()
        if telemetry.departed_at is not None
        and any(
            other.admitted_at is not None
            and other.admitted_at <= telemetry.departed_at
            and (
                other.departed_at is None
                or other.departed_at > telemetry.departed_at
            )
            for name, other in outcome.telemetry.items()
            if name != telemetry.name
        )
    )
    reasons: dict[str, int] = {}
    for rewrite in outcome.rewrites:
        reasons[rewrite.reason] = reasons.get(rewrite.reason, 0) + 1
    return {
        "arrivals": len(
            [e for e in fleet.events if e.kind == "arrival"]
        ),
        "admissions": sum(
            1
            for telemetry in outcome.telemetry.values()
            if telemetry.admitted_at is not None
        ),
        "rejections": rejections,
        "rejections_at_capacity_only": all(
            residents_at(telemetry.rejected_at) >= columns
            for telemetry in rejected
        ),
        "peak_concurrency": int(peak),
        "departures_with_residents": int(departures_with_residents),
        "departure_rewrites": int(reasons.get("departure", 0)),
        "rewrite_reasons": reasons,
        "tint_rewrites": len(outcome.rewrites),
        "disjoint_ok": True,  # the broker asserts it per rebalance
        "segments": int(outcome.segments),
        "total_instructions": int(outcome.total_instructions),
        "tenants": {
            name: {
                "status": telemetry.status.value,
                "priority": telemetry.priority,
                "mean_occupancy": float(telemetry.mean_occupancy()),
                "cpi": float(telemetry.cpi(timing_config)),
                "miss_rate": float(telemetry.miss_rate),
                "remaps": int(telemetry.remaps),
            }
            for name, telemetry in sorted(outcome.telemetry.items())
        },
    }


# ----------------------------------------------------------------------
# Generic trace simulation (tests, CI perf smoke, ad-hoc sweeps)
# ----------------------------------------------------------------------
def trace_sim(
    *,
    kind: str = "zipf",
    count: int = 10_000,
    base: int = 0x10000,
    span: int = 8192,
    element_size: int = 2,
    seed: int = 0,
    total_bytes: int = 16384,
    line_size: int = 16,
    columns: int = 4,
    uniform_mask: Optional[int] = None,
    trace_path: Optional[str] = None,
    trace_digest: Optional[str] = None,
    kernel: Optional[str] = None,
    chunk_accesses: Optional[int] = None,
) -> dict[str, int]:
    """Simulate a synthetic — or recorded — trace through one cache.

    The (workload x geometry x mask) axes make this the generic
    declarative sweep runner; every point runs on the lockstep cache.
    ``trace_path`` replays a recorded trace file instead of
    generating one (``.npz`` columnar archives are memory-mapped,
    dinero text otherwise) — external traces are first-class sweep
    inputs, cached like any other parameter.  The job hash covers the
    *path string*, not the file contents, so callers that regenerate
    trace files in place should pass ``trace_digest`` (any
    content-derived string — a checksum, an mtime, a generation
    counter); the runner ignores it, but it salts the engine's
    content hash so stale cached results cannot be served.

    The point replays through
    :func:`~repro.sim.engine.replay.replay_trace`: ``kernel`` pins
    the lockstep backend (None follows the session's active backend)
    and ``chunk_accesses`` bounds the streaming window without
    changing the counts.
    """
    from repro.cache.geometry import CacheGeometry
    from repro.sim.engine.replay import replay_trace
    from repro.trace.columnar import DEFAULT_CHUNK_ACCESSES
    from repro.trace.generator import generate

    outcome = replay_trace(
        generate(
            kind,
            count,
            base=base,
            span=span,
            element_size=element_size,
            seed=seed,
        )
        if trace_path is None
        else trace_path,
        CacheGeometry.from_sizes(
            total_bytes, line_size=line_size, columns=columns
        ),
        chunk_accesses=(
            DEFAULT_CHUNK_ACCESSES
            if chunk_accesses is None
            else chunk_accesses
        ),
        uniform_mask=uniform_mask,
        kernel=kernel,
    )
    return {
        "accesses": int(outcome.accesses),
        "hits": int(outcome.hits),
        "misses": int(outcome.misses),
        "bypasses": int(outcome.bypasses),
    }
