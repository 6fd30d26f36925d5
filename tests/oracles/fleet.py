"""Scalar fleet oracle: the fleet segment loop, one quantum at a time.

An independent re-implementation of what
:class:`~repro.fleet.executor.FleetExecutor` computes over one
:class:`~repro.fleet.service.shard.ShardServer`: the paper's Section
4.2 multitasking model (co-resident tenants round-robin fixed
instruction quanta through one column cache, each access carrying its
tenant's column mask) with the broker rewriting tints between
segments.  Where production runs each segment in one kernel entry
(:func:`~repro.sim.engine.fused.fleet_segment`, which also folds each
resident's working-set signature), this oracle
slices every quantum with :func:`~repro.sim.multitask.next_quantum_slice`
and steps each slice through the reference
:class:`~repro.cache.column_cache.ColumnCache` (the block-level
:class:`~oracles.column_cache.ReferenceCache`).  Event replay,
telemetry and the feeding of each tenant's phase detector follow the
same contract, written out again here; only the per-tenant state
(:class:`~repro.fleet.tenant.TenantRuntime`, detector included) and
the broker are shared.  :func:`assert_same_run` is the comparison the
differential suites apply to the two.  :func:`sample_totals` and
:func:`shard_aggregates` re-sum telemetry samples from scratch, the
reference for the running totals that telemetry and shard snapshots
keep.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.fleet import (
    ColumnBroker,
    FleetAdmissionError,
    FleetConfig,
    FleetEvent,
    FleetResult,
    FleetTrace,
    TenantStatus,
    WindowSample,
)
from repro.fleet.tenant import TenantRuntime
from repro.inspect.snapshots import DetectorSnapshot
from repro.sim.config import TimingConfig
from repro.sim.multitask import next_quantum_slice

from oracles.column_cache import ReferenceCache


def run_reference_fleet(
    geometry: CacheGeometry,
    timing: TimingConfig,
    config: FleetConfig,
    fleet: FleetTrace,
    broker: Optional[Any] = None,
    observer: Optional[Callable[[dict[str, DetectorSnapshot]], None]] = None,
) -> FleetResult:
    """Run ``fleet`` through the scalar per-quantum loop.

    Returns the same :class:`~repro.fleet.executor.FleetResult` the
    executor does, with the per-access hit stream always collected.
    ``observer``, when given, is called after every segment with each
    resident's detector snapshot, by name: the detector half of what
    the executor's observer sees, which pins every phase window.
    """
    if broker is None:
        broker = ColumnBroker(geometry, timing)
    cache = ReferenceCache(geometry)
    runtimes: dict[str, TenantRuntime] = {}
    blocks: dict[str, list[int]] = {}
    pending_remap: dict[str, int] = {}
    rejected: list[str] = []
    flag_parts = [np.zeros(0, dtype=bool)]
    rotation: Optional[str] = None

    def charge(charges: dict[str, int]) -> None:
        for name, cycles in charges.items():
            pending_remap[name] = pending_remap.get(name, 0) + cycles
            runtimes[name].telemetry.remaps += 1

    def apply(event: FleetEvent) -> None:
        nonlocal rotation
        if event.kind == "arrival":
            spec = event.spec
            runtime = TenantRuntime(spec, geometry, config)
            runtime.telemetry.arrival_time = event.time
            runtimes[spec.name] = runtime
            blocks[spec.name] = runtime.blocks.tolist()
            try:
                charges = broker.admit(
                    spec.name, spec.run, priority=spec.priority
                )
            except FleetAdmissionError:
                runtime.telemetry.status = TenantStatus.REJECTED
                runtime.telemetry.rejected_at = event.time
                rejected.append(spec.name)
                return
            runtime.telemetry.status = TenantStatus.RUNNING
            runtime.telemetry.admitted_at = event.time
            charge(charges)
            return
        runtime = runtimes.get(event.tenant)
        if runtime is None:
            raise ValueError(f"departure for unknown tenant {event.tenant!r}")
        if runtime.telemetry.status is not TenantStatus.RUNNING:
            return
        charges = broker.depart(event.tenant)
        runtime.telemetry.status = TenantStatus.DEPARTED
        runtime.telemetry.departed_at = event.time
        pending_remap.pop(event.tenant, None)
        if rotation == event.tenant:
            rotation = None
        charge(charges)

    events = fleet.events
    next_event = 0
    now = 0
    segment = 0
    horizon = fleet.horizon_instructions
    while now < horizon:
        while next_event < len(events) and events[next_event].time <= now:
            apply(events[next_event])
            next_event += 1
        residents = broker.resident
        if not residents:
            if next_event == len(events):
                break
            now = events[next_event].time
            continue
        budget = min(config.window_instructions, horizon - now)
        if next_event < len(events):
            budget = min(budget, events[next_event].time - now)

        # instructions, accesses, quanta, hits
        counters = {name: [0, 0, 0, 0] for name in residents}
        slices: dict[str, list[tuple[int, int]]] = {
            name: [] for name in residents
        }
        turn = residents.index(rotation) if rotation in residents else 0
        executed = 0
        while executed < budget:
            name = residents[turn]
            runtime = runtimes[name]
            counter = counters[name]
            counter[2] += 1
            mask = broker.grants[name].bits
            remaining = min(config.quantum_instructions, budget - executed)
            while remaining > 0:
                start = runtime.position
                stop, ran = next_quantum_slice(
                    runtime.cumulative, start, remaining
                )
                flags, _bypasses = cache.run(
                    blocks[name][start:stop], uniform_mask=mask
                )
                flag_parts.append(flags)
                counter[0] += ran
                counter[1] += stop - start
                counter[3] += int(flags.sum())
                slices[name].append((start, stop))
                remaining -= ran
                executed += ran
                runtime.position = stop
                if stop >= len(blocks[name]):
                    runtime.position = 0
                    runtime.telemetry.wraps += 1
            turn = (turn + 1) % len(residents)
        rotation = residents[turn]
        now += executed

        boundaries = []
        for name in residents:
            runtime = runtimes[name]
            instructions, accesses, quanta, hits = counters[name]
            runtime.telemetry.record(
                WindowSample(
                    window_index=segment,
                    columns=broker.grants[name].count(),
                    instructions=instructions,
                    accesses=accesses,
                    hits=hits,
                    misses=accesses - hits,
                    quanta=quanta,
                    remap_cycles=pending_remap.pop(name, 0),
                )
            )
            if accesses >= config.min_detect_accesses:
                window = np.concatenate(
                    [runtime.blocks[a:b] for a, b in slices[name]]
                )
                observation = runtime.detector.observe_window(
                    window, accesses - hits
                )
                if observation.boundary:
                    boundaries.append(name)
        for name in boundaries:
            if name in broker.grants:
                run = runtimes[name].spec.run
                charge(broker.refresh(name, run, slices[name]))
        segment += 1
        if observer is not None:
            observer(
                {
                    name: DetectorSnapshot.of(runtimes[name].detector)
                    for name in broker.resident
                }
            )

    return FleetResult(
        telemetry={
            name: runtime.telemetry for name, runtime in runtimes.items()
        },
        total_instructions=now,
        segments=segment,
        rewrites=list(broker.rewrites),
        rejected=rejected,
        hit_stream=np.concatenate(flag_parts),
    )


def assert_same_run(
    result: FleetResult, reference: FleetResult, timing: TimingConfig
) -> None:
    """Assert two fleet runs are identical, hit stream to telemetry.

    Compares every tenant's whole exported telemetry (event stamps
    included), not just its counters, plus its per-segment samples,
    and the broker's rewrite log (tenant, mask, cycles and reason of
    every installed grant), which pins which phase windows fired and
    what each rebalance installed.
    """
    assert np.array_equal(result.hit_stream, reference.hit_stream)
    assert result.total_instructions == reference.total_instructions
    assert result.segments == reference.segments
    assert result.rejected == reference.rejected
    assert result.rewrites == reference.rewrites
    assert list(result.telemetry) == list(reference.telemetry)
    for name, telemetry in result.telemetry.items():
        expected = reference.telemetry[name]
        assert telemetry.as_dict(timing) == expected.as_dict(timing), name
        assert telemetry.samples == expected.samples, name


#: The per-segment counts a telemetry record keeps running totals of.
SAMPLE_COUNTS = (
    "instructions", "accesses", "hits", "misses", "quanta", "remap_cycles"
)


def sample_totals(telemetry: Any) -> dict[str, int]:
    """A tenant's lifetime counts, re-summed from its samples."""
    return {
        key: sum(getattr(sample, key) for sample in telemetry.samples)
        for key in SAMPLE_COUNTS
    }


def shard_aggregates(shard: Any) -> tuple[float, float]:
    """A shard snapshot's ``(cpi, miss_rate)``, from scratch.

    Re-sums every sample of every runtime in ``shard.runtimes``: the
    computation :meth:`~repro.fleet.service.shard.ShardServer.snapshot`
    did on every call before it kept lifetime totals.
    """
    timing = shard.timing
    instructions = accesses = misses = cycles = 0
    for runtime in shard.runtimes.values():
        counts = sample_totals(runtime.telemetry)
        instructions += counts["instructions"]
        accesses += counts["accesses"]
        misses += counts["misses"]
        cycles += (
            counts["instructions"]
            + counts["misses"] * timing.miss_penalty
            + counts["quanta"] * timing.context_switch_cycles
            + counts["remap_cycles"]
        )
    return (
        cycles / instructions if instructions else 0.0,
        misses / accesses if accesses else 0.0,
    )
