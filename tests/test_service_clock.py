"""The service clock: a tick wakes only the waiters that can be due.

:class:`~repro.fleet.service.daemon.FleetService` parks each task that
waits on its clock (``wait_until``, ``drain``) separately, and a
worker's tick wakes only the ones whose deadline its shard's clock has
reached.  The reference, :class:`oracles.clock.SharedEventFleetService`,
wakes every waiting task on every tick through one shared event.  The
two must serve any population identically; the production clock must
cost wakeups in proportion to events, and ``stop()`` must release every
waiter wherever it is parked.
"""

import asyncio
import dataclasses
import functools
from collections import Counter

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.experiments.serve import ServeConfig
from repro.fleet import FleetConfig, TenantSpec
from repro.fleet.service import FleetService, ServiceConfig
from repro.fleet.service.loadgen import (
    build_arrivals,
    default_workload_pool,
    run_load,
)
from repro.workloads.suite import make_workload

from oracles.clock import SharedEventFleetService

#: The serve experiment's topology: 4 shards x 8 columns, migration on.
SERVE = ServeConfig()


@functools.lru_cache(maxsize=None)
def workload_pool(seed):
    return tuple(default_workload_pool(seed))


def tiny_load(tenants=60, seed=1):
    """A tiny serve population: the serve arrival rate, 25 % hot."""
    return dataclasses.replace(
        SERVE.load, tenants=tenants, seed=seed, hot_fraction=0.25
    )


def serve(service_class, load, frame_interval=None):
    """Serve ``load``; returns the service, its report and any frames.

    With ``frame_interval``, a second task loops on ``wait_until`` the
    way ``repro fleet top`` does, snapshotting the fleet each frame.
    """
    config = dataclasses.replace(SERVE.service, migration_enabled=True)
    service = service_class(config)
    arrivals = build_arrivals(
        load, service.router, runs=workload_pool(load.seed)
    )
    frames = []

    async def scenario():
        async with service:
            if frame_interval is None:
                return await run_load(service, arrivals)
            load_task = asyncio.create_task(run_load(service, arrivals))
            while not load_task.done():
                clock = asyncio.create_task(
                    service.wait_until(
                        service.virtual_now + frame_interval
                    )
                )
                await asyncio.wait(
                    [load_task, clock],
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not clock.done():
                    clock.cancel()
                frames.append(service.snapshot().as_dict())
            return await load_task

    report = asyncio.run(scenario())
    return service, report, frames


def final_state(service, report, frames):
    timing = service.config.timing
    return {
        "tickets": [
            (
                ticket.tenant,
                ticket.shard,
                ticket.admitted,
                ticket.reason,
                ticket.queue_wait_instructions,
            )
            for ticket in report.tickets
        ],
        "migrations": service.migrations,
        "invariant_checks": service.invariant_checks,
        "imbalance_timeline": service.imbalance_timeline,
        "shards": [(shard.now, shard.segments) for shard in service.shards],
        "tenants": [
            (
                shard.shard_id,
                name,
                runtime.telemetry.as_dict(timing),
                runtime.telemetry.samples,
            )
            for shard in service.shards
            for name, runtime in shard.runtimes.items()
        ],
        "frames": frames,
    }


@pytest.mark.parametrize(
    "seed, frame_interval", [(1, None), (2, None), (3, None), (4, 3000)]
)
def test_same_run_as_the_shared_event_reference(
    seed, frame_interval, tmp_path
):
    load = tiny_load(seed=seed)
    runs = {
        "clock": serve(FleetService, load, frame_interval),
        "reference": serve(SharedEventFleetService, load, frame_interval),
    }
    states = {name: final_state(*run) for name, run in runs.items()}
    assert states["clock"]["migrations"], "no migration exercised"
    for key in states["reference"]:
        assert states["clock"][key] == states["reference"][key], key
    streams = {}
    for name, (service, _, _) in runs.items():
        path = service.flush_events(tmp_path / f"{name}.npz")
        with np.load(path) as archive:
            streams[name] = {key: archive[key] for key in archive.files}
    assert streams["clock"].keys() == streams["reference"].keys()
    for key, column in streams["reference"].items():
        assert np.array_equal(streams["clock"][key], column), key


@pytest.mark.parametrize("tenants", [60, 120])
def test_wakeups_grow_with_events_not_with_waiting(tenants, monkeypatch):
    """Each tick wakes only what can be due: about one wakeup per
    tenant arrival, monitor check and drain recheck, however many
    ticks a waiter sits through."""
    completions = Counter()
    original = asyncio.Event.wait

    async def counted(event):
        result = await original(event)
        completions[asyncio.current_task()] += 1
        return result

    monkeypatch.setattr(asyncio.Event, "wait", counted)
    load = tiny_load(tenants=tenants)
    config = dataclasses.replace(SERVE.service, migration_enabled=True)
    service = FleetService(config)
    arrivals = build_arrivals(
        load, service.router, runs=workload_pool(load.seed)
    )
    drainer = []

    async def scenario():
        drainer.append(asyncio.current_task())
        async with service:
            await run_load(service, arrivals)

    asyncio.run(scenario())
    wakeups = sum(completions.values())
    drain_wakes = completions[drainer[0]]
    checks = len(service.imbalance_timeline)
    assert checks > 0
    assert wakeups <= tenants + checks + drain_wakes + 4, (
        wakeups, tenants, checks, drain_wakes
    )


def test_stop_releases_every_clock_waiter():
    """stop() mid-batch: parked, in-flight and woken waiters all
    return, queued admissions resolve as shutdown, and a second
    stop() is clean."""
    geometry = CacheGeometry(line_size=16, sets=32, columns=4)
    config = ServiceConfig(
        shards=1,
        geometry=geometry,
        fleet=FleetConfig(quantum_instructions=128, window_instructions=1024),
        patience_instructions=10**12,
        monitor_interval_instructions=2_048,
    )
    run = make_workload("crc32", seed=3, message_bytes=256).record()
    specs = [
        TenantSpec(name=f"t{index}", run=run, address_offset=index << 32)
        for index in range(7)
    ]

    async def scenario():
        service = FleetService(config)
        await service.start()
        residents = await asyncio.gather(
            *(
                service.submit(spec, service_instructions=10**12)
                for spec in specs[:4]
            )
        )
        queued = [
            asyncio.create_task(
                service.submit(spec, service_instructions=10**12)
            )
            for spec in specs[4:]
        ]
        parked = []

        async def far(deadline):
            parked.append(deadline)
            await service.wait_until(deadline)

        far_tasks = [
            asyncio.create_task(far(10**15 + index)) for index in range(5)
        ]
        drainer = asyncio.create_task(service.drain())
        # Stop right after a worker tick, while the far waiters sit in
        # the batch it took and are not yet re-armed.
        for _ in range(10_000):
            armed = {deadline for deadline, _, _ in service._armed}
            if (
                service.snapshot().shards[0].queue_depth == len(queued)
                and len(parked) == len(far_tasks)
                and not armed.intersection(parked)
            ):
                break
            await asyncio.sleep(0)
        else:
            pytest.fail("no tick left parked waiters in flight")
        await service.stop()
        waiters = [*queued, *far_tasks, drainer]
        _, stuck = await asyncio.wait(waiters, timeout=10)
        assert not stuck
        await asyncio.wait_for(service.stop(), timeout=10)
        return residents, [task.result() for task in queued], far_tasks

    residents, tickets, far = asyncio.run(scenario())
    assert all(ticket.admitted for ticket in residents)
    assert [ticket.reason for ticket in tickets] == ["shutdown"] * 3
    assert all(task.result() is None for task in far)
