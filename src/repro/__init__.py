"""``repro``: software-controlled column caches, end to end.

The public facade of the stack.  Everything a typical user touches is
importable from the top level::

    from repro import CacheGeometry, ColumnBroker, FleetService

Imports are lazy (PEP 562): ``import repro`` costs nothing, and each
name pulls in only its own subsystem on first use.  The curated
surface, layer by layer:

* **Traces** — :class:`Trace`, :class:`ColumnarTrace`
* **Caches** — :class:`CacheGeometry`, :class:`ColumnCache`,
  :class:`ColumnMask`
* **Simulation** — :class:`TimingConfig`, :class:`SweepEngine`,
  :class:`SimJob`
* **Layout** — :class:`LayoutConfig`, :class:`DataLayoutPlanner`,
  :class:`PlannerSession`
* **Adaptive runtime** — :class:`AdaptiveConfig`,
  :class:`AdaptiveExecutor`
* **Workloads** — :func:`make_workload`, :func:`available_workloads`
* **Fleet (offline)** — :class:`ColumnBroker`, :class:`FleetExecutor`,
  :class:`FleetConfig`, :class:`FleetTrace`, :class:`TenantSpec`,
  :func:`generate_fleet_trace`
* **Fleet service (live)** — :class:`FleetService`,
  :class:`ServiceConfig`, :class:`ShardServer`,
  :class:`TenantHashRouter`, :class:`LoadGenConfig`,
  :func:`build_arrivals`, :func:`run_load`

Deeper tooling (experiment configs, engine backends, the trace codecs)
stays importable from its subpackage; the facade is the supported
front door, and ``tests/test_facade.py`` pins it.
"""

from __future__ import annotations

import importlib

#: Facade name -> defining module (the single source of truth; both
#: ``__all__`` and the lazy loader derive from it).
_EXPORTS = {
    # Traces
    "Trace": "repro.trace.trace",
    "ColumnarTrace": "repro.trace.columnar",
    # Caches
    "CacheGeometry": "repro.cache.geometry",
    "ColumnCache": "repro.cache.column_cache",
    "ColumnMask": "repro.utils.bitvector",
    # Simulation
    "TimingConfig": "repro.sim.config",
    "SweepEngine": "repro.sim.engine.scheduler",
    "SimJob": "repro.sim.engine.spec",
    # Layout
    "LayoutConfig": "repro.layout.algorithm",
    "DataLayoutPlanner": "repro.layout.algorithm",
    "PlannerSession": "repro.layout.session",
    # Adaptive runtime
    "AdaptiveConfig": "repro.runtime.adaptive",
    "AdaptiveExecutor": "repro.runtime.adaptive",
    # Workloads
    "make_workload": "repro.workloads.suite",
    "available_workloads": "repro.workloads.suite",
    # Fleet, offline
    "ColumnBroker": "repro.fleet.broker",
    "FleetExecutor": "repro.fleet.executor",
    "FleetConfig": "repro.fleet.tenant",
    "FleetTrace": "repro.fleet.executor",
    "TenantSpec": "repro.fleet.tenant",
    "generate_fleet_trace": "repro.fleet.trace",
    # Fleet service, live
    "FleetService": "repro.fleet.service.daemon",
    "ServiceConfig": "repro.fleet.service.daemon",
    "ShardServer": "repro.fleet.service.shard",
    "TenantHashRouter": "repro.fleet.service.router",
    "LoadGenConfig": "repro.fleet.service.loadgen",
    "build_arrivals": "repro.fleet.service.loadgen",
    "run_load": "repro.fleet.service.loadgen",
    # Live inspection
    "EventRing": "repro.inspect.events",
    "EventStream": "repro.inspect.events",
    "load_event_streams": "repro.inspect.events",
    "save_event_streams": "repro.inspect.events",
    "replay_events": "repro.inspect.replay",
    "diff_replay": "repro.inspect.replay",
    "occupancy_timeline": "repro.inspect.replay",
    "FleetSegmentSnapshot": "repro.inspect.snapshots",
    "column_occupancy": "repro.inspect.snapshots",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve a facade name on first use (PEP 562 lazy import)."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro' has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips the hook
    return value


def __dir__() -> list[str]:
    """Advertise the facade (so tab completion shows the surface)."""
    return sorted(set(globals()) | set(__all__))
