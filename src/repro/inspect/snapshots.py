"""Frozen point-in-time views of caches, brokers, and detectors.

Every snapshot here is plain data (JSON-exportable via ``as_dict``)
computed from live simulator state without mutating it, so an
observer callback can be wired into a hot loop — the adaptive
runtime's window loop, the fleet's segment loop — and the simulated
outcome stays bit-identical with or without it.

The cache-occupancy reader accepts a
:class:`~repro.sim.engine.batched.LockstepState` or the
:class:`~repro.sim.engine.batched.LockstepCache` wrapping one, and
returns the number of valid lines per column by the state's own
empty-line rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence


def column_occupancy(cache: Any) -> tuple[int, ...]:
    """Valid lines per column (way) of a lockstep cache.

    Accepts a :class:`~repro.sim.engine.batched.LockstepState` (or a
    :class:`~repro.sim.engine.batched.LockstepCache` wrapping one) and
    counts its :meth:`~repro.sim.engine.batched.LockstepState.valid`
    lines per column.
    """
    state = getattr(cache, "state", cache)
    valid = getattr(state, "valid", None)
    if valid is None:
        raise TypeError(
            f"cannot read column occupancy from {type(cache).__name__}"
        )
    return tuple(int(count) for count in valid().sum(axis=0))


def miss_rate_timeline(
    samples: Sequence[Any],
) -> tuple[tuple[int, float], ...]:
    """Per-window miss rates from a tenant's telemetry samples.

    Accepts any sequence of
    :class:`~repro.fleet.tenant.WindowSample`-shaped objects (needs
    ``window_index``, ``accesses``, ``misses``).
    """
    timeline = []
    for sample in samples:
        rate = (
            sample.misses / sample.accesses if sample.accesses else 0.0
        )
        timeline.append((int(sample.window_index), float(rate)))
    return tuple(timeline)


@dataclass(frozen=True)
class DetectorSnapshot:
    """One phase detector's state at an instant.

    Attributes:
        windows: Windows observed so far.
        boundaries: Window indices at which phase boundaries fired.
        last_signature_distance: Jaccard distance of the most recent
            window's working-set signature to the previous one.
        last_miss_rate: The most recent window's miss rate.
        in_hysteresis: Whether a fresh boundary is currently
            suppressed by the hysteresis budget.
    """

    windows: int
    boundaries: tuple[int, ...]
    last_signature_distance: float
    last_miss_rate: float
    in_hysteresis: bool

    @classmethod
    def of(cls, detector: Any) -> "DetectorSnapshot":
        """Snapshot a :class:`~repro.runtime.detector.PhaseDetector`."""
        observations = detector.observations
        boundaries = tuple(detector.boundary_windows)
        last = observations[-1] if observations else None
        in_hysteresis = bool(
            boundaries
            and len(observations) - boundaries[-1]
            < detector.hysteresis_windows
        )
        return cls(
            windows=len(observations),
            boundaries=boundaries,
            last_signature_distance=(
                last.signature_distance if last else 0.0
            ),
            last_miss_rate=(last.miss_rate if last else 0.0),
            in_hysteresis=in_hysteresis,
        )

    def as_dict(self) -> dict[str, Any]:
        """Structured, JSON-serializable export."""
        return {
            "windows": self.windows,
            "boundaries": list(self.boundaries),
            "last_signature_distance": self.last_signature_distance,
            "last_miss_rate": self.last_miss_rate,
            "in_hysteresis": self.in_hysteresis,
        }


@dataclass(frozen=True)
class BrokerSnapshot:
    """Column ownership as one broker sees it, at an instant.

    Attributes:
        columns: Total columns in the brokered cache.
        owners: Per-column owner name (None = free), index order.
        grants: ``(tenant, mask_bits)`` pairs in admission order —
            the exact column sets, not just counts.
        priorities: ``(tenant, priority)`` pairs, admission order.
        tint_rewrites: Length of the broker's rewrite log.
    """

    columns: int
    owners: tuple[Optional[str], ...]
    grants: tuple[tuple[str, int], ...]
    priorities: tuple[tuple[str, int], ...]
    tint_rewrites: int

    @classmethod
    def of(cls, broker: Any) -> "BrokerSnapshot":
        """Snapshot a :class:`~repro.fleet.broker.ColumnBroker`.

        Also accepts the baseline brokers
        (:class:`~repro.fleet.broker.SharedPool`,
        :class:`~repro.fleet.broker.StaticEqualSplit`); tenants of a
        broker without priorities default to priority 1, and with
        overlapping grants (the shared pool) the *last* admitted
        owner of a column wins the owner slot.
        """
        columns = broker.geometry.columns
        priorities = getattr(broker, "priorities", {})
        owners: list[Optional[str]] = [None] * columns
        grants = []
        for name in broker.resident:
            mask = broker.grants[name]
            grants.append((name, mask.bits))
            for column in mask:
                owners[column] = name
        return cls(
            columns=columns,
            owners=tuple(owners),
            grants=tuple(grants),
            priorities=tuple(
                (name, priorities.get(name, 1))
                for name in broker.resident
            ),
            tint_rewrites=len(getattr(broker, "rewrites", ())),
        )

    @property
    def free_columns(self) -> int:
        """Columns granted to nobody."""
        return sum(1 for owner in self.owners if owner is None)

    def as_dict(self) -> dict[str, Any]:
        """Structured, JSON-serializable export."""
        return {
            "columns": self.columns,
            "owners": list(self.owners),
            "free_columns": self.free_columns,
            "grants": [
                {"tenant": name, "mask_bits": bits}
                for name, bits in self.grants
            ],
            "priorities": dict(self.priorities),
            "tint_rewrites": self.tint_rewrites,
        }


@dataclass(frozen=True)
class ExecutorWindowSnapshot:
    """One executor window as an observer sees it.

    Emitted by :meth:`~repro.sim.executor.TraceExecutor.run_windowed`
    and :meth:`~repro.runtime.adaptive.AdaptiveExecutor.run`'s
    observer hook after each window executes.

    Attributes:
        window_index: Zero-based window number.
        start: First trace position of the window.
        stop: One past the last trace position of the window.
        accesses: Accesses the window issued.
        misses: Cache misses among them.
        column_occupancy: Valid lines per column after the window.
        detector: Phase-detector state (None when the run has none).
        remapped: Whether a remap was applied at this window's edge.
    """

    window_index: int
    start: int
    stop: int
    accesses: int
    misses: int
    column_occupancy: tuple[int, ...]
    detector: Optional[DetectorSnapshot] = None
    remapped: bool = False

    @property
    def miss_rate(self) -> float:
        """The window's miss rate (0.0 when it issued no accesses)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def as_dict(self) -> dict[str, Any]:
        """Structured, JSON-serializable export."""
        return {
            "window_index": self.window_index,
            "start": self.start,
            "stop": self.stop,
            "accesses": self.accesses,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "column_occupancy": list(self.column_occupancy),
            "detector": (
                self.detector.as_dict() if self.detector else None
            ),
            "remapped": self.remapped,
        }


@dataclass(frozen=True)
class TenantInspectRow:
    """One resident tenant inside a fleet segment snapshot.

    Attributes:
        name: Tenant name.
        priority: Broker priority.
        mask_bits: The exact column mask it holds.
        columns: Columns in that mask.
        instructions: Instructions executed so far.
        miss_rate: Lifetime miss rate.
        timeline: Per-window miss rates
            (see :func:`miss_rate_timeline`).
        detector: Its phase detector's state.
    """

    name: str
    priority: int
    mask_bits: int
    columns: int
    instructions: int
    miss_rate: float
    timeline: tuple[tuple[int, float], ...]
    detector: Optional[DetectorSnapshot] = None

    def as_dict(self) -> dict[str, Any]:
        """Structured, JSON-serializable export."""
        return {
            "name": self.name,
            "priority": self.priority,
            "mask_bits": self.mask_bits,
            "columns": self.columns,
            "instructions": self.instructions,
            "miss_rate": self.miss_rate,
            "timeline": [list(point) for point in self.timeline],
            "detector": (
                self.detector.as_dict() if self.detector else None
            ),
        }


@dataclass(frozen=True)
class FleetSegmentSnapshot:
    """One fleet shard's state after a scheduling segment.

    Built by :meth:`~repro.fleet.service.shard.ShardServer.inspect`,
    which :meth:`~repro.fleet.executor.FleetExecutor.run`'s observer
    hook receives after every segment and the daemon serves on demand:
    who is resident, which columns each tenant holds, how full each
    column is, and where every tenant's phase detector stands.

    Attributes:
        segment: Zero-based number of the last completed segment
            (-1 before the first).
        now: Global instruction clock after the segment.
        column_occupancy: Valid lines per column of the shared cache.
        broker: The broker's ownership map.
        tenants: Per-resident inspection rows, admission order.
    """

    segment: int
    now: int
    column_occupancy: tuple[int, ...]
    broker: BrokerSnapshot
    tenants: tuple[TenantInspectRow, ...]

    def as_dict(self) -> dict[str, Any]:
        """Structured, JSON-serializable export."""
        return {
            "segment": self.segment,
            "now": self.now,
            "column_occupancy": list(self.column_occupancy),
            "broker": self.broker.as_dict(),
            "tenants": [row.as_dict() for row in self.tenants],
        }
