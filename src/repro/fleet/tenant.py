"""Tenants of the fleet: specs, lifecycle, scheduling knobs, telemetry.

A *tenant* is one serviced task: a recorded workload (trace + memory
map) plus a scheduling priority.  Tenants arrive and depart while the
fleet runs; the broker grants each admitted tenant a disjoint set of
cache columns, and the shard's segment loop reports what every tenant
actually experienced — occupancy, miss rate, remap churn — as
structured :class:`TenantTelemetry`.  :class:`FleetConfig` holds the
scheduling and phase-detection knobs of that loop, and
:class:`TenantRuntime` a tenant's execution state inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from repro.cache.geometry import CacheGeometry
from repro.runtime.detector import PhaseDetector, check_detector_settings
from repro.sim.config import TimingConfig
from repro.workloads.base import WorkloadRun

#: Tenants live in disjoint address spaces, offset by index << this.
TENANT_SPACE_BITS = 32


@dataclass(frozen=True)
class TenantSpec:
    """One tenant the fleet may serve.

    Attributes:
        name: Unique tenant name (also its tint name suffix).
        run: The tenant's recorded workload; its trace wraps, so the
            tenant is served continuously until departure.
        priority: Scheduling weight (>= 1); the broker values a column
            granted to this tenant at ``priority x`` its modeled
            benefit in cycles.
        address_offset: Relocation placing the tenant in its own
            address space (defaults are assigned by the fleet trace
            generator as ``index << TENANT_SPACE_BITS``).
    """

    name: str
    run: WorkloadRun
    priority: int = 1
    address_offset: int = 0

    def __post_init__(self) -> None:
        if self.priority < 1:
            raise ValueError(
                f"tenant {self.name!r} priority must be >= 1, "
                f"got {self.priority}"
            )
        if len(self.run.trace) == 0:
            raise ValueError(f"tenant {self.name!r} has an empty trace")


class TenantStatus(Enum):
    """Lifecycle state of a tenant within one fleet run."""

    PENDING = "pending"
    RUNNING = "running"
    REJECTED = "rejected"
    DEPARTED = "departed"


@dataclass(frozen=True)
class WindowSample:
    """What one tenant experienced during one scheduling segment.

    Attributes:
        window_index: Global segment number (segments end at the
            window budget, at fleet events, and at the horizon).
        columns: Columns granted to the tenant during the segment.
        instructions: Instructions the tenant executed.
        accesses: Memory accesses it issued.
        hits: Cache hits among them.
        misses: Cache misses among them.
        quanta: Scheduling quanta it received.
        remap_cycles: Tint-rewrite cycles charged at the segment start
            (0 when the tenant's grant did not change).
    """

    window_index: int
    columns: int
    instructions: int
    accesses: int
    hits: int
    misses: int
    quanta: int
    remap_cycles: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses per access within the segment."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


@dataclass
class TenantTelemetry:
    """Everything one tenant experienced over a fleet run.

    The per-segment :class:`WindowSample` stream is kept whole, so
    callers can reason about ramp-up (first segments run cold) and
    occupancy over time.  :meth:`record` is its single writer: it
    appends a sample and adds it to running totals, so the lifetime
    aggregates cost O(1) to read however long the tenant has run.

    Attributes:
        instructions: Total instructions executed across all segments.
        accesses: Total memory accesses issued.
        hits: Total cache hits.
        misses: Total cache misses.
        quanta: Total scheduling quanta received.
        remap_cycles: Total tint-rewrite cycles charged to this tenant.
    """

    name: str
    priority: int
    status: TenantStatus = TenantStatus.PENDING
    arrival_time: Optional[int] = None
    admitted_at: Optional[int] = None
    departed_at: Optional[int] = None
    rejected_at: Optional[int] = None
    wraps: int = 0
    remaps: int = 0
    samples: list[WindowSample] = field(default_factory=list)
    instructions: int = field(default=0, init=False)
    accesses: int = field(default=0, init=False)
    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    quanta: int = field(default=0, init=False)
    remap_cycles: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        samples, self.samples = self.samples, []
        for sample in samples:
            self.record(sample)

    def record(self, sample: WindowSample) -> None:
        """Append one segment's sample and add it to the totals."""
        self.samples.append(sample)
        self.instructions += sample.instructions
        self.accesses += sample.accesses
        self.hits += sample.hits
        self.misses += sample.misses
        self.quanta += sample.quanta
        self.remap_cycles += sample.remap_cycles

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def miss_rate(self) -> float:
        """Misses per access over the whole run."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def occupancy_history(self) -> list[int]:
        """Granted column count per segment, in segment order."""
        return [sample.columns for sample in self.samples]

    def mean_occupancy(self) -> float:
        """Instruction-weighted mean of granted columns."""
        total = self.instructions
        if total == 0:
            return 0.0
        weighted = sum(
            sample.columns * sample.instructions
            for sample in self.samples
        )
        return weighted / total

    def cpi(
        self, timing: TimingConfig, skip_samples: int = 0
    ) -> float:
        """Clocks per instruction under ``timing``.

        ``skip_samples`` drops the tenant's first segments (cold-start
        ramp) from the measurement — the isolation experiment compares
        steady-state CPI, and its solo baselines skip identically.
        """
        totals = self
        if skip_samples:
            totals = TenantTelemetry(
                self.name, self.priority,
                samples=self.samples[skip_samples:],
            )
        instructions = totals.instructions
        if instructions == 0:
            return 0.0
        cycles = (
            instructions
            + totals.misses * timing.miss_penalty
            + totals.quanta * timing.context_switch_cycles
            + totals.remap_cycles
        )
        return cycles / instructions

    def as_dict(self, timing: TimingConfig) -> dict[str, Any]:
        """Structured, JSON-serializable telemetry export."""
        return {
            "name": self.name,
            "priority": self.priority,
            "status": self.status.value,
            "arrival_time": self.arrival_time,
            "admitted_at": self.admitted_at,
            "departed_at": self.departed_at,
            "rejected_at": self.rejected_at,
            "instructions": self.instructions,
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "quanta": self.quanta,
            "wraps": self.wraps,
            "remaps": self.remaps,
            "remap_cycles": self.remap_cycles,
            "mean_occupancy": self.mean_occupancy(),
            "occupancy_history": self.occupancy_history(),
            "cpi": self.cpi(timing),
            "windows": len(self.samples),
        }


@dataclass(frozen=True)
class FleetConfig:
    """Scheduling and adaptation knobs of the fleet segment loop.

    Attributes:
        quantum_instructions: Round-robin time quantum.
        window_instructions: Scheduling-window budget (telemetry and
            phase detection run per window; events cut windows short).
        signature_threshold: Per-tenant working-set Jaccard distance
            that flags a phase change.
        miss_rate_threshold: Per-tenant miss-rate jump that flags a
            phase change.
        hysteresis_windows: Minimum windows between phase boundaries.
        min_detect_accesses: Segments smaller than this (cut short by
            events) are not fed to the tenant's
            :class:`~repro.runtime.detector.PhaseDetector` — a
            three-access sliver says nothing about the working set.
            At least 1.

    Raises:
        ValueError: naming the field, when a knob is out of range: the
            detector's three settings are checked as
            :class:`~repro.runtime.detector.PhaseDetector` checks them,
            so a bad one fails here rather than at the first admission.
    """

    quantum_instructions: int = 256
    window_instructions: int = 16_384
    signature_threshold: float = 0.5
    miss_rate_threshold: float = 0.25
    hysteresis_windows: int = 2
    min_detect_accesses: int = 64

    def __post_init__(self) -> None:
        if self.quantum_instructions < 1:
            raise ValueError(
                "quantum_instructions must be >= 1, got "
                f"{self.quantum_instructions}"
            )
        if self.window_instructions < self.quantum_instructions:
            raise ValueError(
                "window_instructions must be >= quantum_instructions"
            )
        check_detector_settings(
            self.signature_threshold,
            self.miss_rate_threshold,
            self.hysteresis_windows,
        )
        if self.min_detect_accesses < 1:
            raise ValueError(
                "min_detect_accesses must be >= 1, got "
                f"{self.min_detect_accesses}"
            )


class TenantRuntime:
    """Per-tenant execution state (trace arrays, cursor, detector).

    Args:
        spec: The tenant.
        geometry: The cache it runs in (fixes the block numbering).
        config: Supplies the phase detector's thresholds.
    """

    def __init__(
        self,
        spec: TenantSpec,
        geometry: CacheGeometry,
        config: FleetConfig,
    ):
        self.spec = spec
        self.blocks = spec.run.trace.blocks_for(
            geometry.offset_bits, spec.address_offset
        )
        self.cumulative = spec.run.trace.cumulative_instructions
        self.position = 0
        self.telemetry = TenantTelemetry(
            name=spec.name, priority=spec.priority
        )
        self.detector = PhaseDetector(
            signature_threshold=config.signature_threshold,
            miss_rate_threshold=config.miss_rate_threshold,
            hysteresis_windows=config.hysteresis_windows,
        )
