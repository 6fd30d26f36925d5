"""Service observability: latency recording, shard/service snapshots.

Per *Observing the Invisible: Live Cache Inspection* (PAPERS.md), a
serving layer is only operable if its cache state can be inspected
while it runs.  This module is the daemon's snapshot/telemetry
surface:

* :class:`LatencyRecorder` — per-shard admission-latency samples with
  exact percentiles (the daemon records every admission decision);
* :class:`ShardSnapshot` — one shard's live state: virtual clock,
  residents, free columns, per-tenant occupancy, CPI and miss rate;
* :class:`ServiceSnapshot` — the whole fleet at one instant, with the
  shard-imbalance metric the hotspot monitor acts on.

Snapshots are plain frozen data (JSON-exportable via ``as_dict``), so
they can stream to disk or a dashboard without touching live state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The ``fraction``-quantile of ``samples`` (nearest-rank).

    Nearest-rank: the smallest sample such that at least
    ``fraction * n`` of the samples are <= it, i.e. the sample at
    1-based rank ``ceil(fraction * n)``; ``fraction=0`` selects the
    first sample.  Returns 0.0 for an empty sample set — an idle
    shard has no latency, not an undefined one.

    >>> percentile([1.0, 2.0, 3.0, 4.0], 0.5)
    2.0
    >>> percentile([3.0, 1.0, 2.0], 0.5)
    2.0
    >>> percentile([1.0, 2.0, 3.0, 4.0], 0.0)
    1.0
    >>> percentile([1.0, 2.0, 3.0, 4.0], 1.0)
    4.0
    >>> percentile(list(range(1, 101)), 0.99)
    99
    >>> percentile([], 0.99)
    0.0
    """
    if not samples:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(samples)
    rank = math.ceil(fraction * len(ordered))
    return ordered[max(rank, 1) - 1]


@dataclass
class LatencyRecorder:
    """Admission-latency samples for one shard.

    Attributes:
        samples: Wall-clock seconds from request submission to the
            shard's decision (queue wait + processing), one entry per
            admission request, in decision order.
    """

    samples: list[float] = field(default_factory=list)

    def record(self, seconds: float) -> None:
        """Add one admission's latency."""
        self.samples.append(seconds)

    def count(self) -> int:
        """Admissions recorded so far."""
        return len(self.samples)

    def mean(self) -> float:
        """Mean latency in seconds (0.0 when empty)."""
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def p50(self) -> float:
        """Median latency in seconds."""
        return percentile(self.samples, 0.50)

    def p99(self) -> float:
        """99th-percentile latency in seconds."""
        return percentile(self.samples, 0.99)

    def as_dict(self) -> dict[str, Any]:
        """Structured export (count, mean, p50, p99)."""
        return {
            "count": self.count(),
            "mean_s": self.mean(),
            "p50_s": self.p50(),
            "p99_s": self.p99(),
        }


@dataclass(frozen=True)
class TenantResidency:
    """One resident tenant as seen in a shard snapshot.

    Attributes:
        name: Tenant name.
        priority: Its broker priority.
        columns: Columns it currently holds on the shard.
        instructions: Instructions it has executed so far (a
            migrant's history follows it between shards).
        miss_rate: Its lifetime miss rate.
        cpi: Its clocks-per-instruction so far.
    """

    name: str
    priority: int
    columns: int
    instructions: int
    miss_rate: float
    cpi: float


@dataclass(frozen=True)
class ShardSnapshot:
    """One shard's live state at one instant.

    Attributes:
        shard: Shard index.
        now: The shard's virtual instruction clock.
        segments: Scheduling segments executed so far.
        residents: Per-tenant residency rows, admission order.
        free_columns: Columns granted to nobody.
        admitted: Tenants admitted over the shard's lifetime.
        rejected: Tenants refused admission (no free columns).
        departed: Tenants that left (including migrations out).
        migrations_in: Tenants injected by live migration.
        migrations_out: Tenants extracted by live migration.
        tint_rewrites: Broker tint-rewrite log length.
        queue_depth: Admission/departure requests waiting (0 when the
            shard runs synchronously outside the daemon).
        cpi: Aggregate CPI over every tenant record the shard holds:
            its residents and the tenants that departed or were
            refused here (a migrant's record, whole history included,
            moves with it).  It is read from lifetime totals the shard
            keeps up to date, so a snapshot costs O(residents) however
            long the shard has run.
        miss_rate: Aggregate miss rate over the same records.
        events_recorded: Inspection events appended to the shard's
            ring buffer over its lifetime.
        events_dropped: Events the bounded ring had to overwrite
            (0 means the stream is complete and replayable).
    """

    shard: int
    now: int
    segments: int
    residents: tuple[TenantResidency, ...]
    free_columns: int
    admitted: int
    rejected: int
    departed: int
    migrations_in: int
    migrations_out: int
    tint_rewrites: int
    queue_depth: int
    cpi: float
    miss_rate: float
    events_recorded: int = 0
    events_dropped: int = 0

    @property
    def occupancy(self) -> int:
        """Columns currently granted across residents."""
        return sum(row.columns for row in self.residents)

    def as_dict(self) -> dict[str, Any]:
        """Structured, JSON-serializable export."""
        return {
            "shard": self.shard,
            "now": self.now,
            "segments": self.segments,
            "residents": [
                {
                    "name": row.name,
                    "priority": row.priority,
                    "columns": row.columns,
                    "instructions": row.instructions,
                    "miss_rate": row.miss_rate,
                    "cpi": row.cpi,
                }
                for row in self.residents
            ],
            "free_columns": self.free_columns,
            "occupancy": self.occupancy,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "departed": self.departed,
            "migrations_in": self.migrations_in,
            "migrations_out": self.migrations_out,
            "tint_rewrites": self.tint_rewrites,
            "queue_depth": self.queue_depth,
            "cpi": self.cpi,
            "miss_rate": self.miss_rate,
            "events_recorded": self.events_recorded,
            "events_dropped": self.events_dropped,
        }


@dataclass(frozen=True)
class ServiceSnapshot:
    """The whole fleet service at one instant.

    Attributes:
        shards: Per-shard snapshots, shard order.
        migrations: Tenants moved by the hotspot monitor so far.
    """

    shards: tuple[ShardSnapshot, ...]
    migrations: int

    @property
    def residents(self) -> int:
        """Tenants resident across all shards."""
        return sum(len(shard.residents) for shard in self.shards)

    @property
    def imbalance(self) -> float:
        """Max/mean resident-count ratio across shards (1.0 = even).

        The hotspot monitor's trigger signal: a shard whose resident
        load is far above the mean is a hotspot.
        """
        counts = [len(shard.residents) for shard in self.shards]
        if not counts or sum(counts) == 0:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean

    def as_dict(self) -> dict[str, Any]:
        """Structured, JSON-serializable export."""
        return {
            "shards": [shard.as_dict() for shard in self.shards],
            "residents": self.residents,
            "imbalance": self.imbalance,
            "migrations": self.migrations,
        }
