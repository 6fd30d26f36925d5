"""The multi-tenant column broker: admission, reclamation, re-grant.

The broker owns the cache's columns and keeps every admitted tenant on
a **disjoint** subset of them — the paper's multitasking isolation
property (Section 4.2), made dynamic.  Three mechanisms:

* **Benefit-aware sizing.**  On admission (and on phase change) a
  tenant's trace window is simulated solo once for its misses at
  every candidate grant size ``c``; where they fall, the window is
  also profiled and the layout planner's predicted conflict cost
  ``W(c)`` priced for every ``c`` by one contraction pass
  (:func:`~repro.layout.algorithm.predicted_costs`, the paper's
  merging heuristic walked once for all ``c``).  Both curves form a
  demand curve, whose marginal benefits are priced once, when it is
  built.  Columns are granted greedily, as grant bits, to the tenant
  with the highest ``priority x marginal-benefit`` until all columns
  are placed — so a low-value tenant never holds a column a
  high-value tenant would use better (the prioritized-reclamation
  idea of the GC literature, applied to columns).

* **Priority-aware reclamation.**  Arrivals and departures rerun the
  same greedy allocation over the resident set; a tenant whose
  priority-weighted marginal benefit no longer justifies its grant
  has columns *reclaimed* and re-granted.  Reclaiming a cache column
  is graceful by construction: resident lines stay findable, only the
  replacement mask changes.

* **Tint rewrites.**  Every tenant's grant is realized as one tint in
  a real :class:`~repro.mem.tint.TintTable` (``tenant:<name>``); a
  re-grant is a tint rewrite priced at
  ``timing.remap_tint_cycles`` — the same remap-cost model the
  phase-adaptive runtime uses
  (:meth:`~repro.runtime.policy.RepartitionPolicy.remap_cost_cycles`).

Admission fails only when the column budget is exhausted: every
resident tenant needs at least one exclusive column, so the
``columns + 1``-th concurrent tenant is rejected (the executor reports
it as :attr:`~repro.fleet.tenant.TenantStatus.REJECTED`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.layout.algorithm import predicted_costs
from repro.layout.partition import split_for_columns
from repro.layout.session import (
    PlannerSession,
    trace_digest,
    units_digest,
)
from repro.mem.tint import TintTable
from repro.profiling.profiler import profile_trace
from repro.sim.config import TimingConfig
from repro.sim.engine.batched import LockstepState, lockstep_run
from repro.trace.filters import concatenate
from repro.utils.bitvector import ColumnMask
from repro.workloads.base import WorkloadRun

#: Accesses profiled per demand-curve estimate (bounds planner cost).
DEFAULT_PROFILE_ACCESSES = 8192

#: A probe's window: ``[start, stop)`` slices of its run's trace, in
#: execution order, or None for the trace's prefix.
Slices = Optional[Sequence[tuple[int, int]]]

class FleetAdmissionError(Exception):
    """Raised when a tenant cannot be admitted (no free columns)."""


@dataclass(frozen=True)
class ColumnDemand:
    """A tenant's estimated value of holding columns.

    Two curves over grant sizes ``c = 1..columns``, both "lower is
    better" and non-increasing in ``c``:

    Attributes:
        plan_costs: The layout planner's predicted conflict cost W
            when the tenant's working set is planned into ``c``
            columns (conflicting accesses); None when the measured
            curve is flat, as every marginal benefit is then 0.
        measured_costs: Misses actually observed when the profiled
            trace window is simulated solo in a ``c``-column cache
            (every ``c`` read off one pass's LRU stack depths).
        benefits: ``benefits[c]``, for ``c`` in ``2..columns``, is
            :meth:`marginal_benefit` at ``c``, priced once on
            construction (``benefits[0]`` and ``benefits[1]`` are 0).

    The planner's W is a *structural* signal — it sees which units
    fight for sets — but it does not model capacity: a scan whose
    reuse distance exceeds any grant still shows falling W as units
    spread out.  The measured curve knows capacity but nothing else.
    A marginal benefit is the measured step, lowered to W's where it
    is positive (both clamped at 0): a column is valued only when the
    plan and the measurement agree it would turn misses into hits.
    """

    plan_costs: Optional[tuple[int, ...]]
    measured_costs: tuple[int, ...]
    benefits: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        measured, plan = self.measured_costs, self.plan_costs
        benefits = [0, 0]
        for c in range(2, len(measured) + 1):
            step = max(measured[c - 2] - measured[c - 1], 0)
            if step:
                step = min(max(plan[c - 2] - plan[c - 1], 0), step)
            benefits.append(step)
        object.__setattr__(self, "benefits", tuple(benefits))

    def cost(self, columns: int) -> int:
        """The measured solo miss count at a grant of ``columns``."""
        if columns < 1:
            raise ValueError(f"columns must be >= 1, got {columns}")
        return self.measured_costs[
            min(columns, len(self.measured_costs)) - 1
        ]

    def marginal_benefit(self, columns: int) -> int:
        """Misses avoided by growing the grant from ``columns - 1``
        to ``columns`` — the minimum of the planner's and the
        measured estimate (clamped at 0)."""
        if columns <= 1:
            raise ValueError("the first column is mandatory, not marginal")
        return self.benefits[min(columns, len(self.benefits) - 1)]


def _clip(slices: Slices, length: int, limit: int) -> tuple:
    """The first ``limit`` accesses of ``slices`` (None: of the first
    ``length``), empty pieces dropped and adjacent ones merged."""
    pieces: list[tuple[int, int]] = []
    for start, stop in [(0, length)] if slices is None else slices:
        stop = min(stop, start + limit)
        if stop > start:
            limit -= stop - start
            if pieces and pieces[-1][1] == start:
                start = pieces.pop()[0]
            pieces.append((start, stop))
    return tuple(pieces)


def solo_misses(
    windows: Sequence[np.ndarray], geometry: CacheGeometry
) -> np.ndarray:
    """``[i, c - 1]``: misses of block window ``i`` in a cold ``c``-way
    cache with ``geometry``'s sets, for ``c`` in ``1..columns``.

    Every window runs once, as its own cold full-width bank of rows.
    A ``c``-way LRU set holds the ``c`` most recently used lines of
    the full-width set (LRU is a stack algorithm; Mattson et al.,
    1970), so the accesses of stack depth ``>= c`` (a miss has depth
    ``columns``) are exactly the misses at ``c`` columns.
    """
    count, columns = len(windows), geometry.columns
    blocks = np.concatenate(windows)
    bank = np.repeat(
        np.arange(count, dtype=np.int64), [len(w) for w in windows]
    )
    depths = lockstep_run(
        (blocks & np.int64(geometry.sets - 1)) + bank * geometry.sets,
        blocks >> np.int64(geometry.index_bits),
        LockstepState.cold(count * geometry.sets, columns),
        collect="depths",
    )
    at_depth = np.bincount(
        bank * (columns + 1) + depths, minlength=count * (columns + 1)
    ).reshape(count, columns + 1)
    # Suffix sums: accesses of depth >= c, for c = columns .. 1.
    return np.cumsum(at_depth[:, ::-1], axis=1)[:, -2::-1]


def demand_curves(
    probes: Sequence[tuple[WorkloadRun, Slices]],
    geometry: CacheGeometry,
    profile_accesses: int = DEFAULT_PROFILE_ACCESSES,
    session: Optional[PlannerSession] = None,
) -> list[ColumnDemand]:
    """Estimate demand curves for a batch of prospective tenants.

    Every probe is a ``(run, slices)`` pair: ``slices=None`` profiles
    the run's trace prefix (the admission path), concrete slices the
    window that revealed a phase change; either is cut to its first
    ``profile_accesses`` accesses.  Curves are memoized on the session
    (:meth:`~repro.layout.session.PlannerSession.memo_batch`), one
    entry per probe, keyed by the run trace's digest (pinned on the
    trace), the clipped slices and the column units' digest (pinned on
    the symbol table), so a memo hit hashes, splits and builds nothing.

    Only cache-missing probes build their window.  A ``c``-column
    grant behaves exactly like a solo ``c``-way cache with the same
    sets, so their **measured** curves come first, from one kernel
    pass over full-width banks (:func:`solo_misses`).  Only a probe
    whose measured curve falls (``misses(1) > misses(columns)``) is
    profiled and has its **plan** curve ``W(1..columns)`` priced, by
    one :func:`~repro.layout.algorithm.predicted_costs` pass with no
    plan built; a flat one carries ``plan_costs=None``.

    Args:
        probes: ``(run, slices)`` pairs to price.
        geometry: The shared cache; ``c`` ranges over
            ``1..geometry.columns``.
        profile_accesses: Window bound per probe (keeps admission
            cost independent of trace length).
        session: Planner session the probes run through; re-probing an
            identical window (a recurring phase, or re-admission of
            the same workload) recomputes nothing.

    Returns:
        One :class:`ColumnDemand` per probe, in probe order.
    """
    session = session if session is not None else PlannerSession()
    columns = geometry.columns
    column_bytes = geometry.sets * geometry.line_size
    units_list = []
    spans = []
    keys = []
    for run, slices in probes:
        units = run.memory_map.symbols.derived(
            ("units", column_bytes),
            lambda table: split_for_columns(table, column_bytes),
        )
        span = _clip(slices, len(run.trace), profile_accesses)
        units_list.append(units)
        spans.append(span)
        keys.append(
            f"demand:{trace_digest(run.trace)}:{span}:"
            f"{units_digest(units)}:"
            f"{geometry.line_size}:{geometry.sets}:{columns}"
        )

    def compute(indices: list[int]) -> list[ColumnDemand]:
        traces = []
        for index in indices:
            trace = probes[index][0].trace
            pieces = [trace.slice(*piece) for piece in spans[index]]
            traces.append(
                pieces[0] if len(pieces) == 1 else concatenate(pieces)
            )
        misses = solo_misses(
            [trace.blocks_for(geometry.offset_bits) for trace in traces],
            geometry,
        )
        curves = []
        for trace, index, row in zip(traces, indices, misses):
            plan = None
            if row[0] > row[-1]:  # some measured step is positive
                units = units_list[index]
                profile = profile_trace(trace, units, by_address=True)
                plan = tuple(
                    predicted_costs(profile, units, range(1, columns + 1))
                )
            curves.append(ColumnDemand(plan, tuple(int(m) for m in row)))
        return curves

    return session.memo_batch(keys, compute)


def demand_curve(
    run: WorkloadRun,
    geometry: CacheGeometry,
    profile_accesses: int = DEFAULT_PROFILE_ACCESSES,
    slices: Slices = None,
    session: Optional[PlannerSession] = None,
) -> ColumnDemand:
    """Estimate one tenant's demand curve: plan costs + measured misses.

    The single-probe face of :func:`demand_curves`, whose arguments it
    takes (same memo keys, same kernel pass — a probe already primed
    by a batched call is a pure cache hit here).  ``slices=None``
    profiles the run's trace prefix; the phase-change path passes the
    ``[start, stop)`` slices that revealed the new phase.
    """
    return demand_curves(
        [(run, slices)], geometry, profile_accesses, session=session
    )[0]


@dataclass(frozen=True)
class TintRewrite:
    """One applied grant change (a tint-table write).

    Attributes:
        tenant: Whose tint was rewritten.
        mask: The new column mask.
        cycles: Cycles charged (``timing.remap_tint_cycles``).
        reason: What triggered the rebalance ("arrival", "departure",
            "phase", "admit").
    """

    tenant: str
    mask: ColumnMask
    cycles: int
    reason: str


class ColumnBroker:
    """Grants disjoint column sets to a dynamic tenant population.

    Args:
        geometry: The shared cache being brokered.
        timing: Prices tint rewrites (``remap_tint_cycles``) and
            column benefit (``miss_penalty`` per predicted conflict
            access avoided).
        profile_accesses: Trace-prefix bound for demand estimation.
        min_benefit_cycles: A phase-change rebalance is applied only
            when its predicted priority-weighted benefit exceeds the
            tint-rewrite cost by this margin (churn hysteresis);
            arrivals and departures always apply.
        session: Planner session the demand probes run through
            (default: a fresh one).  The fleet service passes one
            session to every shard's broker, so identical workloads
            admitted on *different* shards share one content-cached
            demand curve.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        timing: Optional[TimingConfig] = None,
        profile_accesses: int = DEFAULT_PROFILE_ACCESSES,
        min_benefit_cycles: int = 0,
        session: Optional[PlannerSession] = None,
    ):
        self.geometry = geometry
        self.timing = timing or TimingConfig()
        self.profile_accesses = profile_accesses
        self.min_benefit_cycles = min_benefit_cycles
        #: Shared planner session: demand probes across tenants,
        #: arrivals and phase changes are content-cached together.
        self.session = session if session is not None else PlannerSession()
        self.tint_table = TintTable(columns=geometry.columns)
        self.grants: dict[str, ColumnMask] = {}
        self.demands: dict[str, ColumnDemand] = {}
        self.priorities: dict[str, int] = {}
        self.rewrites: list[TintRewrite] = []
        self._order: list[str] = []  # admission order (stable ties)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resident(self) -> list[str]:
        """Admitted tenant names in admission order."""
        return list(self._order)

    def free_columns(self) -> ColumnMask:
        """Columns currently granted to nobody."""
        free = (1 << self.geometry.columns) - 1
        for grant in self.grants.values():
            free &= ~grant.bits
        return ColumnMask(free, self.geometry.columns)

    def grant_of(self, tenant: str) -> ColumnMask:
        """The tenant's current column mask."""
        return self.grants[tenant]

    def snapshot(self) -> "BrokerSnapshot":
        """Frozen ownership map: per-column owners, exact grants.

        The broker's live-inspection surface (see
        :class:`~repro.inspect.snapshots.BrokerSnapshot`): which
        tenant owns each column, every resident's exact mask bits and
        priority, and the rewrite-log length — plain data safe to
        export while the fleet runs.
        """
        from repro.inspect.snapshots import BrokerSnapshot

        return BrokerSnapshot.of(self)

    def check_disjoint(self) -> None:
        """Assert the disjointness invariant (used by the tests)."""
        seen = 0
        for name, grant in self.grants.items():
            bits = grant.bits
            if not bits:
                raise AssertionError(f"tenant {name!r} holds no columns")
            if seen & bits:
                raise AssertionError(
                    f"tenant {name!r} grant {grant.to_string()} "
                    "overlaps another tenant's columns"
                )
            seen |= bits

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def prime(self, runs: Sequence[WorkloadRun]) -> None:
        """Precompute demand curves for prospective tenants, batched.

        One :func:`demand_curves` call prices every not-yet-cached
        workload's candidate grant sizes in a single kernel pass and
        seeds the session cache, so the subsequent one-by-one
        :meth:`admit` decisions are pure cache hits.  Safe to call
        speculatively: a primed workload that is never admitted just
        leaves a warm cache entry.
        """
        if runs:
            demand_curves(
                [(run, None) for run in runs],
                self.geometry,
                self.profile_accesses,
                session=self.session,
            )

    def admit(
        self,
        name: str,
        run: WorkloadRun,
        priority: int = 1,
        slices: Slices = None,
    ) -> dict[str, int]:
        """Try to admit a tenant; returns per-tenant remap cycles.

        Raises :class:`FleetAdmissionError` when every column is
        already pledged to a resident tenant (each resident keeps at
        least one exclusive column, so there is nothing to reclaim).
        """
        if name in self.grants:
            raise ValueError(f"tenant {name!r} is already resident")
        if len(self._order) >= self.geometry.columns:
            raise FleetAdmissionError(
                f"no free columns: {len(self._order)} resident tenants "
                f"already hold all {self.geometry.columns} columns"
            )
        self.demands[name] = demand_curve(
            run,
            self.geometry,
            self.profile_accesses,
            slices=slices,
            session=self.session,
        )
        self.priorities[name] = priority
        self._order.append(name)
        return self._rebalance(reason="arrival", force=True)

    def depart(self, name: str) -> dict[str, int]:
        """Release a tenant's columns and re-grant them; returns
        per-tenant remap cycles for the survivors."""
        if name not in self.grants and name not in self._order:
            raise KeyError(f"tenant {name!r} is not resident")
        self._order.remove(name)
        self.grants.pop(name, None)
        self.demands.pop(name, None)
        self.priorities.pop(name, None)
        self.tint_table.remove(f"tenant:{name}")
        return self._rebalance(reason="departure", force=True)

    def refresh(
        self, name: str, run: WorkloadRun, slices: Slices
    ) -> dict[str, int]:
        """Phase change: re-estimate one tenant's demand and rebalance.

        The window that revealed the phase, the ``slices`` of the
        run's trace the segment ran, is profiled (the same move the
        adaptive runtime's
        :class:`~repro.runtime.policy.RepartitionPolicy` makes) and
        the global allocation is recomputed; it is applied only if the
        predicted benefit beats the tint-rewrite cost.
        """
        if name not in self.grants:
            raise KeyError(f"tenant {name!r} is not resident")
        self.demands[name] = demand_curve(
            run,
            self.geometry,
            self.profile_accesses,
            slices=slices,
            session=self.session,
        )
        return self._rebalance(reason="phase", force=False)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def _target_counts(self) -> list[int]:
        """Greedy priority-weighted waterfill of all columns.

        Every resident tenant gets one mandatory column; each spare
        column goes to the tenant whose next column has the highest
        ``priority x marginal-benefit``, ties broken by priority then
        admission order.  All columns are always placed — an idle
        column serves nobody.  Returns the counts in admission order.
        """
        penalty = self.timing.miss_penalty
        rows = [
            (self.priorities[name], self.demands[name].benefits)
            for name in self._order
        ]
        counts = [1] * len(rows)
        for _ in range(self.geometry.columns - len(rows)):
            best = -1
            best_key: tuple[int, int, int] = (-1, -1, 0)
            for index, (priority, benefits) in enumerate(rows):
                gain = priority * benefits[counts[index] + 1] * penalty
                key = (gain, priority, -index)
                if key > best_key:
                    best_key = key
                    best = index
            if best < 0:
                break
            counts[best] += 1
        return counts

    def _assign_columns(self, counts: list[int]) -> list[int]:
        """Target counts as grant bits, in admission order: each tenant
        keeps the ``count`` lowest columns of its grant (a stable
        assignment minimizes tint rewrites and keeps resident lines
        useful), then the growers take the lowest free columns."""
        free = (1 << self.geometry.columns) - 1
        kept = []
        for name, count in zip(self._order, counts):
            grant = self.grants.get(name)
            bits = grant.bits if grant is not None else 0
            if bits.bit_count() > count:
                bits = _lowest(bits, count)
            kept.append(bits)
            free &= ~bits
        for index, count in enumerate(counts):
            need = count - kept[index].bit_count()
            if need > 0:
                grab = _lowest(free, need)
                kept[index] |= grab
                free ^= grab
        return kept

    def _rebalance(self, reason: str, force: bool) -> dict[str, int]:
        """Recompute the allocation; install it if warranted.

        Returns tint-rewrite cycles charged per tenant (empty when the
        allocation is unchanged or not worth installing).
        """
        if not self._order:
            return {}
        new_bits = self._assign_columns(self._target_counts())
        changed = [
            (name, bits)
            for name, bits in zip(self._order, new_bits)
            if name not in self.grants or self.grants[name].bits != bits
        ]
        if not changed:
            return {}
        if not force and not self._worth_installing(new_bits, len(changed)):
            return {}
        charged: dict[str, int] = {}
        cycles = self.timing.remap_tint_cycles
        for name, bits in changed:
            mask = ColumnMask(bits, self.geometry.columns)
            self.grants[name] = mask
            self.tint_table.define_or_remap(f"tenant:{name}", mask)
            charged[name] = cycles
            self.rewrites.append(
                TintRewrite(
                    tenant=name, mask=mask, cycles=cycles, reason=reason
                )
            )
        self.check_disjoint()  # cheap, and the property is the point
        return charged

    def _worth_installing(self, new_bits: list[int], changed: int) -> bool:
        """The remap-benefit test for optional (phase) rebalances:
        predicted priority-weighted cycles saved must beat the
        tint-rewrite cost plus the hysteresis margin."""
        benefit = 0
        for name, bits in zip(self._order, new_bits):
            demand = self.demands[name]
            delta = demand.cost(self.grants[name].count()) - demand.cost(
                bits.bit_count()
            )
            benefit += (
                self.priorities[name] * delta * self.timing.miss_penalty
            )
        cost = changed * self.timing.remap_tint_cycles
        return benefit > cost + self.min_benefit_cycles


def _lowest(bits: int, count: int) -> int:
    """The ``count`` lowest set bits of ``bits`` (all if it has fewer)."""
    while bits.bit_count() > count:
        bits ^= 1 << (bits.bit_length() - 1)  # drop the highest
    return bits


class SharedPool:
    """The no-isolation baseline: every tenant gets the whole cache.

    Implements the broker interface (admit / depart / refresh /
    ``grants``) but grants every tenant the full column mask — the
    paper's "shared" multitasking configuration, where one tenant's
    working set freely evicts another's.  Admission is capped at
    ``max_tenants`` so comparisons against the real broker serve the
    same tenant population.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        timing: Optional[TimingConfig] = None,
        max_tenants: Optional[int] = None,
    ):
        self.geometry = geometry
        self.timing = timing or TimingConfig()
        self.max_tenants = (
            geometry.columns if max_tenants is None else max_tenants
        )
        self.grants: dict[str, ColumnMask] = {}
        self.rewrites: list[TintRewrite] = []
        self._order: list[str] = []

    @property
    def resident(self) -> list[str]:
        """Admitted tenant names in admission order."""
        return list(self._order)

    def admit(
        self,
        name: str,
        run: WorkloadRun,
        priority: int = 1,
        slices: Slices = None,
    ) -> dict[str, int]:
        """Admit up to ``max_tenants`` tenants onto the full mask."""
        if name in self.grants:
            raise ValueError(f"tenant {name!r} is already resident")
        if len(self._order) >= self.max_tenants:
            raise FleetAdmissionError(
                f"tenant cap reached ({self.max_tenants})"
            )
        self._order.append(name)
        self.grants[name] = ColumnMask.all_columns(self.geometry.columns)
        return {}

    def depart(self, name: str) -> dict[str, int]:
        """Remove a tenant (nothing to re-grant: nothing was split)."""
        self._order.remove(name)
        del self.grants[name]
        return {}

    def refresh(
        self, name: str, run: WorkloadRun, slices: Slices
    ) -> dict[str, int]:
        """Phase changes never repartition a shared cache."""
        return {}


class StaticEqualSplit:
    """The static baseline: a fixed equal share per tenant slot.

    Columns are pre-divided into ``slots`` equal contiguous blocks; an
    arriving tenant occupies any free block and keeps it, unchanged,
    until departure.  No benefit model, no reclamation — what
    per-tenant isolation costs when the partition cannot adapt.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        timing: Optional[TimingConfig] = None,
        slots: Optional[int] = None,
    ):
        self.geometry = geometry
        self.timing = timing or TimingConfig()
        columns = geometry.columns
        self.slots = slots if slots is not None else columns
        if not 1 <= self.slots <= columns:
            raise ValueError(
                f"slots must be in [1, {columns}], got {self.slots}"
            )
        size = columns // self.slots
        self._blocks = [
            ColumnMask.contiguous(slot * size, size, columns)
            for slot in range(self.slots)
        ]
        self._slot_of: dict[str, int] = {}
        self.grants: dict[str, ColumnMask] = {}
        self.rewrites: list[TintRewrite] = []
        self._order: list[str] = []

    @property
    def resident(self) -> list[str]:
        """Admitted tenant names in admission order."""
        return list(self._order)

    def admit(
        self,
        name: str,
        run: WorkloadRun,
        priority: int = 1,
        slices: Slices = None,
    ) -> dict[str, int]:
        """Occupy a free equal-split slot, or reject."""
        if name in self.grants:
            raise ValueError(f"tenant {name!r} is already resident")
        used = set(self._slot_of.values())
        free = [s for s in range(self.slots) if s not in used]
        if not free:
            raise FleetAdmissionError(
                f"all {self.slots} static slots are occupied"
            )
        slot = free[0]
        self._slot_of[name] = slot
        self._order.append(name)
        self.grants[name] = self._blocks[slot]
        self.rewrites.append(
            TintRewrite(
                tenant=name,
                mask=self._blocks[slot],
                cycles=self.timing.remap_tint_cycles,
                reason="arrival",
            )
        )
        return {name: self.timing.remap_tint_cycles}

    def depart(self, name: str) -> dict[str, int]:
        """Free the tenant's slot; nobody else is touched."""
        self._order.remove(name)
        del self.grants[name]
        del self._slot_of[name]
        return {}

    def refresh(
        self, name: str, run: WorkloadRun, slices: Slices
    ) -> dict[str, int]:
        """Phase changes never move a static partition."""
        return {}
