"""The planner session: content-addressed caching for profile→plan.

:class:`PlannerSession` is the planning stack's counterpart of the
sweep engine's result cache: every consumer that plans repeatedly —
the per-phase :class:`~repro.layout.dynamic.DynamicLayoutPlanner`, the
adaptive runtime's :class:`~repro.runtime.policy.RepartitionPolicy`,
the fleet broker's demand-curve probes — routes its work through one
session, keyed by the *content hash* of its inputs: profiling,
conflict graphs and plans by (trace window, layout units, config),
and any whole result through :meth:`PlannerSession.memo` /
:meth:`PlannerSession.memo_batch`.  A workload that revisits a phase,
or a broker that probes a window it has priced before (one
demand-curve entry per window), then recomputes nothing: identical
inputs are served from the session's bounded :class:`SessionMemo`.

The memo lives in memory only (profiles, graphs and assignments are
rich Python objects, not JSON) — sharing across processes stays the
sweep engine's job; the session kills redundant work *within* a
planning consumer's lifetime.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Optional, Sequence

from repro.layout.algorithm import DataLayoutPlanner, LayoutConfig
from repro.layout.assignment import ColumnAssignment
from repro.layout.graph import ConflictGraph
from repro.mem.symbols import SymbolTable
from repro.profiling.profiler import Profile, profile_trace
from repro.trace.trace import Trace

def trace_digest(trace: Trace) -> str:
    """Stable content digest of a trace's profiling-relevant columns,
    computed once per (immutable) trace object and pinned on it."""
    if trace._digest is None:
        digest = hashlib.sha256()
        digest.update(str(len(trace)).encode())
        for column in (
            trace.addresses,
            trace.writes,
            trace.gaps,
            trace.variable_ids,
        ):
            digest.update(column.tobytes())
        digest.update("\x00".join(trace.variable_names).encode())
        trace._digest = digest.hexdigest()
    return trace._digest


def units_digest(units: SymbolTable) -> str:
    """Stable content digest of a symbol table's layout units, pinned
    on the table until it gains a variable."""
    return units.derived(units_digest, _hash_units)


def _hash_units(units: SymbolTable) -> str:
    digest = hashlib.sha256()
    for variable in units:
        digest.update(
            f"{variable.name}:{variable.base}:{variable.size}:"
            f"{variable.element_size}:{variable.kind.value}\n".encode()
        )
    return digest.hexdigest()


def config_digest(config: LayoutConfig) -> str:
    """Stable content digest of a layout configuration.

    The digest is a sha256 of the configuration's sorted-key JSON, so
    equal configurations whose JSON differs (``seed=1`` and
    ``seed=True``) keep their own digests.  Every field is a plain
    value or a tuple of them, so the instance's own field dict renders
    the same JSON as ``dataclasses.asdict``, without its deep copy.
    """
    rendered = json.dumps(vars(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode()).hexdigest()


def profile_digest(profile: Profile) -> str:
    """Stable content digest of a measured profile."""
    digest = hashlib.sha256()
    digest.update(
        f"{profile.total_accesses}:{profile.total_instructions}:"
        f"{profile.unattributed}\n".encode()
    )
    for name, stats in profile.variables.items():
        digest.update(
            f"{name}:{stats.size}:{stats.element_size}:"
            f"{stats.kind.value}:{stats.write_count}:"
            f"{stats.lifetime.start}:{stats.lifetime.stop}\n".encode()
        )
        digest.update(stats.positions.tobytes())
    return digest.hexdigest()


#: Entries a session's memo keeps: long-running consumers (adaptive
#: policies, fleet brokers) see an unbounded stream of distinct
#: windows, so the LRU keeps only this many profile/graph/plan entries
#: alive.
DEFAULT_SESSION_ENTRIES = 512

#: Returned by :meth:`SessionMemo.get` on a miss (None is a valid value).
MISS = object()


class SessionMemo:
    """A bounded memo: past ``max_entries`` the least recently used
    entry goes."""

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: dict[str, Any] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Any:
        """The value under ``key``, now most recently used, or
        :data:`MISS`."""
        if key not in self._entries:
            self.misses += 1
            return MISS
        self.hits += 1
        value = self._entries.pop(key)
        self._entries[key] = value
        return value

    def put(self, key: str, value: Any) -> Any:
        """Store ``value`` under ``key``; returns it."""
        self._entries[key] = value
        if len(self._entries) > self.max_entries:
            del self._entries[next(iter(self._entries))]
        return value

    def __len__(self) -> int:
        return len(self._entries)


class PlannerSession:
    """Caches profiles, conflict graphs and plans by content hash.

    All three layers share one :class:`SessionMemo` of
    :data:`DEFAULT_SESSION_ENTRIES`.  A profile's digest is computed
    once and pinned on the profile object itself, so a profile → graph
    → plan chain hashes each input exactly once.
    """

    def __init__(self) -> None:
        self.cache = SessionMemo(DEFAULT_SESSION_ENTRIES)

    # ------------------------------------------------------------------
    # Digest bookkeeping
    # ------------------------------------------------------------------
    @staticmethod
    def _digest_of(profile: Profile) -> str:
        """The profile's content digest, computed once per object.

        Stored on the instance (not an id-keyed side table) so a
        garbage-collected profile can never leak its digest to a new
        object that reuses its address.
        """
        known = getattr(profile, "_session_digest", None)
        if known is None:
            known = profile_digest(profile)
            profile._session_digest = known
        return known

    def memo(self, key: str, compute: Callable[[], Any]) -> Any:
        """Generic content-addressed memoization on the session cache."""
        value = self.cache.get(key)
        if value is MISS:
            value = self.cache.put(key, compute())
        return value

    def memo_batch(
        self,
        keys: Sequence[str],
        compute: Callable[[list[int]], list[Any]],
    ) -> list[Any]:
        """Batched memoization: compute all missing keys in one call.

        Every key is looked up first; ``compute`` then receives the
        *indices* of the distinct missing keys (first-occurrence
        order) and must return one value per index.  The computed
        values are cached and the full value list returned in key
        order — so a consumer with a batchable kernel (the fleet
        broker's demand probes) pays one fused computation for all
        misses instead of one per key, while hits stay free.
        """
        values = [self.cache.get(key) for key in keys]
        missing: dict[str, int] = {}
        for index, key in enumerate(keys):
            if values[index] is MISS and key not in missing:
                missing[key] = index
        if missing:
            computed = compute(list(missing.values()))
            if len(computed) != len(missing):
                raise ValueError(
                    f"compute returned {len(computed)} values for "
                    f"{len(missing)} missing keys"
                )
            by_key = {
                key: self.cache.put(key, value)
                for key, value in zip(missing, computed)
            }
            values = [
                by_key[key] if value is MISS else value
                for key, value in zip(keys, values)
            ]
        return values

    # ------------------------------------------------------------------
    # The profile → graph → plan chain
    # ------------------------------------------------------------------
    def profile(
        self,
        trace: Trace,
        units: Optional[SymbolTable] = None,
        by_address: bool = False,
    ) -> Profile:
        """A (cached) profile of ``trace`` against ``units``."""
        key = (
            f"profile:{trace_digest(trace)}:"
            f"{units_digest(units) if units is not None else '-'}:"
            f"{int(by_address)}"
        )
        profile = self.cache.get(key)
        if profile is MISS:
            profile = profile_trace(trace, units, by_address=by_address)
            profile._session_digest = key
            self.cache.put(key, profile)
        return profile

    def graph(
        self, profile: Profile, names: tuple[str, ...]
    ) -> ConflictGraph:
        """A (cached) conflict graph over ``names``."""
        key = (
            f"graph:{self._digest_of(profile)}:"
            + "\x00".join(names)
        )
        return self.memo(
            key,
            lambda: ConflictGraph.from_profile(
                profile, variables=list(names)
            ),
        )

    def plan_from_profile(
        self,
        config: LayoutConfig,
        profile: Profile,
        units: SymbolTable,
    ) -> ColumnAssignment:
        """A (cached) column assignment for an existing profile."""
        key = (
            f"plan:{config_digest(config)}:"
            f"{self._digest_of(profile)}:{units_digest(units)}"
        )
        return self.memo(
            key,
            lambda: DataLayoutPlanner(
                config, graph_provider=self.graph
            ).plan_from_profile(profile, units),
        )

    def plan(
        self,
        config: LayoutConfig,
        trace: Trace,
        units: SymbolTable,
        by_address: bool = True,
    ) -> ColumnAssignment:
        """Profile ``trace`` and plan a layout, both content-cached."""
        profile = self.profile(trace, units, by_address=by_address)
        return self.plan_from_profile(config, profile, units)

    @property
    def stats(self) -> dict[str, int]:
        """Cache counters (hits include profile/graph/plan layers)."""
        return {
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "entries": len(self.cache),
        }
