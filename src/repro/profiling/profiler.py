"""Trace profiling: per-variable access statistics.

:func:`profile_trace` turns a recorded trace into a :class:`Profile`:
per-variable access counts, read/write splits, lifetimes and sorted
access-position arrays (the raw material for the conflict weights of
Section 3.1.1).

Accesses can be attributed two ways:

* by the **variable labels** carried in the trace (the default — this
  is what the instrumented workloads provide); or
* by **address**, against a supplied symbol table
  (``by_address=True``) — needed after variables have been *split* into
  column-sized subarrays, because the trace labels still name the
  original arrays.

The profiler is columnar end to end: attribution is one vectorized
``searchsorted`` pass over the address column, per-variable position
arrays come from one stable argsort of the owner column split at group
boundaries, and :meth:`Profile.weight_matrix` evaluates *all* pairwise
conflict weights in one vectorized pass (:meth:`Profile.pair_weight`
gives one pair).  Each :class:`VariableProfile` carries the variable's
lifetime, the interval between its first and last access.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.mem.symbols import SymbolTable, VariableKind
from repro.trace.trace import Trace
from repro.utils.intervals import Interval

#: Warn when more than this fraction of a by-address profile's
#: accesses fall outside every symbol range.
UNATTRIBUTED_WARN_FRACTION = 0.01


@dataclass(frozen=True)
class VariableProfile:
    """Measured statistics of one variable.

    Attributes:
        name: Variable name.
        size: Footprint in bytes.
        element_size: Element size in bytes.
        kind: Scalar or array.
        access_count: Total traced accesses.
        read_count / write_count: Split by direction.
        lifetime: Half-open interval of trace positions.
        positions: Sorted array of this variable's trace positions.
    """

    name: str
    size: int
    element_size: int
    kind: VariableKind
    access_count: int
    read_count: int
    write_count: int
    lifetime: Interval
    positions: np.ndarray

    @property
    def density(self) -> float:
        """Accesses per byte — the scratchpad-benefit metric."""
        if self.size == 0:
            return 0.0
        return self.access_count / self.size

    def accesses_in(self, interval: Interval) -> int:
        """Number of this variable's accesses inside ``interval``."""
        left = int(np.searchsorted(self.positions, interval.start, "left"))
        right = int(np.searchsorted(self.positions, interval.stop, "left"))
        return right - left


@runtime_checkable
class ProfileLike(Protocol):
    """What the layout algorithm requires of a profile.

    Both the measured :class:`Profile` and the estimated
    :class:`~repro.profiling.static_analysis.StaticProfile` satisfy it.
    """

    @property
    def variables(self) -> dict[str, VariableProfile]:
        """Per-variable statistics."""
        ...

    def pair_weight(self, first: str, second: str) -> int:
        """The conflict weight w(first, second)."""
        ...


@dataclass
class Profile:
    """A full profile of one trace.

    Attributes:
        trace_name: Name of the profiled trace.
        total_accesses: Number of accesses in the trace.
        total_instructions: Instructions (accesses plus gaps).
        variables: Per-variable statistics, keyed by name.
        unattributed: Accesses attributed to no variable — outside
            every symbol range under ``by_address=True``, or carrying
            no label otherwise.
    """

    trace_name: str
    total_accesses: int
    total_instructions: int
    variables: dict[str, VariableProfile]
    unattributed: int = 0

    def pair_weight(self, first: str, second: str) -> int:
        """Paper Section 3.1.1: ``w = MIN(n_j_i, n_i_j)``.

        Zero when lifetimes are disjoint; otherwise the smaller of the
        two variables' access counts inside the lifetime intersection.
        """
        profile_a = self.variables[first]
        profile_b = self.variables[second]
        overlap = profile_a.lifetime.intersection(profile_b.lifetime)
        if overlap is None:
            return 0
        return min(
            profile_a.accesses_in(overlap), profile_b.accesses_in(overlap)
        )

    def weight_matrix(self, names: Sequence[str]) -> np.ndarray:
        """All pairwise MIN-rule weights among ``names``, vectorized.

        Returns a symmetric ``(len(names), len(names))`` int64 matrix
        with ``matrix[i, j] == pair_weight(names[i], names[j])`` and a
        zero diagonal, computed in one pass: lifetime endpoints form
        the only position thresholds any pair can query, so one
        ``searchsorted`` of each variable's position column against
        the shared endpoint vector yields every windowed access count
        at once.  Bit-identical to the pairwise loop by construction
        (same ``searchsorted`` queries, integer arithmetic only).
        """
        stats = [self.variables[name] for name in names]
        count = len(stats)
        if count < 2:
            return np.zeros((count, count), dtype=np.int64)
        starts = np.array(
            [entry.lifetime.start for entry in stats], dtype=np.int64
        )
        stops = np.array(
            [entry.lifetime.stop for entry in stats], dtype=np.int64
        )
        bounds = np.unique(np.concatenate((starts, stops)))
        # cumulative[i, b] = accesses of variable i before bounds[b].
        cumulative = np.empty((count, len(bounds)), dtype=np.int64)
        for index, entry in enumerate(stats):
            cumulative[index] = np.searchsorted(
                entry.positions, bounds, side="left"
            )
        overlap_start = np.maximum.outer(starts, starts)
        overlap_stop = np.minimum.outer(stops, stops)
        start_index = np.searchsorted(bounds, overlap_start)
        stop_index = np.searchsorted(bounds, overlap_stop)
        rows = np.arange(count)[:, None]
        in_overlap = (
            cumulative[rows, stop_index] - cumulative[rows, start_index]
        )
        weights = np.minimum(in_overlap, in_overlap.T)
        weights[overlap_start >= overlap_stop] = 0
        np.fill_diagonal(weights, 0)
        return weights

    def arrays(self) -> list[VariableProfile]:
        """Array-variable profiles, heaviest first."""
        return sorted(
            (
                profile
                for profile in self.variables.values()
                if profile.kind is VariableKind.ARRAY
            ),
            key=lambda profile: profile.access_count,
            reverse=True,
        )

    def scalars(self) -> list[VariableProfile]:
        """Scalar-variable profiles, heaviest first."""
        return sorted(
            (
                profile
                for profile in self.variables.values()
                if profile.kind is VariableKind.SCALAR
            ),
            key=lambda profile: profile.access_count,
            reverse=True,
        )

    def heavily_accessed(self, top: int = 10) -> list[VariableProfile]:
        """The ``top`` most-accessed variables (the paper's Step 1)."""
        ordered = sorted(
            self.variables.values(),
            key=lambda profile: profile.access_count,
            reverse=True,
        )
        return ordered[:top]


def _attribute_by_address(
    trace: Trace, symbols: SymbolTable
) -> np.ndarray:
    """Variable index per access, resolved by address (-1 = none).

    Vectorized interval lookup: variables are non-overlapping and
    sorted, so ``searchsorted`` against their base addresses plus an
    end-bound check resolves every access at once.
    """
    ordered = list(symbols)
    bases = np.array([variable.base for variable in ordered], dtype=np.int64)
    ends = np.array([variable.range.end for variable in ordered], dtype=np.int64)
    slot = np.searchsorted(bases, trace.addresses, side="right") - 1
    valid = slot >= 0
    clipped = np.clip(slot, 0, len(ordered) - 1)
    inside = valid & (trace.addresses < ends[clipped])
    return np.where(inside, clipped, -1)


def _grouped_positions(
    owner: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-owner position arrays from one stable argsort.

    ``owner`` holds one variable index per trace position (negative =
    unattributed).  Returns the ascending owner indices that actually
    occur plus, aligned with them, each owner's sorted position array —
    the bulk equivalent of one ``flatnonzero(owner == index)`` scan per
    variable.  Positions within a group are ascending because the sort
    is stable over an already-ascending position order.
    """
    order = np.argsort(owner, kind="stable")
    sorted_owner = owner[order]
    first = int(np.searchsorted(sorted_owner, 0, side="left"))
    attributed_owner = sorted_owner[first:]
    attributed_positions = order[first:]
    if len(attributed_owner) == 0:
        return np.empty(0, dtype=np.int64), []
    boundaries = np.flatnonzero(np.diff(attributed_owner)) + 1
    groups = np.split(attributed_positions, boundaries)
    group_owners = attributed_owner[
        np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
    ]
    return group_owners, groups


def _variable_entry(
    name: str,
    positions: np.ndarray,
    trace: Trace,
    size: int,
    element_size: int,
    kind: VariableKind,
) -> VariableProfile:
    """One variable's stats from its (ascending) position array."""
    write_count = int(trace.writes[positions].sum())
    return VariableProfile(
        name=name,
        size=size,
        element_size=element_size,
        kind=kind,
        access_count=len(positions),
        read_count=len(positions) - write_count,
        write_count=write_count,
        lifetime=Interval(int(positions[0]), int(positions[-1]) + 1),
        positions=positions,
    )


def _label_stats(
    trace: Trace, symbols: Optional[SymbolTable], name: str, positions
) -> tuple[int, int, VariableKind]:
    """(size, element_size, kind) for a label-attributed variable."""
    if symbols is not None and name in symbols:
        placed = symbols.get(name)
        return placed.size, placed.element_size, placed.kind
    addresses = trace.addresses[positions]
    span = int(addresses.max() - addresses.min())
    return max(span + 1, 1), 1, VariableKind.ARRAY


def _maybe_warn_unattributed(
    trace: Trace, by_address: bool, unattributed: int
) -> None:
    """Warn when a by-address profile drops a visible access share."""
    if not by_address or len(trace) == 0:
        return
    fraction = unattributed / len(trace)
    if fraction > UNATTRIBUTED_WARN_FRACTION:
        warnings.warn(
            f"profile of {trace.name!r}: {unattributed} of "
            f"{len(trace)} accesses ({fraction:.1%}) fall outside "
            "every symbol range and are unattributed",
            RuntimeWarning,
            stacklevel=3,
        )


def profile_trace(
    trace: Trace,
    symbols: Optional[SymbolTable] = None,
    by_address: bool = False,
) -> Profile:
    """Profile a trace into per-variable statistics (vectorized).

    Args:
        trace: The recorded reference stream.
        symbols: Symbol table supplying sizes (and, with
            ``by_address=True``, the attribution targets).
        by_address: Attribute accesses by address against ``symbols``
            instead of by the trace's variable labels.

    Accesses that match no variable are counted in
    :attr:`Profile.unattributed`; a by-address profile warns when that
    fraction exceeds :data:`UNATTRIBUTED_WARN_FRACTION`.
    """
    if by_address and symbols is None:
        raise ValueError("by_address attribution requires a symbol table")

    variables: dict[str, VariableProfile] = {}
    if by_address:
        assert symbols is not None
        ordered = list(symbols)
        owner = _attribute_by_address(trace, symbols)
        group_owners, groups = _grouped_positions(owner)
        for index, positions in zip(group_owners.tolist(), groups):
            variable = ordered[index]
            variables[variable.name] = _variable_entry(
                variable.name,
                positions,
                trace,
                variable.size,
                variable.element_size,
                variable.kind,
            )
    else:
        group_owners, groups = _grouped_positions(trace.variable_ids)
        for index, positions in zip(group_owners.tolist(), groups):
            name = trace.variable_names[index]
            size, element_size, kind = _label_stats(
                trace, symbols, name, positions
            )
            variables[name] = _variable_entry(
                name, positions, trace, size, element_size, kind
            )

    unattributed = len(trace) - sum(
        entry.access_count for entry in variables.values()
    )
    _maybe_warn_unattributed(trace, by_address, unattributed)
    return Profile(
        trace_name=trace.name,
        total_accesses=len(trace),
        total_instructions=trace.instruction_count,
        variables=variables,
        unattributed=unattributed,
    )
