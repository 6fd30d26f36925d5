"""The end-to-end static data-layout algorithm (paper Section 3.1).

:class:`DataLayoutPlanner` chains the pipeline:

1. split oversized arrays into column-sized subarrays;
2. profile the trace against the split units (attribution by address);
3. pre-assign forced + high-benefit units to the ``p`` scratchpad
   columns (Section 3.1.3), honoring the one-to-one per-set packing
   constraint that scratchpad emulation requires;
4. build the conflict graph over the remaining units and color it with
   ``k - p`` colors via exact coloring + min-weight-edge merging;
5. emit a :class:`~repro.layout.assignment.ColumnAssignment`.

The ``weight_metric`` and ``merge_strategy`` knobs exist for the
ablation benches; the defaults are the paper's choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.layout.assignment import (
    ColumnAssignment,
    Disposition,
    VariablePlacement,
)
from repro.layout.backends import available_backends, get_backend
from repro.layout.coloring import DEFAULT_NODE_BUDGET
from repro.layout.graph import ConflictGraph
from repro.layout.merge import merge_ladder
from repro.layout.partition import split_for_columns
from repro.mem.symbols import SymbolTable, Variable
from repro.profiling.profiler import Profile, ProfileLike, profile_trace
from repro.utils.bitvector import ColumnMask
from repro.utils.validation import check_positive
from repro.workloads.base import WorkloadRun


@dataclass(frozen=True)
class LayoutConfig:
    """Parameters of the layout algorithm.

    Attributes:
        columns: Total columns k.
        column_bytes: Bytes per column (S).
        line_size: Cache-line size (for scratchpad set packing).
        scratchpad_columns: Columns p reserved as scratchpad; the
            remaining k - p are cache columns.
        forced_scratchpad: Variable names pre-assigned to scratchpad
            (paper Section 3.1.3); an error if they do not fit.
        split_oversized: Apply the Step-1 splitting.
        pin_subarrays: False (the paper's model) pins only *whole*
            variables in scratchpad — "a data structure that does not
            fit in the scratchpad ... cannot be assigned to the
            scratchpad" (Section 1.1).  True enables our extension of
            pinning individual column-sized subarrays.
        weight_metric: "min" (paper), "sum", or "unweighted" (ablation).
        merge_strategy: "exact" (paper), "greedy", or "random".
        backend: Which layout-search engine colors the conflict graph
            (see :mod:`repro.layout.backends`): "paper" (Section
            3.1.2, the default), "beam", or "evolutionary".
        beam_width: Surviving states per step of the beam backend.
        evolution_population / evolution_generations: Genome pool size
            and generation count of the evolutionary backend.
        exact_node_budget: Search-node budget per exact-coloring
            attempt; on exhaustion the paper backend degrades to
            greedy DSATUR with a warning instead of hanging.
        widen_partitions: When the coloring uses fewer colors than the
            available cache columns, hand the spare columns to the
            busiest partitions (the paper's "aggregating columns into
            partitions, we can provide set-associativity within
            partitions as well as increase the size of partitions").
            Off by default — footnote 2 restricts the paper's own
            experiments to single columns.
        seed: Seed for stochastic strategies.
    """

    columns: int
    column_bytes: int
    line_size: int = 16
    scratchpad_columns: int = 0
    forced_scratchpad: tuple[str, ...] = ()
    split_oversized: bool = True
    pin_subarrays: bool = False
    weight_metric: str = "min"
    merge_strategy: str = "exact"
    widen_partitions: bool = False
    seed: int = 0
    backend: str = "paper"
    beam_width: int = 8
    evolution_population: int = 32
    evolution_generations: int = 60
    exact_node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        check_positive(self.columns, "columns")
        check_positive(self.column_bytes, "column_bytes")
        if not 0 <= self.scratchpad_columns <= self.columns:
            raise ValueError(
                f"scratchpad_columns must be in [0, {self.columns}], "
                f"got {self.scratchpad_columns}"
            )
        if self.weight_metric not in ("min", "sum", "unweighted"):
            raise ValueError(
                f"unknown weight metric {self.weight_metric!r}"
            )
        if self.backend not in available_backends():
            raise ValueError(
                f"unknown planner backend {self.backend!r}; "
                f"choose from {available_backends()}"
            )

    @property
    def sets(self) -> int:
        """Sets per column (``column_bytes // line_size``).

        The canonical cache-geometry vocabulary is ``columns`` /
        ``sets`` / ``line_size`` (see
        :class:`~repro.cache.geometry.CacheGeometry`); the layout
        algorithm natively thinks in per-column bytes (the paper's S),
        so this derived accessor bridges the two.
        """
        return self.column_bytes // self.line_size

    @property
    def cache_columns(self) -> int:
        """Columns available for normal caching (k - p)."""
        return self.columns - self.scratchpad_columns

    @property
    def scratchpad_mask(self) -> ColumnMask:
        """Scratchpad occupies the high-numbered columns."""
        return ColumnMask.contiguous(
            self.cache_columns, self.scratchpad_columns, self.columns
        )


def _accessed_units(
    profile: ProfileLike, units: SymbolTable
) -> list[Variable]:
    """The profiled layout units in base-address order.

    This order is the conflict graph's vertex order, which exact
    coloring's ties break by.  Every profiled variable must be a unit
    in ``units``: a name mismatch (e.g. a whole-variable profile
    against split units) would silently produce an empty layout, so
    it is an error.
    """
    missing = sorted(
        name
        for name, stats in profile.variables.items()
        if stats.access_count > 0 and name not in units
    )
    if missing:
        raise ValueError(
            f"profiled variables {missing} are not layout units; "
            "profile the trace against the same (split) symbol "
            "table the planner uses"
        )
    accessed = [
        units.get(name) for name in profile.variables if name in units
    ]
    accessed.sort(key=lambda unit: unit.base)
    return accessed


def predicted_costs(
    profile: ProfileLike,
    units: SymbolTable,
    cache_columns: Sequence[int],
) -> list[int]:
    """The planner's predicted conflict cost W for each column count.

    Entry ``i`` is the ``predicted_cost`` that
    :meth:`DataLayoutPlanner.plan_from_profile` reports for a default
    :class:`LayoutConfig` with ``cache_columns[i]`` columns — the
    paper's MIN weights, exact coloring with merging, no scratchpad —
    from one conflict graph and one
    :func:`~repro.layout.merge.merge_ladder` pass over every count,
    with no plan built.
    """
    accessed = _accessed_units(profile, units)
    if not accessed:
        return [0] * len(cache_columns)
    graph = ConflictGraph.from_profile(
        profile, variables=[unit.name for unit in accessed]
    )
    results = merge_ladder(graph, cache_columns)
    return [results[columns].cost for columns in cache_columns]


class _ScratchpadPacker:
    """Tracks per-set slot usage in the scratchpad columns.

    With p scratchpad columns each cache set offers p pinned-line
    slots; a unit is packable only if, for every set, the lines it adds
    keep the count within p (otherwise pinned lines would evict each
    other and the region stops being scratchpad).
    """

    def __init__(self, sets: int, line_size: int, slots: int):
        self.sets = sets
        self.line_size = line_size
        self.slots = slots
        self._used = [0] * max(sets, 1)

    def _set_counts(self, variable: Variable) -> dict[int, int]:
        counts: dict[int, int] = {}
        for line_base in variable.range.lines(self.line_size):
            set_index = (line_base // self.line_size) % self.sets
            counts[set_index] = counts.get(set_index, 0) + 1
        return counts

    def fits(self, variable: Variable) -> bool:
        """True if the unit can be pinned without slot overflow."""
        if self.slots == 0:
            return False
        return all(
            self._used[set_index] + count <= self.slots
            for set_index, count in self._set_counts(variable).items()
        )

    def add(self, variable: Variable) -> None:
        """Commit the unit's lines."""
        for set_index, count in self._set_counts(variable).items():
            self._used[set_index] += count


@dataclass
class DataLayoutPlanner:
    """Runs the complete static layout algorithm.

    ``graph_provider`` (optional) supplies conflict graphs instead of
    building them inline — the hook
    :class:`~repro.layout.session.PlannerSession` uses to serve
    repeated plans of identical phases from its content-addressed
    cache.  It is consulted only for the default MIN weight metric;
    ablation metrics always build their graphs directly.
    """

    config: LayoutConfig
    graph_provider: Optional[
        Callable[[ProfileLike, tuple[str, ...]], ConflictGraph]
    ] = None
    _last_merge_log: list[tuple[str, str, int]] = field(
        default_factory=list, init=False, repr=False
    )

    def _build_graph(
        self, profile: ProfileLike, names: list[str]
    ) -> ConflictGraph:
        """The conflict graph over ``names`` (provider-aware)."""
        weight_fn = self._weight_function(profile)
        if weight_fn is None and self.graph_provider is not None:
            return self.graph_provider(profile, tuple(names))
        return ConflictGraph.from_profile(
            profile, variables=names, weight_fn=weight_fn
        )

    def plan(self, run: WorkloadRun) -> ColumnAssignment:
        """Plan a layout for a recorded workload run."""
        symbols = run.memory_map.symbols
        units = (
            split_for_columns(symbols, self.config.column_bytes)
            if self.config.split_oversized
            else symbols
        )
        profile = profile_trace(run.trace, units, by_address=True)
        return self.plan_from_profile(profile, units)

    def plan_from_profile(
        self, profile: ProfileLike, units: SymbolTable
    ) -> ColumnAssignment:
        """Plan a layout from an existing profile of the layout units.

        Every profiled variable must be a unit in ``units`` (a
        ``ValueError`` names any that is not).
        """
        config = self.config
        accessed = _accessed_units(profile, units)
        pinned = self._select_scratchpad(profile, accessed)
        remaining = [
            unit for unit in accessed if unit.name not in pinned
        ]

        placements: dict[str, VariablePlacement] = {}
        scratchpad_mask = config.scratchpad_mask
        for name in pinned:
            placements[name] = VariablePlacement(
                variable=units.get(name),
                disposition=Disposition.SCRATCHPAD,
                mask=scratchpad_mask,
            )

        predicted_cost = 0
        merges: list[tuple[str, str, int]] = []
        if config.cache_columns == 0:
            for unit in remaining:
                placements[unit.name] = VariablePlacement(
                    variable=unit,
                    disposition=Disposition.UNCACHED,
                    mask=ColumnMask.none(config.columns),
                )
        elif remaining:
            graph = self._build_graph(
                profile, [unit.name for unit in remaining]
            )
            result = get_backend(config.backend).solve(
                graph, config.cache_columns, config
            )
            predicted_cost = result.cost
            merges = result.merges
            color_columns = self._columns_per_color(
                profile, remaining, result.assignment
            )
            for unit in remaining:
                color = result.assignment[unit.name]
                placements[unit.name] = VariablePlacement(
                    variable=unit,
                    disposition=Disposition.CACHED,
                    mask=ColumnMask.from_columns(
                        color_columns[color], width=config.columns
                    ),
                )

        return ColumnAssignment(
            columns=config.columns,
            column_bytes=config.column_bytes,
            line_size=config.line_size,
            scratchpad_mask=scratchpad_mask,
            placements=placements,
            layout_symbols=units,
            predicted_cost=predicted_cost,
            merges=merges,
        )

    # ------------------------------------------------------------------
    # Partition widening (Section 2.2 aggregation; optional)
    # ------------------------------------------------------------------
    def _columns_per_color(
        self,
        profile: ProfileLike,
        remaining: list[Variable],
        assignment: dict[str, int],
    ) -> dict[int, list[int]]:
        """Map each color to its cache column(s).

        Color i starts with column i.  With ``widen_partitions`` on,
        spare columns go one at a time to the partition with the most
        accesses per column — growing both its capacity and its
        associativity, per the paper's aggregation remark.
        """
        config = self.config
        colors = sorted(set(assignment.values()))
        columns: dict[int, list[int]] = {
            color: [index] for index, color in enumerate(colors)
        }
        spare = list(range(len(colors), config.cache_columns))
        if not config.widen_partitions or not spare:
            return columns
        accesses: dict[int, int] = {color: 0 for color in colors}
        for unit in remaining:
            accesses[assignment[unit.name]] += profile.variables[
                unit.name
            ].access_count
        for column in spare:
            busiest = max(
                colors,
                key=lambda color: accesses[color] / len(columns[color]),
            )
            columns[busiest].append(column)
        return columns

    # ------------------------------------------------------------------
    # Scratchpad selection (Section 3.1.3 + benefit-driven packing)
    # ------------------------------------------------------------------
    def _select_scratchpad(
        self, profile: ProfileLike, accessed: list[Variable]
    ) -> set[str]:
        config = self.config
        if config.scratchpad_columns == 0:
            if config.forced_scratchpad:
                raise ValueError(
                    "forced_scratchpad given but scratchpad_columns is 0"
                )
            return set()
        sets = config.column_bytes // config.line_size
        packer = _ScratchpadPacker(
            sets=sets,
            line_size=config.line_size,
            slots=config.scratchpad_columns,
        )

        # Pinning granularity: whole variables (paper), where a split
        # variable's subarrays form one all-or-nothing group; or
        # individual subarrays (our extension).
        groups: dict[str, list[Variable]] = {}
        for unit in accessed:
            if config.pin_subarrays:
                key = unit.name
            else:
                key = unit.parent or unit.name
            groups.setdefault(key, []).append(unit)

        def group_fits(units: list[Variable]) -> bool:
            probe = _ScratchpadPacker(
                sets=sets,
                line_size=config.line_size,
                slots=config.scratchpad_columns,
            )
            probe._used = list(packer._used)
            for unit in units:
                if not probe.fits(unit):
                    return False
                probe.add(unit)
            return True

        def commit(units: list[Variable]) -> None:
            for unit in units:
                packer.add(unit)
                pinned.update(unit.name for unit in units)

        def group_density(units: list[Variable]) -> float:
            accesses = sum(
                profile.variables[unit.name].access_count for unit in units
            )
            size = sum(unit.size for unit in units)
            return accesses / size if size else 0.0

        pinned: set[str] = set()
        for name in config.forced_scratchpad:
            if name not in groups:
                raise KeyError(
                    f"forced scratchpad variable {name!r} is not an "
                    "accessed layout unit or variable"
                )
            if not group_fits(groups[name]):
                raise ValueError(
                    f"forced scratchpad variable {name!r} does not fit "
                    f"the {config.scratchpad_columns} scratchpad columns"
                )
            commit(groups[name])

        # Benefit-driven fill: highest access density first (the same
        # criterion Panda et al. use for scratchpad allocation).
        candidates = sorted(
            (
                (key, units)
                for key, units in groups.items()
                if not any(unit.name in pinned for unit in units)
            ),
            key=lambda item: (-group_density(item[1]), item[0]),
        )
        for _, units in candidates:
            if group_density(units) <= 0.0:
                continue
            if group_fits(units):
                commit(units)
        return pinned

    # ------------------------------------------------------------------
    # Weight metrics (ablation)
    # ------------------------------------------------------------------
    def _weight_function(
        self, profile: ProfileLike
    ) -> Optional[Callable[[str, str], int]]:
        metric = self.config.weight_metric
        if metric == "min":
            return None  # the profile's own MIN rule

        def overlap_counts(first: str, second: str):
            stats_a = profile.variables[first]
            stats_b = profile.variables[second]
            overlap = stats_a.lifetime.intersection(stats_b.lifetime)
            if overlap is None:
                return None

            def count(stats) -> float:
                if len(stats.positions):
                    return stats.accesses_in(overlap)
                if stats.lifetime.length == 0:
                    return 0.0
                return (
                    stats.access_count
                    * overlap.length
                    / stats.lifetime.length
                )

            return count(stats_a), count(stats_b)

        if metric == "sum":

            def weigh_sum(first: str, second: str) -> int:
                counts = overlap_counts(first, second)
                if counts is None:
                    return 0
                return int(round(counts[0] + counts[1]))

            return weigh_sum

        def weigh_flat(first: str, second: str) -> int:
            counts = overlap_counts(first, second)
            if counts is None or (counts[0] == 0 and counts[1] == 0):
                return 0
            return 1

        return weigh_flat


def plan_layout(
    run: WorkloadRun,
    columns: int,
    column_bytes: int,
    scratchpad_columns: int = 0,
    **kwargs,
) -> ColumnAssignment:
    """Convenience one-call planner.

    Call as ``plan_layout(run, columns=4, column_bytes=512)``.
    """
    config = LayoutConfig(
        columns=columns,
        column_bytes=column_bytes,
        scratchpad_columns=scratchpad_columns,
        **kwargs,
    )
    return DataLayoutPlanner(config).plan(run)
