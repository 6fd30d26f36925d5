"""The planner engine: vectorized profiling/graphs, backends, session.

Differential half: the vectorized :func:`profile_trace` and the
vectorized conflict-graph construction must be **bit-identical** to
the legacy per-variable / per-pair paths on every suite workload and
on Hypothesis-generated random workloads.

Engine half: every registered :class:`PlannerBackend` must emit a
structurally valid, constraint-respecting assignment; the evolutionary
backend (seeded with the paper solution) may never lose to the paper
backend on the W objective; the :class:`PlannerSession` must serve
repeated identical plans from its content-addressed cache; and the
exact-coloring node budget must degrade to greedy instead of hanging.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from repro.layout import (
    ColumnAssignment,
    ConflictGraph,
    DataLayoutPlanner,
    LayoutConfig,
    PlannerSession,
    available_backends,
    get_backend,
)
from repro.layout import session as session_module
from repro.layout.coloring import (
    ColoringBudgetExceeded,
    color_with_k,
    exact_coloring,
    greedy_coloring,
)
from repro.layout.merge import color_with_merging
from repro.layout.partition import split_for_columns
from repro.mem.address import AddressRange
from repro.mem.symbols import Variable
from repro.profiling.profiler import profile_trace
from repro.runtime.policy import RepartitionPolicy
from repro.trace.columnar import ColumnarRecorder
from strategies import random_workload, record_suite_case, suite_cases

from oracles.profiling import legacy_profile_trace

COLUMN_BYTES = 512


def assert_profiles_identical(vectorized, legacy) -> None:
    """Field-by-field bit-identity of two profiles."""
    assert list(vectorized.variables) == list(legacy.variables)
    assert vectorized.total_accesses == legacy.total_accesses
    assert vectorized.total_instructions == legacy.total_instructions
    assert vectorized.unattributed == legacy.unattributed
    for name in vectorized.variables:
        fast = vectorized.variables[name]
        slow = legacy.variables[name]
        assert fast.access_count == slow.access_count
        assert fast.read_count == slow.read_count
        assert fast.write_count == slow.write_count
        assert fast.size == slow.size
        assert fast.element_size == slow.element_size
        assert fast.kind == slow.kind
        assert fast.lifetime == slow.lifetime
        assert np.array_equal(fast.positions, slow.positions)


def assert_graphs_identical(profile, names) -> None:
    """Vectorized vs forced-pairwise conflict graphs must agree."""
    fast = ConflictGraph.from_profile(profile, variables=names)
    slow = ConflictGraph.from_profile(
        profile, variables=names, weight_fn=profile.pair_weight
    )
    assert fast.edges() == slow.edges()
    assert fast.vertex_names() == slow.vertex_names()


@pytest.mark.parametrize(
    "name,kwargs", suite_cases(), ids=[n for n, _ in suite_cases()]
)
class TestSuiteDifferential:
    """Vectorized == legacy on every workload of the suite."""

    def test_profiles_bit_identical(self, name, kwargs):
        """By-address and by-label profiles match the legacy scan."""
        run = record_suite_case(name, kwargs)
        units = split_for_columns(run.memory_map.symbols, COLUMN_BYTES)
        for args in (
            (run.trace, units, True),
            (run.trace, run.memory_map.symbols, False),
            (run.trace, None, False),
        ):
            assert_profiles_identical(
                profile_trace(*args), legacy_profile_trace(*args)
            )

    def test_conflict_graph_bit_identical(self, name, kwargs):
        """Vectorized weight matrix == per-pair MIN-rule weights."""
        run = record_suite_case(name, kwargs)
        units = split_for_columns(run.memory_map.symbols, COLUMN_BYTES)
        profile = profile_trace(run.trace, units, by_address=True)
        assert_graphs_identical(profile, list(profile.variables))


@given(case=random_workload())
def test_random_workload_differential(case):
    """Hypothesis: vectorized == legacy on random maps and traces."""
    run, _, _ = case
    units = split_for_columns(run.memory_map.symbols, COLUMN_BYTES)
    for args in (
        (run.trace, units, True),
        (run.trace, None, False),
    ):
        assert_profiles_identical(
            profile_trace(*args), legacy_profile_trace(*args)
        )
    profile = profile_trace(run.trace, units, by_address=True)
    assert_graphs_identical(profile, list(profile.variables))


def test_weight_matrix_matches_pair_weight_pointwise():
    """matrix[i, j] equals pair_weight for every pair, both orders."""
    run = record_suite_case("idct", {})
    units = split_for_columns(run.memory_map.symbols, COLUMN_BYTES)
    profile = profile_trace(run.trace, units, by_address=True)
    names = list(profile.variables)
    matrix = profile.weight_matrix(names)
    assert matrix.shape == (len(names), len(names))
    assert np.array_equal(matrix, matrix.T)
    for i, first in enumerate(names):
        for j, second in enumerate(names):
            if i == j:
                assert matrix[i, j] == 0
            else:
                assert matrix[i, j] == profile.pair_weight(first, second)


# ----------------------------------------------------------------------
# Unattributed accesses
# ----------------------------------------------------------------------
class TestUnattributed:
    """profile_trace counts (and warns about) out-of-range accesses."""

    @staticmethod
    def _run_with_strays(stray_count: int, labelled: int = 4):
        from repro.mem.layout import MemoryMap

        memory_map = MemoryMap(base=0x10000, page_size=64)
        variable = memory_map.allocate_array("v", 32)
        builder = ColumnarRecorder()
        for index in range(labelled):
            builder.append(
                variable.address_of(index % variable.element_count),
                variable="v",
            )
        for index in range(stray_count):
            builder.append(0x900000 + index)  # outside every symbol
        return builder.build(), memory_map.symbols

    def test_unattributed_counted(self):
        """Out-of-range accesses land in Profile.unattributed."""
        trace, symbols = self._run_with_strays(3, labelled=400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # <1%: must not warn
            profile = profile_trace(trace, symbols, by_address=True)
        assert profile.unattributed == 3
        assert profile.variables["v"].access_count == 400

    def test_unattributed_warns_above_one_percent(self):
        """More than 1% unattributed accesses raises a warning."""
        trace, symbols = self._run_with_strays(2, labelled=4)
        with pytest.warns(RuntimeWarning, match="unattributed"):
            profile = profile_trace(trace, symbols, by_address=True)
        assert profile.unattributed == 2

    def test_unlabelled_accesses_counted_by_label_mode(self):
        """Label attribution reports unlabelled accesses too."""
        builder = ColumnarRecorder()
        builder.append(0x100, variable="v")
        builder.append(0x200)
        profile = profile_trace(builder.build())
        assert profile.unattributed == 1


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
BACKEND_CASES = [
    ("dequant", {}),
    ("idct", {}),
    ("scan", {"buffer_bytes": 4096, "passes": 2}),
]


def plan_with(backend: str, run, columns: int = 4, **overrides):
    """Plan one run with one backend at a small geometry."""
    config = LayoutConfig(
        columns=columns,
        column_bytes=COLUMN_BYTES,
        backend=backend,
        **overrides,
    )
    return DataLayoutPlanner(config).plan(run), config


@pytest.mark.parametrize("backend", sorted(available_backends()))
@pytest.mark.parametrize(
    "name,kwargs", BACKEND_CASES, ids=[n for n, _ in BACKEND_CASES]
)
class TestBackendInvariance:
    """Every backend emits a valid, constraint-respecting assignment."""

    def test_assignment_valid(self, backend, name, kwargs):
        """check_valid() is clean and every accessed unit is placed."""
        run = record_suite_case(name, kwargs)
        assignment, config = plan_with(backend, run)
        assert isinstance(assignment, ColumnAssignment)
        assert assignment.check_valid() == []
        units = assignment.layout_symbols
        profile = profile_trace(run.trace, units, by_address=True)
        for unit_name in profile.variables:
            assert unit_name in assignment.placements
        for placement in assignment.placements.values():
            assert placement.mask.width == config.columns

    def test_respects_scratchpad_constraint(self, backend, name, kwargs):
        """Backends color only the cache columns; pins stay pinned."""
        run = record_suite_case(name, kwargs)
        assignment, config = plan_with(
            backend, run, scratchpad_columns=1
        )
        assert assignment.check_valid() == []
        for placement in assignment.placements.values():
            if placement.mask.is_empty():
                continue
            if placement.mask == config.scratchpad_mask:
                continue
            assert not placement.mask.overlaps(config.scratchpad_mask)


@pytest.mark.parametrize(
    "name,kwargs", BACKEND_CASES, ids=[n for n, _ in BACKEND_CASES]
)
def test_evolutionary_never_loses_to_paper(name, kwargs):
    """Seeded GA cost <= paper cost on the same conflict graph."""
    run = record_suite_case(name, kwargs)
    paper, _ = plan_with("paper", run, columns=2)
    evolved, _ = plan_with("evolutionary", run, columns=2)
    assert evolved.predicted_cost <= paper.predicted_cost


def test_beam_and_ga_improve_on_paper_for_idct():
    """The refactor's point: broader search finds cheaper layouts."""
    run = record_suite_case("idct", {})
    paper, _ = plan_with("paper", run)
    beam, _ = plan_with("beam", run)
    evolved, _ = plan_with("evolutionary", run)
    assert beam.predicted_cost < paper.predicted_cost
    assert evolved.predicted_cost < paper.predicted_cost


def test_unknown_backend_rejected():
    """LayoutConfig validates the backend name eagerly."""
    with pytest.raises(ValueError, match="unknown planner backend"):
        LayoutConfig(columns=4, column_bytes=512, backend="nope")


def test_backend_registry_roundtrip():
    """get_backend returns the registered singletons."""
    for name in available_backends():
        assert get_backend(name).name == name
    with pytest.raises(ValueError, match="choose from"):
        get_backend("definitely-not-registered")


# ----------------------------------------------------------------------
# Exact-coloring node budget
# ----------------------------------------------------------------------
def _hard_adjacency(vertices: int = 14, seed: int = 5):
    """A dense random graph that forces real backtracking."""
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(vertices)]
    adjacency = {name: set() for name in names}
    for i in range(vertices):
        for j in range(i + 1, vertices):
            if rng.random() < 0.6:
                adjacency[names[i]].add(names[j])
                adjacency[names[j]].add(names[i])
    return adjacency


class TestNodeBudget:
    """Exact coloring degrades to greedy instead of hanging."""

    def test_color_with_k_raises_on_budget(self):
        """A tiny budget interrupts the backtracking search."""
        adjacency = _hard_adjacency()
        # k=4: the greedy clique is exactly 4, so the search neither
        # fails trivially nor succeeds greedily — it has to backtrack.
        with pytest.raises(ColoringBudgetExceeded):
            color_with_k(adjacency, 4, node_budget=5)

    def test_exact_coloring_falls_back_to_greedy(self):
        """Budget exhaustion warns and returns the greedy coloring."""
        adjacency = _hard_adjacency()
        with pytest.warns(RuntimeWarning, match="node search budget"):
            coloring = exact_coloring(adjacency, node_budget=5)
        assert coloring == greedy_coloring(adjacency)
        for vertex, neighbors in adjacency.items():
            for neighbor in neighbors:
                assert coloring[vertex] != coloring[neighbor]

    def test_merging_survives_budget_exhaustion(self):
        """color_with_merging completes (greedily) under a tiny budget."""
        from repro.layout.graph import VertexInfo

        adjacency = _hard_adjacency()
        vertices = {
            name: VertexInfo(
                name=name, size=64, access_count=10, members=(name,)
            )
            for name in adjacency
        }
        weights = {}
        for vertex, neighbors in adjacency.items():
            for neighbor in neighbors:
                weights[frozenset((vertex, neighbor))] = 1 + (
                    len(vertex) + len(neighbor)
                )
        graph = ConflictGraph(vertices, weights)
        with pytest.warns(RuntimeWarning, match="search budget"):
            result = color_with_merging(graph, 4, node_budget=5)
        assert result.colors_used <= 4
        assert set(result.assignment) == set(adjacency)

    def test_unbudgeted_result_unchanged(self):
        """With a roomy budget the exact result is the exact result."""
        adjacency = _hard_adjacency(vertices=10)
        unbounded = exact_coloring(adjacency, node_budget=None)
        budgeted = exact_coloring(adjacency)
        assert budgeted == unbounded


# ----------------------------------------------------------------------
# PlannerSession
# ----------------------------------------------------------------------
class TestPlannerSession:
    """Content-addressed reuse across profiles, graphs and plans."""

    def test_identical_windows_plan_once(self):
        """The same window content yields the same cached objects."""
        run = record_suite_case("dequant", {})
        units = split_for_columns(run.memory_map.symbols, COLUMN_BYTES)
        config = LayoutConfig(columns=4, column_bytes=COLUMN_BYTES)
        session = PlannerSession()
        window = run.trace.slice(0, 512)
        first = session.plan(config, window, units)
        misses_after_first = session.stats["misses"]
        again = session.plan(
            config, run.trace.slice(0, 512), units
        )
        assert again is first  # served from cache, not recomputed
        assert session.stats["misses"] == misses_after_first
        assert session.stats["hits"] > 0

    def test_different_content_misses(self):
        """A different window content is a different cache entry."""
        run = record_suite_case("dequant", {})
        units = split_for_columns(run.memory_map.symbols, COLUMN_BYTES)
        config = LayoutConfig(columns=4, column_bytes=COLUMN_BYTES)
        session = PlannerSession()
        first = session.plan(config, run.trace.slice(0, 512), units)
        other = session.plan(config, run.trace.slice(512, 1024), units)
        assert other is not first

    def test_plans_match_sessionless_planner(self):
        """Session-routed plans equal direct DataLayoutPlanner plans."""
        run = record_suite_case("idct", {})
        units = split_for_columns(run.memory_map.symbols, COLUMN_BYTES)
        config = LayoutConfig(columns=4, column_bytes=COLUMN_BYTES)
        direct = DataLayoutPlanner(config).plan(run)
        session = PlannerSession()
        routed = session.plan(config, run.trace, units)
        assert routed.predicted_cost == direct.predicted_cost
        assert {
            name: (p.disposition, p.mask.bits)
            for name, p in routed.placements.items()
        } == {
            name: (p.disposition, p.mask.bits)
            for name, p in direct.placements.items()
        }

    def test_policy_replans_identical_windows_from_cache(self):
        """RepartitionPolicy hits its session on recurring phases."""
        run = record_suite_case("dequant", {})
        policy = RepartitionPolicy(
            config=LayoutConfig(
                columns=4, column_bytes=COLUMN_BYTES, line_size=16
            ),
            symbols=run.memory_map.symbols,
        )
        window = run.trace.slice(0, 256)
        first = policy.replan(window)
        entries_after_first = policy.session.stats["entries"]
        second = policy.replan(run.trace.slice(0, 256))
        assert policy.session.stats["entries"] == entries_after_first
        assert policy.session.stats["hits"] > 0
        assert (
            second.fresh_cost == first.fresh_cost
        )

    def test_session_cache_is_bounded(self, monkeypatch):
        """A long stream of distinct windows cannot grow unbounded."""
        run = record_suite_case("dequant", {})
        units = split_for_columns(run.memory_map.symbols, COLUMN_BYTES)
        config = LayoutConfig(columns=4, column_bytes=COLUMN_BYTES)
        monkeypatch.setattr(session_module, "DEFAULT_SESSION_ENTRIES", 6)
        session = PlannerSession()
        for start in range(0, 1024, 64):
            session.plan(
                config, run.trace.slice(start, start + 64), units
            )
        assert session.stats["entries"] <= 6

    def test_external_profile_digest_is_content_pinned(self):
        """Digests live on the profile object, not an id side-table."""
        run = record_suite_case("dequant", {})
        units = split_for_columns(run.memory_map.symbols, COLUMN_BYTES)
        config = LayoutConfig(columns=4, column_bytes=COLUMN_BYTES)
        session = PlannerSession()
        for _ in range(3):
            # Caller-owned profiles dropped each iteration: id() reuse
            # must never resurrect a stale digest.
            profile = profile_trace(run.trace, units, by_address=True)
            planned = session.plan_from_profile(config, profile, units)
            direct = DataLayoutPlanner(config).plan_from_profile(
                profile, units
            )
            assert planned.predicted_cost == direct.predicted_cost

    def test_memo_evicts_least_recently_used(self):
        memo = session_module.SessionMemo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # touch: "b" is now least recent
        memo.put("c", 3)
        assert len(memo) == 2
        assert memo.get("b") is session_module.MISS  # evicted
        assert memo.get("a") == 1 and memo.get("c") == 3
        assert (memo.hits, memo.misses) == (3, 1)

    def test_memo_bound_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="max_entries"):
            session_module.SessionMemo(0)


@settings(max_examples=10)
@given(case=random_workload(max_length=120))
def test_session_plan_equals_direct_plan(case):
    """Hypothesis: session caching never changes planner output."""
    run, scratchpad, split = case
    config = LayoutConfig(
        columns=4,
        column_bytes=COLUMN_BYTES,
        scratchpad_columns=min(scratchpad, 3),
        split_oversized=split,
    )
    units = (
        split_for_columns(run.memory_map.symbols, COLUMN_BYTES)
        if split
        else run.memory_map.symbols
    )
    direct = DataLayoutPlanner(config).plan(run)
    routed = PlannerSession().plan(config, run.trace, units)
    assert routed.predicted_cost == direct.predicted_cost
    assert {
        name: (p.disposition, p.mask.bits)
        for name, p in routed.placements.items()
    } == {
        name: (p.disposition, p.mask.bits)
        for name, p in direct.placements.items()
    }


def unmemoized_digest(config: LayoutConfig) -> str:
    """The config digest as sha256 over sorted-key JSON, never cached."""
    rendered = json.dumps(
        dataclasses.asdict(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(rendered.encode()).hexdigest()


class TestConfigDigestMemo:
    """``config_digest`` is sha256 over the config's sorted-key JSON;
    session plan keys are built on it, so its values are pinned."""

    CONFIGS = (
        dict(columns=4, column_bytes=COLUMN_BYTES),
        dict(
            columns=8,
            column_bytes=COLUMN_BYTES,
            scratchpad_columns=2,
            forced_scratchpad=("coeffs", "table"),
            split_oversized=False,
        ),
    )

    @pytest.mark.parametrize("fields", CONFIGS)
    def test_equal_distinct_configs_keep_the_unmemoized_digest(
        self, fields
    ):
        first = LayoutConfig(**fields)
        second = LayoutConfig(**fields)
        assert first == second and first is not second
        for config in (first, second, first):
            assert session_module.config_digest(config) == (
                unmemoized_digest(config)
            )

    def test_digests_are_pinned(self):
        """Session keys built on these digests stay valid."""
        first, second = (LayoutConfig(**fields) for fields in self.CONFIGS)
        assert session_module.config_digest(first) == (
            "d2608e4ebcefb688312a1fcf53f051fec811279c7aab1e523f5b0aa6275c87b4"
        )
        assert session_module.config_digest(second) == (
            "b383abfb39c21f2f0d90ac596e099a9683e6bba66b7779eff81a5644db6c30c6"
        )

    def test_equal_configs_with_different_json_keep_their_own(self):
        """``seed=True == seed=1``, but their JSON, hence digest, differ."""
        as_int = LayoutConfig(columns=4, column_bytes=COLUMN_BYTES, seed=1)
        as_bool = LayoutConfig(
            columns=4, column_bytes=COLUMN_BYTES, seed=True
        )
        assert as_int == as_bool
        for config in (as_int, as_bool, as_int, as_bool):
            assert session_module.config_digest(config) == (
                unmemoized_digest(config)
            )
        assert session_module.config_digest(as_int) != (
            session_module.config_digest(as_bool)
        )

    def test_session_plan_keys_unchanged(self):
        """Plans are cached under the unmemoized digest's key."""
        run = record_suite_case("dequant", {})
        units = split_for_columns(run.memory_map.symbols, COLUMN_BYTES)
        config = LayoutConfig(columns=4, column_bytes=COLUMN_BYTES)
        session = PlannerSession()
        window = run.trace.slice(0, 512)
        plan = session.plan(config, window, units)
        profile = session.profile(window, units, by_address=True)
        key = (
            f"plan:{unmemoized_digest(config)}:"
            f"{profile._session_digest}:"
            f"{session_module.units_digest(units)}"
        )
        assert session.cache.get(key) is plan


def unpinned_trace_digest(trace) -> str:
    """The session's trace digest, recomputed from the columns."""
    digest = hashlib.sha256()
    digest.update(str(len(trace)).encode())
    for column in (
        trace.addresses, trace.writes, trace.gaps, trace.variable_ids
    ):
        digest.update(column.tobytes())
    digest.update("\x00".join(trace.variable_names).encode())
    return digest.hexdigest()


def unpinned_units_digest(units) -> str:
    """The session's units digest, recomputed from the variables."""
    digest = hashlib.sha256()
    for variable in units:
        digest.update(
            f"{variable.name}:{variable.base}:{variable.size}:"
            f"{variable.element_size}:{variable.kind.value}\n".encode()
        )
    return digest.hexdigest()


class TestDigestPins:
    """Trace and units digests are pinned on their objects (a symbol
    table's pins drop when it gains a variable); session keys keep the
    values the unpinned digests give."""

    @staticmethod
    def dequant():
        run = record_suite_case("dequant", {})
        units = split_for_columns(run.memory_map.symbols, COLUMN_BYTES)
        return run, units

    def test_session_keys_unchanged(self):
        run, units = self.dequant()
        config = LayoutConfig(columns=4, column_bytes=COLUMN_BYTES)
        session = PlannerSession()
        window = run.trace.slice(0, 512)
        plan = session.plan(config, window, units)
        units_key = unpinned_units_digest(units)
        profile_key = (
            f"profile:{unpinned_trace_digest(window)}:{units_key}:1"
        )
        assert session.cache.get(profile_key) is session.profile(
            window, units, by_address=True
        )
        plan_key = (
            f"plan:{unmemoized_digest(config)}:{profile_key}:{units_key}"
        )
        assert session.cache.get(plan_key) is plan

    def test_lookups_hash_a_table_once(self, monkeypatch):
        """Hits and misses alike reuse the table's pinned digest."""
        run, units = self.dequant()
        hashed = []
        original = session_module._hash_units
        monkeypatch.setattr(
            session_module,
            "_hash_units",
            lambda table: hashed.append(table) or original(table),
        )
        session = PlannerSession()
        for columns in (2, 4, 2, 4):
            for start in (0, 256, 0):
                session.plan(
                    LayoutConfig(columns=columns, column_bytes=COLUMN_BYTES),
                    run.trace.slice(start, start + 256),
                    units,
                )
        assert hashed == [units]

    def test_add_after_pinning_yields_a_fresh_digest(self):
        run, units = self.dequant()
        pinned = session_module.units_digest(units)
        assert session_module.units_digest(units) is pinned
        top = max(variable.range.end for variable in units)
        units.add(Variable("late", AddressRange(top, 64)))
        fresh = session_module.units_digest(units)
        assert fresh != pinned
        assert fresh == unpinned_units_digest(units)

    def test_table_pins_hold_per_key_until_add(self):
        symbols = record_suite_case("dequant", {}).memory_map.symbols

        def units(size):
            return symbols.derived(
                ("units", size), lambda table: split_for_columns(table, size)
            )

        small = units(64)
        assert units(64) is small
        assert units(COLUMN_BYTES) is not small
        assert [v.name for v in small] == [
            v.name for v in split_for_columns(symbols, 64)
        ]
        top = max(variable.range.end for variable in symbols)
        symbols.add(Variable("late", AddressRange(top, 64)))
        regrown = units(64)
        assert regrown is not small
        assert "late" in regrown

    def test_trace_digest_is_pinned_on_the_trace(self):
        run, _ = self.dequant()
        window = run.trace.slice(8, 600)
        digest = session_module.trace_digest(window)
        assert session_module.trace_digest(window) is digest
        assert digest == unpinned_trace_digest(window)
