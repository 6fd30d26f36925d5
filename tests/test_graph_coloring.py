"""Tests for the conflict graph, exact coloring and merging heuristic."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout.coloring import (
    chromatic_number,
    color_with_k,
    exact_coloring,
    greedy_clique,
    greedy_coloring,
)
from repro.layout.graph import ConflictGraph, VertexInfo
from repro.layout.merge import color_with_merging

from oracles.merge import optimal_cost_reference


def make_graph(names, weighted_edges, internal=0):
    vertices = {
        name: VertexInfo(name=name, size=64, access_count=10,
                         members=(name,))
        for name in names
    }
    weights = {
        frozenset((a, b)): w for a, b, w in weighted_edges
    }
    return ConflictGraph(vertices, weights, internal_cost=internal)


def adjacency_of(edges, vertices):
    adjacency = {v: set() for v in vertices}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency


class TestConflictGraph:
    def test_zero_edges_dropped(self):
        graph = make_graph("ab", [("a", "b", 0)])
        assert graph.edge_count() == 0

    def test_weight_lookup(self):
        graph = make_graph("abc", [("a", "b", 5)])
        assert graph.weight("a", "b") == 5
        assert graph.weight("b", "a") == 5
        assert graph.weight("a", "c") == 0

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(ValueError, match="not a vertex"):
            make_graph("ab", [("a", "z", 1)])

    def test_neighbors(self):
        graph = make_graph("abc", [("a", "b", 1), ("a", "c", 2)])
        assert graph.neighbors("a") == {"b", "c"}
        assert graph.neighbors("b") == {"a"}

    def test_min_weight_edge(self):
        graph = make_graph(
            "abcd", [("a", "b", 5), ("c", "d", 2), ("a", "c", 9)]
        )
        assert graph.min_weight_edge() == ("c", "d", 2)

    def test_min_weight_edge_empty(self):
        with pytest.raises(ValueError):
            make_graph("ab", []).min_weight_edge()

    def test_merge_combines_weights(self):
        graph = make_graph(
            "abc", [("a", "b", 3), ("a", "c", 4), ("b", "c", 5)]
        )
        merged = graph.merge("a", "b")
        assert merged.vertex_count() == 2
        assert merged.internal_cost == 3
        assert merged.weight("a+b", "c") == 9

    def test_merge_tracks_members(self):
        graph = make_graph("abc", [("a", "b", 3)])
        merged = graph.merge("a", "b")
        assert merged.vertex("a+b").members == ("a", "b")
        assert merged.vertex("a+b").size == 128

    def test_merge_self_rejected(self):
        graph = make_graph("ab", [("a", "b", 1)])
        with pytest.raises(ValueError):
            graph.merge("a", "a")

    def test_monochromatic_cost(self):
        graph = make_graph(
            "abc", [("a", "b", 3), ("b", "c", 7)]
        )
        cost = graph.monochromatic_cost({"a": 0, "b": 0, "c": 1})
        assert cost == 3

    def test_monochromatic_cost_includes_internal(self):
        graph = make_graph("abc", [("a", "b", 3)], internal=11)
        assert graph.monochromatic_cost({"a": 0, "b": 1, "c": 0}) == 11


class TestExactColoring:
    def test_triangle_needs_three(self):
        adjacency = adjacency_of(
            [("a", "b"), ("b", "c"), ("a", "c")], "abc"
        )
        assert chromatic_number(adjacency) == 3

    def test_even_cycle_two_colors(self):
        edges = [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v0")]
        adjacency = adjacency_of(edges, ["v0", "v1", "v2", "v3"])
        assert chromatic_number(adjacency) == 2

    def test_odd_cycle_three_colors(self):
        names = [f"v{i}" for i in range(5)]
        edges = [(names[i], names[(i + 1) % 5]) for i in range(5)]
        adjacency = adjacency_of(edges, names)
        assert chromatic_number(adjacency) == 3

    def test_petersen_graph(self):
        """The Petersen graph has chromatic number 3 (clique number 2,
        so the clique bound alone is insufficient — exercises search)."""
        outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
        inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
        spokes = [(f"o{i}", f"i{i}") for i in range(5)]
        names = [f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)]
        adjacency = adjacency_of(outer + inner + spokes, names)
        assert chromatic_number(adjacency) == 3

    def test_complete_graph(self):
        names = list("abcdef")
        edges = list(itertools.combinations(names, 2))
        adjacency = adjacency_of(edges, names)
        assert chromatic_number(adjacency) == 6

    def test_empty_graph(self):
        assert chromatic_number({}) == 0
        assert exact_coloring({}) == {}

    def test_edgeless_graph(self):
        adjacency = {v: set() for v in "abc"}
        assert chromatic_number(adjacency) == 1

    def test_color_with_k_insufficient(self):
        adjacency = adjacency_of([("a", "b"), ("b", "c"), ("a", "c")], "abc")
        assert color_with_k(adjacency, 2) is None

    def test_color_with_k_zero(self):
        assert color_with_k({"a": set()}, 0) is None
        assert color_with_k({}, 0) == {}

    def test_coloring_is_proper(self):
        adjacency = adjacency_of(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")],
            "abcd",
        )
        coloring = exact_coloring(adjacency)
        for vertex, neighbors in adjacency.items():
            for neighbor in neighbors:
                assert coloring[vertex] != coloring[neighbor]

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            chromatic_number({"a": {"b"}, "b": set()})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            chromatic_number({"a": {"a"}})

    def test_clique_bound(self):
        adjacency = adjacency_of(
            list(itertools.combinations("abcd", 2)) + [("d", "e")],
            "abcde",
        )
        assert len(greedy_clique(adjacency)) >= 4


@st.composite
def random_graph(draw):
    n = draw(st.integers(2, 8))
    names = [f"v{i}" for i in range(n)]
    edges = []
    for a, b in itertools.combinations(names, 2):
        if draw(st.booleans()):
            edges.append((a, b))
    return names, edges


@given(graph=random_graph())
@settings(max_examples=40, deadline=None)
def test_exact_coloring_is_minimum(graph):
    """Property: the DSATUR B&B finds the true chromatic number
    (verified against brute force on small graphs)."""
    names, edges = graph
    adjacency = adjacency_of(edges, names)
    found = chromatic_number(adjacency)

    def brute_force() -> int:
        for k in range(1, len(names) + 1):
            for assignment in itertools.product(range(k), repeat=len(names)):
                coloring = dict(zip(names, assignment))
                if all(
                    coloring[a] != coloring[b] for a, b in edges
                ):
                    return k
        return len(names)

    assert found == brute_force()


@given(graph=random_graph())
@settings(max_examples=30, deadline=None)
def test_greedy_upper_bounds_exact(graph):
    names, edges = graph
    adjacency = adjacency_of(edges, names)
    greedy = greedy_coloring(adjacency)
    greedy_colors = max(greedy.values()) + 1 if greedy else 0
    assert chromatic_number(adjacency) <= greedy_colors


class TestMerging:
    def test_no_merging_when_k_colorable(self):
        graph = make_graph("abc", [("a", "b", 1)])
        result = color_with_merging(graph, k=2)
        assert result.merges == []
        assert result.cost == 0
        assert result.assignment["a"] != result.assignment["b"]

    def test_merging_triangle_into_two_columns(self):
        graph = make_graph(
            "abc", [("a", "b", 1), ("b", "c", 5), ("a", "c", 9)]
        )
        result = color_with_merging(graph, k=2)
        # The min-weight edge (a, b) is merged: they share a column.
        assert result.merges == [("a", "b", 1)]
        assert result.cost == 1
        assert result.assignment["a"] == result.assignment["b"]
        assert result.assignment["c"] != result.assignment["a"]

    def test_merging_reaches_single_column(self):
        graph = make_graph(
            "abc", [("a", "b", 1), ("b", "c", 5), ("a", "c", 9)]
        )
        result = color_with_merging(graph, k=1)
        assert result.cost == 15
        assert len(set(result.assignment.values())) == 1

    def test_cost_never_below_optimal(self):
        graph = make_graph(
            "abcd",
            [("a", "b", 4), ("b", "c", 1), ("c", "d", 3), ("a", "d", 2),
             ("a", "c", 8)],
        )
        for k in (1, 2, 3):
            result = color_with_merging(graph, k=k)
            assert result.cost >= optimal_cost_reference(graph, k)
            assert result.colors_used <= k

    def test_greedy_strategy(self):
        graph = make_graph("abc", [("a", "b", 2), ("b", "c", 2)])
        result = color_with_merging(graph, k=2, strategy="greedy")
        assert result.colors_used <= 2

    def test_random_strategy_deterministic(self):
        graph = make_graph("abcd", [("a", "b", 2)])
        first = color_with_merging(graph, k=2, strategy="random", seed=5)
        second = color_with_merging(graph, k=2, strategy="random", seed=5)
        assert first.assignment == second.assignment

    def test_unknown_strategy(self):
        graph = make_graph("ab", [])
        with pytest.raises(ValueError):
            color_with_merging(graph, k=1, strategy="firstfit")

    def test_k_zero_rejected(self):
        graph = make_graph("ab", [])
        with pytest.raises(ValueError):
            color_with_merging(graph, k=0)

    @given(
        weights=st.lists(st.integers(1, 100), min_size=3, max_size=3),
        k=st.integers(1, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_triangle_cost_formula(self, weights, k):
        """On a triangle the heuristic is optimal for every k."""
        wab, wbc, wac = weights
        graph = make_graph(
            "abc",
            [("a", "b", wab), ("b", "c", wbc), ("a", "c", wac)],
        )
        result = color_with_merging(graph, k=k)
        assert result.cost == optimal_cost_reference(graph, k)
