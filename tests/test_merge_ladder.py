"""The W(k) ladder: one contraction pass equals the per-k merge loop.

:func:`~repro.layout.merge.merge_ladder` colors a conflict graph for
many column counts ``k`` in one walk of the min-weight-edge merges.
For every ``k`` it must return exactly what the paper's per-k loop
(:func:`oracles.merge.color_with_merging_reference`) returns — final
graph, coloring, assignment, cost and merges — and emit the same
budget warnings, under every coloring strategy.  The graphs drawn
here include ones that need merges, ones whose clique exceeds ``k``,
and node budgets small enough to overrun.
"""

import itertools
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.layout import merge as merge_module
from repro.layout.coloring import DEFAULT_NODE_BUDGET, color_with_k
from repro.layout.graph import ConflictGraph, VertexInfo
from repro.layout.merge import color_with_merging, merge_ladder

from oracles.merge import color_with_merging_reference

#: Column counts every example is colored for.
KS = range(1, 9)

STRATEGIES = ("exact", "greedy", "random")


def make_graph(names, weighted_edges):
    vertices = {
        name: VertexInfo(
            name=name, size=64, access_count=10, members=(name,)
        )
        for name in names
    }
    weights = {frozenset((a, b)): w for a, b, w in weighted_edges}
    return ConflictGraph(vertices, weights)


def clique(size, weight=1):
    """The complete graph on ``size`` vertices: chromatic number
    ``size``, and a clique larger than every ``k`` below it."""
    names = [f"c{index}" for index in range(size)]
    return make_graph(
        names,
        [
            (a, b, weight + index)
            for index, (a, b) in enumerate(
                itertools.combinations(names, 2)
            )
        ],
    )


def wheel(spokes):
    """A wheel: its largest clique has 3 vertices, but an odd rim
    needs 4 colors, so the exact search for k = 3 backtracks and small
    budgets overrun."""
    hub, rim = "h", [f"r{index}" for index in range(spokes)]
    edges = [(hub, name, 2 + index) for index, name in enumerate(rim)]
    edges += [
        (rim[index], rim[(index + 1) % spokes], 1 + index % 3)
        for index in range(spokes)
    ]
    return make_graph([hub, *rim], edges)


def dsatur_trap():
    """A 3-colorable graph whose first coloring in the exact search's
    order uses 4 colors: the search for k = 8 settles only k >= 4, and
    k = 3 must still be tried at the same state, before any merge."""
    edges = [
        ("v0", "v4"), ("v0", "v6"), ("v0", "v7"), ("v1", "v2"),
        ("v1", "v3"), ("v1", "v5"), ("v1", "v6"), ("v2", "v3"),
        ("v2", "v4"), ("v3", "v7"), ("v4", "v5"), ("v4", "v7"),
        ("v6", "v7"),
    ]
    return make_graph(
        [f"v{index}" for index in range(8)],
        [(a, b, 1 + index % 4) for index, (a, b) in enumerate(edges)],
    )


@st.composite
def weighted_graphs(draw):
    """A random weighted graph and a node budget.

    Few distinct weights and short names make weight and name ties
    common, so the merge order's tie-breaks are exercised too.
    """
    count = draw(st.integers(1, 12))
    names = draw(
        st.lists(
            st.text("abcxyz", min_size=1, max_size=2),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    density = draw(st.sampled_from([0.3, 0.6, 0.9, 1.0]))
    edges = [
        (a, b, draw(st.integers(1, 6)))
        for a, b in itertools.combinations(names, 2)
        if draw(st.floats(0, 1)) < density
    ]
    budget = draw(st.sampled_from([None, DEFAULT_NODE_BUDGET, 30, 5, 1]))
    return make_graph(names, edges), budget


def outcome(result):
    """Everything a merge result says, in comparable form."""
    graph = result.graph
    return (
        [graph.vertex(name) for name in graph.vertex_names()],
        graph.edges(),
        graph.internal_cost,
        result.coloring,
        result.assignment,
        result.cost,
        result.merges,
    )


def counting_warnings(call):
    """``call()``'s value and the number of RuntimeWarnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = call()
    return value, sum(
        issubclass(warning.category, RuntimeWarning) for warning in caught
    )


@given(
    case=weighted_graphs(),
    subset=st.sets(st.integers(1, 8), min_size=1),
)
@example(case=(clique(6), None), subset={2, 5})
@example(case=(clique(10), 5), subset={4, 8})
@example(case=(wheel(7), 5), subset={3, 4})
@example(case=(wheel(9), 30), subset={1, 4, 8})
@example(case=(dsatur_trap(), None), subset={3, 8})
@settings(deadline=None)
def test_ladder_equals_the_per_k_loop(case, subset):
    """Every k of one ladder (over 1..8, and over a subset of it) is
    the per-k loop's result, with the same number of warnings."""
    graph, budget = case
    for strategy in STRATEGIES:
        expected, loop_warnings = {}, {}
        for k in KS:
            expected[k], loop_warnings[k] = counting_warnings(
                lambda: color_with_merging_reference(
                    graph, k, strategy, seed=3, node_budget=budget
                )
            )
        for ks in (KS, sorted(subset, reverse=True)):
            ladder, raised = counting_warnings(
                lambda: merge_ladder(
                    graph, ks, strategy, seed=3, node_budget=budget
                )
            )
            assert list(ladder) == sorted(ks)
            for k in ks:
                assert outcome(ladder[k]) == outcome(expected[k]), (
                    strategy, k
                )
            assert raised == sum(loop_warnings[k] for k in ks), strategy


class TestLadderCases:
    """The explicit examples reach what the ladder's shortcuts must
    get right: merges, clique certificates above k, budget overruns."""

    def test_clique_needs_merges_below_its_size(self):
        ladder = merge_ladder(clique(6), KS)
        merges = [len(ladder[k].merges) for k in KS]
        assert merges == [5, 4, 3, 2, 1, 0, 0, 0]
        assert all(ladder[k].colors_used <= k for k in KS)

    def test_clique_search_skipped_while_clique_exceeds_k(self):
        """K10 under a 5-node budget: an exact attempt for k = 4..8
        on the whole clique would overrun.  The skip waits until
        merges shrink the clique to k vertices, where a search needs
        k + 1 nodes, so only k = 5..8 overrun, each once."""
        _, raised = counting_warnings(
            lambda: merge_ladder(clique(10), KS, node_budget=5)
        )
        assert raised == 4

    def test_one_search_covers_a_range_of_k(self, monkeypatch):
        """A triangle: the search for k = 8 finds a 3-coloring, which
        settles k = 3..8; the clique skips k = 2 and k = 1 until
        merges shrink it, so each needs one search of its own."""
        searched = []

        def counted(adjacency, k, node_budget=None):
            searched.append(k)
            return color_with_k(adjacency, k, node_budget=node_budget)

        monkeypatch.setattr(merge_module, "color_with_k", counted)
        ladder = merge_ladder(clique(3), KS)
        assert searched == [8, 2, 1]
        assert [ladder[k].colors_used for k in KS] == [1, 2] + [3] * 6

    def test_budget_overrun_warns_once_per_k_that_overruns(self):
        graph = wheel(7)
        _, raised = counting_warnings(
            lambda: merge_ladder(graph, KS, node_budget=5)
        )
        overrun = [
            k
            for k in KS
            if counting_warnings(
                lambda: color_with_merging_reference(
                    graph, k, node_budget=5
                )
            )[1]
        ]
        assert overrun and raised == len(overrun)

    def test_single_k_entry_point_is_the_per_k_loop(self):
        """``color_with_merging`` (the ladder at one k, as the
        planner and page coloring call it) returns the per-k loop's
        result."""
        graph = wheel(9)
        for k in KS:
            assert outcome(color_with_merging(graph, k)) == outcome(
                color_with_merging_reference(graph, k)
            )

    def test_rejects_bad_arguments(self):
        graph = clique(3)
        with pytest.raises(ValueError, match="at least one color"):
            merge_ladder(graph, [2, 0])
        with pytest.raises(ValueError, match="unknown strategy"):
            merge_ladder(graph, [2], strategy="firstfit")
        assert merge_ladder(graph, []) == {}
