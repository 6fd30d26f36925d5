"""Merging references: the per-k merge loop, and the minimum W by brute
force.

:func:`color_with_merging_reference` is the paper's Section 3.1.2 loop
run for one ``k`` at a time: color the graph, and while that fails,
merge the minimum-weight edge and try again.  It contracts through
:meth:`ConflictGraph.merge` and :meth:`ConflictGraph.min_weight_edge`
(rebuilding the graph per merge) rather than production's incremental
contraction state.  :func:`~repro.layout.merge.merge_ladder` walks the
contractions once for every ``k`` and must return, for each, exactly
what this loop returns — graph, coloring, assignment, cost, merges and
budget warnings alike (``tests/test_merge_ladder.py``,
``tests/test_fleet_pricing_differential.py``).

:func:`optimal_cost_reference` tries every assignment of a graph's
vertices to ``k`` colors and returns the smallest monochromatic weight
W, the quantity the merging heuristic minimizes.  It is exponential,
so ``tests/test_graph_coloring.py`` calls it only on graphs of a few
vertices, to check that the heuristic never beats the optimum and
reaches it where the paper says it must (triangles).
"""

from __future__ import annotations

import random
import warnings
from typing import Optional

from repro.layout.coloring import (
    DEFAULT_NODE_BUDGET,
    ColoringBudgetExceeded,
    color_with_k,
    greedy_clique,
    greedy_coloring,
)
from repro.layout.graph import MERGE_SEPARATOR, ConflictGraph
from repro.layout.merge import MergeResult


def color_with_merging_reference(
    graph: ConflictGraph,
    k: int,
    strategy: str = "exact",
    seed: int = 0,
    node_budget: Optional[int] = DEFAULT_NODE_BUDGET,
) -> MergeResult:
    """The merge loop at one ``k`` (arguments as production's)."""
    if k < 1:
        raise ValueError(f"need at least one color, got k={k}")
    if strategy not in ("exact", "greedy", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")

    if strategy == "random":
        rng = random.Random(seed)
        coloring = {
            vertex: rng.randrange(k) for vertex in graph.vertex_names()
        }
        return MergeResult(
            graph=graph,
            coloring=coloring,
            assignment=dict(coloring),
            cost=graph.monochromatic_cost(coloring),
        )

    merges: list[tuple[str, str, int]] = []
    current = graph
    # A clique of the initial graph, followed through contractions:
    # merging any member into another vertex keeps it a clique.
    clique = set(greedy_clique(graph.adjacency()))
    budget_blown = False
    while True:
        coloring = None
        if strategy == "exact" and not budget_blown and len(clique) <= k:
            try:
                coloring = color_with_k(
                    current.adjacency(), k, node_budget=node_budget
                )
            except ColoringBudgetExceeded:
                warnings.warn(
                    f"exact coloring exceeded its {node_budget}-node"
                    " search budget during merging; continuing with "
                    "greedy DSATUR",
                    RuntimeWarning,
                    stacklevel=2,
                )
                budget_blown = True
        if strategy == "greedy" or budget_blown:
            greedy = greedy_coloring(current.adjacency())
            needed = (max(greedy.values()) + 1) if greedy else 0
            if needed <= k:
                coloring = greedy
        if coloring is not None:
            break
        first, second, weight = current.min_weight_edge()
        current = current.merge(first, second)
        merges.append((first, second, weight))
        if first in clique or second in clique:
            clique -= {first, second}
            clique.add(f"{first}{MERGE_SEPARATOR}{second}")

    assignment: dict[str, int] = {}
    for vertex_name, color in coloring.items():
        for member in current.vertex(vertex_name).members:
            assignment[member] = color
    return MergeResult(
        graph=current,
        coloring=coloring,
        assignment=assignment,
        cost=current.monochromatic_cost(coloring),
        merges=merges,
    )


def optimal_cost_reference(graph: ConflictGraph, k: int) -> int:
    """Minimum W over *all* k-assignments (at most 10 vertices)."""
    names = graph.vertex_names()
    if len(names) > 10:
        raise ValueError("brute force limited to 10 vertices")
    best = None
    assignment = [0] * len(names)

    def recurse(position: int) -> None:
        nonlocal best
        if position == len(names):
            coloring = dict(zip(names, assignment))
            cost = graph.monochromatic_cost(coloring)
            if best is None or cost < best:
                best = cost
            return
        for color in range(k):
            assignment[position] = color
            recurse(position + 1)

    recurse(0)
    assert best is not None
    return best
