"""Merging reference: the minimum W by brute force.

:func:`optimal_cost_reference` tries every assignment of a graph's
vertices to ``k`` colors and returns the smallest monochromatic weight
W, the quantity the paper's Section 3.1.2 merging heuristic
(:func:`~repro.layout.merge.color_with_merging`) minimizes.  It is
exponential, so ``tests/test_graph_coloring.py`` calls it only on
graphs of a few vertices, to check that the heuristic never beats the
optimum and reaches it where the paper says it must (triangles).
"""

from __future__ import annotations

from repro.layout.graph import ConflictGraph


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
