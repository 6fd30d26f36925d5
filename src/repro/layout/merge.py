"""The merging heuristic of paper Section 3.1.2.

"If the number of colors required is more than k ... we find the
minimum-weight edge in G and merge the vertices that are connected by
this edge.  This results in a smaller graph with one less vertex.  We
run exact minimum graph coloring on this graph ... We stop when the
number of colors required is less than or equal to k, and assign
columns to vertices by the coloring.  Any merged vertices are assigned
to the same column."

For the coloring-strategy ablation the exact oracle can be swapped for
plain greedy DSATUR or a seeded random assignment.

Two guards keep the exact loop fast and bounded without changing its
output:

* a merge iteration whose greedy maximal clique already exceeds ``k``
  skips the (necessarily failing, potentially exponential) exact
  attempt — any clique larger than ``k`` proves non-k-colorability, so
  the iteration proceeds straight to the min-weight merge the failed
  search would have led to anyway;
* each exact attempt carries the :data:`~repro.layout.coloring.
  DEFAULT_NODE_BUDGET` node budget; on exhaustion the loop degrades to
  greedy DSATUR (with a warning) instead of stalling the caller — the
  behaviour a live fleet rebalance needs on a pathological graph.
"""

from __future__ import annotations

import heapq
import random
import warnings
from dataclasses import dataclass, field
from typing import Optional

from repro.layout.coloring import (
    DEFAULT_NODE_BUDGET,
    ColoringBudgetExceeded,
    color_with_k,
    greedy_clique,
    greedy_coloring,
)
from repro.layout.graph import MERGE_SEPARATOR, ConflictGraph, VertexInfo


class _ContractionState:
    """Mutable mirror of the merge loop's graph (hot-path form).

    :meth:`ConflictGraph.merge` rebuilds the whole vertex and edge
    dictionaries per contraction — O(E) each, which dominated planning
    on large unit sets.  This state applies the identical contraction
    in O(degree) by keeping a nested neighbor->weight map, and
    reproduces :class:`ConflictGraph`'s observable behaviour exactly:
    vertex *order* (original order with merged vertices appended — the
    coloring's tie-breaks see the same enumeration), merged names,
    member order, summed weights and internalized cost.

    It also maintains a clique *certificate*: a greedy maximal clique
    of the initial graph, updated through contractions (merging two
    clique members shrinks it by one; merging one keeps its size).
    Contracting never breaks the clique property, so while the
    certificate exceeds ``k`` the graph is provably not k-colorable
    and the (necessarily failing, worst-case exponential) exact
    attempt is skipped with no behaviour change.
    """

    def __init__(self, graph: ConflictGraph):
        names = graph.vertex_names()
        self._gid_of = {name: gid for gid, name in enumerate(names)}
        self.name: dict[int, str] = dict(enumerate(names))
        self.info: dict[int, VertexInfo] = {
            gid: graph.vertex(name) for gid, name in enumerate(names)
        }
        self.order: list[int] = list(range(len(names)))
        self.neighbors: dict[int, dict[int, int]] = {
            gid: {} for gid in self.order
        }
        for first, second, weight in graph.edges():
            a, b = self._gid_of[first], self._gid_of[second]
            self.neighbors[a][b] = weight
            self.neighbors[b][a] = weight
        self.internal = graph.internal_cost
        self._next = len(names)
        self._clique = {
            self._gid_of[name]
            for name in greedy_clique(graph.adjacency())
        }
        # Lazy min-heap over edges keyed (weight, low name, high name)
        # — the exact min_weight_edge ordering.  Names are immutable
        # per gid and an edge's weight is fixed at creation (merges
        # delete edges and create fresh ones on a fresh gid), so an
        # entry is stale iff its edge no longer exists.
        self._heap: list[tuple[int, str, str, int, int]] = []
        for first, second, weight in graph.edges():
            self._push_edge(
                self._gid_of[first], self._gid_of[second], weight
            )
        heapq.heapify(self._heap)

    def _push_edge(self, a: int, b: int, weight: int) -> None:
        low, high = self.name[a], self.name[b]
        if low > high:
            low, high = high, low
        self._heap.append((weight, low, high, a, b))

    def clique_size(self) -> int:
        """Size of the maintained clique certificate."""
        return len(self._clique)

    def edge_count(self) -> int:
        """Number of live (positive-weight) edges."""
        return sum(len(nbrs) for nbrs in self.neighbors.values()) // 2

    def adjacency_by_name(self) -> dict[str, set[str]]:
        """Adjacency in :meth:`ConflictGraph.adjacency` vertex order."""
        return {
            self.name[gid]: {
                self.name[other] for other in self.neighbors[gid]
            }
            for gid in self.order
        }

    def min_edge(self) -> tuple[int, int]:
        """The minimum-weight edge under the name-pair tie-break.

        Pops the lazy heap until a live entry surfaces (amortized
        O(log E)); the heap key is the exact
        :meth:`ConflictGraph.min_weight_edge` ordering.
        """
        heap = self._heap
        while heap:
            _, _, _, a, b = heap[0]
            nbrs = self.neighbors.get(a)
            if nbrs is not None and b in nbrs:
                return a, b
            heapq.heappop(heap)
        raise ValueError("graph has no edges")

    def merge(self, a: int, b: int) -> tuple[str, str, int]:
        """Contract edge (a, b); returns the (first, second, weight)
        merge-log entry in :meth:`ConflictGraph.merge` convention."""
        if self.name[a] > self.name[b]:
            a, b = b, a
        first, second = self.name[a], self.name[b]
        weight = self.neighbors[a][b]
        self.internal += weight
        merged_gid = self._next
        self._next += 1
        info_a, info_b = self.info[a], self.info[b]
        self.name[merged_gid] = f"{first}{MERGE_SEPARATOR}{second}"
        self.info[merged_gid] = VertexInfo(
            name=self.name[merged_gid],
            size=info_a.size + info_b.size,
            access_count=info_a.access_count + info_b.access_count,
            members=info_a.members + info_b.members,
        )
        combined: dict[int, int] = {}
        for endpoint in (a, b):
            for other, edge_weight in self.neighbors[endpoint].items():
                if other in (a, b):
                    continue
                combined[other] = combined.get(other, 0) + edge_weight
                other_map = self.neighbors[other]
                other_map.pop(endpoint, None)
        for other, edge_weight in combined.items():
            self.neighbors[other][merged_gid] = edge_weight
            heapq.heappush(
                self._heap,
                (
                    edge_weight,
                    *(
                        (self.name[merged_gid], self.name[other])
                        if self.name[merged_gid] < self.name[other]
                        else (self.name[other], self.name[merged_gid])
                    ),
                    merged_gid,
                    other,
                ),
            )
        self.neighbors[merged_gid] = combined
        del self.neighbors[a], self.neighbors[b]
        del self.name[a], self.name[b]
        del self.info[a], self.info[b]
        self.order = [g for g in self.order if g not in (a, b)]
        self.order.append(merged_gid)
        if a in self._clique or b in self._clique:
            self._clique.discard(a)
            self._clique.discard(b)
            self._clique.add(merged_gid)
        return first, second, weight

    def to_graph(self) -> ConflictGraph:
        """Freeze back into an immutable :class:`ConflictGraph`."""
        vertices = {self.name[gid]: self.info[gid] for gid in self.order}
        weights: dict[frozenset[str], int] = {}
        for a in self.order:
            for b, weight in self.neighbors[a].items():
                if b < a:
                    continue
                weights[frozenset((self.name[a], self.name[b]))] = weight
        return ConflictGraph(
            vertices, weights, internal_cost=self.internal
        )


@dataclass
class MergeResult:
    """Outcome of coloring-with-merging.

    Attributes:
        graph: The final (possibly contracted) graph.
        coloring: Color per final-graph vertex.
        assignment: Color per *original* layout unit.
        cost: Achieved W on the original graph (internalized merge
            weights; remaining monochromatic edges are zero by
            construction when the exact oracle is used).
        merges: The contracted edges, in order, as (a, b, weight).
    """

    graph: ConflictGraph
    coloring: dict[str, int]
    assignment: dict[str, int]
    cost: int
    merges: list[tuple[str, str, int]] = field(default_factory=list)

    @property
    def colors_used(self) -> int:
        """Number of distinct colors in the final coloring."""
        if not self.coloring:
            return 0
        return max(self.coloring.values()) + 1


def color_with_merging(
    graph: ConflictGraph,
    k: int,
    strategy: str = "exact",
    seed: int = 0,
    node_budget: Optional[int] = DEFAULT_NODE_BUDGET,
) -> MergeResult:
    """Color ``graph`` with at most ``k`` colors, merging as needed.

    Args:
        graph: The conflict graph (zero edges already dropped).
        k: Available columns.
        strategy: "exact" (paper), "greedy" (DSATUR only, no
            backtracking) or "random" (ablation baselines).
        seed: Seed for the random strategy.
        node_budget: Per-attempt search budget for the exact oracle;
            on exhaustion the loop falls back to greedy DSATUR with a
            warning (None = unbounded).
    """
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
    state = _ContractionState(graph)
    budget_blown = False
    while True:
        coloring = None
        if strategy == "exact" and not budget_blown:
            # While the clique certificate exceeds k the graph is
            # provably not k-colorable — skip the exact attempt that
            # would only burn (worst-case exponential) time failing.
            if state.clique_size() <= k:
                try:
                    coloring = color_with_k(
                        state.adjacency_by_name(),
                        k,
                        node_budget=node_budget,
                    )
                except ColoringBudgetExceeded:
                    assert node_budget is not None
                    warnings.warn(
                        f"exact coloring exceeded its {node_budget}-node"
                        " search budget during merging; continuing with "
                        "greedy DSATUR",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    budget_blown = True
        if strategy == "greedy" or budget_blown:
            greedy = greedy_coloring(state.adjacency_by_name())
            needed = (max(greedy.values()) + 1) if greedy else 0
            if needed <= k:
                coloring = greedy
        if coloring is not None:
            break
        if state.edge_count() == 0:
            # No edges but too many colors is impossible (an edgeless
            # graph is 1-colorable); defensive guard.
            raise AssertionError(
                "coloring requires more colors than k on an edgeless graph"
            )
        merges.append(state.merge(*state.min_edge()))
    current = state.to_graph()

    assignment: dict[str, int] = {}
    for vertex_name, color in coloring.items():
        for member in current.vertex(vertex_name).members:
            assignment[member] = color
    cost = current.monochromatic_cost(coloring)
    return MergeResult(
        graph=current,
        coloring=coloring,
        assignment=assignment,
        cost=cost,
        merges=merges,
    )
