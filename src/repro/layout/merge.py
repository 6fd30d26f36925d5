"""The merging heuristic of paper Section 3.1.2.

"If the number of colors required is more than k ... we find the
minimum-weight edge in G and merge the vertices that are connected by
this edge.  This results in a smaller graph with one less vertex.  We
run exact minimum graph coloring on this graph ... We stop when the
number of colors required is less than or equal to k, and assign
columns to vertices by the coloring.  Any merged vertices are assigned
to the same column."

The merge order does not depend on ``k``, so :func:`merge_ladder`
walks the contractions once and returns the result for every requested
``k`` — the planner's predicted cost W(k) over a whole range of grant
sizes for the price of one pass (the fleet broker's demand curves).
:func:`color_with_merging` is that walk at a single ``k``.

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
from typing import Iterable, Optional

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




def _colors_used(coloring: dict[str, int]) -> int:
    return (max(coloring.values()) + 1) if coloring else 0


def _result(
    current: ConflictGraph,
    coloring: dict[str, int],
    merges: list[tuple[str, str, int]],
) -> MergeResult:
    assignment: dict[str, int] = {}
    for vertex_name, color in coloring.items():
        for member in current.vertex(vertex_name).members:
            assignment[member] = color
    return MergeResult(
        graph=current,
        coloring=coloring,
        assignment=assignment,
        cost=current.monochromatic_cost(coloring),
        merges=list(merges),
    )


def merge_ladder(
    graph: ConflictGraph,
    ks: Iterable[int],
    strategy: str = "exact",
    seed: int = 0,
    node_budget: Optional[int] = DEFAULT_NODE_BUDGET,
) -> dict[int, MergeResult]:
    """Color ``graph`` with at most ``k`` colors for every ``k`` in
    ``ks``, merging as needed, in one contraction pass.

    Each result equals what the merge loop run for that ``k`` alone
    returns.  The loop for ``k`` walks the graph's min-weight-edge
    contractions — an order that does not depend on ``k`` — and stops
    at the first k-colorable state, so one walk reaches every ``k``'s
    stopping point in turn:

    * **One pass covers every k.**  A k-coloring is also a
      (k+1)-coloring, so ``k`` never stops before ``k + 1`` does.  At
      each state the ladder tests only the largest pending ``k`` and
      merges only when that test fails: if the search finds no
      coloring for ``k``, it finds none for any smaller ``k`` either.
    * **One search covers a range of k.**  For ``k' < k``,
      :func:`~repro.layout.coloring.color_with_k`'s search tree is the
      ``k``-tree pruned to colors below ``k'``, visited in the same
      order (vertex choice depends only on the partial coloring).  So
      a coloring the ``k`` search finds with ``m`` colors is exactly
      the ``k'`` search's result for every ``k'`` in ``[m, k]`` —
      recorded from that one call — and a ``k`` search that fails
      within the node budget means the ``k'`` search fails within it
      too, so skipping ``k'`` at earlier states hides no budget
      overrun.
    * **Clique certificate.**  The skip stays per ``k``: while the
      maintained clique exceeds ``k``, no attempt is made for ``k``.
    * **Node budget.**  When a ``k``'s own exact attempt exceeds the
      budget, that ``k`` warns once and continues with greedy DSATUR
      from that state on, exactly as its own loop would; smaller
      ``k`` go on with the exact search from the same state.
    * **Strategies.**  ``greedy`` runs the same walk: its color count
      at a state does not depend on ``k``.  ``random`` is a seeded
      random assignment per ``k``, with no merging.

    Every ``k`` in ``ks`` resolved by the same coloring at the same
    state shares one :class:`MergeResult`.

    Args:
        graph: The conflict graph (zero edges already dropped).
        ks: Available column counts to color for (each at least 1).
        strategy: "exact" (paper), "greedy" (DSATUR only, no
            backtracking) or "random" (ablation baselines).
        seed: Seed for the random strategy.
        node_budget: Per-attempt search budget for the exact oracle;
            on exhaustion that ``k`` falls back to greedy DSATUR with a
            warning (None = unbounded).

    Returns:
        One result per distinct ``k``, keyed by ``k`` in ascending
        order.
    """
    ks = sorted(set(ks))
    if ks and ks[0] < 1:
        raise ValueError(f"need at least one color, got k={ks[0]}")
    if strategy not in ("exact", "greedy", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")

    results: dict[int, MergeResult] = {}
    if strategy == "random":
        for k in ks:
            rng = random.Random(seed)
            coloring = {
                vertex: rng.randrange(k) for vertex in graph.vertex_names()
            }
            results[k] = MergeResult(
                graph=graph,
                coloring=coloring,
                assignment=dict(coloring),
                cost=graph.monochromatic_cost(coloring),
            )
        return results

    merges: list[tuple[str, str, int]] = []
    state = _ContractionState(graph)
    # Pending ks still searched exactly (ascending: the ladder tests
    # the last), and pending ks colored by greedy DSATUR — all of them
    # under the greedy strategy, else those whose exact attempt blew
    # the node budget.
    exact = list(ks) if strategy == "exact" else []
    greedy = [] if strategy == "exact" else list(ks)
    while exact or greedy:
        adjacency = None
        found: list[tuple[list[int], dict[str, int]]] = []
        # While the clique certificate exceeds k the graph is provably
        # not k-colorable — skip the exact attempt that would only
        # burn (worst-case exponential) time failing.
        while exact and state.clique_size() <= exact[-1]:
            if adjacency is None:
                adjacency = state.adjacency_by_name()
            try:
                coloring = color_with_k(
                    adjacency, exact[-1], node_budget=node_budget
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
                greedy.append(exact.pop())
                continue
            if coloring is None:
                break
            used = _colors_used(coloring)
            covered: list[int] = []
            while exact and exact[-1] >= used:
                covered.append(exact.pop())
            found.append((covered, coloring))
        if greedy:
            if adjacency is None:
                adjacency = state.adjacency_by_name()
            coloring = greedy_coloring(adjacency)
            used = _colors_used(coloring)
            covered = [k for k in greedy if k >= used]
            if covered:
                greedy = [k for k in greedy if k < used]
                found.append((covered, coloring))
        if found:
            current = state.to_graph()
            for covered, coloring in found:
                result = _result(current, coloring, merges)
                for k in covered:
                    results[k] = result
        if not (exact or greedy):
            break
        if state.edge_count() == 0:
            # No edges but too many colors is impossible (an edgeless
            # graph is 1-colorable); defensive guard.
            raise AssertionError(
                "coloring requires more colors than k on an edgeless graph"
            )
        merges.append(state.merge(*state.min_edge()))
    return {k: results[k] for k in ks}


def color_with_merging(
    graph: ConflictGraph,
    k: int,
    strategy: str = "exact",
    seed: int = 0,
    node_budget: Optional[int] = DEFAULT_NODE_BUDGET,
) -> MergeResult:
    """Color ``graph`` with at most ``k`` colors, merging as needed.

    The :func:`merge_ladder` at the single ``k``; the arguments are
    the ladder's.
    """
    return merge_ladder(graph, (k,), strategy, seed, node_budget)[k]
