"""The weighted conflict graph G(V, E, W) of paper Section 3.1.

Vertices are layout units (variables or column-sized subarrays); the
weight of edge ``(v_i, v_j)`` models the cost of placing both in the
same column.  Zero-weight edges are dropped at construction, matching
the paper ("prior to coloring, we will delete all zero-weight edges").

Vertex merging (used by the Section 3.1.2 heuristic) contracts an edge:
the merged vertex inherits the union of neighbors with summed weights,
and the contracted edge's weight is accumulated into
``internal_cost`` — the part of W already committed by forcing those
variables to share a column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from repro.profiling.profiler import ProfileLike

MERGE_SEPARATOR = "+"


@dataclass(frozen=True)
class VertexInfo:
    """One conflict-graph vertex.

    Attributes:
        name: Vertex name (merged vertices join member names with '+').
        size: Total footprint in bytes.
        access_count: Total accesses.
        members: The original layout-unit names inside this vertex.
    """

    name: str
    size: int
    access_count: int
    members: tuple[str, ...]


class ConflictGraph:
    """Undirected weighted graph over layout units."""

    def __init__(
        self,
        vertices: dict[str, VertexInfo],
        weights: dict[frozenset[str], int],
        internal_cost: int = 0,
    ):
        for edge in weights:
            if len(edge) != 2:
                raise ValueError(f"edge {set(edge)} must join two vertices")
            for endpoint in edge:
                if endpoint not in vertices:
                    raise ValueError(f"edge endpoint {endpoint!r} not a vertex")
        self._vertices = dict(vertices)
        self._weights = {
            edge: weight for edge, weight in weights.items() if weight > 0
        }
        self.internal_cost = internal_cost

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_profile(
        cls,
        profile: ProfileLike,
        variables: Optional[Iterable[str]] = None,
        weight_fn: Optional[Callable[[str, str], int]] = None,
    ) -> "ConflictGraph":
        """Build the graph from a profile.

        ``variables`` restricts the vertex set (default: every profiled
        variable); ``weight_fn`` overrides the paper's MIN rule (used
        by the weight-metric ablation).

        With the default MIN rule and a measured profile (one exposing
        ``weight_matrix``), every pairwise weight is computed in one
        vectorized pass; a custom ``weight_fn`` — or a profile without
        position arrays, such as the estimated
        :class:`~repro.profiling.static_analysis.StaticProfile` —
        falls back to the per-pair loop, which the differential suite
        also uses as the bit-identical reference.
        """
        names = list(variables) if variables is not None else list(
            profile.variables
        )
        vertices = {}
        for name in names:
            stats = profile.variables[name]
            vertices[name] = VertexInfo(
                name=name,
                size=stats.size,
                access_count=stats.access_count,
                members=(name,),
            )
        weights: dict[frozenset[str], int] = {}
        matrix_fn = getattr(profile, "weight_matrix", None)
        if weight_fn is None and callable(matrix_fn):
            matrix = matrix_fn(names)
            rows, cols = np.nonzero(np.triu(matrix, 1))
            for first, second in zip(rows.tolist(), cols.tolist()):
                weights[frozenset((names[first], names[second]))] = int(
                    matrix[first, second]
                )
            return cls(vertices, weights)
        weigh = weight_fn if weight_fn is not None else profile.pair_weight
        for index, first in enumerate(names):
            for second in names[index + 1:]:
                weight = weigh(first, second)
                if weight > 0:
                    weights[frozenset((first, second))] = weight
        return cls(vertices, weights)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def vertex_names(self) -> list[str]:
        """All vertex names."""
        return list(self._vertices)

    def vertex(self, name: str) -> VertexInfo:
        """Vertex info by name."""
        return self._vertices[name]

    def edges(self) -> list[tuple[str, str, int]]:
        """All (nonzero) edges as sorted (a, b, weight) triples."""
        result = []
        for edge, weight in self._weights.items():
            first, second = sorted(edge)
            result.append((first, second, weight))
        result.sort()
        return result

    def weight(self, first: str, second: str) -> int:
        """Edge weight (0 if absent)."""
        return self._weights.get(frozenset((first, second)), 0)

    def neighbors(self, name: str) -> set[str]:
        """Vertices joined to ``name`` by a positive-weight edge."""
        found = set()
        for edge in self._weights:
            if name in edge:
                (other,) = edge - {name}
                found.add(other)
        return found

    def adjacency(self) -> dict[str, set[str]]:
        """name -> neighbor set, for the coloring routines."""
        adjacency: dict[str, set[str]] = {
            name: set() for name in self._vertices
        }
        for edge in self._weights:
            first, second = tuple(edge)
            adjacency[first].add(second)
            adjacency[second].add(first)
        return adjacency

    def vertex_count(self) -> int:
        """Number of vertices."""
        return len(self._vertices)

    def edge_count(self) -> int:
        """Number of positive-weight edges."""
        return len(self._weights)

    def min_weight_edge(self) -> tuple[str, str, int]:
        """The minimum-weight edge (ties broken lexicographically).

        Raises ValueError when the graph has no edges.
        """
        if not self._weights:
            raise ValueError("graph has no edges")
        best = min(
            self._weights.items(),
            key=lambda item: (item[1], tuple(sorted(item[0]))),
        )
        first, second = sorted(best[0])
        return first, second, best[1]

    # ------------------------------------------------------------------
    # Contraction and cost
    # ------------------------------------------------------------------
    def merge(self, first: str, second: str) -> "ConflictGraph":
        """Contract the edge (first, second) into one vertex.

        The new vertex is named ``first+second``; its edges carry the
        summed weights of the endpoints' edges, and the contracted
        weight moves into ``internal_cost``.
        """
        if first not in self._vertices or second not in self._vertices:
            raise KeyError(f"unknown vertices {first!r}/{second!r}")
        if first == second:
            raise ValueError("cannot merge a vertex with itself")
        info_a = self._vertices[first]
        info_b = self._vertices[second]
        merged = VertexInfo(
            name=f"{first}{MERGE_SEPARATOR}{second}",
            size=info_a.size + info_b.size,
            access_count=info_a.access_count + info_b.access_count,
            members=info_a.members + info_b.members,
        )
        vertices = {
            name: info
            for name, info in self._vertices.items()
            if name not in (first, second)
        }
        vertices[merged.name] = merged

        weights: dict[frozenset[str], int] = {}
        internal = self.internal_cost
        for edge, weight in self._weights.items():
            if edge == frozenset((first, second)):
                internal += weight
                continue
            endpoints = set(edge)
            renamed = frozenset(
                merged.name if endpoint in (first, second) else endpoint
                for endpoint in endpoints
            )
            weights[renamed] = weights.get(renamed, 0) + weight
        return ConflictGraph(vertices, weights, internal_cost=internal)

    def monochromatic_cost(self, coloring: dict[str, int]) -> int:
        """The paper's objective W for a coloring of *this* graph.

        ``W = sum of w(e_j) over edges whose endpoints share a color``,
        plus any cost already internalized by merges.
        """
        cost = self.internal_cost
        for edge, weight in self._weights.items():
            first, second = tuple(edge)
            if coloring[first] == coloring[second]:
                cost += weight
        return cost

    def __repr__(self) -> str:
        return (
            f"ConflictGraph({self.vertex_count()} vertices, "
            f"{self.edge_count()} edges, internal={self.internal_cost})"
        )
