"""A weighted undirected graph for balanced min-cut partitioning.

Vertices carry weights (the load-balance dimension), edges carry weights
(the objective: total weight of cut edges).  Both may be floats — unlike
METIS we need no integer scaling for the contention likelihoods.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class WeightedGraph:
    """Adjacency-map graph with vertex and edge weights."""

    def __init__(self) -> None:
        self.vertex_weights: list[float] = []
        self.adjacency: list[dict[int, float]] = []

    # -- construction -----------------------------------------------------

    def add_vertex(self, weight: float = 1.0) -> int:
        """Add a vertex; returns its id (dense, starting at 0)."""
        self.vertex_weights.append(weight)
        self.adjacency.append({})
        return len(self.vertex_weights) - 1

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add (or accumulate onto) the undirected edge (u, v)."""
        if u == v:
            raise ValueError(f"self-loop on vertex {u}")
        if weight < 0:
            raise ValueError("negative edge weight")
        self._check(u)
        self._check(v)
        self.adjacency[u][v] = self.adjacency[u].get(v, 0.0) + weight
        self.adjacency[v][u] = self.adjacency[v].get(u, 0.0) + weight

    def _check(self, v: int) -> None:
        if not 0 <= v < len(self.vertex_weights):
            raise IndexError(f"vertex {v} does not exist")

    # -- queries -----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_weights)

    @property
    def n_edges(self) -> int:
        return sum(len(adj) for adj in self.adjacency) // 2

    def neighbors(self, v: int) -> dict[int, float]:
        return self.adjacency[v]

    def total_vertex_weight(self) -> float:
        return sum(self.vertex_weights)

    # -- partition evaluation --------------------------------------------------

    def edge_cut(self, assignment: Sequence[int]) -> float:
        """Total weight of edges whose endpoints land in different parts."""
        if len(assignment) != self.n_vertices:
            raise ValueError("assignment length != vertex count")
        cut = 0.0
        for u, adj in enumerate(self.adjacency):
            for v, weight in adj.items():
                if u < v and assignment[u] != assignment[v]:
                    cut += weight
        return cut

    def part_loads(self, assignment: Sequence[int],
                   k: int) -> list[float]:
        """Sum of vertex weights per partition."""
        loads = [0.0] * k
        for v, part in enumerate(assignment):
            if not 0 <= part < k:
                raise ValueError(f"vertex {v} assigned to invalid part "
                                 f"{part}")
            loads[part] += self.vertex_weights[v]
        return loads

    def is_balanced(self, assignment: Sequence[int], k: int,
                    eps: float) -> bool:
        """The paper's constraint: every L(p) <= (1 + eps) * mu."""
        loads = self.part_loads(assignment, k)
        mu = self.total_vertex_weight() / k
        return all(load <= (1.0 + eps) * mu + 1e-9 for load in loads)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, float]],
                   vertex_weights: Sequence[float] | None = None,
                   ) -> "WeightedGraph":
        """Convenience constructor for tests and small examples."""
        graph = cls()
        for i in range(n):
            weight = 1.0 if vertex_weights is None else vertex_weights[i]
            graph.add_vertex(weight)
        for u, v, w in edges:
            graph.add_edge(u, v, w)
        return graph
