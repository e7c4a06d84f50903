"""The star workload-graph representation (paper Section 4.2).

Every sampled transaction becomes a dummy *t-vertex* connected to the
*r-vertices* of the records it touched — n edges per transaction instead
of the n(n-1)/2 a co-access clique (Schism) needs.  All edges of an
r-vertex carry the same weight: the record's (normalized) contention
likelihood — how bad it would be to access this record in an outer
region.  An optional ``min_weight`` on every edge co-optimizes for fewer
distributed transactions (Section 4.4).

Vertex weights encode the load-balance metric:

* ``"transactions"`` — t-vertices weigh 1, r-vertices 0;
* ``"records"``      — r-vertices weigh 1, t-vertices 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..graph import WeightedGraph, part_graph
from ..storage import RecordId
from .contention import normalize
from .stats import TxnSample

LOAD_METRICS = ("transactions", "records")


@dataclass
class StarGraph:
    """The built graph plus both vertex directories."""

    graph: WeightedGraph
    t_vertex_of: list[int]                  # sample index -> vertex id
    r_vertex_of: dict[RecordId, int]        # record id -> vertex id
    samples: list[TxnSample]
    edge_weight_of: dict[RecordId, float]   # the (normalized) Pc used

    def record_assignment(self, assignment: Sequence[int],
                          ) -> dict[RecordId, int]:
        """Record placements implied by a graph partitioning."""
        return {rid: assignment[v] for rid, v in self.r_vertex_of.items()}

    def inner_host_assignment(self, assignment: Sequence[int],
                              ) -> list[int]:
        """Per-sample inner host (the partition of each t-vertex)."""
        return [assignment[v] for v in self.t_vertex_of]

    def cut_weight(self, assignment: Sequence[int]) -> float:
        """Total weight of outer-region (cut, green) edges."""
        return self.graph.edge_cut(assignment)


def build_star_graph(samples: Iterable[TxnSample],
                     likelihoods: Mapping[RecordId, float],
                     load_metric: str = "transactions",
                     min_weight: float = 0.0) -> StarGraph:
    """Construct the star graph for a batch of sampled transactions."""
    if load_metric not in LOAD_METRICS:
        raise ValueError(f"unknown load metric {load_metric!r}; "
                         f"choose from {LOAD_METRICS}")
    if min_weight < 0:
        raise ValueError("min_weight must be non-negative")
    sample_list = list(samples)
    weights = normalize(dict(likelihoods))

    graph = WeightedGraph()
    r_vertex_of: dict[RecordId, int] = {}
    t_vertex_of: list[int] = []
    edge_weight_of: dict[RecordId, float] = {}

    t_weight = 1.0 if load_metric == "transactions" else 0.0
    for sample in sample_list:
        t_vertex_of.append(graph.add_vertex(t_weight))

    for index, sample in enumerate(sample_list):
        t_vertex = t_vertex_of[index]
        for rid in sample.records():
            r_vertex = r_vertex_of.get(rid)
            if r_vertex is None:
                r_vertex = graph.add_vertex(0.0)
                r_vertex_of[rid] = r_vertex
            weight = max(weights.get(rid, 0.0), min_weight)
            edge_weight_of[rid] = weight
            graph.add_edge(t_vertex, r_vertex, weight)

    if load_metric == "records":
        for vertex in r_vertex_of.values():
            graph.vertex_weights[vertex] = 1.0
    return StarGraph(graph, t_vertex_of, r_vertex_of, sample_list,
                     edge_weight_of)


def partition_star_graph(star: StarGraph, n_partitions: int,
                         eps: float = 0.10, seed: int = 1) -> list[int]:
    """Balanced min-cut over the star graph (cut weight = contention)."""
    return part_graph(star.graph, n_partitions, eps=eps, seed=seed)
