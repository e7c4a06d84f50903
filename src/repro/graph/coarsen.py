"""Multilevel coarsening via heavy-edge matching (as in METIS [14]).

Each level matches every vertex with the unmatched neighbor it shares
its heaviest edge with; matched pairs merge into one coarse vertex whose
weight is the pair's sum.  Edge weights between coarse vertices
accumulate, so the coarse graph's cuts correspond exactly to fine-graph
cuts — partitioning the small graph and projecting back preserves the
objective.
"""

from __future__ import annotations

import random

from .graph import WeightedGraph

MIN_SHRINK = 0.95
"""Coarsening stops once a level keeps this share of its vertices or
more: the matching found almost nothing to merge."""


class CoarseLevel:
    """One coarsening step: the coarse graph plus the fine->coarse map."""

    __slots__ = ("graph", "fine_to_coarse")

    def __init__(self, graph: WeightedGraph, fine_to_coarse: list[int]):
        self.graph = graph
        self.fine_to_coarse = fine_to_coarse

    def project(self, coarse_assignment: list[int]) -> list[int]:
        """Expand a coarse-graph assignment to the fine graph."""
        return [coarse_assignment[c] for c in self.fine_to_coarse]


def heavy_edge_matching(graph: WeightedGraph,
                        rng: random.Random) -> list[int]:
    """Match each vertex with its heaviest-edge unmatched neighbor.

    Returns ``match[v]`` = partner vertex (or v itself when unmatched).
    """
    n = graph.n_vertices
    match = [-1] * n
    order = list(range(n))
    rng.shuffle(order)
    for v in order:
        if match[v] != -1:
            continue
        best, best_weight = v, -1.0
        for u, weight in graph.neighbors(v).items():
            if match[u] == -1 and weight > best_weight:
                best, best_weight = u, weight
        match[v] = best
        match[best] = v
    return match


def coarsen_once(graph: WeightedGraph,
                 rng: random.Random) -> CoarseLevel:
    """Build the next-coarser graph from one heavy-edge matching."""
    match = heavy_edge_matching(graph, rng)
    fine_to_coarse = [-1] * graph.n_vertices
    coarse = WeightedGraph()
    for v in range(graph.n_vertices):
        if fine_to_coarse[v] != -1:
            continue
        partner = match[v]
        weight = graph.vertex_weights[v]
        if partner != v:
            weight += graph.vertex_weights[partner]
        cid = coarse.add_vertex(weight)
        fine_to_coarse[v] = cid
        if partner != v:
            fine_to_coarse[partner] = cid
    for u in range(graph.n_vertices):
        cu = fine_to_coarse[u]
        for v, weight in graph.neighbors(u).items():
            cv = fine_to_coarse[v]
            if u < v and cu != cv:
                coarse.add_edge(cu, cv, weight)
    return CoarseLevel(coarse, fine_to_coarse)


def coarsen(graph: WeightedGraph, target_vertices: int,
            rng: random.Random) -> list[CoarseLevel]:
    """Coarsen repeatedly until small enough or progress stalls.

    Returns the levels finest-first; an empty list means the input was
    already small enough.
    """
    levels: list[CoarseLevel] = []
    current = graph
    while current.n_vertices > target_vertices:
        level = coarsen_once(current, rng)
        if level.graph.n_vertices >= current.n_vertices * MIN_SHRINK:
            break
        levels.append(level)
        current = level.graph
    return levels
