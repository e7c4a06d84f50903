"""The multilevel k-way partitioner driver (our METIS substitute).

``part_graph(graph, k, eps, seed)`` returns a balanced assignment with a
small edge cut: coarsen by heavy-edge matching, partition the coarsest
graph by greedy growing, then project back level by level with FM-style
boundary refinement at each step.  Multiple seeded tries keep the best
cut (:data:`N_TRIES`), trading time for quality exactly like METIS's
multiple initial partitions.
"""

from __future__ import annotations

from .._util import make_rng
from .coarsen import coarsen
from .graph import WeightedGraph
from .initial import initial_partition
from .refine import rebalance, refine, swap_refine

_SWAP_LIMIT = 600
"""Pairwise-swap refinement is quadratic; only run it below this size."""

N_TRIES = 4
"""Seeded tries per partitioning; the best cut wins."""


def part_graph(graph: WeightedGraph, k: int, eps: float = 0.10,
               seed: int = 1, coarsen_to: int | None = None) -> list[int]:
    """Partition ``graph`` into ``k`` parts minimizing the edge cut.

    The balance constraint is the paper's: each part's vertex-weight sum
    is at most ``(1 + eps)`` times the average.  Returns the vertex ->
    partition assignment.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if graph.n_vertices == 0:
        return []
    if k == 1:
        return [0] * graph.n_vertices
    if k > graph.n_vertices:
        raise ValueError(f"cannot split {graph.n_vertices} vertices into "
                         f"{k} non-empty parts")
    target = coarsen_to if coarsen_to is not None else max(16 * k, 64)

    best_assignment: list[int] | None = None
    best_cut = float("inf")
    for attempt in range(N_TRIES):
        rng = make_rng(seed, "part", attempt)
        levels = coarsen(graph, target, rng)
        coarsest = levels[-1].graph if levels else graph
        assignment = initial_partition(coarsest, k, eps, rng)
        assignment = refine(coarsest, assignment, k, eps)
        assignment = swap_refine(coarsest, assignment, k, eps)
        for level in reversed(levels):
            assignment = level.project(assignment)
            fine_graph = _finer_graph(graph, levels, level)
            assignment = refine(fine_graph, assignment, k, eps)
        assignment = rebalance(graph, assignment, k, eps)
        assignment = refine(graph, assignment, k, eps)
        if graph.n_vertices <= _SWAP_LIMIT:
            assignment = swap_refine(graph, assignment, k, eps)
        cut = graph.edge_cut(assignment)
        if cut < best_cut or (cut == best_cut
                              and best_assignment is None):
            best_cut = cut
            best_assignment = assignment
    assert best_assignment is not None
    return best_assignment


def _finer_graph(original: WeightedGraph, levels, level) -> WeightedGraph:
    """The graph one step finer than ``level`` (the original for the
    first level)."""
    index = levels.index(level)
    if index == 0:
        return original
    return levels[index - 1].graph
