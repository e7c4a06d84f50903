"""Greedy k-way boundary refinement (Fiduccia–Mattheyses style).

After each uncoarsening projection, repeatedly move boundary vertices to
the neighboring partition with the highest *gain* (cut-weight reduction)
subject to the balance cap.  Zero-gain moves are allowed when they
improve balance, which lets the refiner walk out of plateaus.
"""

from __future__ import annotations

from .graph import WeightedGraph

REFINE_PASSES = 8
"""Sweeps of single-vertex moves before :func:`refine` gives up."""

SWAP_PASSES = 4
"""Sweeps of pairwise swaps before :func:`swap_refine` gives up."""


def refine(graph: WeightedGraph, assignment: list[int], k: int,
           eps: float) -> list[int]:
    """Improve ``assignment`` in place; returns it for convenience."""
    mu = graph.total_vertex_weight() / k
    capacity = (1.0 + eps) * mu
    loads = graph.part_loads(assignment, k)

    for _ in range(REFINE_PASSES):
        improved = False
        for v in range(graph.n_vertices):
            current = assignment[v]
            weight = graph.vertex_weights[v]
            internal = 0.0
            external: dict[int, float] = {}
            for u, edge_weight in graph.neighbors(v).items():
                part = assignment[u]
                if part == current:
                    internal += edge_weight
                else:
                    external[part] = external.get(part, 0.0) + edge_weight
            best_part, best_gain = current, 0.0
            for part, ext_weight in external.items():
                gain = ext_weight - internal
                if loads[part] + weight > capacity:
                    continue
                better = gain > best_gain + 1e-12
                ties_better_balance = (
                    abs(gain - best_gain) <= 1e-12
                    and gain >= 0.0
                    and loads[part] + weight < loads[current] - 1e-12
                    and best_part == current)
                if better or ties_better_balance:
                    best_part, best_gain = part, gain
            if best_part != current:
                assignment[v] = best_part
                loads[current] -= weight
                loads[best_part] += weight
                improved = True
        if not improved:
            break
    return assignment


def swap_refine(graph: WeightedGraph, assignment: list[int], k: int,
                eps: float) -> list[int]:
    """Kernighan–Lin style pairwise swaps.

    Single moves cannot escape configurations where the balance cap is
    tight (every move overloads the target), but exchanging two vertices
    keeps loads nearly unchanged.  Quadratic in vertex count, so the
    driver only applies it to small graphs (the coarsest level and small
    inputs), where it matters most.
    """
    mu = graph.total_vertex_weight() / k
    capacity = (1.0 + eps) * mu
    loads = graph.part_loads(assignment, k)

    def move_gain(v: int, target: int) -> float:
        gain = 0.0
        for u, weight in graph.neighbors(v).items():
            if assignment[u] == assignment[v]:
                gain -= weight
            elif assignment[u] == target:
                gain += weight
        return gain

    n = graph.n_vertices
    for _ in range(SWAP_PASSES):
        improved = False
        for u in range(n):
            for v in range(u + 1, n):
                pu, pv = assignment[u], assignment[v]
                if pu == pv:
                    continue
                gain = (move_gain(u, pv) + move_gain(v, pu)
                        - 2.0 * graph.neighbors(u).get(v, 0.0))
                if gain <= 1e-12:
                    continue
                wu, wv = graph.vertex_weights[u], graph.vertex_weights[v]
                if (loads[pu] - wu + wv > capacity
                        or loads[pv] - wv + wu > capacity):
                    continue
                assignment[u], assignment[v] = pv, pu
                loads[pu] += wv - wu
                loads[pv] += wu - wv
                improved = True
        if not improved:
            break
    return assignment


def rebalance(graph: WeightedGraph, assignment: list[int], k: int,
              eps: float) -> list[int]:
    """Force the balance constraint by evicting cheapest vertices from
    overloaded partitions (used if projection broke the cap)."""
    mu = graph.total_vertex_weight() / k
    capacity = (1.0 + eps) * mu
    loads = graph.part_loads(assignment, k)
    order = sorted(range(graph.n_vertices),
                   key=lambda v: graph.vertex_weights[v])
    for v in order:
        part = assignment[v]
        if loads[part] <= capacity:
            continue
        weight = graph.vertex_weights[v]
        if weight == 0.0:
            continue
        target = min(range(k), key=lambda p: loads[p])
        if target != part and loads[target] + weight <= capacity:
            assignment[v] = target
            loads[part] -= weight
            loads[target] += weight
    return assignment
