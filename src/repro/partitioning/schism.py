"""Schism [Curino et al., VLDB 2010] — the paper's main baseline.

Schism models the workload as a *co-access graph*: one vertex per
record, one edge (weight = co-access frequency) between every pair of
records touched by the same transaction — n(n-1)/2 edges per n-record
transaction, versus the star graph's n.  A balanced min-cut then
minimizes the number of transactions whose records straddle partitions,
i.e. the number of *distributed transactions* — the objective Chiller
argues is obsolete on fast networks.

We partition with the same multilevel tool Chiller uses (as the paper
does with METIS for both), and skip Schism's replicated-tuple and
range-predicate post-processing phases, which its own evaluation does
not exercise here.  Schism must remember where *every* record went:
its lookup table has one entry per record (the ~10x size gap of
Section 7.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..core.stats import TxnSample
from ..graph import WeightedGraph, part_graph
from ..storage import RecordId
from .base import LookupScheme


EPS = 0.15
"""Balance slack of Schism's cut: L(p) <= (1 + eps) * mu, with every
record weighing 1 (Schism balances record counts)."""


@dataclass(frozen=True)
class SchismConfig:
    seed: int = 1


@dataclass
class SchismPartitioning:
    """Schism's output: a full per-record placement."""

    record_assignment: dict[RecordId, int]
    graph: WeightedGraph
    assignment: list[int] = field(default_factory=list)
    n_edges: int = 0

    def lookup_table_size(self) -> int:
        return len(self.record_assignment)

    def scheme(self, fallback) -> LookupScheme:
        """Every known record is in the table; only unseen records (for
        example, rows inserted later) fall through to ``fallback``."""
        return LookupScheme(self.record_assignment, fallback)

    def cut_weight(self) -> float:
        return self.graph.edge_cut(self.assignment)


def build_coaccess_graph(samples: Iterable[TxnSample],
                         ) -> tuple[WeightedGraph, dict[RecordId, int]]:
    """The clique-per-transaction workload graph."""
    graph = WeightedGraph()
    vertex_of: dict[RecordId, int] = {}
    for sample in samples:
        records = sample.records()
        for rid in records:
            if rid not in vertex_of:
                vertex_of[rid] = graph.add_vertex(1.0)
        for i in range(len(records)):
            for j in range(i + 1, len(records)):
                graph.add_edge(vertex_of[records[i]],
                               vertex_of[records[j]], 1.0)
    return graph, vertex_of


def partition_schism(samples: Iterable[TxnSample], n_partitions: int,
                     config: SchismConfig | None = None,
                     ) -> SchismPartitioning:
    """Run the Schism pipeline: co-access graph -> balanced min-cut."""
    config = config or SchismConfig()
    sample_list = list(samples)
    graph, vertex_of = build_coaccess_graph(sample_list)
    if graph.n_vertices == 0:
        return SchismPartitioning({}, graph, [], 0)
    assignment = part_graph(graph, n_partitions, eps=EPS,
                            seed=config.seed)
    record_assignment = {rid: assignment[v]
                         for rid, v in vertex_of.items()}
    return SchismPartitioning(record_assignment, graph, assignment,
                              graph.n_edges)
