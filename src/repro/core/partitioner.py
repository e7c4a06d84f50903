"""Chiller's contention-aware partitioner (paper Section 4.3).

Pipeline: sampled transaction footprints -> contention likelihoods
(Poisson model) -> star graph -> balanced min-cut (our multilevel
partitioner standing in for METIS) -> a hot-record lookup table over a
hash/range fallback.  The cut solution simultaneously decides where hot
records live and which partition would serve each sampled transaction's
inner region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..storage import RecordId
from .contention import normalize
from .lookup import HotRecordTable
from .stargraph import StarGraph, build_star_graph, partition_star_graph
from .stats import TxnSample


HOT_THRESHOLD = 0.02
"""Normalized likelihood above which a record enters the lookup table
(everything below falls back to hash/range placement)."""

LOAD_METRIC = "transactions"
"""What a partition's load counts
(:data:`~repro.core.stargraph.LOAD_METRICS`): transactions, as the
paper's experiments do; ``"records"`` reproduces
its Fig. 5 worked example (``tests/core/test_paper_examples.py``)."""


@dataclass(frozen=True)
class ChillerPartitionerConfig:
    """Knobs of the partitioning pipeline."""

    eps: float = 0.10
    """Balance slack: L(p) <= (1 + eps) * mu."""

    min_weight: float = 0.0
    """Minimum edge weight; > 0 co-optimizes for fewer distributed
    transactions (Section 4.4)."""

    seed: int = 1
    keep_all_records: bool = False
    """Store every record's placement (Schism-style full lookup table).
    Used by the lookup-size experiment to quantify the saving."""


@dataclass
class ChillerPartitioning:
    """The partitioner's full output."""

    hot_table: HotRecordTable
    record_assignment: dict[RecordId, int]
    inner_hosts: list[int]
    star: StarGraph
    assignment: list[int]
    likelihoods: dict[RecordId, float] = field(default_factory=dict)

    @property
    def cut_weight(self) -> float:
        return self.star.cut_weight(self.assignment)

    def lookup_table_size(self) -> int:
        return len(self.hot_table)

    def scheme(self, fallback):
        """Placement scheme for the catalog."""
        return self.hot_table.scheme(fallback)


def partition_workload(samples: Iterable[TxnSample],
                       likelihoods: Mapping[RecordId, float],
                       n_partitions: int,
                       config: ChillerPartitionerConfig | None = None,
                       ) -> ChillerPartitioning:
    """Run the full Chiller partitioning pipeline."""
    config = config or ChillerPartitionerConfig()
    star = build_star_graph(samples, likelihoods,
                            load_metric=LOAD_METRIC,
                            min_weight=config.min_weight)
    assignment = partition_star_graph(star, n_partitions,
                                      eps=config.eps, seed=config.seed)
    record_assignment = star.record_assignment(assignment)
    normalized = normalize(dict(likelihoods))
    threshold = 0.0 if config.keep_all_records else HOT_THRESHOLD
    hot_table = HotRecordTable.from_assignment(record_assignment,
                                               normalized, threshold)
    return ChillerPartitioning(
        hot_table=hot_table,
        record_assignment=record_assignment,
        inner_hosts=star.inner_host_assignment(assignment),
        star=star,
        assignment=assignment,
        likelihoods=dict(likelihoods))
