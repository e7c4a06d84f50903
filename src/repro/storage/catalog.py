"""The catalog maps records to partitions via a pluggable placement scheme.

Placement is split exactly as in the paper (Section 4.4): a small lookup
table knows where the *hot* records live; everything else falls through
to an orthogonal default partitioner (hash or range).  Baseline schemes
(pure hashing, Schism) implement the same interface in
:mod:`repro.partitioning`.
"""

from __future__ import annotations

from typing import Protocol

from .bucket import Key


class PlacementScheme(Protocol):
    """Anything that can answer "which partition owns this record?"."""

    def partition_of(self, table: str, key: Key) -> int:
        """Partition id hosting the primary copy of (table, key)."""
        ...  # pragma: no cover - protocol

    def lookup_table_size(self) -> int:
        """Number of explicit per-record entries the scheme must store."""
        ...  # pragma: no cover - protocol


class Catalog:
    """Cluster-wide placement metadata.

    ``replicated_tables`` are read-only tables fully copied to every
    partition (e.g. the TPC-C item table, which every practical
    warehouse-partitioned deployment replicates); reads of those resolve
    to the *reader's* partition.
    """

    def __init__(self, n_partitions: int, scheme: PlacementScheme,
                 replicated_tables: frozenset[str] = frozenset()):
        if n_partitions <= 0:
            raise ValueError("need at least one partition")
        self.n_partitions = n_partitions
        self.scheme = scheme
        self.replicated_tables = frozenset(replicated_tables)

    def partition_of(self, table: str, key: Key,
                     reader: int | None = None) -> int:
        if table in self.replicated_tables:
            if reader is None:
                raise ValueError(
                    f"table {table!r} is replicated everywhere; placement "
                    f"needs the reader's partition")
            return reader
        partition = self.scheme.partition_of(table, key)
        if not 0 <= partition < self.n_partitions:
            raise ValueError(
                f"scheme placed ({table!r}, {key!r}) on partition "
                f"{partition}, outside [0, {self.n_partitions})")
        return partition

    def lookup_table_size(self) -> int:
        return self.scheme.lookup_table_size()
