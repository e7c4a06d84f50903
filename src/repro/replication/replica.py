"""Replica placement and state.

Each partition has ``n_replicas`` copies beyond the primary (the paper's
experiments use replication degree 2: one primary plus one copy).  The
replica of partition ``p`` number ``j`` lives on server
``(p + 1 + j) mod n`` — chained placement, so no server replicates
itself.  Replicas hold full :class:`~repro.storage.partition.PartitionStore`
state and apply write-sets in the order they arrive (channel FIFO-ness
gives the in-order guarantee the paper assumes of RDMA queue pairs).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from ..storage import PartitionStore, TableSpec


class ReplicaManager:
    """Creates, places, and applies writes to partition replicas."""

    def __init__(self, n_servers: int, n_replicas: int,
                 tables: Iterable[TableSpec],
                 now_fn: Callable[[], float] | None = None):
        if n_replicas < 0:
            raise ValueError("n_replicas must be >= 0")
        if n_replicas >= n_servers:
            raise ValueError(
                f"cannot place {n_replicas} replicas of each partition on "
                f"{n_servers} servers without self-replication")
        self.n_servers = n_servers
        self.n_replicas = n_replicas
        table_list = list(tables)
        # (hosting server, partition id) -> replica store
        self._stores: dict[tuple[int, int], PartitionStore] = {}
        for partition in range(n_servers):
            for server in self.replica_servers(partition):
                self._stores[(server, partition)] = PartitionStore(
                    partition, table_list, now_fn=now_fn)
        self.applied_counts: dict[tuple[int, int], int] = {
            key: 0 for key in self._stores}

    def replica_servers(self, partition: int) -> list[int]:
        """Servers hosting replicas of ``partition`` (primary excluded)."""
        return [(partition + 1 + j) % self.n_servers
                for j in range(self.n_replicas)]

    def store_on(self, server: int, partition: int) -> PartitionStore:
        """The replica store of ``partition`` hosted on ``server``."""
        return self._stores[(server, partition)]

    def load(self, partition: int, table: str, key: Any,
             fields: dict[str, Any]) -> None:
        """Seed all replicas of a record (initial load path)."""
        for server in self.replica_servers(partition):
            self._stores[(server, partition)].load(table, key, fields)

    def apply(self, server: int, partition: int,
              writes: Iterable[tuple]) -> None:
        """Apply a committed write-set of ``(kind, table, key, values)``
        tuples to one replica, in order."""
        store = self._stores[(server, partition)]
        for kind, table, key, values in writes:
            # upsert-tolerant, so a replica that missed an insert converges
            store.redo(kind, table, key, values)
        self.applied_counts[(server, partition)] += 1
