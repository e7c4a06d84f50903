"""Database composition: cluster + storage + catalog + procedures.

One partition per server (as in the paper's evaluation: each execution
engine owns one partition/warehouse).  The database wires partition
stores into the simulated servers, creates replicas, installs the RPC
dispatcher, and offers the record-loading path that keeps primary and
replica copies consistent at start-up.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from ..analysis import ProcedureRegistry
from ..obs.tracer import NOOP_TRACER
from ..replication import ReplicaManager
from ..sim import Cluster, Coroutine
from ..sim.codec import DispatchContext
from ..storage import (Catalog, PartitionStore, RecoveryStats, TableSpec,
                       WalSpec, WriteAheadLog, wal_path)
from .commit_fsm import CommitTable
from .common import TXN_ID_NAMESPACE_SPAN


RpcFactory = Callable[[int, int, Any], Coroutine]
"""(server_id, src_server, body) -> handler coroutine returning the reply."""


class Database:
    """A distributed in-memory database over a simulated cluster."""

    tracer = NOOP_TRACER
    """Span sink for the observability layer (:mod:`repro.obs`).  A
    class attribute so every database is born with the zero-cost no-op;
    the harness overwrites it (per instance) when a run asks for
    ``trace=True``."""

    def __init__(self, cluster: Cluster, catalog: Catalog,
                 tables: Iterable[TableSpec],
                 registry: ProcedureRegistry,
                 n_replicas: int = 1,
                 track_spans: bool = False,
                 wal: WalSpec | None = None):
        if catalog.n_partitions != len(cluster):
            raise ValueError(
                f"catalog has {catalog.n_partitions} partitions but the "
                f"cluster has {len(cluster)} servers (1:1 expected)")
        self.cluster = cluster
        self.catalog = catalog
        self.registry = registry
        self.tables = list(tables)
        self._owns = getattr(cluster, "owns", None)
        """Worker-ownership predicate (wall-clock clusters only): which
        servers' logs this process keeps and whose locks it reaps."""
        now_fn = lambda: cluster.sim.now  # noqa: E731 - tiny closure
        for server in cluster.servers:
            server.storage = PartitionStore(server.id, self.tables,
                                            now_fn=now_fn,
                                            track_spans=track_spans)
        self.replicas: ReplicaManager | None = None
        if n_replicas > 0:
            self.replicas = ReplicaManager(len(cluster), n_replicas,
                                           self.tables, now_fn=now_fn)
        self.recovery = RecoveryStats()
        self.commit_table = CommitTable()
        self.wal_spec = wal if wal is not None else WalSpec()
        self._wals: dict[int, WriteAheadLog] = {}
        if self.wal_spec.enabled:
            if self.wal_spec.dir is None:
                raise ValueError("a durability-enabled WalSpec needs a "
                                 "directory (the harness assigns one "
                                 "per run)")
            self._open_wals()
            hooks = getattr(cluster, "bind_hooks", None)
            if hooks is not None:
                # an mp run is built over an unbound cluster, which owns
                # nothing: each forked worker opens its own logs
                hooks.append(self._open_wals)
        self.leases: dict[int, Any] = {}
        """Controller-election lease cells, keyed by server id; filled
        lazily by the ``lease_acquire`` verb handler."""
        self.dispatch_context = DispatchContext(self.store, self.replicas,
                                                commits=self.commit_table,
                                                wal_of=self.wal_of,
                                                leases=self.leases)
        """What this process's servers expose to decoded op descriptors
        (see :mod:`repro.sim.codec`): the local stores, replicas, and
        the durability layer's tables."""
        hooks = getattr(cluster, "peer_down_hooks", None)
        if hooks is not None:
            hooks.append(self._release_dead_owner_locks)
        self._rpc_kinds: dict[str, RpcFactory] = {}
        for server in cluster.servers:
            server.engine.set_rpc_handler(self._dispatcher(server.id))
            # lets transports re-bind descriptors that arrived over
            # a real serialization boundary to this database
            server.engine.dispatch_context = self.dispatch_context

    # -- placement ---------------------------------------------------------

    def partition_of(self, table: str, key: Any,
                     reader: int | None = None) -> int:
        return self.catalog.partition_of(table, key, reader)

    def placement_epoch(self) -> int:
        """Current placement epoch (0 under any static scheme).

        Epochs advance only when live migrations flip entries of an
        epoch-versioned catalog scheme (see
        :class:`~repro.core.lookup.EpochLookupScheme`); transactions
        capture this at start so a later read miss can be classified.
        """
        return getattr(self.catalog.scheme, "current_epoch", 0)

    def moved_since(self, table: str, key: Any, epoch: int) -> bool:
        """Did ``(table, key)`` migrate after placement epoch ``epoch``?

        Always False under a static scheme — the miss really is a
        missing record.
        """
        moved = getattr(self.catalog.scheme, "moved_since", None)
        return moved is not None and moved(table, key, epoch)

    def store(self, partition: int) -> PartitionStore:
        """Primary store of ``partition``."""
        return self.cluster.server(partition).storage

    # -- durability --------------------------------------------------------

    def wal_of(self, server_id: int) -> WriteAheadLog | None:
        """The server's write-ahead log; None when durability is off
        (or the server belongs to another worker process)."""
        return self._wals.get(server_id)

    def wal_servers(self) -> list[int]:
        """Server ids this process keeps logs for."""
        return list(self._wals)

    def _open_wals(self) -> None:
        """Open the log of every server this process owns."""
        for server in self.cluster.servers:
            if self._owns is None or self._owns(server.id):
                self._wals[server.id] = WriteAheadLog(
                    wal_path(self.wal_spec.dir, server.id),
                    self.wal_spec, stats=self.recovery)

    def close_wals(self) -> None:
        for wal in self._wals.values():
            wal.close()

    def _release_dead_owner_locks(self, worker: int,
                                  dead_gen: int | None = None) -> None:
        """Reap locks stranded by a dead worker's transactions.

        A crashed worker's coordinators never come back under the same
        txn-id namespace (its replacement seeds a fresh generation), so
        their locks on surviving servers would leak forever.  Prepared
        in-doubt txns are exempt: their locks are part of the 2PC
        contract and are released only when the decision is known.
        Bounded by ``dead_gen``: the worker's *replacement* issues live
        transactions under generation ``dead_gen + 1`` of the same
        worker slot, and those must never be reaped.
        """
        n_workers = getattr(self.cluster, "n_workers", None)
        if n_workers is None:
            return
        span = TXN_ID_NAMESPACE_SPAN
        in_doubt = self.commit_table.in_doubt_txns()

        def dead(owner: object) -> bool:
            txn_id = owner if isinstance(owner, int) else (
                owner[1] if isinstance(owner, tuple) and len(owner) == 2
                and isinstance(owner[1], int) else None)
            if txn_id is None or txn_id in in_doubt:
                return False
            # namespaces are worker + gen * n_workers: the modulo maps
            # every generation back to its worker slot, the quotient is
            # the generation itself
            ns = (txn_id - 1) // span
            if ns % n_workers != worker:
                return False
            return dead_gen is None or ns // n_workers <= dead_gen

        for server in self.cluster.servers:
            if self._owns is None or self._owns(server.id):
                server.storage.release_where(dead)

    @property
    def n_partitions(self) -> int:
        return self.catalog.n_partitions

    # -- loading ------------------------------------------------------------

    def load(self, table: str, key: Any, fields: dict[str, Any]) -> None:
        """Load one record into its primary partition and all replicas.

        Records of replicated tables are copied to every partition.
        """
        if table in self.catalog.replicated_tables:
            for partition in range(self.n_partitions):
                self.store(partition).load(table, key, fields)
            return
        partition = self.partition_of(table, key)
        self.store(partition).load(table, key, fields)
        if self.replicas is not None:
            self.replicas.load(partition, table, key, fields)

    def loader(self) -> Callable[[str, Any, dict[str, Any]], None]:
        """A ``load(table, key, fields)`` callable for workload populate
        functions."""
        return self.load

    # -- RPC dispatch --------------------------------------------------------

    def register_rpc(self, kind: str, factory: RpcFactory) -> None:
        """Register a handler-coroutine factory for message kind ``kind``."""
        if kind in self._rpc_kinds:
            raise ValueError(f"RPC kind {kind!r} already registered")
        self._rpc_kinds[kind] = factory

    def _dispatcher(self, server_id: int):
        def handle(src: int, request: Any) -> Coroutine:
            kind, body = request
            factory = self._rpc_kinds.get(kind)
            if factory is None:
                raise KeyError(f"no RPC handler for kind {kind!r}")
            return factory(server_id, src, body)
        return handle
