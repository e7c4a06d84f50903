"""Multiprocess worker builds prune foreign-partition records.

Every mp worker deterministically rebuilds the whole database, but a
worker only ever serves its *owned* partitions — the local copies of
foreign cold records were pure memory waste (the ROADMAP follow-up
this closes).  A worker build now keeps: records of owned partitions,
replicated tables (on owned partitions), explicitly-placed (hot)
records, and replica stores hosted on owned servers.  Anything else is
skipped, and the test asserts the memory win.
"""

from repro.analysis import ProcedureRegistry
from repro.core import HotRecordTable
from repro.partitioning import HashScheme
from repro.sim import Cluster, WorkerCluster
from repro.storage import Catalog, TableSpec
from repro.txn import Database

N_PARTITIONS = 4
N_KEYS = 200
N_REF = 10
HOT_FOREIGN = ("usertable", "hot-key")
"""An explicitly-placed record homed on a partition worker 0 does NOT
own; worker builds keep explicit placements everywhere."""


def build_db(cluster) -> Database:
    hot = HotRecordTable({HOT_FOREIGN: 2})
    catalog = Catalog(N_PARTITIONS, hot.live_scheme(HashScheme(N_PARTITIONS)),
                      replicated_tables=frozenset({"ref"}))
    db = Database(cluster, catalog,
                  [TableSpec("usertable"), TableSpec("ref")],
                  ProcedureRegistry(), n_replicas=1)
    for key in range(N_KEYS):
        db.load("usertable", key, {"value": key})
    db.load(*HOT_FOREIGN, {"value": -1})
    for key in range(N_REF):
        db.load("ref", key, {"value": key})
    return db


def primary_records(db) -> dict[int, int]:
    return {server.id: sum(len(server.storage.table(name))
                           for name in server.storage.table_names())
            for server in db.cluster.servers}


def replica_records(db) -> int:
    return sum(
        sum(len(db.replicas.store_on(server, partition).table(name))
            for name in ("usertable", "ref"))
        for server, partition in db.replicas.applied_counts)


def test_worker_build_keeps_only_what_it_can_serve():
    cluster = WorkerCluster(N_PARTITIONS, worker_id=0, n_workers=4)
    db = build_db(cluster)
    counts = primary_records(db)

    owned_keys = [k for k in range(N_KEYS)
                  if db.partition_of("usertable", k) == 0]
    assert counts[0] == len(owned_keys) + N_REF  # home records + ref copy
    # foreign stores hold only the explicitly-placed hot record
    assert counts[2] == 1
    hot_store = db.store(2)
    assert hot_store.read(*HOT_FOREIGN) is not None
    for foreign in (1, 3):
        assert counts[foreign] == 0

    # replica stores only materialize records for owned hosting servers
    for (server, partition), _n in db.replicas.applied_counts.items():
        store = db.replicas.store_on(server, partition)
        loaded = sum(len(store.table(name))
                     for name in ("usertable", "ref"))
        if server % 4 == 0:  # hosted on worker 0's server
            assert loaded > 0
        else:
            assert loaded == 0


def test_pruned_worker_build_is_a_real_memory_win():
    pruned = build_db(WorkerCluster(N_PARTITIONS, worker_id=0,
                                    n_workers=4))
    # a 1-worker topology owns everything: the historical full build
    full = build_db(WorkerCluster(N_PARTITIONS, worker_id=0,
                                  n_workers=1))
    pruned_total = (sum(primary_records(pruned).values())
                    + replica_records(pruned))
    full_total = sum(primary_records(full).values()) + replica_records(full)
    assert pruned_total < full_total / 2, (
        f"worker 0 of 4 holds {pruned_total} records vs {full_total} "
        f"for the full build — pruning should cut at least half")


def test_single_process_builds_are_untouched():
    db = build_db(Cluster(N_PARTITIONS))
    counts = primary_records(db)
    assert sum(counts.values()) == N_KEYS + 1 + N_REF * N_PARTITIONS
    # replicated table present on every partition, as before
    for server in range(N_PARTITIONS):
        assert db.store(server).read("ref", 0) is not None
