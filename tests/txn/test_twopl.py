"""Unit tests for the 2PL NO_WAIT + 2PC executor."""

import pytest

from repro.analysis import ProcedureRegistry
from repro.partitioning import HashScheme
from repro.sim import Cluster
from repro.storage import Catalog, LockMode
from repro.txn import (AbortReason, Database, HistoryRecorder,
                       TwoPLExecutor, TxnRequest)
from repro.workloads.bank import BankWorkload


def make_db(n_partitions=2, n_replicas=0, workload=None):
    workload = workload or BankWorkload(n_accounts=100)
    cluster = Cluster(n_partitions)
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    catalog = Catalog(n_partitions, HashScheme(n_partitions))
    db = Database(cluster, catalog, workload.tables(), registry,
                  n_replicas=n_replicas)
    workload.populate(db.loader())
    return db, cluster, workload


def run_txn(db, cluster, executor, request):
    outcomes = []
    cluster.engine(request.home).spawn(executor.execute(request),
                                       outcomes.append)
    cluster.run()
    assert len(outcomes) == 1
    return outcomes[0]


def balance_of(db, acct):
    pid = db.partition_of("accounts", acct)
    return db.store(pid).read("accounts", acct)[0]["balance"]


def test_commit_applies_updates():
    db, cluster, _ = make_db()
    executor = TwoPLExecutor(db)
    outcome = run_txn(db, cluster, executor,
                      TxnRequest("transfer",
                                 {"src": 1, "dst": 2, "amount": 50.0}))
    assert outcome.committed
    assert balance_of(db, 1) == 950.0
    assert balance_of(db, 2) == 1050.0


def test_logical_abort_leaves_state_untouched():
    db, cluster, _ = make_db()
    executor = TwoPLExecutor(db)
    outcome = run_txn(db, cluster, executor,
                      TxnRequest("transfer",
                                 {"src": 1, "dst": 2, "amount": 1e9}))
    assert not outcome.committed
    assert outcome.reason is AbortReason.LOGICAL
    assert balance_of(db, 1) == 1000.0
    assert balance_of(db, 2) == 1000.0


def test_abort_releases_all_locks():
    db, cluster, _ = make_db()
    executor = TwoPLExecutor(db)
    run_txn(db, cluster, executor,
            TxnRequest("transfer", {"src": 1, "dst": 2, "amount": 1e9}))
    for acct in (1, 2):
        pid = db.partition_of("accounts", acct)
        assert not db.store(pid).is_locked("accounts", acct)


def test_commit_releases_all_locks():
    db, cluster, _ = make_db()
    executor = TwoPLExecutor(db)
    run_txn(db, cluster, executor,
            TxnRequest("transfer", {"src": 1, "dst": 2, "amount": 1.0}))
    for acct in (1, 2):
        pid = db.partition_of("accounts", acct)
        assert not db.store(pid).is_locked("accounts", acct)


def test_lock_conflict_aborts_no_wait():
    db, cluster, _ = make_db()
    executor = TwoPLExecutor(db)
    pid = db.partition_of("accounts", 1)
    db.store(pid).try_lock("accounts", 1, LockMode.EXCLUSIVE, "intruder")
    outcome = run_txn(db, cluster, executor,
                      TxnRequest("transfer",
                                 {"src": 1, "dst": 2, "amount": 1.0}))
    assert not outcome.committed
    assert outcome.reason is AbortReason.LOCK_CONFLICT
    # the victim's locks are gone; the intruder's remains
    assert db.store(pid).release_all("intruder") == 1


def test_read_miss_aborts():
    db, cluster, _ = make_db()
    executor = TwoPLExecutor(db)
    outcome = run_txn(db, cluster, executor,
                      TxnRequest("transfer",
                                 {"src": 1, "dst": 424242, "amount": 1.0}))
    assert not outcome.committed
    assert outcome.reason is AbortReason.READ_MISS


def test_outcome_partitions_and_distributed_flag():
    db, cluster, _ = make_db(n_partitions=2)
    executor = TwoPLExecutor(db)
    # find two accounts on different partitions
    src = 1
    dst = next(a for a in range(2, 100)
               if db.partition_of("accounts", a)
               != db.partition_of("accounts", src))
    outcome = run_txn(db, cluster, executor,
                      TxnRequest("transfer",
                                 {"src": src, "dst": dst, "amount": 1.0}))
    assert outcome.committed
    assert outcome.distributed
    assert len(outcome.partitions) == 2


def test_local_transaction_is_not_distributed():
    db, cluster, _ = make_db(n_partitions=2)
    executor = TwoPLExecutor(db)
    src = 1
    dst = next(a for a in range(2, 100)
               if db.partition_of("accounts", a)
               == db.partition_of("accounts", src))
    outcome = run_txn(db, cluster, executor,
                      TxnRequest("transfer",
                                 {"src": src, "dst": dst, "amount": 1.0}))
    assert outcome.committed
    assert not outcome.distributed


def test_replication_ships_committed_writes():
    db, cluster, _ = make_db(n_partitions=3, n_replicas=1)
    executor = TwoPLExecutor(db)
    outcome = run_txn(db, cluster, executor,
                      TxnRequest("transfer",
                                 {"src": 1, "dst": 2, "amount": 25.0}))
    assert outcome.committed
    for acct, expected in ((1, 975.0), (2, 1025.0)):
        pid = db.partition_of("accounts", acct)
        for rserver in db.replicas.replica_servers(pid):
            replica = db.replicas.store_on(rserver, pid)
            assert replica.read("accounts", acct)[0]["balance"] == expected


def test_history_recorded_on_commit():
    db, cluster, _ = make_db()
    history = HistoryRecorder()
    executor = TwoPLExecutor(db, history=history)
    run_txn(db, cluster, executor,
            TxnRequest("transfer", {"src": 1, "dst": 2, "amount": 1.0}))
    assert len(history.commits) == 1
    log = history.commits[0]
    assert {rid for rid, _ in log.reads} == {("accounts", 1),
                                             ("accounts", 2)}
    assert {rid for rid, _ in log.writes} == {("accounts", 1),
                                              ("accounts", 2)}


def test_audit_takes_only_shared_locks_and_commits():
    db, cluster, _ = make_db()
    executor = TwoPLExecutor(db)
    outcome = run_txn(db, cluster, executor,
                      TxnRequest("audit", {"accounts": [1, 2, 3]}))
    assert outcome.committed
