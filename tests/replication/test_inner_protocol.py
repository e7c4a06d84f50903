"""Protocol-level tests of the Fig. 6 inner-region replication.

Checks the *ordering* guarantees the paper's design rests on: the inner
host commits before replicas apply; replicas ack the coordinator (not
the inner host); the coordinator's outer commit happens only after all
acks; back-to-back inner regions on the same partition replicate in
order.
"""

import pytest

from repro.analysis import ProcedureRegistry
from repro.core import ChillerExecutor, HotRecordTable
from repro.partitioning import HashScheme
from repro.sim import Cluster
from repro.storage import Catalog
from repro.txn import Database, HistoryRecorder, TxnRequest
from repro.workloads.bank import BankWorkload


def make_db(n_partitions=3, n_replicas=1, hot_accounts=(0, 1)):
    workload = BankWorkload(n_accounts=30)
    cluster = Cluster(n_partitions)
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    scheme = HashScheme(n_partitions)
    db = Database(cluster, Catalog(n_partitions, scheme),
                  workload.tables(), registry, n_replicas=n_replicas)
    workload.populate(db.loader())
    hot = HotRecordTable(
        {("accounts", a): scheme.partition_of("accounts", a)
         for a in hot_accounts})
    executor = ChillerExecutor(db, hot, history=HistoryRecorder())
    return db, cluster, executor, scheme


def remote_home(db, acct):
    pid = db.partition_of("accounts", acct)
    return (pid + 1) % db.n_partitions


def test_acks_gate_the_outer_commit():
    """Timeline assertion: every replica of the inner partition applies
    the inner writes strictly before the coordinator's outer commit."""
    db, cluster, executor, scheme = make_db()
    src = 0  # hot -> inner region
    dst = next(a for a in range(2, 30)
               if db.partition_of("accounts", a)
               != db.partition_of("accounts", src))
    home = remote_home(db, src)

    replica_apply_times = []
    original_apply = db.replicas.apply

    def tracking_apply(server, partition, writes):
        original_apply(server, partition, writes)
        replica_apply_times.append(cluster.sim.now)

    db.replicas.apply = tracking_apply

    outer_commit_times = []
    dst_pid = db.partition_of("accounts", dst)
    dst_store = db.store(dst_pid)
    original_apply_writes = dst_store.apply

    def tracking_apply_writes(writes, redo):
        outer_commit_times.append(cluster.sim.now)
        return original_apply_writes(writes, redo)

    dst_store.apply = tracking_apply_writes

    outcomes = []
    request = TxnRequest("transfer",
                         {"src": src, "dst": dst, "amount": 5.0},
                         home=home)
    cluster.engine(home).spawn(executor.execute(request), outcomes.append)
    cluster.run()

    assert outcomes[0].committed
    assert outcomes[0].used_two_region
    assert replica_apply_times, "inner region must have replicated"
    assert outer_commit_times, "outer region must have committed"
    assert max(replica_apply_times) <= min(outer_commit_times), (
        "outer commit must wait for all inner-replica acks")


def test_inner_host_commits_before_replicas_apply():
    db, cluster, executor, scheme = make_db()
    src = 0
    dst = next(a for a in range(2, 30)
               if db.partition_of("accounts", a)
               != db.partition_of("accounts", src))
    home = remote_home(db, src)
    src_pid = db.partition_of("accounts", src)

    primary_commit_times = []
    src_store = db.store(src_pid)
    original_apply_writes = src_store.apply

    def tracking_apply_writes(writes, redo):
        primary_commit_times.append(cluster.sim.now)
        return original_apply_writes(writes, redo)

    src_store.apply = tracking_apply_writes

    replica_apply_times = []
    original_apply = db.replicas.apply

    def tracking_apply(server, partition, writes):
        original_apply(server, partition, writes)
        replica_apply_times.append(cluster.sim.now)

    db.replicas.apply = tracking_apply

    outcomes = []
    request = TxnRequest("transfer",
                         {"src": src, "dst": dst, "amount": 5.0},
                         home=home)
    cluster.engine(home).spawn(executor.execute(request), outcomes.append)
    cluster.run()

    assert outcomes[0].committed
    assert primary_commit_times and replica_apply_times
    assert max(primary_commit_times) < min(replica_apply_times), (
        "the inner host commits first, replication follows (Fig. 6)")


def test_sequential_inner_regions_replicate_in_order():
    """Back-to-back transactions through the same inner host must reach
    replicas in commit order (FIFO channels = RDMA queue pairs)."""
    db, cluster, executor, scheme = make_db()
    src = 0
    src_pid = db.partition_of("accounts", src)
    home = remote_home(db, src)
    dsts = [a for a in range(2, 30)
            if db.partition_of("accounts", a) != src_pid][:5]

    outcomes = []

    def driver():
        for dst in dsts:
            request = TxnRequest("transfer",
                                 {"src": src, "dst": dst, "amount": 1.0},
                                 home=home)
            outcome = yield from executor.execute(request)
            outcomes.append(outcome)

    cluster.engine(home).spawn(driver())
    cluster.run()
    assert all(o.committed for o in outcomes)
    primary = db.store(src_pid).read("accounts", src)[0]["balance"]
    for rserver in db.replicas.replica_servers(src_pid):
        replica = db.replicas.store_on(rserver, src_pid)
        assert replica.read("accounts", src)[0]["balance"] == (
            pytest.approx(primary))


def test_without_replication_no_acks_are_awaited():
    db, cluster, executor, scheme = make_db(n_replicas=0)
    src, home = 0, remote_home(db, 0)
    dst = next(a for a in range(2, 30)
               if db.partition_of("accounts", a)
               != db.partition_of("accounts", src))
    outcomes = []
    request = TxnRequest("transfer",
                         {"src": src, "dst": dst, "amount": 5.0},
                         home=home)
    cluster.engine(home).spawn(executor.execute(request), outcomes.append)
    cluster.run()
    assert outcomes[0].committed
    assert executor._pending_acks == {}
