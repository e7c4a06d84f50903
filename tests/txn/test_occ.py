"""Unit tests for the OCC (MaaT-flavoured) executor."""

from repro.analysis import ProcedureRegistry
from repro.partitioning import HashScheme
from repro.sim import Cluster, Compute, Round, Sleep
from repro.storage import Catalog, LockMode
from repro.txn import AbortReason, Database, OccExecutor, TxnRequest
from repro.workloads.bank import BankWorkload


def sync_run(gen, after_round=None):
    """Drive an executor coroutine synchronously (no simulator), firing
    ``after_round[n]()`` right after the n-th parallel round completes.
    Gives tests deterministic control over interleavings."""
    after_round = after_round or {}
    rounds = 0
    value = None
    while True:
        try:
            effect = gen.send(value)
        except StopIteration as stop:
            return stop.value
        if isinstance(effect, (Compute, Sleep)):
            value = None
        elif isinstance(effect, Round):
            value = [op() for _target, op in effect.items]
            rounds += 1
            hook = after_round.get(rounds)
            if hook is not None:
                hook()
        else:  # pragma: no cover - unexpected effect kind
            raise TypeError(f"unexpected effect {effect!r}")


def make_db(n_partitions=2, n_replicas=0):
    workload = BankWorkload(n_accounts=100)
    cluster = Cluster(n_partitions)
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    catalog = Catalog(n_partitions, HashScheme(n_partitions))
    db = Database(cluster, catalog, workload.tables(), registry,
                  n_replicas=n_replicas)
    workload.populate(db.loader())
    return db, cluster


def run_txn(db, cluster, executor, request):
    outcomes = []
    cluster.engine(request.home).spawn(executor.execute(request),
                                       outcomes.append)
    cluster.run()
    return outcomes[0]


def balance_of(db, acct):
    pid = db.partition_of("accounts", acct)
    return db.store(pid).read("accounts", acct)[0]["balance"]


def test_commit_applies_updates():
    db, cluster = make_db()
    executor = OccExecutor(db)
    outcome = run_txn(db, cluster, executor,
                      TxnRequest("transfer",
                                 {"src": 1, "dst": 2, "amount": 50.0}))
    assert outcome.committed
    assert balance_of(db, 1) == 950.0
    assert balance_of(db, 2) == 1050.0


def test_reads_take_no_locks():
    db, cluster = make_db()
    executor = OccExecutor(db)
    # an exclusive lock held by someone else does NOT abort the read
    # phase; OCC only notices at validation when versions/locks conflict
    pid = db.partition_of("accounts", 1)
    db.store(pid).try_lock("accounts", 1, LockMode.EXCLUSIVE, "intruder")
    outcome = run_txn(db, cluster, executor,
                      TxnRequest("audit", {"accounts": [1, 2]}))
    # audit is read-only: validation only checks versions + locks of
    # *written* records; there are none, and read-only records are
    # checked for foreign locks -> abort expected here
    assert not outcome.committed
    assert outcome.reason is AbortReason.VALIDATION


def test_validation_detects_stale_read():
    """A record modified between read and validation forces an abort."""
    db, _cluster = make_db()
    executor = OccExecutor(db)
    pid = db.partition_of("accounts", 1)
    request = TxnRequest("transfer", {"src": 1, "dst": 2, "amount": 10.0})
    # round 1 is the (lock-free) read round; intrude right after it
    outcome = sync_run(
        executor.execute(request),
        after_round={1: lambda: db.store(pid).write("accounts", 1,
                                                    {"balance": 123.0})})
    assert not outcome.committed
    assert outcome.reason is AbortReason.VALIDATION
    # and the intruding write survives untouched
    assert balance_of(db, 1) == 123.0


def test_validation_failure_releases_write_locks():
    db, _cluster = make_db()
    executor = OccExecutor(db)
    pid = db.partition_of("accounts", 1)
    request = TxnRequest("transfer", {"src": 1, "dst": 2, "amount": 10.0})
    outcome = sync_run(
        executor.execute(request),
        after_round={1: lambda: db.store(pid).write("accounts", 1,
                                                    {"balance": 123.0})})
    assert not outcome.committed
    for acct in (1, 2):
        p = db.partition_of("accounts", acct)
        assert not db.store(p).is_locked("accounts", acct)


def test_logical_abort_during_read_phase_is_free():
    db, cluster = make_db()
    executor = OccExecutor(db)
    outcome = run_txn(db, cluster, executor,
                      TxnRequest("transfer",
                                 {"src": 1, "dst": 2, "amount": 1e9}))
    assert not outcome.committed
    assert outcome.reason is AbortReason.LOGICAL
    assert balance_of(db, 1) == 1000.0


def test_read_miss_aborts():
    db, cluster = make_db()
    executor = OccExecutor(db)
    outcome = run_txn(db, cluster, executor,
                      TxnRequest("transfer",
                                 {"src": 1, "dst": 999999, "amount": 1.0}))
    assert not outcome.committed
    assert outcome.reason is AbortReason.READ_MISS


def test_commit_releases_validation_locks():
    db, cluster = make_db()
    executor = OccExecutor(db)
    outcome = run_txn(db, cluster, executor,
                      TxnRequest("transfer",
                                 {"src": 1, "dst": 2, "amount": 5.0}))
    assert outcome.committed
    for acct in (1, 2):
        p = db.partition_of("accounts", acct)
        assert not db.store(p).is_locked("accounts", acct)


def test_replication_on_commit():
    db, cluster = make_db(n_partitions=3, n_replicas=1)
    executor = OccExecutor(db)
    outcome = run_txn(db, cluster, executor,
                      TxnRequest("transfer",
                                 {"src": 1, "dst": 2, "amount": 25.0}))
    assert outcome.committed
    pid = db.partition_of("accounts", 1)
    for rserver in db.replicas.replica_servers(pid):
        replica = db.replicas.store_on(rserver, pid)
        assert replica.read("accounts", 1)[0]["balance"] == 975.0
