"""Concurrent two-region execution: correctness under contention.

Runs the bank workload with a skewed hot set through the Chiller
executor (hot accounts in the lookup table, hence executed in inner
regions) and checks the same oracles as the baselines: money
conservation, serializability, no lock leaks — plus Chiller-specific
invariants (two-region path actually used, replicas converge).
"""

import pytest

from repro.analysis import ProcedureRegistry
from repro.bench import RunConfig, run_benchmark
from repro.core import ChillerExecutor, HotRecordTable
from repro.partitioning import HashScheme
from repro.sim import Cluster
from repro.storage import Catalog
from repro.txn import Database, HistoryRecorder
from repro.workloads.bank import BankWorkload


def run_chiller_bank(hot_accounts=4, hot_probability=0.7, n_partitions=3,
                     concurrent=3, seed=5, n_replicas=0,
                     horizon_us=4_000.0):
    workload = BankWorkload(n_accounts=60, hot_accounts=hot_accounts,
                            hot_probability=hot_probability)
    config = RunConfig(n_partitions=n_partitions,
                       concurrent_per_engine=concurrent,
                       horizon_us=horizon_us, warmup_us=0.0, seed=seed,
                       n_replicas=n_replicas)
    cluster = Cluster(n_partitions, config.network_config())
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    scheme = HashScheme(n_partitions)
    catalog = Catalog(n_partitions, scheme)
    db = Database(cluster, catalog, workload.tables(), registry,
                  n_replicas=n_replicas)
    workload.populate(db.loader())
    hot = HotRecordTable(
        {("accounts", a): scheme.partition_of("accounts", a)
         for a in range(hot_accounts)})
    executor = ChillerExecutor(db, hot, history=HistoryRecorder())
    result = run_benchmark(workload, executor, config)
    return result, workload, db, executor


def total_balance(db, workload):
    return sum(
        db.store(db.partition_of("accounts", a))
        .read("accounts", a)[0]["balance"]
        for a in range(workload.n_accounts))


def test_two_region_path_exercised():
    result, _, _, _ = run_chiller_bank()
    assert result.metrics.commits > 50
    assert result.metrics.two_region_ratio() > 0.3


def test_money_conserved_under_contention():
    result, workload, db, _ = run_chiller_bank()
    assert total_balance(db, workload) == pytest.approx(
        workload.total_balance())


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_serializable_across_seeds(seed):
    result, _, _, _ = run_chiller_bank(seed=seed)
    assert len(result.history.commits) == result.metrics.commits
    assert result.history.find_cycle() is None


def test_no_lock_leaks():
    result, workload, db, _ = run_chiller_bank()
    for acct in range(workload.n_accounts):
        pid = db.partition_of("accounts", acct)
        assert not db.store(pid).is_locked("accounts", acct)


def test_no_pending_ack_leaks():
    _, _, _, executor = run_chiller_bank(n_replicas=1)
    assert executor._pending_acks == {}


def test_replicas_converge_for_hot_partition():
    result, workload, db, _ = run_chiller_bank(n_replicas=1)
    assert result.metrics.commits > 0
    for acct in range(workload.hot_accounts):
        pid = db.partition_of("accounts", acct)
        primary = db.store(pid).read("accounts", acct)[0]["balance"]
        for rserver in db.replicas.replica_servers(pid):
            replica = db.replicas.store_on(rserver, pid)
            assert replica.read("accounts", acct)[0]["balance"] == (
                pytest.approx(primary))


def test_money_conserved_with_replication():
    result, workload, db, _ = run_chiller_bank(n_replicas=1)
    assert total_balance(db, workload) == pytest.approx(
        workload.total_balance())
    assert result.history.find_cycle() is None


def test_chiller_beats_2pl_on_hot_abort_rate():
    """The headline mechanism: hot-record contention spans shrink, so
    Chiller aborts less than 2PL on the same skewed workload."""
    from repro.txn import TwoPLExecutor
    from repro.analysis import ProcedureRegistry as Reg

    def run_2pl():
        workload = BankWorkload(n_accounts=60, hot_accounts=4,
                                hot_probability=0.7)
        config = RunConfig(n_partitions=3, concurrent_per_engine=3,
                           horizon_us=4_000.0, warmup_us=0.0, seed=5,
                           n_replicas=0)
        cluster = Cluster(3, config.network_config())
        registry = Reg()
        for proc in workload.procedures():
            registry.register(proc)
        db = Database(cluster, Catalog(3, HashScheme(3)),
                      workload.tables(), registry, n_replicas=0)
        workload.populate(db.loader())
        return run_benchmark(workload, TwoPLExecutor(db), config)

    chiller_result, _, _, _ = run_chiller_bank()
    twopl_result = run_2pl()
    assert (chiller_result.metrics.abort_rate()
            <= twopl_result.metrics.abort_rate() + 0.02)
