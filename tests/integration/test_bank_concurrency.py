"""Concurrent bank runs: atomicity, isolation, and serializability.

These are the strongest correctness tests in the suite: many concurrent
transfer transactions over shared accounts, with money conservation and
precedence-graph acyclicity checked at the end, for both baseline
executors under several contention levels.
"""

import pytest

from repro.analysis import ProcedureRegistry
from repro.bench import RunConfig, run_benchmark
from repro.partitioning import HashScheme
from repro.sim import Cluster
from repro.storage import Catalog
from repro.txn import (Database, HistoryRecorder, OccExecutor,
                       TwoPLExecutor)
from repro.workloads.bank import BankWorkload


def run_bank(executor_cls, hot_accounts=0, hot_probability=0.0,
             n_partitions=3, concurrent=3, seed=11,
             horizon_us=4_000.0):
    workload = BankWorkload(n_accounts=60, hot_accounts=hot_accounts,
                            hot_probability=hot_probability)
    config = RunConfig(n_partitions=n_partitions,
                       concurrent_per_engine=concurrent,
                       horizon_us=horizon_us, warmup_us=0.0, seed=seed,
                       n_replicas=0)
    cluster = Cluster(n_partitions, config.doorbell_batching)
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    catalog = Catalog(n_partitions, HashScheme(n_partitions))
    db = Database(cluster, catalog, workload.tables(), registry,
                  n_replicas=0)
    workload.populate(db.loader())
    history = HistoryRecorder()
    executor = executor_cls(db, history=history)
    result = run_benchmark(workload, executor, config)
    return result, workload, db


def total_balance(db, workload):
    total = 0.0
    for acct in range(workload.n_accounts):
        pid = db.partition_of("accounts", acct)
        total += db.store(pid).read("accounts", acct)[0]["balance"]
    return total


@pytest.mark.parametrize("executor_cls", [TwoPLExecutor, OccExecutor])
def test_money_conserved_low_contention(executor_cls):
    result, workload, db = run_bank(executor_cls)
    assert result.metrics.commits > 50
    assert total_balance(db, workload) == pytest.approx(
        workload.total_balance())


@pytest.mark.parametrize("executor_cls", [TwoPLExecutor, OccExecutor])
def test_money_conserved_high_contention(executor_cls):
    result, workload, db = run_bank(executor_cls, hot_accounts=3,
                                    hot_probability=0.8)
    assert result.metrics.commits > 20
    assert result.metrics.aborts > 0, "high contention must cause aborts"
    assert total_balance(db, workload) == pytest.approx(
        workload.total_balance())


@pytest.mark.parametrize("executor_cls", [TwoPLExecutor, OccExecutor])
def test_history_serializable_low_contention(executor_cls):
    result, _, _ = run_bank(executor_cls)
    assert len(result.history.commits) == result.metrics.commits
    assert result.history.find_cycle() is None


@pytest.mark.parametrize("executor_cls", [TwoPLExecutor, OccExecutor])
def test_history_serializable_high_contention(executor_cls):
    result, _, _ = run_bank(executor_cls, hot_accounts=3,
                            hot_probability=0.8)
    assert result.history.find_cycle() is None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_serializable_across_seeds_2pl(seed):
    result, _, _ = run_bank(TwoPLExecutor, hot_accounts=5,
                            hot_probability=0.6, seed=seed)
    assert result.history.find_cycle() is None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_serializable_across_seeds_occ(seed):
    result, _, _ = run_bank(OccExecutor, hot_accounts=5,
                            hot_probability=0.6, seed=seed)
    assert result.history.find_cycle() is None


def test_no_locks_leak_after_run():
    result, workload, db = run_bank(TwoPLExecutor, hot_accounts=3,
                                    hot_probability=0.8)
    for acct in range(workload.n_accounts):
        pid = db.partition_of("accounts", acct)
        assert not db.store(pid).is_locked("accounts", acct)


def test_occ_aborts_more_than_2pl_under_contention():
    """OCC wastes full executions on conflict; under the same hot
    workload its abort rate should be at least comparable to 2PL's
    (the paper finds it worse)."""
    r_2pl, _, _ = run_bank(TwoPLExecutor, hot_accounts=2,
                           hot_probability=0.9, concurrent=4)
    r_occ, _, _ = run_bank(OccExecutor, hot_accounts=2,
                           hot_probability=0.9, concurrent=4)
    assert r_occ.metrics.abort_rate() >= 0.5 * r_2pl.metrics.abort_rate()
