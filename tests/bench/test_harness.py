"""Tests for the benchmark driver."""

from dataclasses import replace
from statistics import mean

import pytest

from repro.analysis import ProcedureRegistry
from repro.bench import RunConfig, run_benchmark
from repro.partitioning import HashScheme
from repro.sim import Cluster
from repro.storage import Catalog
from repro.txn import Database, TwoPLExecutor
from repro.workloads.bank import BankWorkload
from repro.workloads.instacart import InstacartWorkload


def build(workload, config):
    cluster = Cluster(config.n_partitions, config.doorbell_batching)
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    db = Database(cluster, Catalog(config.n_partitions,
                                   HashScheme(config.n_partitions)),
                  workload.tables(), registry,
                  n_replicas=config.n_replicas)
    workload.populate(db.loader())
    return db


def test_run_produces_commits_within_horizon():
    workload = BankWorkload(n_accounts=50)
    config = RunConfig(n_partitions=2, concurrent_per_engine=2,
                       horizon_us=2_000.0, warmup_us=0.0, n_replicas=0)
    db = build(workload, config)
    result = run_benchmark(workload, TwoPLExecutor(db), config)
    assert result.metrics.commits > 10
    assert result.throughput > 0
    # admission stops at the horizon; in-flight work drains shortly after
    assert result.end_time >= config.horizon_us


def test_deterministic_given_seed():
    def once():
        workload = BankWorkload(n_accounts=50)
        config = RunConfig(n_partitions=2, concurrent_per_engine=2,
                           horizon_us=2_000.0, warmup_us=0.0, seed=42,
                           n_replicas=0)
        db = build(workload, config)
        result = run_benchmark(workload, TwoPLExecutor(db), config)
        return (result.metrics.commits, result.metrics.aborts,
                result.end_time)

    assert once() == once()


def test_different_seeds_differ():
    def once(seed):
        workload = BankWorkload(n_accounts=50)
        config = RunConfig(n_partitions=2, concurrent_per_engine=2,
                           horizon_us=2_000.0, warmup_us=0.0, seed=seed,
                           n_replicas=0)
        db = build(workload, config)
        result = run_benchmark(workload, TwoPLExecutor(db), config)
        return result.metrics.commits

    assert once(1) != once(2) or once(3) != once(4)


def test_retry_disabled_counts_single_attempts():
    workload = BankWorkload(n_accounts=10, hot_accounts=2,
                            hot_probability=0.9)
    config = RunConfig(n_partitions=2, concurrent_per_engine=4,
                       horizon_us=2_000.0, warmup_us=0.0,
                       retry_aborts=False, n_replicas=0)
    db = build(workload, config)
    result = run_benchmark(workload, TwoPLExecutor(db), config)
    assert result.metrics.attempts > 0


def test_run_records_hot_path_health():
    workload = BankWorkload(n_accounts=50)
    config = RunConfig(n_partitions=2, concurrent_per_engine=2,
                       horizon_us=1_000.0, warmup_us=0.0, n_replicas=0)
    db = build(workload, config)
    result = run_benchmark(workload, TwoPLExecutor(db), config)
    assert result.metrics.wall_seconds > 0.0
    assert result.metrics.events_processed > 0
    assert result.metrics.events_per_wall_second() > 0.0
    summary = result.perf_summary()
    assert summary["events_processed"] == result.metrics.events_processed
    assert summary["sim_us"] == result.end_time


def test_doorbell_batching_preserves_correctness():
    """Same workload, batching on: writes still all land (the YCSB
    lost-update litmus test), fused round trips actually happened, and
    they paid off — lower mean latency than the unbatched run, no less
    throughput."""
    from repro.workloads.ycsb import YcsbWorkload, expected_counter_total

    workload = YcsbWorkload(n_keys=300, reads_per_txn=6, writes_per_txn=2)
    config = RunConfig(n_partitions=2, concurrent_per_engine=2,
                       horizon_us=2_000.0, warmup_us=0.0, n_replicas=0,
                       doorbell_batching=True)
    db = build(workload, config)
    assert db.cluster.network.doorbell_batching
    result = run_benchmark(workload, TwoPLExecutor(db), config)
    assert result.metrics.commits > 10
    assert (expected_counter_total(db, workload.n_keys)
            == result.metrics.commits * workload.writes_per_txn)
    stats = db.cluster.network.stats
    assert stats.one_sided_batched_verbs > 2 * stats.one_sided_batches > 0
    assert stats.bytes_by_kind.get("lock_read", 0) > 0
    assert stats.bytes_by_kind.get("commit", 0) > 0

    unbatched_config = replace(config, doorbell_batching=False)
    unbatched = run_benchmark(
        workload, TwoPLExecutor(build(workload, unbatched_config)),
        unbatched_config)
    assert (mean(result.metrics.latencies())
            < mean(unbatched.metrics.latencies()))
    assert result.throughput >= unbatched.throughput


def test_route_by_data_sends_txns_to_majority_partition():
    workload = InstacartWorkload(n_products=500)
    config = RunConfig(n_partitions=2, concurrent_per_engine=2,
                       horizon_us=1_500.0, warmup_us=0.0,
                       route_by_data=True, n_replicas=0)
    db = build(workload, config)
    result = run_benchmark(workload, TwoPLExecutor(db), config)
    mismatched = 0
    for outcome in result.metrics.outcomes:
        if not outcome.committed:
            continue
    assert result.metrics.commits > 10
