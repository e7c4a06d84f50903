"""End-to-end benchmark runs on the asyncio backend.

The acceptance flow: a YCSB run completes under ``backend="aio"`` with
wall-clock throughput landing in ``RunResult``, through the very same
harness/executor/database code path the simulator uses.
"""

import pytest

from repro.bench import RunConfig, harness, make_cluster
from repro.bench.setups import build_run, make_tpcc_run
from repro.partitioning import HashScheme
from repro.sim import Cluster
from repro.sim import WorkerCluster as AioCluster
from repro.storage import Catalog
from repro.workloads.ycsb import YcsbWorkload, expected_counter_total


def aio_config(**overrides) -> RunConfig:
    defaults = dict(n_partitions=2, concurrent_per_engine=2,
                    horizon_us=25_000.0,  # 25ms of wall clock
                    warmup_us=1_000.0, n_replicas=0, backend="aio")
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_make_cluster_selects_backend():
    assert isinstance(make_cluster(RunConfig(n_partitions=2)), Cluster)
    assert isinstance(make_cluster(aio_config()), AioCluster)
    with pytest.raises(ValueError):
        make_cluster(RunConfig(backend="quantum"))


def test_aio_run_timeout_scales_with_horizon(monkeypatch):
    # a long wall-clock horizon must not be killed by a fixed cap
    long_run = make_cluster(aio_config(horizon_us=300_000_000.0))
    assert long_run.run_timeout_s > 300.0
    monkeypatch.setattr(harness, "AIO_HEADROOM_S", 7.0)
    pinned = make_cluster(aio_config(horizon_us=1_000_000.0))
    assert pinned.run_timeout_s == 8.0


def test_ycsb_completes_on_aio_backend_with_wall_clock_metrics():
    workload = YcsbWorkload(n_keys=400, reads_per_txn=4, writes_per_txn=2)
    config = aio_config()
    run = build_run(workload, Catalog(2, HashScheme(2)), config)
    db = run.database
    result = run.run()

    assert result.metrics.commits > 0
    # no lost updates: every committed write landed exactly once
    assert (expected_counter_total(db, workload.n_keys)
            == result.metrics.commits * workload.writes_per_txn)
    # the clock is the wall clock: the run took about horizon_us of
    # real time, and wall-clock throughput is the headline number
    assert result.end_time >= config.horizon_us
    assert result.metrics.wall_seconds >= config.horizon_us / 1e6
    assert result.throughput > 0
    assert result.wall_clock_throughput > 0
    summary = result.perf_summary()
    assert summary["backend"] == "aio"
    assert summary["wall_clock_throughput"] == result.wall_clock_throughput


def test_ycsb_aio_run_is_repeatable_and_consistent():
    """Wall-clock runs are not bit-deterministic, but every run must
    keep the workload invariant and produce commits."""
    for _ in range(2):
        workload = YcsbWorkload(n_keys=300)
        config = aio_config(horizon_us=10_000.0, warmup_us=0.0)
        run = build_run(workload, Catalog(2, HashScheme(2)), config)
        db = run.database
        result = run.run()
        assert result.metrics.commits > 0
        assert (expected_counter_total(db, workload.n_keys)
                == result.metrics.commits * workload.writes_per_txn)


def test_aio_backend_with_doorbell_batching_fuses_rounds():
    workload = YcsbWorkload(n_keys=400, reads_per_txn=6, writes_per_txn=2)
    config = aio_config(doorbell_batching=True)
    run = build_run(workload, Catalog(2, HashScheme(2)), config)
    db = run.database
    result = run.run()
    assert result.metrics.commits > 0
    assert db.cluster.network.stats.one_sided_batches > 0
    assert (expected_counter_total(db, workload.n_keys)
            == result.metrics.commits * workload.writes_per_txn)


def test_tpcc_cell_runs_on_aio_backend():
    """The full setups path (Database + replicas + RPC dispatch) works
    on the asyncio backend too — TPC-C with 2PL and replication."""
    run = make_tpcc_run("2pl", aio_config(horizon_us=15_000.0,
                                          n_replicas=1))
    result = run.run()
    assert result.metrics.commits > 0
    assert result.config.backend == "aio"
