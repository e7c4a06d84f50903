"""Fixed-seed golden digests of two tiny sim runs.

The digests were recorded on the commit *before* the compute-once hot
path (hash memo, type-dispatched payload walk, compiled procedure
layouts, tuple event heap) landed, so they pin that none of it moves
the event stream: every commit latency, the modelled bytes per message
kind, the number of events fired and the order ids TPC-C handed out.
A change that is meant to alter behaviour re-records them and says why.
"""

import hashlib

from repro.bench import RunConfig
from repro.bench.setups import make_tpcc_run, make_ycsb_run
from repro.traffic import ArrivalSpec
from repro.workloads.ycsb import YcsbWorkload


def run_digest(run, extra=()) -> tuple[int, str]:
    """(commits, sha256 over everything the run must reproduce)."""
    result = run.run()
    metrics = result.metrics
    latencies = [o.end - o.start for o in metrics.outcomes if o.committed]
    stats = result.database.cluster.network.stats
    parts = (latencies, sorted(stats.bytes_by_kind.items()),
             sorted(stats.local_bytes_by_kind.items()),
             metrics.events_processed, list(extra(result)) if extra else [])
    return len(latencies), hashlib.sha256(repr(parts).encode()).hexdigest()


def next_order_ids(result) -> list[int]:
    db = result.database
    ids = []
    for w in range(db.n_partitions):
        pid = db.partition_of("district", (w, 0))
        ids.extend(db.store(pid).read("district", (w, d))[0]["d_next_o_id"]
                   for d in range(10))
    return ids


def test_tiny_tpcc_chiller_run_is_unchanged():
    config = RunConfig(n_partitions=4, concurrent_per_engine=8,
                       horizon_us=500.0, warmup_us=50.0, seed=11,
                       n_replicas=2)
    commits, digest = run_digest(make_tpcc_run("chiller", config),
                                 extra=next_order_ids)
    assert commits == GOLDEN_TPCC[0]
    assert digest == GOLDEN_TPCC[1]


def test_tiny_hot_ycsb_run_is_unchanged():
    config = RunConfig(
        n_partitions=4, horizon_us=3_000.0, warmup_us=300.0, seed=11,
        scheduler="conflict",
        arrivals=ArrivalSpec(process="poisson", offered_load=100_000.0,
                             deadline_us=1_000.0, admission="deadline"))
    workload = YcsbWorkload(n_keys=1200, reads_per_txn=4, writes_per_txn=4,
                            zipf_exponent=0.9)
    commits, digest = run_digest(make_ycsb_run("2pl", config,
                                               workload=workload))
    assert commits == GOLDEN_YCSB[0]
    assert digest == GOLDEN_YCSB[1]


GOLDEN_TPCC = (
    404, "3413f321244f7ea31169ff6b7dff9dbfa240d071d2c03cb4fc3b31b9f87dc3fa")
GOLDEN_YCSB = (
    280, "90d7f389026cf9cf117de8458f54813add936f427dc4cebaeaf5b5f5eacc76f9")
