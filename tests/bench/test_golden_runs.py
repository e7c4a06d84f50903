"""Fixed-seed golden digests of five tiny sim runs.

The first two digests were recorded on the commit *before* the
compute-once hot path (hash memo, type-dispatched payload walk, compiled
procedure layouts, tuple event heap) landed, so they pin that none of it
moves the event stream: every commit latency, the modelled bytes per
message kind, the number of events fired and the order ids TPC-C handed
out.  The other three were recorded on the commit before the closed- and
open-loop request lifecycles became one generator, and cover the
branches the first two miss: DEFER/readmit and SHED from a closed-loop
worker, data-affinity routing, and multi-tenant open-loop accounting
with tracing on.  A change that is meant to alter behaviour re-records
them and says why.
"""

import hashlib

import pytest

from repro.bench import RunConfig
from repro.bench.setups import (build_instacart_layout,
                                build_instacart_setup, make_instacart_run,
                                make_tpcc_run, make_ycsb_run)
from repro.sched import conflict
from repro.traffic import ArrivalSpec
from repro.workloads import instacart
from repro.workloads.instacart import InstacartWorkload
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


def tiny_tpcc_chiller_run():
    config = RunConfig(n_partitions=4, concurrent_per_engine=8,
                       horizon_us=500.0, warmup_us=50.0, seed=11,
                       n_replicas=2)
    return make_tpcc_run("chiller", config)


def test_tiny_tpcc_chiller_run_is_unchanged():
    commits, digest = run_digest(tiny_tpcc_chiller_run(),
                                 extra=next_order_ids)
    assert commits == GOLDEN_TPCC[0]
    assert digest == GOLDEN_TPCC[1]


def tiny_hot_ycsb_run():
    config = RunConfig(
        n_partitions=4, horizon_us=3_000.0, warmup_us=300.0, seed=11,
        scheduler="conflict",
        arrivals=ArrivalSpec(process="poisson", offered_load=100_000.0,
                             deadline_us=1_000.0, admission="deadline"))
    workload = YcsbWorkload(n_keys=1200, reads_per_txn=4, writes_per_txn=4,
                            zipf_exponent=0.9)
    return make_ycsb_run("2pl", config, workload=workload)


def test_tiny_hot_ycsb_run_is_unchanged():
    commits, digest = run_digest(tiny_hot_ycsb_run())
    assert commits == GOLDEN_YCSB[0]
    assert digest == GOLDEN_YCSB[1]


def scheduler_summaries(result) -> list:
    stats = result.metrics.scheduler_stats
    return [(home, stats[home].summary()) for home in sorted(stats)]


@pytest.fixture
def two_waiter_cap(monkeypatch):
    """Shed past two waiters per conflict class, so tiny runs shed."""
    monkeypatch.setattr(conflict, "MAX_QUEUE_PER_CLASS", 2)


def tiny_closed_conflict_run():
    """Closed-loop workers deferred, re-admitted and shed by the
    conflict scheduler (run under :func:`two_waiter_cap`, on 64
    zipf-1.2 keys)."""
    config = RunConfig(
        n_partitions=2, concurrent_per_engine=8, horizon_us=2_000.0,
        warmup_us=200.0, seed=11, scheduler="conflict")
    workload = YcsbWorkload(n_keys=64, reads_per_txn=2, writes_per_txn=2,
                            zipf_exponent=1.2)
    return make_ycsb_run("2pl", config, workload=workload)


def test_tiny_closed_loop_conflict_run_is_unchanged(two_waiter_cap):
    seen = {}

    def sched(result):
        merged = result.metrics.scheduler_summary()
        seen.update(deferrals=merged.deferrals, sheds=merged.sheds)
        return scheduler_summaries(result)

    commits, digest = run_digest(tiny_closed_conflict_run(), extra=sched)
    assert seen["deferrals"] > 0 and seen["sheds"] > 0
    assert commits == GOLDEN_CLOSED_CONFLICT[0]
    assert digest == GOLDEN_CLOSED_CONFLICT[1]


def tiny_routed_instacart_run():
    """Closed-loop workers dispatching by data affinity."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instacart, "N_CUSTOMERS", 200)
        workload = InstacartWorkload(n_products=300)
    setup = build_instacart_setup(3, n_train=300, workload=workload, seed=11)
    layout = build_instacart_layout(setup, "chiller", seed=11)
    config = RunConfig(n_partitions=3, concurrent_per_engine=4,
                       horizon_us=1_500.0, warmup_us=150.0, seed=11,
                       route_by_data=True)
    return make_instacart_run(setup, layout, config)


def test_tiny_routed_instacart_run_is_unchanged():
    commits, digest = run_digest(tiny_routed_instacart_run())
    assert commits == GOLDEN_ROUTED_INSTACART[0]
    assert digest == GOLDEN_ROUTED_INSTACART[1]


def tiny_traced_tenants_run():
    """Open-loop multi-tenant arrivals past the knee with tracing on
    (the front door sheds, the conflict scheduler sheds admitted
    arrivals, some commits miss their SLO): the digest also covers
    tenant/SLO accounting, per-engine scheduler counters and how many
    spans and exemplars the run harvested.  Run under
    :func:`two_waiter_cap`."""
    config = RunConfig(
        n_partitions=2, horizon_us=3_000.0, warmup_us=300.0, seed=11,
        scheduler="conflict", trace=True,
        arrivals=ArrivalSpec(process="tenants", offered_load=400_000.0,
                             deadline_us=400.0, admission="deadline"))
    workload = YcsbWorkload(n_keys=100, reads_per_txn=3, writes_per_txn=3,
                            zipf_exponent=0.9)
    return make_ycsb_run("2pl", config, workload=workload)


def test_tiny_traced_tenants_run_is_unchanged(two_waiter_cap):
    def accounting(result):
        trace = result.metrics.trace
        return [result.metrics.open_loop.summary(),
                scheduler_summaries(result), len(trace.spans),
                sorted((tenant, len(entries))
                       for tenant, entries in trace.exemplars.items())]

    commits, digest = run_digest(tiny_traced_tenants_run(),
                                 extra=accounting)
    assert commits == GOLDEN_TRACED_TENANTS[0]
    assert digest == GOLDEN_TRACED_TENANTS[1]


GOLDEN_RUNS = (tiny_tpcc_chiller_run, tiny_hot_ycsb_run,
               tiny_closed_conflict_run, tiny_routed_instacart_run,
               tiny_traced_tenants_run)
"""The five configurations, each a fresh build per call."""

TWO_WAITER_RUNS = (tiny_closed_conflict_run, tiny_traced_tenants_run)
"""The configurations that run under :func:`two_waiter_cap`."""

GOLDEN_TPCC = (
    404, "3413f321244f7ea31169ff6b7dff9dbfa240d071d2c03cb4fc3b31b9f87dc3fa")
GOLDEN_YCSB = (
    280, "90d7f389026cf9cf117de8458f54813add936f427dc4cebaeaf5b5f5eacc76f9")
GOLDEN_CLOSED_CONFLICT = (
    290, "193f7c20f484be71548626929885c029da98e7a8d963b6e87a6877790e31bb62")
GOLDEN_ROUTED_INSTACART = (
    267, "69a605eea188c37686624e3c5f92fe3293c5779efbe88c8f8ef8e1d778d863c4")
GOLDEN_TRACED_TENANTS = (
    360, "e6431fcc756fa58b3a2588bf16b478136956b245d3786407938685fbf1787d93")
