"""Stores against the history: after a quiesced sim run with
``record_history``, every copy of every record the history wrote holds
the last version it committed (``HistoryRecorder.store_mismatches``),
on the primary and on each replica."""

import pytest

from repro.bench import RunConfig
from repro.bench.setups import make_tpcc_run, make_ycsb_run
from repro.traffic import ArrivalSpec
from repro.workloads.ycsb import YcsbWorkload


def tpcc_chiller_run():
    return make_tpcc_run("chiller", RunConfig(
        n_partitions=4, concurrent_per_engine=8, horizon_us=2_000.0,
        warmup_us=50.0, seed=11, n_replicas=2, record_history=True))


def hot_ycsb_2pl_run():
    config = RunConfig(
        n_partitions=4, horizon_us=3_000.0, warmup_us=300.0, seed=11,
        scheduler="conflict", n_replicas=2, record_history=True,
        arrivals=ArrivalSpec(process="poisson", offered_load=100_000.0,
                             deadline_us=1_000.0, admission="deadline"))
    workload = YcsbWorkload(n_keys=1200, reads_per_txn=4, writes_per_txn=4,
                            zipf_exponent=0.9)
    return make_ycsb_run("2pl", config, workload=workload)


def ycsb_occ_run():
    config = RunConfig(n_partitions=4, concurrent_per_engine=8,
                       horizon_us=3_000.0, warmup_us=300.0, seed=11,
                       n_replicas=2, record_history=True)
    workload = YcsbWorkload(n_keys=1200, reads_per_txn=4, writes_per_txn=4)
    return make_ycsb_run("occ", config, workload=workload)


@pytest.fixture(scope="module", params=[tpcc_chiller_run, hot_ycsb_2pl_run,
                                        ycsb_occ_run],
                ids=["tpcc_chiller", "hot_ycsb_2pl", "ycsb_occ"])
def finished(request):
    return request.param().run()


def test_every_copy_holds_the_last_committed_version(finished):
    history, db = finished.history, finished.database
    assert len({rid for log in history.commits
                for rid, _v in log.writes}) > 100
    assert history.store_mismatches(db) == []


def test_a_lost_or_extra_write_is_named():
    """Three plants on a TPC-C run (the one with inserts), each named
    with its copy: a replica one write ahead, then a primary and a
    replica that lost an inserted record."""
    finished = tpcc_chiller_run().run()
    history, db = finished.history, finished.database
    versions = {}
    for log in history.commits:
        for rid, version in log.writes:
            versions[rid] = max(version, versions.get(rid, -1))
    (table, key), committed = next(
        (rid, v) for rid, v in versions.items()
        if db.store(db.partition_of(*rid)).version_of(*rid) is not None)
    pid = db.partition_of(table, key)
    server = db.replicas.replica_servers(pid)[0]
    replica = db.replicas.store_on(server, pid)
    fields, _ = replica.read(table, key)
    replica.write(table, key, {})
    assert history.store_mismatches(db) == [
        (server, (table, key), committed, committed + 1)]
    replica.install(table, key, fields, committed)
    # an insert commits version 0, so losing the record cannot pass
    inserted = next(rid for rid, v in versions.items() if v == 0)
    ipid = db.partition_of(*inserted)
    db.store(ipid).delete(*inserted)
    iserver = db.replicas.replica_servers(ipid)[-1]
    db.replicas.store_on(iserver, ipid).delete(*inserted)
    assert history.store_mismatches(db) == [
        ("primary", inserted, 0, None), (iserver, inserted, 0, None)]
