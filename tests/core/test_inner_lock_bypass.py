"""Tests for Section 3.3's inner-lock bypass, which is how every inner
region runs: it checks locks and takes none, since a lock taken inside
its one atomic event would be released before anyone could see it."""

import pytest

from repro.analysis import ProcedureRegistry
from repro.bench import RunConfig
from repro.bench.setups import make_tpcc_run
from repro.core import ChillerExecutor, HotRecordTable
from repro.partitioning import HashScheme
from repro.sim import Cluster
from repro.storage import Catalog, LockMode
from repro.txn import AbortReason, TxnRequest, Database
from repro.workloads.flightbooking import (FLIGHT_TABLES,
                                           flight_booking_procedure,
                                           flight_routing, populate)


def make_flight_db():
    cluster = Cluster(3)
    registry = ProcedureRegistry()
    registry.register(flight_booking_procedure())
    scheme = HashScheme(3, routing=flight_routing)
    db = Database(cluster, Catalog(3, scheme), FLIGHT_TABLES, registry,
                  n_replicas=0)
    populate(db.loader())
    hot = HotRecordTable({("flight", 7): scheme.partition_of("flight",
                                                             7)})
    executor = ChillerExecutor(db, hot)
    return db, cluster, executor


def run_booking(db, cluster, executor):
    fpid = db.partition_of("flight", 7)
    home = (fpid + 1) % 3
    outcomes = []
    request = TxnRequest("book_flight",
                         {"flight_id": 7, "cust_id": 3}, home=home)
    cluster.engine(home).spawn(executor.execute(request), outcomes.append)
    cluster.run()
    return outcomes[0]


def test_bypass_commits_without_taking_inner_locks():
    db, cluster, executor = make_flight_db()
    outcome = run_booking(db, cluster, executor)
    assert outcome.committed
    fpid = db.partition_of("flight", 7)
    assert db.store(fpid).read("flight", 7)[0]["seats"] == 199
    assert not db.store(fpid).is_locked("flight", 7)
    # only the inner region touched the flight: no lock word was made
    assert db.store(fpid).table("flight").lock_words() == 0


def test_bypass_still_respects_foreign_locks():
    """A lock held by someone else (an outer region) must still abort
    the inner region — bypass is not license to trample."""
    db, cluster, executor = make_flight_db()
    fpid = db.partition_of("flight", 7)
    db.store(fpid).try_lock("flight", 7, LockMode.EXCLUSIVE, "outer-txn")
    outcome = run_booking(db, cluster, executor)
    assert not outcome.committed
    assert outcome.reason is AbortReason.INNER_CONFLICT
    assert db.store(fpid).read("flight", 7)[0]["seats"] == 200


def test_bypass_preserves_tpcc_serializability():
    """The full TPC-C mix stays serializable with inner regions that
    take no locks."""
    config = RunConfig(n_partitions=2, concurrent_per_engine=3,
                       horizon_us=4_000.0, warmup_us=0.0, seed=13,
                       n_replicas=0, record_history=True)
    run = make_tpcc_run("chiller", config)
    result = run.run()
    assert result.metrics.commits > 50
    assert result.history.find_cycle() is None
    # consistency spot check
    db = run.database
    for w in range(run.workload.scale.n_warehouses):
        pid = db.partition_of("warehouse", w)
        w_ytd = db.store(pid).read("warehouse", w)[0]["w_ytd"]
        d_sum = sum(db.store(pid).read("district", (w, d))[0]["d_ytd"]
                    for d in range(10))
        assert w_ytd == pytest.approx(d_sum)
