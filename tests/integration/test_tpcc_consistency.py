"""Concurrent full-mix TPC-C: consistency and serializability oracles.

TPC-C's own consistency conditions make sharp executor tests:
* w_ytd equals the sum of its districts' d_ytd (payments hit both);
* d_next_o_id - initial equals the orders actually inserted;
* every executor yields a conflict-serializable history.
"""

import pytest

from repro.bench import RunConfig
from repro.bench.setups import make_tpcc_run
from repro.workloads.tpcc import DISTRICTS_PER_WAREHOUSE


def run_mix(executor_name, concurrent=3, seed=11, n_partitions=2,
            horizon_us=5_000.0, n_replicas=0):
    config = RunConfig(n_partitions=n_partitions,
                       concurrent_per_engine=concurrent,
                       horizon_us=horizon_us, warmup_us=0.0, seed=seed,
                       n_replicas=n_replicas, record_history=True)
    run = make_tpcc_run(executor_name, config)
    result = run.run()
    return result, run


EXECUTORS = ["2pl", "occ", "chiller"]


@pytest.mark.parametrize("executor_name", EXECUTORS)
def test_warehouse_ytd_matches_district_sum(executor_name):
    result, run = run_mix(executor_name)
    assert result.metrics.commits > 50
    db = run.database
    for w in range(run.workload.scale.n_warehouses):
        pid = db.partition_of("warehouse", w)
        w_ytd = db.store(pid).read("warehouse", w)[0]["w_ytd"]
        d_sum = sum(db.store(pid).read("district", (w, d))[0]["d_ytd"]
                    for d in range(DISTRICTS_PER_WAREHOUSE))
        assert w_ytd == pytest.approx(d_sum), (
            f"{executor_name}: warehouse {w} ytd diverged from districts")


@pytest.mark.parametrize("executor_name", EXECUTORS)
def test_order_counter_matches_inserted_orders(executor_name):
    result, run = run_mix(executor_name)
    db = run.database
    scale = run.workload.scale
    for w in range(scale.n_warehouses):
        pid = db.partition_of("warehouse", w)
        for d in range(DISTRICTS_PER_WAREHOUSE):
            next_o = db.store(pid).read("district",
                                        (w, d))[0]["d_next_o_id"]
            for o_id in range(scale.initial_orders, next_o):
                assert db.store(pid).read("order", (w, d, o_id)) \
                    is not None, (
                    f"{executor_name}: order {o_id} missing in "
                    f"district ({w},{d}) though counter reached {next_o}")
            assert db.store(pid).read("order", (w, d, next_o)) is None


@pytest.mark.parametrize("executor_name", EXECUTORS)
def test_history_serializable(executor_name):
    result, _ = run_mix(executor_name)
    assert len(result.history.commits) == result.metrics.commits
    assert result.history.find_cycle() is None


@pytest.mark.parametrize("executor_name", EXECUTORS)
def test_no_lock_leaks_after_run(executor_name):
    result, run = run_mix(executor_name)
    db = run.database
    for w in range(run.workload.scale.n_warehouses):
        pid = db.partition_of("warehouse", w)
        assert not db.store(pid).is_locked("warehouse", w)
        for d in range(DISTRICTS_PER_WAREHOUSE):
            assert not db.store(pid).is_locked("district", (w, d))


@pytest.mark.parametrize("seed", [5, 6])
def test_chiller_serializable_with_replication(seed):
    result, _ = run_mix("chiller", seed=seed, n_replicas=1)
    assert result.history.find_cycle() is None


def test_chiller_uses_two_region_path_heavily():
    result, _ = run_mix("chiller")
    assert result.metrics.two_region_ratio() > 0.8


def test_chiller_fewer_aborts_than_2pl_at_high_concurrency():
    """Fig. 9b's central claim at one operating point."""
    r_chiller, _ = run_mix("chiller", concurrent=4)
    r_2pl, _ = run_mix("2pl", concurrent=4)
    assert (r_chiller.metrics.abort_rate()
            < 0.5 * r_2pl.metrics.abort_rate())


def test_payment_starvation_under_2pl():
    """Fig. 9c: NewOrder's shared warehouse locks starve Payment's
    exclusive requests under 2PL NO_WAIT at high concurrency."""
    result, _ = run_mix("2pl", concurrent=6, horizon_us=4_000.0)
    payment_rate = result.metrics.abort_rate("payment")
    order_status_rate = result.metrics.abort_rate("order_status")
    assert payment_rate > 0.5
    assert payment_rate > order_status_rate


def test_replicas_converge_under_chiller():
    result, run = run_mix("chiller", n_replicas=1)
    db = run.database
    for w in range(run.workload.scale.n_warehouses):
        pid = db.partition_of("warehouse", w)
        primary = db.store(pid).read("warehouse", w)[0]["w_ytd"]
        for rserver in db.replicas.replica_servers(pid):
            replica = db.replicas.store_on(rserver, pid)
            assert replica.read("warehouse", w)[0]["w_ytd"] == (
                pytest.approx(primary))
