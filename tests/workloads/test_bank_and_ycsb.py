"""Tests for the bank and YCSB micro-workloads."""

import pytest

from repro._util import make_rng
from repro.analysis import ProcedureRegistry
from repro.bench import RunConfig, run_benchmark
from repro.partitioning import HashScheme
from repro.sim import Cluster
from repro.storage import Catalog
from repro.txn import Database, TwoPLExecutor
from repro.workloads import bank
from repro.workloads.bank import BankWorkload
from repro.workloads.ycsb import YcsbWorkload, expected_counter_total


def test_bank_generator_hot_bias():
    workload = BankWorkload(n_accounts=100, hot_accounts=5,
                            hot_probability=0.8)
    rng = make_rng(1, "bank")
    hot_hits = 0
    n = 500
    for _ in range(n):
        request = workload.next_request(0, rng)
        if request.proc != "transfer":
            continue
        if request.params["src"] < 5:
            hot_hits += 1
    assert hot_hits / n > 0.5


def test_bank_generator_never_self_transfer():
    workload = BankWorkload(n_accounts=10)
    rng = make_rng(2, "bank")
    for _ in range(200):
        request = workload.next_request(0, rng)
        assert request.params["src"] != request.params["dst"]


def test_bank_invalid_hot_config():
    with pytest.raises(ValueError):
        BankWorkload(n_accounts=5, hot_accounts=10)


def test_bank_audit_fraction(monkeypatch):
    monkeypatch.setattr(bank, "AUDIT_FRACTION", 0.5)
    workload = BankWorkload(n_accounts=50)
    rng = make_rng(3, "bank")
    procs = [workload.next_request(0, rng).proc for _ in range(300)]
    share = procs.count("audit") / len(procs)
    assert share == pytest.approx(0.5, abs=0.1)


def run_ycsb(zipf=0.0, writes=2, seed=5):
    workload = YcsbWorkload(n_keys=500, reads_per_txn=4,
                            writes_per_txn=writes,
                            zipf_exponent=zipf)
    config = RunConfig(n_partitions=2, concurrent_per_engine=2,
                       horizon_us=2_000.0, warmup_us=0.0, seed=seed,
                       n_replicas=0)
    cluster = Cluster(config.n_partitions)
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    db = Database(cluster, Catalog(2, HashScheme(2)),
                  workload.tables(), registry, n_replicas=0)
    workload.populate(db.loader())
    result = run_benchmark(workload, TwoPLExecutor(db), config)
    return result, workload, db


def test_ycsb_counters_match_commits():
    """Every committed transaction bumps exactly `writes` counters: the
    lost-update litmus test."""
    result, workload, db = run_ycsb()
    total = expected_counter_total(db, workload.n_keys)
    assert total == result.metrics.commits * workload.writes_per_txn


def test_ycsb_request_key_disjointness():
    workload = YcsbWorkload(n_keys=100, reads_per_txn=5,
                            writes_per_txn=3)
    rng = make_rng(7, "ycsb")
    for _ in range(100):
        request = workload.next_request(0, rng)
        keys = (list(request.params["read_keys"])
                + list(request.params["write_keys"]))
        assert len(keys) == len(set(keys)) == 8


def test_ycsb_zipf_skews_access():
    workload = YcsbWorkload(n_keys=1000, zipf_exponent=1.2)
    rng = make_rng(8, "ycsb")
    low_keys = 0
    total = 0
    for _ in range(200):
        request = workload.next_request(0, rng)
        for key in request.params["read_keys"]:
            total += 1
            if key < 50:
                low_keys += 1
    assert low_keys / total > 0.2  # head-heavy under zipf


def test_ycsb_read_only_mode():
    result, workload, db = run_ycsb(writes=0)
    assert result.metrics.commits > 0
    assert expected_counter_total(db, workload.n_keys) == 0
