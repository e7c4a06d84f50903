"""The stack sampler a traced run arms: what it counts, what it leaves."""

import selectors
import signal
import time

import pytest

import repro.bench.harness as harness
from repro._util import stable_hash
from repro.bench import RunConfig
from repro.bench.setups import make_ycsb_run
from repro.obs import StackSampler, sample_table
from repro.obs.sampler import WAIT
from repro.workloads.ycsb import YcsbWorkload


def traced_run(horizon_us=20_000.0):
    config = RunConfig(n_partitions=2, concurrent_per_engine=4,
                       horizon_us=horizon_us, warmup_us=1_000.0, seed=3,
                       scheduler="conflict", trace=True)
    workload = YcsbWorkload(n_keys=200, zipf_exponent=0.9)
    return make_ycsb_run("2pl", config, workload=workload)


def outputs(result):
    metrics = result.metrics
    return ([(o.committed, o.start, o.end) for o in metrics.outcomes],
            metrics.events_processed, len(metrics.trace.spans),
            sorted(result.database.cluster.network.stats
                   .bytes_by_kind.items()))


class Unarmed(StackSampler):
    def start(self):
        return self


def test_a_traced_sim_run_samples_and_stays_bit_identical(monkeypatch):
    sampled = traced_run().run()
    row = sampled.perf_summary()["samples"]["main"]
    assert row["n"] > 0
    assert sum(share for _, share in row["shares"]) == pytest.approx(1.0)
    assert not [module for module, _ in row["shares"]
                if module.startswith("repro")]
    monkeypatch.setattr(harness, "StackSampler", Unarmed)
    assert outputs(traced_run().run()) == outputs(sampled)


def test_an_untraced_run_reports_no_samples():
    run = traced_run()
    run.config.trace = False
    summary = run.run().perf_summary()
    assert "samples" not in summary


def test_samples_land_in_the_innermost_repro_module_or_the_wait():
    sampler = StackSampler().start()
    try:
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            stable_hash(("usertable", 12345))
        with selectors.DefaultSelector() as selector:
            selector.select(timeout=0.05)
    finally:
        counts = sampler.stop()
    assert counts.get(WAIT, 0) > 0
    assert "_util" in counts


def test_the_previous_handler_and_timer_come_back():
    def previous(*_):
        pass

    old = signal.signal(signal.SIGALRM, previous)
    try:
        signal.setitimer(signal.ITIMER_REAL, 30.0, 30.0)
        sampler = StackSampler().start()
        assert signal.getsignal(signal.SIGALRM) == sampler._sample
        sampler.stop()
        assert signal.getsignal(signal.SIGALRM) is previous
        remaining, interval = signal.getitimer(signal.ITIMER_REAL)
        assert interval == 30.0 and 0.0 < remaining <= 30.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_the_table_orders_shares_largest_first():
    table = sample_table({"worker-1": {"wait": 1, "txn.executor": 3},
                          "worker-0": {"sim.network": 2}})
    assert list(table) == ["worker-0", "worker-1"]
    assert table["worker-1"] == {"n": 4, "shares": [["txn.executor", 0.75],
                                                    ["wait", 0.25]]}
