"""Timeline through the harness: sim runs end to end with
``metrics_interval`` set.

The fast (sim-backend) half of the observability acceptance: samples
are collected after fired events, harvested into ``metrics.timeline``,
surfaced in ``perf_summary()["timeline"]`` / ``["health"]``, written
as CSV — and, the load-bearing guarantee, sampling never moves a
simulator event.  The mp half lives in
``tests/sim/test_mp_runtime.py::test_tpcc_cell_runs_on_mp_backend``
(live shipping on a healthy fleet) and
``tests/obs/test_watchdog_chaos.py`` (merge under worker death).
"""

import json
import socket
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.analysis import ProcedureRegistry
from repro.bench import RunConfig, run_benchmark
from repro.bench.setups import make_ycsb_run
from repro.obs import HealthEvent, HealthRule, WatchdogAbort
from repro.obs import health as obs_health
from repro.partitioning import HashScheme
from repro.sim import Cluster
from repro.storage import Catalog
from repro.traffic import ArrivalSpec
from repro.txn import Database, TwoPLExecutor
from repro.workloads.bank import BankWorkload
from repro.workloads.ycsb import YcsbWorkload


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


def run_bank(**overrides):
    defaults = dict(n_partitions=2, concurrent_per_engine=2,
                    horizon_us=2_000.0, warmup_us=0.0, n_replicas=0)
    defaults.update(overrides)
    config = RunConfig(**defaults)
    workload = BankWorkload(n_accounts=50)
    db = build(workload, config)
    return run_benchmark(workload, TwoPLExecutor(db), config)


def digest(result):
    metrics = result.metrics
    return (metrics.commits, metrics.aborts, metrics.attempts,
            metrics.events_processed, result.end_time)


def test_timeline_off_allocates_nothing():
    result = run_bank()
    assert result.metrics.timeline is None
    summary = result.perf_summary()
    assert "timeline" not in summary and "health" not in summary


def test_timeline_does_not_perturb_the_sim():
    assert digest(run_bank()) == digest(run_bank(metrics_interval=200.0))


def test_timeline_collects_samples_and_matches_final_metrics():
    result = run_bank(metrics_interval=200.0)
    timeline = result.metrics.timeline
    assert timeline is not None
    assert timeline.servers() == [0, 1]
    # ~10 intervals over the 2ms horizon, plus the final flush
    assert len(timeline.rows()) >= 10
    # the timeline's cumulative view lands exactly on the aggregates
    totals = timeline.totals()
    assert totals["commits"] == result.metrics.commits
    assert totals.get("aborts", 0) == result.metrics.aborts
    for server, stats in result.metrics.scheduler_stats.items():
        completed = sum(r.counters.get("completed", 0)
                        for r in timeline.rows(server))
        assert completed == stats.completed

    summary = result.perf_summary()
    assert summary["timeline"]["samples"] == len(timeline.rows())
    assert summary["timeline"]["commits"] == result.metrics.commits
    assert summary["health"] == []


def test_timeline_csv_lands_on_disk(tmp_path):
    path = tmp_path / "timeline.csv"
    result = run_bank(metrics_interval=200.0, metrics_csv=str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t_us,server,gen")
    assert len(lines) == len(result.metrics.timeline.rows()) + 1


def test_watchdog_abort_kills_a_wedged_run(monkeypatch):
    # a rule that fires on the first sample (any queue depth >= 0):
    # the run must stop at the first interval, not the horizon, and
    # still return its partial metrics with the event on record
    rules = (HealthRule("queue_saturation", threshold=0.0, window=1,
                        fatal=True),)
    monkeypatch.setattr(obs_health, "default_rules", lambda: rules)
    result = run_bank(metrics_interval=200.0, watchdog_abort=True)
    assert result.end_time < 2_000.0
    health = result.perf_summary()["health"]
    assert health and health[0]["kind"] == "queue_saturation"
    assert result.metrics.timeline.rows()


def test_watchdog_abort_exception_carries_the_event():
    with pytest.raises(WatchdogAbort) as err:
        raise WatchdogAbort(HealthEvent("stall", 1.0, 0, 0.0, 0.0,
                                        "wedged"))
    assert err.value.event.kind == "stall"
    assert "wedged" in str(err.value)


def test_health_events_survive_into_perf_summary(monkeypatch):
    rules = (HealthRule("queue_saturation", threshold=0.0, window=1),)
    monkeypatch.setattr(obs_health, "default_rules", lambda: rules)
    result = run_bank(metrics_interval=200.0)
    health = result.perf_summary()["health"]
    assert health and health[0]["kind"] == "queue_saturation"
    assert result.metrics.timeline.health


def test_timeline_and_scheduler_agree_on_max_queue_depth():
    """Regression: the timeline summary took the max of the *sampled*
    ``queue_depth`` gauge (whatever the queue happened to hold at each
    tick) although every row carries the exact running peak."""
    config = RunConfig(
        n_partitions=4, horizon_us=6_000.0, warmup_us=600.0, seed=7,
        scheduler="conflict", metrics_interval=500.0,
        arrivals=ArrivalSpec(process="poisson", offered_load=100_000.0,
                             deadline_us=1_000.0, admission="deadline"))
    workload = YcsbWorkload(n_keys=1200, reads_per_txn=4, writes_per_txn=4,
                            zipf_exponent=0.9)
    summary = make_ycsb_run("2pl", config,
                            workload=workload).run().perf_summary()
    peak = summary["scheduler"]["max_queue_depth"]
    assert peak > 1
    assert summary["timeline"]["max_queue_depth"] == peak


_SCRAPER = """
import json, sys, time, urllib.request
url = sys.argv[1]
opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
print("ready", flush=True)
while True:
    try:
        with opener.open(url, timeout=1.0) as reply:
            text = reply.read().decode()
    except OSError:  # not listening yet
        text = ""
    if "repro_commits_total" in text:
        print(json.dumps({"at": time.monotonic(), "text": text}))
        break
    time.sleep(0.01)
"""


def scrape_during_a_run(backend: str, horizon_us: float) -> None:
    """The endpoint the harness opens for ``metrics_port``: scraped
    while the run is still going, closed when it returns.

    The scraper is another process, as a Prometheus server is: a
    thread of this one would compete with the run's event loop for the
    GIL, and a busy loop that releases and retakes it on every
    iteration starves any such thread until the loop ends."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    url = f"http://127.0.0.1:{port}/metrics"
    scraper = subprocess.Popen([sys.executable, "-c", _SCRAPER, url],
                               stdout=subprocess.PIPE, text=True)
    try:
        assert scraper.stdout.readline() == "ready\n"
        config = RunConfig(n_partitions=2, concurrent_per_engine=2,
                           horizon_us=horizon_us, warmup_us=0.0,
                           n_replicas=0, backend=backend,
                           metrics_interval=20_000.0, metrics_port=port)
        result = make_ycsb_run("2pl", config,
                               workload=YcsbWorkload(n_keys=200)).run()
        ended = time.monotonic()
        try:  # a scrape made during the run has already been printed
            out, _ = scraper.communicate(timeout=5.0)
        except subprocess.TimeoutExpired:
            out = ""  # still polling a closed port
    finally:
        scraper.kill()
        scraper.wait()
    assert result.metrics.commits > 0
    assert out, "no scrape was answered during the run"
    scraped = json.loads(out)
    assert scraped["at"] < ended  # one clock: CLOCK_MONOTONIC
    assert 'repro_commits_total{server="0"}' in scraped["text"]
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    with pytest.raises(OSError):  # connection refused: the port is closed
        opener.open(url, timeout=1.0)


def test_prometheus_endpoint_is_live_during_an_aio_run():
    scrape_during_a_run("aio", 400_000.0)


def test_prometheus_endpoint_is_live_during_an_mp_run():
    """On mp the supervisor's wait loop answers the scrape, between two
    waits on its workers' pipes: the parent runs no thread."""
    scrape_during_a_run("mp", 600_000.0)
