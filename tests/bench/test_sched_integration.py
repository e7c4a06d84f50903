"""Scheduler-mediated dispatch: end-to-end behavior on real runs.

Covers the tentpole acceptance properties: the fifo path is
indistinguishable from the historical raw loop, the conflict scheduler
measurably converts wasted contention work into commits, decisions are
scheduler- and backend-independent for race-free programs, and sim
runs stay bit-deterministic (same seed ⇒ same SchedulerStats).
"""

import pytest

from repro.bench import RunConfig
from repro.bench.conformance import run_ycsb_conformance
from repro.bench.setups import build_run
from repro.partitioning import HashScheme
from repro.sched import SchedulerSpec
from repro.storage import Catalog
from repro.workloads.ycsb import YcsbWorkload


def run_hot_ycsb(scheduler, seed=11, concurrent=8, horizon=5_000.0,
                 theta=1.1):
    workload = YcsbWorkload(n_keys=800, reads_per_txn=4, writes_per_txn=3,
                            zipf_exponent=theta)
    config = RunConfig(n_partitions=4, concurrent_per_engine=concurrent,
                       horizon_us=horizon, warmup_us=500.0, seed=seed,
                       n_replicas=1, scheduler=scheduler)
    return build_run(workload,
                     Catalog(config.n_partitions,
                             HashScheme(config.n_partitions)),
                     config).run()


def outcome_trace(result):
    return [(o.proc, o.committed, o.reason, o.start, o.end)
            for o in result.metrics.outcomes]


def test_default_and_fifo_are_identical():
    """scheduler=None and scheduler='fifo' must be the same dispatch,
    down to per-attempt timestamps (both reproduce the raw loop)."""
    default = run_hot_ycsb(None)
    fifo = run_hot_ycsb("fifo")
    assert outcome_trace(default) == outcome_trace(fifo)
    assert default.end_time == fifo.end_time
    assert default.metrics.events_processed == fifo.metrics.events_processed
    summary = fifo.metrics.scheduler_summary()
    assert summary.scheduler == "fifo"
    assert summary.deferrals == 0 and summary.sheds == 0


def test_conflict_converts_wasted_work_into_commits():
    fifo = run_hot_ycsb("fifo")
    conflict = run_hot_ycsb("conflict")
    assert conflict.metrics.commits > fifo.metrics.commits
    assert (conflict.metrics.wasted_attempts()
            < fifo.metrics.wasted_attempts())
    summary = conflict.metrics.scheduler_summary()
    assert summary.deferrals > 0
    assert summary.n_classes > 0
    assert summary.mean_queueing_delay_us() > 0.0


def test_conflict_stats_deterministic_per_seed():
    """Same seed ⇒ same SchedulerStats on the sim backend."""
    a = run_hot_ycsb("conflict", seed=23)
    b = run_hot_ycsb("conflict", seed=23)
    assert a.metrics.scheduler_stats == b.metrics.scheduler_stats
    assert outcome_trace(a) == outcome_trace(b)
    c = run_hot_ycsb("conflict", seed=24)
    assert (outcome_trace(a) != outcome_trace(c)
            or a.metrics.scheduler_stats != c.metrics.scheduler_stats)


def test_full_spec_crosses_run_config():
    spec = SchedulerSpec(kind="conflict", class_width=2,
                         max_queue_per_class=4)
    result = run_hot_ycsb(spec, horizon=2_000.0)
    summary = result.metrics.scheduler_summary()
    assert summary.scheduler == "conflict"
    assert summary.max_class_occupancy <= 2


def test_shed_requests_surface_in_metrics():
    spec = SchedulerSpec(kind="conflict", max_queue_per_class=1)
    result = run_hot_ycsb(spec, theta=1.3)
    metrics = result.metrics
    sheds = sum(stats.sheds for stats in metrics.scheduler_stats.values())
    if sheds:  # hot enough to overflow a class queue
        summary = metrics.scheduler_summary()
        assert summary.shed_reasons.get("class_overload", 0) > 0
        assert sheds == summary.sheds


def test_perf_summary_reports_scheduler():
    result = run_hot_ycsb("conflict", horizon=2_000.0)
    sched = result.perf_summary()["scheduler"]
    assert sched["scheduler"] == "conflict"
    assert sched["admitted"] > 0


# -- decision conformance (the satellite's fixed programs) --------------------

def test_ycsb_conformance_raw_vs_fifo_vs_conflict_on_sim():
    raw = run_ycsb_conformance("sim", scheduler=None)
    fifo = run_ycsb_conformance("sim", scheduler="fifo")
    conflict = run_ycsb_conformance("sim", scheduler="conflict")
    assert raw == fifo == conflict
    assert len(raw) == 12


@pytest.mark.parametrize("executor", ["2pl", "occ"])
def test_ycsb_conformance_conflict_sim_equals_aio(executor):
    sim = run_ycsb_conformance("sim", executor, scheduler="conflict")
    aio = run_ycsb_conformance("aio", executor, scheduler="conflict")
    assert sim == aio


def test_ycsb_conformance_conflict_sim_equals_mp():
    sim = run_ycsb_conformance("sim", scheduler="conflict")
    mp = run_ycsb_conformance("mp", scheduler="conflict")
    assert sim == mp
