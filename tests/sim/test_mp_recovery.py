"""Crash recovery on the multiprocess backend (chaos tests).

The real thing, no mocks: a worker process is SIGKILL'd mid-benchmark
(``mp_chaos_kill_worker``), the parent detects the death, announces it
to the survivors, respawns a fresh generation over the same WAL
directory, and rewires the fleet.  The run must complete, the
replacement must actually replay its predecessor's log, and no worker
process may leak.
"""

import multiprocessing

import pytest

from repro.bench import RunConfig
from repro.bench.experiments import fig9_rows
from repro.bench.setups import make_ycsb_run
from repro.sim import MpRunError
from repro.workloads.ycsb import YcsbWorkload


def no_leaked_workers() -> bool:
    return not [p for p in multiprocessing.active_children()
                if p.name.startswith("mp-worker-")]


def small_workload() -> YcsbWorkload:
    """A few hundred keys: the worker build (populate) finishes well
    inside the chaos-kill delay, so the SIGKILL lands mid-load with WAL
    records already on disk."""
    return YcsbWorkload(n_keys=512)


def chaos_config(tmp_path, **overrides) -> RunConfig:
    defaults = dict(
        n_partitions=2, concurrent_per_engine=2,
        horizon_us=3_000_000.0, warmup_us=0.0, n_replicas=1,
        backend="mp", run_timeout_s=180.0,
        wal="group", wal_dir=str(tmp_path),
        mp_recovery=True, mp_max_restarts=1,
        mp_chaos_kill_worker=1, mp_chaos_kill_after_s=1.2)
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_chaos_kill_mid_run_recovers_and_completes(tmp_path):
    """SIGKILL a worker mid-run: the run still completes, commits keep
    flowing, and the respawned generation replays its predecessor's
    WAL (merged recovery counters prove it happened)."""
    config = chaos_config(tmp_path)
    run = make_ycsb_run("2pl", config, workload=small_workload())
    result = run.run()

    assert result.metrics.commits > 0
    recovery = result.metrics.recovery_stats
    assert recovery is not None
    # the replacement found and replayed its predecessor's log
    assert recovery.recoveries >= 1
    assert recovery.wal_appends > 0
    summary = result.perf_summary()
    assert summary["recovery"]["recoveries"] >= 1
    assert no_leaked_workers()


def test_chaos_kill_of_a_replica_host_does_not_wedge_chiller():
    """fig9a's quick mp cells, one worker SIGKILLed right after the
    handshake.  Chiller's coordinator waits for its inner host's replica
    acks; those from a dead worker never come, so it must stop waiting
    for them (it used to hang, and the run timed out with the survivor
    never reporting 'done')."""
    rows = fig9_rows(concurrency=(1,), quick=True, overrides=dict(
        backend="mp", mp_workers=2, wal="group", mp_recovery=True,
        mp_max_restarts=1, mp_chaos_kill_worker=1,
        mp_chaos_kill_after_s=0.0, run_timeout_s=15))
    assert [row["concurrent"] for row in rows] == [1]
    assert "chiller_throughput" in rows[0]
    assert no_leaked_workers()


def test_chaos_kill_without_recovery_fails_the_run(tmp_path):
    """With mp_recovery off the death is fatal — the legacy contract:
    a run either finishes whole or raises, never silently degrades."""
    config = chaos_config(tmp_path, mp_recovery=False,
                          horizon_us=30_000_000.0,
                          mp_chaos_kill_after_s=0.3)
    run = make_ycsb_run("2pl", config, workload=small_workload())
    with pytest.raises(MpRunError, match="died before reporting"):
        run.run()
    assert no_leaked_workers()


def test_restart_budget_exhaustion_is_fatal(tmp_path):
    """A second death with mp_max_restarts=1 aborts the run: kill the
    same worker slot again by aiming the chaos timer long enough to
    outlive the first restart."""
    # one allowed restart is consumed by the first kill; a zero budget
    # makes even the first death fatal despite recovery being on
    config = chaos_config(tmp_path, mp_max_restarts=0,
                          horizon_us=30_000_000.0,
                          mp_chaos_kill_after_s=0.3)
    run = make_ycsb_run("2pl", config, workload=small_workload())
    with pytest.raises(MpRunError, match="died before reporting"):
        run.run()
    assert no_leaked_workers()


def test_merged_stats_count_each_generation_once(tmp_path):
    """Stats-merging regression for worker restart: a killed worker's
    payload is never collected (only its replacement reports), so the
    merged SchedulerStats/RecoveryStats must count each engine and
    each replay exactly once.  A double-fold of the dead generation's
    counters alongside its replacement's would show up here as a
    duplicate engine entry, recoveries=2, or more admissions than the
    same payloads' recorded attempts."""
    config = chaos_config(tmp_path)
    run = make_ycsb_run("2pl", config, workload=small_workload())
    result = run.run()
    metrics = result.metrics

    # exactly one scheduler entry per engine, whichever generation
    # owned it at quiescence
    assert set(metrics.scheduler_stats) == set(range(config.n_partitions))
    sched = metrics.scheduler_summary()
    assert sched.completed <= sched.admitted
    # every admitted request records >= 1 attempt in the same worker's
    # payload; double-merged scheduler counters would overshoot the
    # concatenated outcome list
    assert sched.admitted <= metrics.attempts

    # one SIGKILL, one respawn, one WAL replay -- exactly
    recovery = metrics.recovery_stats
    assert recovery is not None
    assert recovery.recoveries == 1
    assert result.perf_summary()["recovery"]["recoveries"] == 1
    assert no_leaked_workers()
