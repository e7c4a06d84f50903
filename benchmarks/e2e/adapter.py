"""The one file of the benchmark that imports ``repro`` for the timed runs.

Everything else under ``benchmarks/e2e/`` sees only the plain dicts this
module returns, so a config or wire refactor inside ``repro`` breaks at
most this file.  The surface used, all of it public:

* ``repro.bench.RunConfig`` keyword fields: ``n_partitions``,
  ``concurrent_per_engine``, ``horizon_us``, ``warmup_us``, ``seed``,
  ``n_replicas``, ``record_history``, ``backend``, ``mp_workers``,
  ``mp_transport``, ``mp_codec``, ``wal``, ``wal_dir``,
  ``wal_group_size``, ``scheduler``, ``arrivals``, ``trace``,
  ``trace_sample``
* ``repro.bench.setups.make_tpcc_run`` / ``make_ycsb_run`` and the
  ``.run()``, ``.database`` of what they return
* ``repro.workloads.ycsb.YcsbWorkload`` / ``expected_counter_total``,
  ``repro.traffic.ArrivalSpec``
* ``RunResult.metrics`` / ``.throughput`` / ``.database`` / ``.history``
* ``Metrics.outcomes`` (``committed``, ``reason``, ``start``, ``end``,
  ``distributed``, ``used_two_region``), ``.commits_by_proc()``,
  ``.events_processed``, ``.scheduler_stats``, ``.scheduler_summary()``,
  ``.recovery_stats``, ``.open_loop``, ``.trace``
* ``repro.bench.metrics.APP_ABORTS``
* ``database.cluster.network.stats`` (``total_remote_ops()``,
  ``total_bytes()``, ``wire_bytes_sent``), ``database.cluster.sim.probe``,
  ``database.partition_of``, ``database.store(pid).read``,
  ``database.close_wals()``; ``run.workload`` (``.scale``, ``.n_keys``,
  ``.writes_per_txn``), ``run.config``
* ``repro.storage.wal.replay_wal`` / ``wal_path`` / ``R_DECISION``
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench import RunConfig
from repro.bench.metrics import APP_ABORTS
from repro.bench.setups import make_tpcc_run, make_ycsb_run
from repro.storage.wal import R_DECISION, replay_wal, wal_path
from repro.traffic import ArrivalSpec
from repro.workloads.ycsb import YcsbWorkload, expected_counter_total


@dataclass(frozen=True)
class Cell:
    """One benchmark workload: a name, why it exists, and its sizes."""

    name: str
    why: str
    backend: str
    """``"sim"`` (fixed work, repeated) or ``"mp"`` (fixed wall time)."""

    horizon_us: float
    """Sim cells only: simulated horizon of one repeat.  mp cells take
    their horizon from ``--seconds``."""

    slo_us: float
    """Latency limit on the cell's own clock.  Open loop: from the
    scheduled arrival; closed loop: the completing attempt."""


CELLS = {cell.name: cell for cell in (
    Cell("tpcc_chiller_sim",
         "TPC-C fig9a cell, two-region Chiller executor, closed loop: all "
         "CPU is in core/txn/storage/replication/analysis and the sim "
         "kernel; codec, transports, WAL and sched do nothing",
         "sim", 2_500.0, 120.0),
    Cell("ycsb_hot_open_sim",
         "hot-key YCSB (zipf 0.9), conflict scheduler, Poisson open loop at "
         "100k/s: a third of attempts abort and retry; the only cell where "
         "sched, admission and traffic do work",
         "sim", 30_000.0, 1_000.0),
    Cell("ycsb_wal_sim",
         "uniform YCSB, group-commit WAL with real fsyncs, on sim: only "
         "here do storage.wal and commit-FSM logging work. Not on mp: the "
         "log must stay in the checkout, a disk, whose waits spread txn/s "
         "25 %",
         "sim", 30_000.0, 135.0),
    Cell("ycsb_mp_tcp",
         "the same uniform YCSB on 2 worker processes over TCP + packed "
         "codec, WAL off: codec, transport and server-side dispatch "
         "dominate; Chiller planning, sched and WAL are bypassed",
         "mp", 0.0, 25_000.0),
)}

MP_WARMUP_SHARE = 0.1
OPEN_LOOP_RATE = 100_000.0
"""Offered load of ``ycsb_hot_open_sim``, chosen below the knee: at
150k/s the admission controller sheds 0.5-3 % of arrivals (seed to
seed), and the benchmark contract wants workloads on which nothing
fails.  The rates above it are probed in the traced run."""


def hot_ycsb_run(seed: int, horizon_us: float, rate: float, slo_us: float,
                 history: bool = False):
    """The open-loop hot-key cell at ``rate`` arrivals/s (also used by
    the traced run's rate probes)."""
    config = RunConfig(
        n_partitions=4, horizon_us=horizon_us, warmup_us=horizon_us / 10,
        seed=seed, scheduler="conflict", record_history=history,
        arrivals=ArrivalSpec(process="poisson", offered_load=rate,
                             deadline_us=slo_us, admission="deadline"))
    workload = YcsbWorkload(n_keys=1200, reads_per_txn=4, writes_per_txn=4,
                            zipf_exponent=0.9)
    return make_ycsb_run("2pl", config, workload=workload)


def build(cell: Cell, seed: int, *, scale: float = 1.0,
          mp_seconds: float = 0.0, wal_dir: str | None = None,
          history: bool = False, phase_trace: bool = False):
    """Build a fresh database + executor for one repeat of ``cell``.

    ``scale`` shrinks a sim cell's horizon (tests only).  ``history``
    records the commit history for the serializability check and
    ``phase_trace`` turns the program's own phase tracer on; both are
    used by the traced run only.
    """
    horizon = cell.horizon_us * scale
    if cell.name == "tpcc_chiller_sim":
        config = RunConfig(n_partitions=4, concurrent_per_engine=8,
                           horizon_us=horizon, warmup_us=horizon / 10,
                           seed=seed, n_replicas=2, record_history=history)
        return make_tpcc_run("chiller", config)
    if cell.name == "ycsb_hot_open_sim":
        return hot_ycsb_run(seed, horizon, OPEN_LOOP_RATE, cell.slo_us,
                            history)
    workload = YcsbWorkload(n_keys=2000, reads_per_txn=8, writes_per_txn=2)
    if cell.name == "ycsb_wal_sim":
        config = RunConfig(n_partitions=2, concurrent_per_engine=4,
                           horizon_us=horizon, warmup_us=horizon / 10,
                           seed=seed, wal="group", wal_group_size=8,
                           wal_dir=wal_dir, record_history=history)
    else:
        config = RunConfig(
            n_partitions=2, concurrent_per_engine=4,
            horizon_us=mp_seconds * 1e6,
            warmup_us=mp_seconds * 1e6 * MP_WARMUP_SHARE, seed=seed,
            backend="mp", mp_workers=2, mp_transport="tcp",
            mp_codec="packed", trace=phase_trace, trace_sample=4)
    return make_ycsb_run("2pl", config, workload=workload)


def attach_observer(run, observer) -> None:
    """Install ``observer(now)`` on the simulator's documented
    per-event observer hook (``Simulator.probe``: pure bookkeeping,
    leaves the event stream bit-identical)."""
    run.database.cluster.sim.probe = observer


def observe(cell: Cell, run, result) -> dict:
    """Reduce one finished run to plain numbers and lists.

    Accounting: a *request* ends with a commit, a by-spec application
    rollback (``APP_ABORTS``, counted as completed), a shed, or a
    failure.  Contention aborts at or past the horizon are requests the
    harness abandoned in flight when it stopped the run; they are
    excluded from both ``requests`` and ``failed``.
    """
    metrics = result.metrics
    horizon = run.config.horizon_us
    commits = []            # latency of committed attempts
    app_aborts = []         # latency of by-spec rollbacks
    contention_aborts = cutoff = distributed = two_region = 0
    for o in metrics.outcomes:
        if o.committed:
            commits.append(o.end - o.start)
            distributed += o.distributed
            two_region += o.used_two_region
        elif o.reason in APP_ABORTS:
            app_aborts.append(o.end - o.start)
        else:
            contention_aborts += 1
            cutoff += o.end >= horizon
    sched = metrics.scheduler_summary()
    stats = result.database.cluster.network.stats
    recovery = metrics.recovery_stats
    obs = {
        "commits": len(commits),
        "app_aborts": len(app_aborts),
        "contention_aborts": contention_aborts,
        "cutoff_aborts": cutoff,
        "txn_per_s": result.throughput,
        "commit_latencies_us": commits,
        "events": metrics.events_processed,
        "remote_ops": stats.total_remote_ops(),
        "model_bytes": stats.total_bytes(),
        "wire_bytes": stats.wire_bytes_sent,
        "distributed": distributed,
        "two_region": two_region,
        "engines_reporting": len(metrics.scheduler_stats),
        "sched_deferrals": sched.deferrals,
        "sched_sheds": sched.sheds,
        "sched_queue_wait_us": sched.queueing_delay_us,
        "sched_max_queue_depth": sched.max_queue_depth,
        "wal_appends": recovery.wal_appends if recovery else 0,
        "wal_fsyncs": recovery.wal_fsyncs if recovery else 0,
        "wal_bytes": recovery.wal_bytes if recovery else 0,
    }
    open_loop = metrics.open_loop
    if open_loop is not None:
        tenants = list(open_loop.tenants.values())
        overall = open_loop.overall()
        obs.update(
            requests=open_loop.scheduled - cutoff,
            failed=(open_loop.shed + sum(t.failed for t in tenants)
                    - cutoff),
            shed=open_loop.shed,
            in_slo=sum(t.in_slo for t in tenants),
            arrival_p50_us=overall.percentile(0.50),
            arrival_p99_us=overall.percentile(0.99))
    else:
        done = commits + app_aborts
        obs.update(
            requests=len(done), failed=0, shed=0,
            in_slo=sum(1 for lat in done if lat <= cell.slo_us),
            arrival_p50_us=0.0, arrival_p99_us=0.0)
    obs["check"] = _check_outputs(cell, run, result, obs)
    if metrics.trace is not None:
        obs["phase_us"] = _phase_means(metrics.trace)
    return obs


def _check_outputs(cell: Cell, run, result, obs: dict) -> list[str]:
    """Problems with the run's outputs (empty: correct)."""
    problems = []
    if obs["commits"] <= 0:
        problems.append("no transaction committed")
    db = result.database
    if cell.name == "tpcc_chiller_sim":
        scale = run.workload.scale
        issued = 0
        for w in range(scale.n_warehouses):
            pid = db.partition_of("district", (w, 0))
            for d in range(10):
                row = db.store(pid).read("district", (w, d))[0]
                issued += row["d_next_o_id"] - scale.initial_orders
        want = result.metrics.commits_by_proc()["new_order"]
        if issued != want:
            problems.append(f"order ids issued {issued} != committed "
                            f"new_order txns {want}")
    elif cell.backend == "sim":
        # YCSB: every committed txn bumped writes_per_txn counters by one
        workload = run.workload
        total = expected_counter_total(db, workload.n_keys)
        want = workload.writes_per_txn * obs["commits"]
        if total != want:
            problems.append(f"sum of counters {total} != "
                            f"{workload.writes_per_txn} x commits = {want}")
    elif obs["engines_reporting"] != run.config.n_partitions:
        # mp: the final stores died with the workers
        problems.append(f"only {obs['engines_reporting']} of "
                        f"{run.config.n_partitions} engines reported")
    if cell.name == "ycsb_wal_sim":
        db.close_wals()
        problems.extend(_check_wal(run.config, obs))
    if result.history is not None and not result.history.is_serializable():
        problems.append("commit history is not serializable")
    return problems


def _check_wal(config: RunConfig, obs: dict) -> list[str]:
    """Group commit must batch, and the log files must replay whole."""
    problems = []
    if not obs["wal_fsyncs"] < obs["wal_appends"]:
        problems.append(f"group commit did not batch: {obs['wal_fsyncs']} "
                        f"fsyncs for {obs['wal_appends']} appends")
    records = []
    for server in range(config.n_partitions):
        records.extend(replay_wal(wal_path(config.wal_dir, server)))
    if len(records) != obs["wal_appends"]:
        problems.append(f"log replays {len(records)} records of "
                        f"{obs['wal_appends']} appended (torn tail)")
    decided = {r[1] for r in records if r[0] == R_DECISION and r[2]}
    if len(decided) < obs["commits"]:
        problems.append(f"log holds {len(decided)} commit decisions for "
                        f"{obs['commits']} commits")
    return problems


def _phase_means(trace) -> dict[str, float]:
    """Mean µs per traced transaction in each phase of the program's
    own tracer (span tuples: trace, txn, attempt, server, phase, t0,
    t1, outcome)."""
    totals: dict[str, float] = {}
    traces = set()
    for span in trace.spans:
        traces.add(span[0])
        totals[span[4]] = totals.get(span[4], 0.0) + (span[6] - span[5])
    n = max(1, len(traces))
    return {phase: total / n for phase, total in totals.items()}
