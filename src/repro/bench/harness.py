"""Benchmark driver: build a database, run a workload, collect metrics.

The driver mirrors the paper's setup: each server pins one execution
engine which keeps up to ``concurrent`` transactions in flight (worker
coroutines).  Dispatch is scheduler-mediated (:mod:`repro.sched`):
every request passes through its engine's scheduler before executing,
and every attempt's outcome feeds back into it.  With the default
:class:`~repro.sched.FifoScheduler` this reproduces the historical
behavior bit-for-bit — an aborted transaction retries after a short
randomized backoff (NO_WAIT systems retry at the client, and the abort
*rate* counts every attempt); the conflict scheduler instead
serializes known-conflicting requests and sheds hopeless queues.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from .._util import make_rng
from ..analysis import ProcedureRegistry
from ..placement import (AccessTelemetry, MigrationExecutor,
                         PlacementController, PlacementSpec, PlacementStats,
                         as_placement_spec, controller_loop,
                         install_flip_handler, lease_controller_loop)
from ..sched import SchedAction, Scheduler, SchedulerSpec, as_spec
from ..sim import Cluster, NetworkConfig, Sleep, WorkerCluster
from ..sim.supervisor import (MpRunSpec, cluster_for_config,
                              current_worker_cluster, effective_mp_workers,
                              run_mp_workers)
from ..storage import Catalog, WalSpec, as_wal_spec
from ..txn import (BaseExecutor, Database, ExecConfig, HistoryRecorder,
                   recover_database, recovery_program)
from ..txn.common import seed_txn_ids
from .metrics import APP_ABORTS, Metrics

BACKENDS = ("sim", "aio", "mp")
"""Execution backends a run can select: the discrete-event simulator
(deterministic, simulated microseconds), or the wall-clock runtime on
a real event loop — as one in-process worker that owns every server
(``aio``) or as one OS process per worker with codec frames between
them (``mp``)."""


@dataclass
class RunConfig:
    """One benchmark run's knobs."""

    n_partitions: int = 4
    concurrent_per_engine: int = 1
    horizon_us: float = 50_000.0
    """Stop admitting new transactions at this time — simulated
    microseconds on the sim backend, wall-clock microseconds on aio."""

    warmup_us: float = 5_000.0
    """Commits before this time are excluded from throughput."""

    seed: int = 7
    retry_aborts: bool = True
    retry_backoff_us: float = 10.0
    max_attempts: int = 50
    n_replicas: int = 1
    track_spans: bool = False
    record_history: bool = False
    network: NetworkConfig | None = None
    exec_config: ExecConfig | None = None
    homes: tuple[int, ...] | None = None
    """Engines that generate transactions (default: all)."""

    route_by_data: bool = False
    """Dispatch each transaction to the partition owning most of its
    data (requires the workload to implement ``route``/``rebind``).
    This is how the Fig. 7/8 deployments route client requests."""

    doorbell_batching: bool = False
    """Fuse same-destination one-sided verbs within a parallel round
    into one doorbell-batched round trip (see
    :attr:`~repro.sim.NetworkConfig.doorbell_batching`).  Lets the
    figure sweeps run with batching on/off without hand-building a
    :class:`~repro.sim.NetworkConfig`."""

    backend: str = "sim"
    """Execution backend: ``"sim"`` (discrete-event simulator, the
    seed-calibrated default), ``"aio"`` (the wall-clock runtime as one
    in-process worker: every server-to-server hop is a ``call_soon``)
    or ``"mp"`` (the same runtime, one worker per OS process, codec
    frames between them); aio/mp throughput figures are wall-clock."""

    aio_run_timeout_s: float | None = None
    """Hang guard for the aio backend's run-to-quiescence loop.  None
    derives a bound from the wall-clock horizon (horizon plus two
    minutes of drain headroom), so long runs are never killed by the
    cluster's default cap.  Ignored on the sim backend."""

    mp_workers: int | None = None
    """Worker-process count for the mp backend.  None (default) runs
    one process per server — the paper-faithful topology; smaller
    values pack servers onto workers round-robin (``server %
    workers``).  Ignored on other backends."""

    mp_run_timeout_s: float | None = None
    """Hang guard for the mp backend: how long the parent waits for
    every worker to report before tearing the fleet down.  None derives
    a bound from the wall-clock horizon plus a minute of build/drain
    headroom."""

    mp_transport: str = "tcp"
    """Carrier for cross-worker frames on the mp backend.  Vestigial:
    ``"tcp"`` (localhost sockets, one connection per ordered worker
    pair, :mod:`repro.sim.transport`) is the only carrier and anything
    else is a ``ValueError``; the field survives only because the
    benchmark adapter passes it."""

    mp_codec: str = "packed"
    """Frame encoding for the mp backend: ``"packed"`` (fixed-format
    struct frames for the hot verbs, pickle for everything else) or
    ``"pickle"`` (every frame pickled — a debug escape hatch and the
    byte-accounting baseline: 258 vs 103 bytes per four-verb chain).
    Commit/abort decisions are codec-independent (asserted by the
    conformance suite)."""

    mp_profile_dir: str | None = None
    """When set, every mp worker cProfiles its serve loop and dumps
    ``worker-<id>.prof`` into this directory (the bench CLI's
    ``--profile`` sets it, plus ``parent.prof`` for the parent)."""

    wal: WalSpec | str | None = "off"
    """Commit-path durability: ``"off"`` (bit-identical to the
    historical behavior — the FSM logs nothing), ``"fsync"`` (sync
    every append), ``"group"`` (group commit: batched fsyncs, but the
    coordinator's decision record always syncs), or a full
    :class:`~repro.storage.WalSpec`."""

    wal_dir: str | None = None
    """Directory for the per-server ``server-<id>.wal`` files.  None
    lets the harness assign a fresh temp directory per run (recorded
    back into this field so mp workers and restarts share it)."""

    wal_group_size: int = 8
    """Appends per fsync under ``wal="group"``."""

    mp_recovery: bool = False
    """Restart dead mp workers instead of failing the run: the parent
    respawns the worker, which replays its servers' WALs, resolves
    in-doubt transactions by coordinator query / presumed abort, and
    rejoins the fleet.  Requires a durable ``wal`` mode."""

    mp_max_restarts: int = 1
    """Total worker restarts the parent will perform per run before
    treating a death as fatal (``mp_recovery`` only)."""

    mp_chaos_kill_worker: int | None = None
    """Chaos knob: SIGKILL this worker id mid-run (recovery tests)."""

    mp_chaos_kill_after_s: float = 0.5
    """Wall-clock delay before the chaos kill fires."""

    scheduler: SchedulerSpec | str | None = None
    """Cross-transaction scheduling policy: ``None``/``"fifo"`` (admit
    everything immediately — bit-identical to the historical raw retry
    loop), ``"conflict"`` (serialize conflict classes, see
    :mod:`repro.sched`), or a full :class:`~repro.sched.SchedulerSpec`.
    Each engine builds its own scheduler instance from this picklable
    value, so the knob works unchanged on sim/aio/mp."""

    placement: PlacementSpec | str | None = None
    """Data-placement policy: ``None``/``"static"`` (the layout the
    setup built never changes — bit-identical to the historical
    behavior), ``"adaptive"`` (access telemetry feeds a periodic
    re-partition whose top-K record moves migrate live, see
    :mod:`repro.placement`), or a full
    :class:`~repro.placement.PlacementSpec`.  Picklable, so the knob
    works unchanged on sim/aio/mp (on mp the controller runs in the
    worker owning its home engine and flips routing cluster-wide)."""

    arrivals: "object | str | None" = None
    """Open-loop traffic: ``None`` (closed-loop workers — bit-identical
    to the historical behavior), an arrival-process name from
    :data:`repro.traffic.ARRIVAL_PROCESSES` (``"poisson"``,
    ``"diurnal"``, ``"flash"``, ``"tenants"``), or a full
    :class:`~repro.traffic.ArrivalSpec`.  When set, requests enter at
    generated timestamps regardless of completion and latency is
    measured from the *scheduled* arrival (coordinated-omission-safe);
    see :mod:`repro.traffic`.  Picklable, so the knob works unchanged
    on sim/aio/mp (each mp worker regenerates its homes' schedules
    deterministically)."""

    offered_load: float | None = None
    """Aggregate open-loop arrival rate in txns/sec (overrides the
    arrival spec's default; ignored when :attr:`arrivals` is None)."""

    deadline_us: float | None = None
    """Default SLO deadline from scheduled arrival to commit (overrides
    the arrival spec's default; ignored when :attr:`arrivals` is
    None)."""

    trace: bool = False
    """Per-phase span tracing (:mod:`repro.obs`).  Off (default) keeps
    every backend on the module-level no-op tracer — zero allocation,
    bit-identical event streams, byte-identical wire frames.  On, each
    process records sampled transactions' phase spans into preallocated
    rings, harvested into ``metrics.trace`` at quiescence (mp workers
    ship theirs to the parent like any other metric)."""

    trace_sample: int = 1
    """Trace every Nth transaction per engine (1 = all).  Sampling is
    deterministic (a per-tracer counter), so repeated runs trace the
    same population."""

    trace_out: str | None = None
    """When tracing, write the merged spans to this path as Chrome
    ``trace_event`` JSON (loadable in ``ui.perfetto.dev``)."""

    metrics_interval: float | None = None
    """Live metrics timeline (:mod:`repro.obs.timeline`): sample
    period in microseconds — simulated µs on the sim backend (pure
    bookkeeping; the event stream stays bit-identical), wall-clock µs
    on aio/mp.  None (default) disables the timeline: no sampler, no
    watchdog, no per-event probe."""

    metrics_ring: int = 4096
    """Timeline samples retained per server (oldest dropped, counted)."""

    health_rules: tuple | None = None
    """Watchdog rules (:class:`repro.obs.HealthRule` tuple) evaluated
    each interval; None uses :func:`repro.obs.default_rules`.  Only
    consulted when :attr:`metrics_interval` is set."""

    watchdog_abort: bool = False
    """Let a *fatal* health rule abort a wedged run early by raising
    :class:`repro.obs.WatchdogAbort` out of the run loop."""

    metrics_port: int | None = None
    """Serve live Prometheus text exposition on
    ``http://127.0.0.1:<port>/metrics`` for the duration of the run
    (aio/mp only — the sim backend has no wall clock to scrape
    against).  0 binds an ephemeral port."""

    metrics_csv: str | None = None
    """Write the merged timeline to this path as wide-format CSV at
    the end of the run."""

    metrics_watch: bool = False
    """Print the terminal sparkline dashboard
    (:func:`repro.obs.render_watch`) when the run finishes."""

    def arrival_spec(self):
        """The effective open-loop arrival process for this run, or
        None for the closed-loop default.  A string/spec
        :attr:`arrivals` picks up the :attr:`offered_load` and
        :attr:`deadline_us` overrides."""
        from ..traffic import as_arrival_spec  # lazy: traffic imports
        spec = as_arrival_spec(self.arrivals)  # bench.metrics
        if spec is None:
            return None
        overrides = {}
        if self.offered_load is not None:
            overrides["offered_load"] = self.offered_load
        if self.deadline_us is not None:
            overrides["deadline_us"] = self.deadline_us
        if overrides:
            spec = dataclasses.replace(spec, **overrides)
        return spec

    def wal_spec(self) -> WalSpec:
        """The effective durability policy for this run.

        A string/None :attr:`wal` picks up :attr:`wal_dir` and
        :attr:`wal_group_size`; a full :class:`WalSpec` is respected
        as-is except that a missing directory is filled from
        :attr:`wal_dir`.
        """
        spec = as_wal_spec(self.wal)
        if isinstance(self.wal, str) or self.wal is None:
            spec = dataclasses.replace(spec, dir=self.wal_dir,
                                       group_size=self.wal_group_size)
        elif spec.dir is None and self.wal_dir is not None:
            spec = dataclasses.replace(spec, dir=self.wal_dir)
        return spec

    def network_config(self) -> NetworkConfig:
        """The effective network model for this run.

        Starts from :attr:`network` (or defaults) and turns doorbell
        batching on when either knob requests it.
        """
        base = self.network or NetworkConfig()
        if self.doorbell_batching and not base.doorbell_batching:
            base = replace(base, doorbell_batching=True)
        return base


@dataclass
class RunResult:
    """Everything a single run produced."""

    metrics: Metrics
    database: Database
    history: HistoryRecorder | None
    config: RunConfig
    end_time: float

    @property
    def throughput(self) -> float:
        """Committed txns/sec in the measurement window."""
        window_end = max(self.config.horizon_us,
                         self.config.warmup_us + 1.0)
        return self.metrics.throughput(self.config.warmup_us, window_end)

    @property
    def abort_rate(self) -> float:
        return self.metrics.abort_rate()

    @property
    def wall_seconds(self) -> float:
        """Real time taken to drive this run.  On the sim backend this
        is perf health of the Python hot path, not a property of the
        simulated system; on the aio backend it *is* the run duration."""
        return self.metrics.wall_seconds

    @property
    def events_processed(self) -> int:
        """Simulator events (sim) / effects performed (aio) this run."""
        return self.metrics.events_processed

    @property
    def wall_clock_throughput(self) -> float:
        """Committed txns per *real* second of driving the run.

        The apples-to-apples figure across backends: all commits over
        the whole run (warmup and drain included) divided by total wall
        time.  On aio it tracks :attr:`throughput` (same clock, but
        that one is computed over the warmup-to-horizon window only);
        on sim it measures how fast the Python simulator churns, not
        the modeled system."""
        if self.metrics.wall_seconds <= 0.0:
            return 0.0
        return self.metrics.commits / self.metrics.wall_seconds

    def perf_summary(self) -> dict:
        """Hot-path health figures for BENCH_*.json / extra_info.

        ``end_time_us`` is on the backend's own clock; the ``sim_us``
        alias is only emitted for sim-backend runs so cross-backend
        report consumers cannot mistake wall time for simulated time.
        """
        summary = {
            "backend": self.config.backend,
            "wall_seconds": self.metrics.wall_seconds,
            "events_processed": self.metrics.events_processed,
            "events_per_wall_second": self.metrics.events_per_wall_second(),
            "wall_clock_throughput": self.wall_clock_throughput,
            "end_time_us": self.end_time,
        }
        if self.config.backend == "sim":
            summary["sim_us"] = self.end_time
        if self.config.backend == "mp":
            summary["workers"] = effective_mp_workers(self.config)
        sched = self.metrics.scheduler_summary()
        if sched is not None:
            summary["scheduler"] = sched.summary()
        if self.metrics.placement_stats is not None:
            summary["placement"] = self.metrics.placement_stats.summary()
        recovery = self.metrics.recovery_stats
        if recovery is not None and recovery.any_activity:
            summary["recovery"] = recovery.summary()
        if self.metrics.open_loop is not None:
            summary["open_loop"] = self.metrics.open_loop.summary()
        traffic = self.traffic_summary()
        if traffic is not None:
            summary["traffic"] = traffic
        trace = self.metrics.trace
        if trace is not None:
            from ..obs.export import exemplar_summary  # lazy: obs is
            summary["trace"] = trace.summary()         # optional wiring
            exemplars = exemplar_summary(trace)
            if exemplars:
                summary["exemplars"] = exemplars
        timeline = self.metrics.timeline
        if timeline is not None:
            summary["timeline"] = timeline.summary()
            summary["health"] = [event.as_dict()
                                 for event in timeline.health]
        return summary

    def traffic_summary(self) -> dict | None:
        """Fig.-style traffic breakdown: wire bytes by transaction
        phase (lock/validate/replicate/commit/...), cluster-wide and
        per issuing executor.  None when nothing crossed the wire (or
        no database rode along to read the counters from)."""
        if self.database is None:
            return None
        stats = self.database.cluster.network.stats
        if not stats.bytes_by_kind:
            return None
        return {
            "bytes_by_phase": stats.bytes_by_phase(),
            "bytes_by_server_phase": {
                str(server): phases for server, phases
                in stats.bytes_by_server_phase().items()},
        }


SUMMARY_HOOK: "Callable[[RunResult], None] | None" = None
"""When set, every completed run (single-process and mp alike) is
passed through this hook before being returned.  The experiments and
bench CLIs install a collector here to implement ``--summary-json``
without threading a sink through every figure function."""


def install_summary_json(args: list[str],
                         ) -> "tuple[list[str], Callable[[], None]]":
    """CLI helper behind every driver's ``--summary-json PATH`` flag.

    Strips the flag from ``args``, installs a :data:`SUMMARY_HOOK`
    collector, and returns ``(rest_args, flush)``; ``flush()`` —
    call it when the sweep ends, ideally in a ``finally`` — writes the
    collected per-run ``perf_summary()`` dicts as one JSON array and
    uninstalls the hook.  Without the flag, ``flush`` is a no-op.
    """
    path: str | None = None
    rest: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--summary-json":
            if i + 1 >= len(args):
                raise SystemExit("--summary-json needs a path")
            path = args[i + 1]
            i += 2
            continue
        if arg.startswith("--summary-json="):
            path = arg.split("=", 1)[1]
            i += 1
            continue
        rest.append(arg)
        i += 1
    if path is None:
        return rest, lambda: None
    collected: list[dict] = []

    def hook(result: RunResult) -> None:
        collected.append(result.perf_summary())

    global SUMMARY_HOOK
    SUMMARY_HOOK = hook

    def flush() -> None:
        global SUMMARY_HOOK
        SUMMARY_HOOK = None
        import json
        with open(path, "w") as fh:
            json.dump(collected, fh, indent=1)
        print(f"(wrote {len(collected)} run summaries to {path})")

    return rest, flush


def _finish_run(result: RunResult) -> RunResult:
    """Common run epilogue: trace/timeline export and the summary hook."""
    config = result.config
    trace = result.metrics.trace
    if trace is not None and trace.dropped > 0:
        print(f"warning: {trace.dropped} trace span(s) dropped (ring "
              f"capacity exceeded) — the trace is truncated; raise the "
              f"tracer ring capacity or sample with trace_sample",
              file=sys.stderr)
    if config.trace and config.trace_out and trace is not None:
        from ..obs.export import write_trace_json  # lazy: optional
        write_trace_json(trace, config.trace_out)
    timeline = result.metrics.timeline
    if timeline is not None:
        from ..obs.expose import render_watch, write_timeline_csv
        if config.metrics_csv:
            write_timeline_csv(timeline, config.metrics_csv)
        if config.metrics_watch:
            print(render_watch(timeline, timeline.health))
    if SUMMARY_HOOK is not None:
        SUMMARY_HOOK(result)
    return result


@dataclass
class _TimelineWiring:
    """Live-run observability state `_install_timeline` hands back."""

    timeline: object
    sampler: object
    watchdog: object
    http: object | None = None


def _install_timeline(config: RunConfig, cluster, db, metrics: Metrics,
                      wiring) -> "_TimelineWiring | None":
    """Attach the metrics timeline sampler + health watchdog to a
    single-process (sim/aio) run.  Returns None when the timeline is
    off — nothing is allocated and no hook is installed."""
    if not config.metrics_interval:
        return None
    from ..obs.health import HealthWatchdog
    from ..obs.timeline import Timeline, TimelineSampler
    timeline = Timeline(config.metrics_interval,
                        ring=config.metrics_ring)
    sampler = TimelineSampler(
        config.metrics_interval, metrics, wiring.schedulers,
        network=cluster.network.stats, recovery=db.recovery,
        placement=wiring.placement_stats,
        events_fired=lambda: cluster.sim.events_fired)
    watchdog = HealthWatchdog(rules=config.health_rules,
                              interval_us=config.metrics_interval,
                              abort=config.watchdog_abort)

    def tick(now_us: float) -> None:
        rows = sampler.tick(now_us)
        if rows:
            timeline.add_rows(rows)
            watchdog.ingest(rows)
            watchdog.evaluate(now_us)

    obs = _TimelineWiring(timeline, sampler, watchdog)
    if config.backend == "sim":
        # pure bookkeeping after each fired event: bit-identical
        cluster.sim.probe = tick
    else:
        cluster.on_tick = lambda: tick(cluster.sim.now)
        cluster.tick_interval_s = config.metrics_interval / 1e6
        if config.metrics_port is not None:
            from ..obs.expose import MetricsHttpServer, to_prometheus
            obs.http = MetricsHttpServer(
                config.metrics_port,
                lambda: to_prometheus(timeline, watchdog.events))
            obs.http.start()
    return obs


def _detach_timeline(config: RunConfig, cluster,
                     obs: "_TimelineWiring") -> None:
    if config.backend == "sim":
        cluster.sim.probe = None
    else:
        cluster.on_tick = None
    if obs.http is not None:
        obs.http.stop()


def _harvest_timeline(obs: "_TimelineWiring", metrics: Metrics,
                      now_us: float) -> None:
    """Flush the final partial interval and hang the merged timeline
    (health events included) off the run's metrics."""
    rows = obs.sampler.flush(now_us)
    if rows:
        obs.timeline.add_rows(rows)
        obs.watchdog.ingest(rows)
        obs.watchdog.evaluate(now_us, allow_abort=False)
    obs.timeline.health = obs.watchdog.events
    metrics.timeline = obs.timeline


def _watchdog_event(exc: BaseException):
    """The HealthEvent behind a watchdog abort, or None."""
    from ..obs.health import WatchdogAbort
    return exc.event if isinstance(exc, WatchdogAbort) else None


def make_cluster(config: RunConfig):
    """Build the cluster for ``config``'s selected backend."""
    if config.backend == "sim":
        return Cluster(config.n_partitions, config.network_config())
    if config.backend == "aio":
        timeout = config.aio_run_timeout_s
        if timeout is None:
            timeout = config.horizon_us / 1e6 + 120.0
        return WorkerCluster(config.n_partitions, config.network_config(),
                             run_timeout_s=timeout)
    if config.backend == "mp":
        # inside a worker process this is that worker's live cluster;
        # in the parent it is an inert template for inspection
        return cluster_for_config(config.n_partitions,
                                  config.network_config())
    raise ValueError(f"unknown backend {config.backend!r} "
                     f"(expected one of {BACKENDS})")


def assign_wal_dir(config: RunConfig) -> None:
    """Give a durability-enabled run a WAL directory if it lacks one.

    Recorded back into ``config.wal_dir`` on purpose: the same config
    object rides inside ``MpRunSpec.args``, so every worker process —
    and every *restarted* worker — opens its logs in the directory the
    first build chose.
    """
    if config.wal_dir is None and as_wal_spec(config.wal).enabled:
        config.wal_dir = tempfile.mkdtemp(prefix="repro-wal-")


def build_database(workload, catalog: Catalog, config: RunConfig):
    """Create the cluster, register procedures, and load the data."""
    assign_wal_dir(config)
    cluster = make_cluster(config)
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    db = Database(cluster, catalog, workload.tables(), registry,
                  n_replicas=config.n_replicas,
                  track_spans=config.track_spans,
                  wal=config.wal_spec())
    workload.populate(db.loader())
    return db, cluster


def run_benchmark(workload, executor: BaseExecutor,
                  config: RunConfig,
                  mp_spec: MpRunSpec | None = None) -> RunResult:
    """Drive ``workload`` through ``executor`` until the horizon.

    On the mp backend the run executes in worker processes, each
    rebuilding the database from ``mp_spec`` (the setups layer attaches
    one to every run it builds); the parent-side ``executor`` supplies
    only the result schema.
    """
    db = executor.db
    cluster = db.cluster
    if config.backend == "mp" and current_worker_cluster() is None:
        if mp_spec is None:
            raise ValueError(
                "backend='mp' runs re-create their database inside worker "
                "processes; pass mp_spec=MpRunSpec(builder, ...) with a "
                "module-level builder, or use the setups layer "
                "(make_tpcc_run(...).run()) which attaches one")
        return run_mp_benchmark(mp_spec, config, database=db)
    metrics = Metrics()
    homes = list(config.homes if config.homes is not None
                 else range(config.n_partitions))
    wiring = _spawn_load(workload, executor, config, cluster, metrics,
                         homes)
    obs = _install_timeline(config, cluster, db, metrics, wiring)
    events_before = cluster.sim.events_fired
    wall_start = time.perf_counter()
    try:
        cluster.run()
    except Exception as exc:
        if obs is None or _watchdog_event(exc) is None:
            raise
        # the watchdog killed a wedged run: keep the partial metrics,
        # the event itself rides perf_summary()["health"]
    finally:
        if obs is not None:
            _detach_timeline(config, cluster, obs)
    metrics.wall_seconds = time.perf_counter() - wall_start
    metrics.events_processed = cluster.sim.events_fired - events_before
    metrics.scheduler_stats = {home: sched.stats
                               for home, sched in wiring.schedulers.items()}
    metrics.placement_stats = wiring.placement_stats
    metrics.recovery_stats = db.recovery
    if config.trace:
        metrics.trace = db.tracer.harvest()
    if obs is not None:
        _harvest_timeline(obs, metrics, cluster.sim.now)
    return _finish_run(RunResult(metrics=metrics, database=db,
                                 history=executor.history, config=config,
                                 end_time=cluster.sim.now))


def make_schedulers(executor: BaseExecutor, config: RunConfig,
                    homes: Iterable[int]) -> dict[int, Scheduler]:
    """One scheduler per engine, built from the run's picklable spec.

    The conflict-class fingerprint comes from the executor's
    pre-execution read/write-set estimate
    (:meth:`~repro.txn.executor.BaseExecutor.estimate_rw_sets`).
    """
    spec = as_spec(config.scheduler)

    def fingerprint(request):
        reads, writes = executor.estimate_rw_sets(request)
        return tuple(writes | reads) if spec.include_reads \
            else tuple(writes)

    return {home: spec.build(fingerprint) for home in homes}


@dataclass
class _LoadWiring:
    """What `_spawn_load` hands back for post-run stats collection."""

    schedulers: dict[int, Scheduler]
    placement_stats: PlacementStats | None = None
    telemetry: dict[int, AccessTelemetry] | None = None


def _spawn_load(workload, executor: BaseExecutor, config: RunConfig,
                cluster, metrics: Metrics,
                homes: Iterable[int]) -> _LoadWiring:
    """Spawn the worker coroutines that generate load on ``homes`` (a
    subset on mp workers, all engines elsewhere).  With
    ``config.arrivals`` set, open-loop dispatchers replace the
    closed-loop workers: requests enter on a pre-generated arrival
    schedule regardless of completion (see :mod:`repro.traffic`).

    Every request passes through its engine's scheduler before any
    effect is emitted — admission, class serialization, and shedding
    happen engine-side, which is why the same logic runs unchanged on
    all three backends.  Returns the per-engine schedulers (and, on
    adaptive runs, the placement wiring) so the caller can surface
    their stats after the run drains.

    With ``config.placement`` adaptive, this is also where the
    placement loop attaches: committed outcomes feed per-engine
    :class:`~repro.placement.AccessTelemetry`, the ``placement_flip``
    RPC is installed on this process's database, and — if this process
    drives the controller's home engine — the observe/plan/migrate
    controller loop is spawned alongside the load.
    """
    db = executor.db
    tracer = None
    if config.trace:
        from ..obs.tracer import Tracer  # lazy: obs is optional wiring
        tracer = Tracer(sample_every=config.trace_sample)
        db.tracer = tracer  # shadows the class-level no-op
        for server in cluster.servers:
            runtime = getattr(server.engine, "runtime", None)
            if runtime is not None:
                runtime.tracer = tracer
    schedulers = make_schedulers(executor, config, homes)
    arrivals = config.arrival_spec()
    if arrivals is not None and config.route_by_data:
        raise ValueError("open-loop arrivals and route_by_data cannot "
                         "be combined: the dispatcher issues requests "
                         "on their scheduled home")
    placement = as_placement_spec(config.placement)
    placement_stats: PlacementStats | None = None
    telemetry: dict[int, AccessTelemetry] | None = None
    if placement.adaptive:
        if (config.backend != "mp"
                and placement.controller_home not in homes):
            # only mp workers legitimately drive a homes subset (the
            # controller then lives in the worker owning its engine);
            # a single-process run that excludes it would silently
            # collect telemetry and never adapt
            raise ValueError(
                f"adaptive placement needs its controller engine "
                f"{placement.controller_home} among the load homes "
                f"{sorted(homes)}; set PlacementSpec.controller_home "
                f"to one of them")
        placement_stats = PlacementStats(placement="adaptive")
        install_flip_handler(db, placement, placement_stats)
        executor.record_footprints = True
        telemetry = {home: AccessTelemetry(
                         sample_every=placement.sample_every,
                         max_samples=placement.max_samples)
                     for home in homes}
    routed_queues: dict[int, deque] = {home: deque() for home in homes}

    def next_routed(home: int, rng: random.Random):
        """Data-affinity dispatch: serve a queued request routed to this
        engine, else generate until one routes here (foreign ones are
        queued for their owners; after a bounded number of tries the
        last request is executed here anyway, like an overloaded
        router shedding work)."""
        queue = routed_queues[home]
        if queue:
            return queue.popleft()
        request = workload.next_request(home, rng)
        for _ in range(20):
            target = workload.route(request, db.partition_of)
            if target == home or target not in routed_queues:
                break
            routed_queues[target].append(workload.rebind(request,
                                                         target))
            if queue:
                return queue.popleft()
            request = workload.next_request(home, rng)
        return workload.rebind(request, home)

    def worker(home: int, slot: int):
        rng = make_rng(config.seed, "worker", home, slot)
        scheduler = schedulers[home]
        while cluster.sim.now < config.horizon_us:
            if config.route_by_data:
                request = next_routed(home, rng)
            else:
                request = workload.next_request(home, rng)
            trace = tracer.new_trace(home) if tracer is not None else 0
            t_admit = cluster.sim.now
            decision = scheduler.admit(request, cluster.sim.now)
            while decision.action is SchedAction.DEFER:
                yield decision.wait_effect()
                decision = scheduler.readmit(request, decision,
                                             cluster.sim.now)
            if decision.action is SchedAction.SHED:
                if trace:
                    tracer.span(trace, 0, 0, home, "shed", t_admit,
                                cluster.sim.now, "shed")
                continue  # typed reason already recorded in the stats
            if trace and cluster.sim.now > t_admit:
                tracer.span(trace, 0, 0, home, "queue_wait", t_admit,
                            cluster.sim.now)
            attempts = 0
            while True:
                outcome = yield from executor.execute(request, trace=trace,
                                                      attempt=attempts)
                metrics.add(outcome)
                if telemetry is not None and outcome.committed:
                    telemetry[home].observe(outcome, cluster.sim.now)
                attempts += 1
                retryable = (not outcome.committed
                             and outcome.reason not in APP_ABORTS
                             and config.retry_aborts
                             and attempts < config.max_attempts
                             and cluster.sim.now < config.horizon_us)
                scheduler.on_outcome(decision, outcome, cluster.sim.now,
                                     will_retry=retryable)
                if not retryable:
                    break
                yield Sleep(scheduler.retry_backoff_us(
                    decision, rng, config.retry_backoff_us))
            if trace:
                tracer.exemplar(f"home-{home}", trace,
                                cluster.sim.now - t_admit)

    if arrivals is not None:
        from ..traffic import spawn_open_loop  # lazy: avoids a cycle
        spawn_open_loop(workload, executor, config, arrivals, cluster,
                        metrics, homes, schedulers, telemetry)
    else:
        for home in homes:
            for slot in range(config.concurrent_per_engine):
                cluster.engine(home).spawn(worker(home, slot))
    if placement.adaptive:
        if config.backend != "mp":
            # single process: pin the loop to the controller engine —
            # keeps the sim backend's event stream (and every figure)
            # bit-identical to the pre-election behavior
            if placement.controller_home in homes:
                migrator = MigrationExecutor(db, placement.controller_home,
                                             placement, placement_stats)
                cluster.engine(placement.controller_home).spawn(
                    controller_loop(db, telemetry, placement,
                                    PlacementController(placement),
                                    migrator, placement_stats,
                                    config.horizon_us))
        elif homes:
            # mp: every worker runs a lease-election candidate instead
            # of pinning the controller to whichever worker owns
            # controller_home — the role survives that worker's death
            candidate_home = min(homes)
            migrator = MigrationExecutor(db, candidate_home, placement,
                                         placement_stats)
            cluster.engine(candidate_home).spawn(
                lease_controller_loop(db, telemetry, placement,
                                      PlacementController(placement),
                                      migrator, placement_stats,
                                      config.horizon_us, cluster))
    return _LoadWiring(schedulers, placement_stats, telemetry)


# -- the multiprocess path ----------------------------------------------------

def mp_benchmark_driver(run_obj, cluster, worker_id: int):
    """Per-worker half of :func:`run_mp_benchmark`.

    Runs inside each worker process: namespaces transaction ids (by
    worker *and* restart generation, so a respawn never reuses its
    predecessor's ids), replays this worker's WALs when it is a
    restart, spawns the benchmark load for the servers this worker
    owns, and returns the ``finalize`` hook evaluated at local
    quiescence.
    """
    namespace = getattr(cluster, "txn_namespace", None)
    seed_txn_ids(namespace() if namespace is not None else worker_id)
    config: RunConfig = run_obj.config
    if getattr(cluster, "generation", 0) > 0:
        db = run_obj.executor.db
        in_doubt = recover_database(db)
        if in_doubt:
            # chase coordinators for the prepared-but-undecided txns;
            # unreachable coordinators resolve by presumed abort
            home = cluster.owned_servers()[0]
            cluster.engine(home).spawn(recovery_program(db, in_doubt))
    metrics = Metrics()
    homes = [h for h in (config.homes if config.homes is not None
                         else range(config.n_partitions))
             if cluster.owns(h)]
    wiring = _spawn_load(run_obj.workload, run_obj.executor, config,
                         cluster, metrics, homes)
    if config.metrics_interval:
        from ..obs.timeline import TimelineSampler
        # rows ship to the parent live (metrics_sample messages) so
        # the merged timeline survives this worker being killed; the
        # finalize payload deliberately carries no timeline
        cluster.metrics_sampler = TimelineSampler(
            config.metrics_interval, metrics, wiring.schedulers,
            network=cluster.network.stats,
            recovery=run_obj.executor.db.recovery,
            placement=wiring.placement_stats,
            events_fired=lambda: cluster.sim.events_fired,
            gen=getattr(cluster, "generation", 0))
        cluster.tick_interval_s = config.metrics_interval / 1e6

    def finalize() -> dict:
        metrics.wall_seconds = cluster.sim.now / 1e6
        metrics.events_processed = cluster.sim.events_fired
        metrics.scheduler_stats = {
            home: sched.stats
            for home, sched in wiring.schedulers.items()}
        metrics.placement_stats = wiring.placement_stats
        metrics.recovery_stats = run_obj.executor.db.recovery
        if config.trace:
            # rings ride home inside the metrics payload and merge in
            # the parent exactly like every other per-worker counter
            metrics.trace = run_obj.executor.db.tracer.harvest()
        return {"metrics": metrics, "end_time": cluster.sim.now,
                "stats": cluster.network.stats}

    return finalize


def run_mp_benchmark(spec: MpRunSpec, config: RunConfig,
                     database: Database | None = None) -> RunResult:
    """Run ``spec`` across worker processes and merge their metrics.

    ``database`` (the parent-side template build, if any) rides along
    in the RunResult for schema inspection; its stores are *not* the
    ones the run mutated — those lived in the workers.
    """
    if spec.driver is None:
        spec = dataclasses.replace(spec, driver=mp_benchmark_driver)
    assign_wal_dir(config)
    obs = None
    on_sample = on_tick = tick_s = None
    if config.metrics_interval:
        from ..obs.health import HealthWatchdog
        from ..obs.timeline import Timeline
        timeline = Timeline(config.metrics_interval,
                            ring=config.metrics_ring)
        watchdog = HealthWatchdog(rules=config.health_rules,
                                  interval_us=config.metrics_interval,
                                  abort=config.watchdog_abort)
        obs = _TimelineWiring(timeline, None, watchdog)
        run_t0 = time.monotonic()

        def on_sample(worker_id: int, rows: list) -> None:
            # stamp last-seen with the *parent's* clock: worker sample
            # timestamps start after the build phase, so comparing
            # them against the parent clock in evaluate() would read
            # the whole build time as silence
            timeline.add_rows(rows)
            watchdog.ingest(rows, at_us=(time.monotonic() - run_t0) * 1e6)

        def on_tick() -> None:
            watchdog.evaluate((time.monotonic() - run_t0) * 1e6)

        tick_s = config.metrics_interval / 1e6
        if config.metrics_port is not None:
            from ..obs.expose import MetricsHttpServer, to_prometheus
            obs.http = MetricsHttpServer(
                config.metrics_port,
                lambda: to_prometheus(timeline, watchdog.events))
            obs.http.start()
    try:
        payloads = run_mp_workers(spec, config, on_sample=on_sample,
                                  on_tick=on_tick, tick_s=tick_s)
    finally:
        if obs is not None and obs.http is not None:
            obs.http.stop()
    metrics = Metrics.merged([p["metrics"] for p in payloads])
    if obs is not None:
        obs.timeline.health = obs.watchdog.events
        metrics.timeline = obs.timeline
    if database is not None:
        # surface the measured traffic where every backend's consumers
        # read it (the template's own counters are all zero)
        for payload in payloads:
            database.cluster.network.stats.merge_from(payload["stats"])
    return _finish_run(RunResult(metrics=metrics, database=database,
                                 history=None, config=config,
                                 end_time=max(p["end_time"]
                                              for p in payloads)))
