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

import argparse
import dataclasses
import json
import random
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from .._stats import fold, report
from .._util import make_rng
from ..obs import (HealthWatchdog, MetricsHttpServer, StackSampler,
                   Timeline, TimelineSampler, Tracer, WatchdogAbort,
                   exemplar_summary, sample_table, to_prometheus,
                   write_timeline_csv, write_trace_json)
from ..placement import (CONTROLLER_HOME, AccessTelemetry, MigrationExecutor,
                         PlacementController, PlacementSpec, PlacementStats,
                         as_placement_spec, controller_loop,
                         install_flip_handler, lease_controller_loop)
from ..sched import SchedAction, Scheduler, as_spec
from ..sim import Cluster, Sleep, WorkerCluster
from ..sim.supervisor import effective_mp_workers, run_mp_workers
from ..storage import WalSpec, as_wal_spec
from ..traffic import as_arrival_spec, spawn_open_loop
from ..txn import (BaseExecutor, Database, HistoryRecorder, recover_database,
                   recovery_program)
from ..txn.common import seed_txn_ids
from .metrics import APP_ABORTS, Metrics, OpenLoopStats

BACKENDS = ("sim", "aio", "mp")
"""Execution backends a run can select: the discrete-event simulator
(deterministic, simulated microseconds), or the wall-clock runtime on
a real event loop — as one in-process worker that owns every server
(``aio``) or as one OS process per worker with codec frames between
them (``mp``)."""

RETRY_BACKOFF_US = 10.0
"""Upper bound of the randomized client-side backoff before an aborted
attempt retries (what the scheduler's ``retry_backoff_us`` starts from)."""

MAX_ATTEMPTS = 50
"""Attempts after which a request that keeps aborting is given up."""


@dataclass
class RunConfig:
    """One benchmark run's knobs.

    Flat on purpose: the experiments CLI's option ``dest``s and the
    sweeps' ``overrides`` mappings are these field names, and the
    benchmark adapter passes them as flat keywords."""

    n_partitions: int = 4
    concurrent_per_engine: int = 1
    horizon_us: float = 50_000.0
    """Stop admitting new transactions at this time — simulated
    microseconds on the sim backend, wall-clock microseconds on aio."""

    warmup_us: float = 5_000.0
    """Commits before this time are excluded from throughput."""

    seed: int = 7
    retry_aborts: bool = True
    """Retry a contention abort after a randomised backoff
    (:data:`RETRY_BACKOFF_US`, at most :data:`MAX_ATTEMPTS` attempts)."""

    n_replicas: int = 1
    record_history: bool = False
    route_by_data: bool = False
    """Dispatch each transaction to the partition owning most of its
    data (requires the workload to implement ``route``/``rebind``).
    This is how the Fig. 7/8 deployments route client requests."""

    doorbell_batching: bool = False
    """Fuse same-destination one-sided verbs within a parallel round
    into one doorbell-batched round trip (see
    :attr:`~repro.sim.Network.doorbell_batching`)."""

    backend: str = "sim"
    """Execution backend: ``"sim"`` (discrete-event simulator, the
    seed-calibrated default), ``"aio"`` (the wall-clock runtime as one
    in-process worker: every server-to-server hop is a ``call_soon``)
    or ``"mp"`` (the same runtime, one worker per OS process, codec
    frames between them); aio/mp throughput figures are wall-clock."""

    run_timeout_s: float | None = None
    """Hang guard for the wall-clock backends: how long the aio
    run-to-quiescence loop may take, and how long the mp parent waits
    for every worker to report before tearing the fleet down.  None
    derives a bound from the wall-clock horizon (plus two minutes of
    drain headroom on aio, one minute of build/drain headroom on mp),
    so long runs are never killed by a fixed cap.  Ignored on sim."""

    mp_workers: int | None = None
    """Worker-process count for the mp backend.  None (default) runs
    one process per server — the paper-faithful topology; smaller
    values pack servers onto workers round-robin (``server %
    workers``).  Ignored on other backends."""

    mp_transport: str = "tcp"
    """Carrier for cross-worker frames on the mp backend.  Vestigial:
    ``"tcp"`` (localhost sockets, one connection per ordered worker
    pair, :mod:`repro.sim.transport`) is the only carrier and anything
    else is a ``ValueError``; the field survives only because the
    benchmark adapter passes it."""

    mp_codec: str = "packed"
    """Frame encoding for the mp backend: ``"packed"`` (verb chains and
    their replies as marshal payloads behind a checksummed header,
    pickle for every other frame) or ``"pickle"`` (every frame pickled
    — a debug escape hatch and the byte-accounting baseline: 205 vs 150
    bytes for a four-verb chain as the executors ship it).
    Commit/abort decisions are codec-independent (asserted by the
    conformance suite)."""

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

    scheduler: str | None = None
    """Cross-transaction scheduling policy: ``None``/``"fifo"`` (admit
    everything immediately — bit-identical to the historical raw retry
    loop) or ``"conflict"`` (serialize conflict classes, see
    :mod:`repro.sched`).  Each engine builds its own scheduler instance
    from this name, so the knob works unchanged on sim/aio/mp."""

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
    watchdog, no per-event probe.  Each server keeps the last
    :data:`repro.obs.timeline.DEFAULT_RING` samples."""

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

    def arrival_spec(self):
        """The effective open-loop arrival process for this run, or
        None for the closed-loop default.  A string/spec
        :attr:`arrivals` picks up the :attr:`offered_load` and
        :attr:`deadline_us` overrides; a rate that is not finite and
        positive is a ``ValueError``."""
        spec = as_arrival_spec(self.arrivals)
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
        """Hot-path health figures, one dict per run (``--summary-json``).

        ``end_time_us`` is on the backend's own clock; the ``sim_us``
        alias is only emitted for sim-backend runs so cross-backend
        report consumers cannot mistake wall time for simulated time.
        """
        summary = {
            "backend": self.config.backend,
            "wall_seconds": self.metrics.wall_seconds,
            "events_processed": self.metrics.events_processed,
            "events_per_wall_second": self.metrics.events_per_wall_second(),
            "throughput": self.throughput,
            "wall_clock_throughput": self.wall_clock_throughput,
            "end_time_us": self.end_time,
        }
        if self.config.backend == "sim":
            summary["sim_us"] = self.end_time
        if self.config.backend == "mp":
            summary["workers"] = effective_mp_workers(self.config)
        metrics = self.metrics
        recovery = metrics.recovery_stats
        if recovery is not None and not recovery.any_activity:
            recovery = None  # a run without a WAL stays quiet
        for name, stats in (("scheduler", metrics.scheduler_summary()),
                            ("placement", metrics.placement_stats),
                            ("recovery", recovery),
                            ("open_loop", metrics.open_loop)):
            if stats is not None:
                # summary() where a class reports derived figures,
                # else its declared fields as they are
                summary[name] = (stats.summary() if hasattr(stats, "summary")
                                 else report(stats))
        traffic = self.traffic_summary()
        if traffic is not None:
            summary["traffic"] = traffic
        if metrics.samples:
            summary["samples"] = sample_table(metrics.samples)
        trace = self.metrics.trace
        if trace is not None:
            summary["trace"] = trace.summary()
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
        per issuing executor.  None when nothing crossed the wire."""
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


def summary_json_parser() -> argparse.ArgumentParser:
    """The ``--summary-json PATH`` option, as a parent parser a CLI can
    inherit (``parents=[...]``) so the flag shows up in its ``--help``."""
    parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    parser.add_argument(
        "--summary-json", metavar="PATH", default=None,
        help="write every run's perf_summary() to PATH as one JSON array")
    return parser


def kilo_digits(txns_per_s: Iterable[float]) -> int:
    """Decimals for one table's ``K txns/s`` cells: none once its
    largest cell reaches 10 K (every simulated figure), two below that
    (the wall-clock backends run at 0.3-3 K/s, which ``.0f`` prints as
    a column of 0s and 1s)."""
    return 0 if max(txns_per_s, default=0.0) >= 10_000.0 else 2


def collect_summaries(path: "str | None") -> Callable[[], None]:
    """Install the :data:`SUMMARY_HOOK` collector for ``path`` and
    return its ``flush`` (a no-op when ``path`` is None)."""
    if path is None:
        return lambda: None
    collected: list[dict] = []

    def hook(result: RunResult) -> None:
        collected.append(result.perf_summary())

    global SUMMARY_HOOK
    SUMMARY_HOOK = hook

    def flush() -> None:
        global SUMMARY_HOOK
        SUMMARY_HOOK = None
        with open(path, "w") as fh:
            json.dump(collected, fh, indent=1)
        print(f"(wrote {len(collected)} run summaries to {path})")

    return flush


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
        write_trace_json(trace, config.trace_out)
    timeline = result.metrics.timeline
    if timeline is not None and config.metrics_csv:
        write_timeline_csv(timeline, config.metrics_csv)
    if SUMMARY_HOOK is not None:
        SUMMARY_HOOK(result)
    return result


class _LiveTimeline:
    """The run's one timeline, its health watchdog and (wall-clock
    backends, when asked) the Prometheus endpoint, in the process that
    called :meth:`Run.run`: rows reach :meth:`add` from the in-process
    sampler (sim, aio) or from the workers' ``metrics_sample`` messages
    (mp), so the timeline survives a worker being killed."""

    def __init__(self, config: RunConfig):
        self.timeline = Timeline(config.metrics_interval)
        self.watchdog = HealthWatchdog(rules=config.health_rules,
                                       interval_us=config.metrics_interval,
                                       abort=config.watchdog_abort)
        self.http = None
        if config.metrics_port is not None and config.backend != "sim":
            self.http = MetricsHttpServer(
                config.metrics_port,
                lambda: to_prometheus(self.timeline, self.watchdog.events))
            # answered by the loop that drives the run: execute()
            self.http.listen()

    def add(self, rows: list, at_us: float | None = None) -> None:
        self.timeline.add_rows(rows)
        self.watchdog.ingest(rows, at_us=at_us)

    def pump(self, sampler, now_us: float, final: bool = False) -> None:
        """In-process sampling: one tick (or the closing partial
        interval) of ``sampler`` into the timeline and the watchdog."""
        rows = sampler.flush(now_us) if final else sampler.tick(now_us)
        if rows:
            self.add(rows)
            self.watchdog.evaluate(now_us, allow_abort=not final)

    def mp_hooks(self) -> dict:
        """``run_mp_workers`` keyword arguments feeding this timeline."""
        t0 = time.monotonic()

        def parent_us() -> float:
            return (time.monotonic() - t0) * 1e6

        # rows are stamped last-seen with the *parent's* clock: worker
        # sample timestamps start after the build phase, so comparing
        # them against the parent clock in evaluate() would read the
        # whole build time as silence
        return {"on_sample": lambda _w, rows: self.add(rows, parent_us()),
                "on_tick": lambda: self.watchdog.evaluate(parent_us()),
                "tick_s": self.timeline.interval_us / 1e6,
                "endpoint": self.http}

    def close(self) -> None:
        if self.http is not None:
            self.http.stop()


def make_cluster(config: RunConfig):
    """Build the cluster for ``config``'s selected backend."""
    if config.backend == "sim":
        return Cluster(config.n_partitions, config.doorbell_batching)
    if config.backend == "aio":
        timeout = config.run_timeout_s
        if timeout is None:
            timeout = config.horizon_us / 1e6 + 120.0
        return WorkerCluster(config.n_partitions, config.doorbell_batching,
                             run_timeout_s=timeout)
    if config.backend == "mp":
        # unbound: the parent builds the run once, and each forked
        # worker binds its copy (repro.sim.supervisor)
        return WorkerCluster(config.n_partitions, config.doorbell_batching,
                             worker_id=None,
                             n_workers=effective_mp_workers(config))
    raise ValueError(f"unknown backend {config.backend!r} "
                     f"(expected one of {BACKENDS})")


def assign_wal_dir(config: RunConfig) -> None:
    """Give a durability-enabled run a WAL directory if it lacks one.

    Recorded back into ``config.wal_dir`` on purpose: every mp worker
    process — and every *restarted* worker — forks with this config and
    opens its logs in the directory the build chose.
    """
    if config.wal_dir is None and as_wal_spec(config.wal).enabled:
        config.wal_dir = tempfile.mkdtemp(prefix="repro-wal-")


@dataclass
class Run:
    """One built benchmark cell: what
    :func:`repro.bench.setups.build_run` returns and every driver
    receives — here or, as the copy a forked mp worker inherits, there."""

    workload: object
    database: Database
    executor: BaseExecutor
    config: RunConfig

    def run(self) -> RunResult:
        """Drive the workload until the horizon and collect the result.

        On mp the parent's :attr:`database` is the image every worker
        forks from, and receives the merged traffic counters; its stores
        are *not* the ones the run mutated — those lived in the
        workers."""
        config = self.config
        live = _LiveTimeline(config) if config.metrics_interval else None
        sampler = StackSampler().start() if config.trace else None
        try:
            payloads = execute(self, drive, live)
        finally:
            if sampler is not None:
                sampler.stop()
            if live is not None:
                live.close()
        parts = []
        for payload in payloads:
            # an mp worker's recovery counts as of when it stopped serving
            payload["metrics"].recovery_stats = payload["live"]["recovery"]
            parts.append(payload["metrics"])
        metrics = parts[0] if len(parts) == 1 else Metrics.merged(parts)
        if sampler is not None:
            metrics.samples["parent" if config.backend == "mp"
                            else "main"] = sampler.counts
        if live is not None:
            live.timeline.health = live.watchdog.events
            metrics.timeline = live.timeline
        stats = self.database.cluster.network.stats
        for payload in payloads:
            # surface traffic measured in other processes where every
            # backend's consumers read it (an mp parent counts nothing)
            if payload["live"]["stats"] is not stats:
                fold(stats, payload["live"]["stats"])
        history = self.executor.history
        if config.backend == "mp" and history is not None:
            # the parent's recorder saw nothing: the union of the
            # workers' logs is the history (disjoint txn ids, versions
            # per record)
            history = HistoryRecorder()
            for payload in payloads:
                history.commits.extend(payload.get("history", ()))
        return _finish_run(RunResult(
            metrics=metrics, database=self.database, config=config,
            history=history,
            end_time=max(payload["end_time"] for payload in payloads)))


def run_benchmark(workload, executor: BaseExecutor,
                  config: RunConfig) -> RunResult:
    """Drive ``workload`` through ``executor`` until the horizon: the
    positional spelling of :meth:`Run.run` for hand-wired databases."""
    return Run(workload, executor.db, executor, config).run()


def execute(run: Run, driver, live: "_LiveTimeline | None" = None) -> list:
    """Run ``driver`` wherever ``run.config.backend`` puts the work.

    ``driver(run, cluster, worker_id)`` spawns its tasks and returns a
    ``collect() -> payload`` callable evaluated at quiescence: once per
    mp worker process, against the copy of ``run`` it forked with and its
    bound cluster (payloads come home in worker order), or once here
    with ``worker_id=None`` (one payload).
    """
    config = run.config
    cluster = run.database.cluster
    if config.backend == "mp":
        hooks = live.mp_hooks() if live is not None else {}
        return run_mp_workers(cluster, partial(driver, run), config,
                              **hooks)
    collect = driver(run, cluster, None)
    if live is None:
        cluster.run()
        return [collect()]
    sampler = cluster.metrics_sampler
    if config.backend == "sim":
        # pure bookkeeping after each fired event: bit-identical
        cluster.sim.probe = partial(live.pump, sampler)
    else:
        cluster.on_tick = lambda: live.pump(sampler, cluster.sim.now)
        cluster.metrics_endpoint = live.http
    try:
        cluster.run()
    except WatchdogAbort:
        # the watchdog killed a wedged run: keep the partial metrics,
        # the event itself rides perf_summary()["health"]
        pass
    finally:
        if config.backend == "sim":
            cluster.sim.probe = None
        else:
            cluster.on_tick = None
            cluster.metrics_endpoint = None
    payload = collect()
    live.pump(sampler, cluster.sim.now, final=True)
    return [payload]


def make_schedulers(executor: BaseExecutor, config: RunConfig,
                    homes: Iterable[int]) -> dict[int, Scheduler]:
    """One scheduler per engine, built from the run's picklable spec.

    The conflict-class fingerprint is the request's exact write set,
    read from its procedure's compiled layout
    (:meth:`~repro.analysis.StoredProcedure.write_keys`).
    """
    spec = as_spec(config.scheduler)
    registry = executor.db.registry

    def fingerprint(request):
        return registry.get(request.proc).write_keys(request.params)

    return {home: spec.build(fingerprint) for home in homes}


def drive(run: Run, cluster, worker_id: int | None = None):
    """The driver behind :meth:`Run.run` on every backend: spawn the
    load for the homes this process owns, install the timeline sampler,
    return the ``collect()`` that fills :class:`Metrics` at quiescence.

    As one process of an mp fleet (``worker_id`` set) it first
    namespaces transaction ids — by worker *and* restart generation, so
    a respawn never reuses its predecessor's ids — and, when it is a
    restart, replays this worker's WALs.
    """
    config = run.config
    executor = run.executor
    db = executor.db
    homes = list(range(config.n_partitions))
    generation = 0
    if worker_id is not None:
        generation = cluster.generation
        seed_txn_ids(cluster.txn_namespace())
        if generation > 0:
            in_doubt = recover_database(db)
            if in_doubt:
                # chase coordinators for the prepared-but-undecided
                # txns; unreachable coordinators resolve by presumed abort
                home = cluster.owned_servers()[0]
                cluster.engine(home).spawn(recovery_program(db, in_doubt))
        homes = [home for home in homes if cluster.owns(home)]
    metrics = Metrics()
    # a worker samples itself while it drives its share (Run.run()
    # samples the process that called it)
    sampler = (StackSampler().start()
               if config.trace and worker_id is not None else None)
    load = Load(executor, config, cluster, metrics,
                make_schedulers(executor, config, homes))
    _spawn_load(run.workload, load, homes)
    if config.metrics_interval:
        # pumped by whoever runs this cluster: execute() in process, the
        # supervisor's serve loop in a worker (rows ship to the parent
        # live, so the payload below deliberately carries no timeline)
        process = {"recovery": db.recovery, "network": cluster.network.stats}
        if load.placement_stats is not None:
            process["placement"] = load.placement_stats
        open_loop = metrics.open_loop
        cluster.metrics_sampler = TimelineSampler(
            config.metrics_interval, metrics.outcomes,
            {home: sched.stats for home, sched in load.schedulers.items()},
            process, open_loop.tenants if open_loop is not None else None,
            events_fired=lambda: cluster.sim.events_fired, gen=generation)
        if config.backend != "sim":
            cluster.tick_interval_s = config.metrics_interval / 1e6
    events_before = cluster.sim.events_fired
    wall_start = time.perf_counter()

    def collect() -> dict:
        if sampler is not None:
            metrics.samples[f"worker-{worker_id}"] = sampler.stop()
        metrics.wall_seconds = time.perf_counter() - wall_start
        metrics.events_processed = cluster.sim.events_fired - events_before
        metrics.scheduler_stats = {
            home: sched.stats
            for home, sched in load.schedulers.items()}
        metrics.placement_stats = load.placement_stats
        metrics.recovery_stats = db.recovery
        if config.trace:
            # mp: rings ride home inside the metrics payload and merge
            # in the parent exactly like every other per-worker counter
            metrics.trace = db.tracer.harvest()
        # on mp the live part ships again once the worker stops serving
        # the others, which goes on counting in it (run_mp_workers)
        payload = {"metrics": metrics, "end_time": cluster.sim.now,
                   "live": {"stats": cluster.network.stats,
                            "recovery": db.recovery}}
        if worker_id is not None and executor.history is not None:
            # the coordinator logs a commit as it decides it, so this
            # worker's share of the history is whole at quiescence
            payload["history"] = executor.history.commits
        return payload

    return collect


@dataclass
class Load:
    """One process's load wiring: what every request's lifecycle reads
    while the run is live and what ``collect()`` harvests afterwards."""

    executor: BaseExecutor
    config: RunConfig
    cluster: object
    metrics: Metrics
    schedulers: dict[int, Scheduler]
    placement_stats: PlacementStats | None = None
    telemetry: dict[int, AccessTelemetry] | None = None

    def lifecycle(self, home: int, request, rng: random.Random, trace: int,
                  entered_at: float, label: str, settle=None):
        """One request from admission to its final outcome: the only
        place a request meets its engine's scheduler, for closed-loop
        workers, open-loop arrivals and the conformance programs alike.

        ``entered_at`` is when the request entered the system — now for
        a closed-loop worker, the *scheduled* arrival for an open-loop
        one, so queue-wait spans and exemplars explain
        coordinated-omission-safe latency; ``label`` names the exemplar
        bucket.  ``settle(outcome, now)`` is called once when the
        request leaves (``outcome`` is None if the scheduler shed it).
        """
        executor, config, cluster = self.executor, self.config, self.cluster
        metrics, telemetry = self.metrics, self.telemetry
        tracer = executor.db.tracer
        scheduler = self.schedulers[home]
        decision = scheduler.admit(request, cluster.sim.now)
        while decision.action is SchedAction.DEFER:
            yield decision.wait_effect()
            decision = scheduler.readmit(request, decision,
                                         cluster.sim.now)
        if decision.action is SchedAction.SHED:
            # typed reason already recorded in the scheduler's stats
            if trace:
                tracer.span(trace, 0, 0, home, "shed", entered_at,
                            cluster.sim.now, "shed")
            if settle is not None:
                settle(None, cluster.sim.now)
            return
        if trace and cluster.sim.now > entered_at:
            tracer.span(trace, 0, 0, home, "queue_wait", entered_at,
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
                         and attempts < MAX_ATTEMPTS
                         and cluster.sim.now < config.horizon_us)
            scheduler.on_outcome(decision, outcome, cluster.sim.now,
                                 will_retry=retryable)
            if not retryable:
                break
            yield Sleep(scheduler.retry_backoff_us(decision, rng,
                                                   RETRY_BACKOFF_US))
        now = cluster.sim.now
        if trace:
            # top-K slowest traces per label: what perf_summary() uses
            # to attribute p99/p999 to a dominant phase
            tracer.exemplar(label, trace, now - entered_at)
        if settle is not None:
            settle(outcome, now)


def _spawn_load(workload, load: Load, homes: list[int]) -> None:
    """Spawn the worker coroutines that generate load on ``homes`` (a
    subset on mp workers, all engines elsewhere).  With
    ``config.arrivals`` set, open-loop dispatchers replace the
    closed-loop workers: requests enter on a pre-generated arrival
    schedule regardless of completion (see :mod:`repro.traffic`).
    Either way every request runs :meth:`Load.lifecycle`.

    With ``config.placement`` adaptive, this is also where the
    placement loop attaches: committed outcomes feed per-engine
    :class:`~repro.placement.AccessTelemetry`, the ``placement_flip``
    RPC is installed on this process's database, and — if this process
    drives the controller's home engine — the observe/plan/migrate
    controller loop is spawned alongside the load (its stats and
    telemetry land on ``load``).
    """
    executor, config, cluster = load.executor, load.config, load.cluster
    db = executor.db
    if config.trace:
        db.tracer = Tracer(sample_every=config.trace_sample)
        for server in cluster.servers:  # shadows the class-level no-op
            server.engine.tracer = db.tracer
    tracer = db.tracer
    arrivals = config.arrival_spec()
    if arrivals is not None and config.route_by_data:
        raise ValueError("open-loop arrivals and route_by_data cannot "
                         "be combined: the dispatcher issues requests "
                         "on their scheduled home")
    placement = as_placement_spec(config.placement)
    if placement.adaptive:
        placement_stats = PlacementStats(placement="adaptive")
        install_flip_handler(db, placement, placement_stats)
        executor.record_footprints = True
        telemetry = {home: AccessTelemetry() for home in homes}
        load.placement_stats, load.telemetry = placement_stats, telemetry
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
        label = f"home-{home}"
        while cluster.sim.now < config.horizon_us:
            if config.route_by_data:
                request = next_routed(home, rng)
            else:
                request = workload.next_request(home, rng)
            trace = tracer.new_trace(home) if tracer.enabled else 0
            yield from load.lifecycle(home, request, rng, trace,
                                      cluster.sim.now, label)

    if arrivals is not None:
        load.metrics.open_loop = OpenLoopStats()
        spawn_open_loop(workload, config, arrivals, cluster,
                        load.metrics.open_loop, homes, load.schedulers,
                        tracer, load.lifecycle)
    else:
        for home in homes:
            for slot in range(config.concurrent_per_engine):
                cluster.engine(home).spawn(worker(home, slot))
    if placement.adaptive:
        if config.backend != "mp":
            # single process: pin the loop to CONTROLLER_HOME — keeps
            # the sim backend's event stream (and every figure)
            # bit-identical to the pre-election behavior
            migrator = MigrationExecutor(db, CONTROLLER_HOME, placement,
                                         placement_stats)
            cluster.engine(CONTROLLER_HOME).spawn(
                controller_loop(db, telemetry, placement,
                                PlacementController(placement),
                                migrator, placement_stats,
                                config.horizon_us))
        elif homes:
            # mp: every worker runs a lease-election candidate instead
            # of pinning the controller to whichever worker owns
            # CONTROLLER_HOME — the role survives that worker's death
            candidate_home = min(homes)
            migrator = MigrationExecutor(db, candidate_home, placement,
                                         placement_stats)
            cluster.engine(candidate_home).spawn(
                lease_controller_loop(db, telemetry, placement,
                                      PlacementController(placement),
                                      migrator, placement_stats,
                                      config.horizon_us, cluster))
