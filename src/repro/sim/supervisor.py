"""Multiprocess supervisor: every worker is a real OS process.

The in-process ``aio`` backend runs all servers as one worker of one
process, so its wall-clock numbers understate what truly parallel
coordinators do to each other.  Here the same
:class:`~repro.sim.wallclock.WorkerCluster` runs once per worker
process, and everything that crosses a worker boundary crosses a
process boundary as a codec frame — there is no escrow: a payload that
cannot serialize raises a :class:`~repro.sim.codec.CodecError` naming
the offending effect.

**Topology.**  ``run_mp_workers(cluster, driver, config)`` (the parent)
forks one worker per server by default (``config.mp_workers`` caps the
process count; servers are assigned round-robin).  The run is built
once, in the parent, over an *unbound* cluster: it knows ``n_workers``
but has no worker identity, so it drives nothing.  Each forked worker
binds its inherited copy to its slot and generation
(:meth:`~repro.sim.wallclock.WorkerCluster.bind`) and hands it to the
driver, so every worker serves a copy-on-write image of the one build;
the copy of partition ``p`` on ``p``'s owning worker is the
authoritative one, and every access to ``p`` routes there.  A respawn
forks from the same untouched parent and replays its logs.

**Start method.**  ``fork``, and only ``fork``: a child starts from the
parent's already-imported program instead of a fresh interpreter that
imports it again (that start-up was the whole outage of a crash
restart).  The parent therefore runs no thread of its own while it
supervises — the chaos kill and the metrics endpoint are deadlines and
readiness in its one wait loop — and :func:`_worker_entry` undoes what a
forked child inherits and a spawned one never had (ARCHITECTURE.md,
"What a forked worker inherits").

**Lifecycle.**  Workers exchange listener ports through the parent, drive their share of the load, report
``done`` with their metrics payload at local quiescence, and keep
*serving* remote requests until the parent — having heard from every
worker — broadcasts ``stop``.  Then each ships its payload's ``live``
part once more (``late``): those stats went on counting that service,
and the parent keeps the later copy.  Teardown is unconditional: on
success, failure, or timeout the parent joins every worker, escalating
to ``terminate``/``kill`` so an aborted run can never leak processes.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.connection
import signal
import time
import traceback
from typing import Any, Callable

from .codec import FrameCodec
from .transport import TcpTransport, bind_listener
from .wallclock import WorkerCluster

MP_TRANSPORTS = ("tcp",)
MP_CODECS = ("packed", "pickle")
"""What ``RunConfig.mp_transport`` / ``mp_codec`` accept.  One carrier:
the shared-memory ring lost its measurement (EXPERIMENTS.md, "tcp vs
shm"); pickle stays as the codec's debug escape hatch."""

_STOP_GRACE_S = 5.0
"""How long a stopping worker keeps serving stragglers after ``stop``."""

_FORK = multiprocessing.get_context("fork")
"""The one start method (module docstring, "Start method")."""


class MpRunError(RuntimeError):
    """A multiprocess run failed (worker error, death, or timeout)."""


Driver = Callable[[WorkerCluster, int], Callable[[], Any]]
"""``driver(cluster, worker_id)`` runs in every forked worker once its
inherited cluster is bound: it spawns that worker's tasks and returns a
``finalize() -> payload`` callable evaluated at local quiescence.  The
payloads, pickled through the control pipe, are what
:func:`run_mp_workers` returns to the parent.  A dict payload's
``"live"`` entry, what goes on counting while the worker serves the
others after ``done``, ships again once it stops serving and replaces
the ``done`` copy (unless the worker dies first).  Drivers namespace
transaction ids (``repro.txn.common.seed_txn_ids``) before driving
load."""


def effective_mp_workers(config: Any) -> int:
    """Worker-process count for ``config`` (duck-typed RunConfig)."""
    n = config.n_partitions
    requested = config.mp_workers
    if requested is None:
        return n
    if requested < 1:
        raise ValueError(f"mp_workers must be >= 1, got {requested}")
    return min(requested, n)


# -- worker process entry -----------------------------------------------------


def _worker_entry(conn, cluster: WorkerCluster, driver: Driver,
                  config: Any, worker_id: int, generation: int,
                  resume_at_us: float,
                  inherited: tuple[Callable[[], None], ...]) -> None:
    """Forked process main: shed what the parent left, bind, serve,
    report, exit.

    ``inherited`` closes, through their owners, the parent's end of
    every worker's control pipe (this one's too: held here, it would
    keep this worker from ever reading EOF off a dead parent) and the
    parent's metrics listener.  The parent's signal handlers go too, so
    ``terminate`` stops a worker whatever the parent installed.
    ``multiprocessing`` ends a forked child with ``os._exit``, which runs
    no atexit hook and flushes no buffer: whatever must outlive the
    worker is written through before it returns (the WAL flushes every
    append; the sampler's counts ride the payload).
    """
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        for close in inherited:
            close()
        _worker_body(conn, cluster, driver, config, worker_id,
                     generation, resume_at_us)
    except BaseException:  # noqa: BLE001 - report, never hang the parent
        try:
            conn.send(("error", worker_id, traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


def _worker_body(conn, cluster: WorkerCluster, driver: Driver,
                 config: Any, worker_id: int, generation: int = 0,
                 resume_at_us: float = 0.0) -> None:
    listener = bind_listener()
    try:
        conn.send(("port", worker_id, listener.getsockname()[1]))
        msg = conn.recv()
        if not msg or msg[0] != "ports":
            listener.close()
            return  # parent aborted before the run started
    except BaseException:
        listener.close()
        raise
    ports: dict[int, int] = msg[1]

    cluster.bind(worker_id, generation, resume_at_us)
    cluster.recovery_enabled = config.mp_recovery
    finalize = driver(cluster, worker_id)

    codec = FrameCodec(packed=config.mp_codec == "packed")
    transport = TcpTransport(cluster, listener, ports, codec)

    asyncio.run(_serve_worker(cluster, conn, transport, finalize,
                              worker_id))


async def _serve_worker(cluster: WorkerCluster, conn,
                        transport: TcpTransport, finalize: Callable[[], Any],
                        worker_id: int) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def on_parent_message() -> None:
        try:
            while conn.poll():
                msg = conn.recv()
                if not msg:
                    continue
                if msg[0] == "stop":
                    stop.set()
                elif msg[0] == "peer_down":
                    # (peer_down, worker, dead_generation)
                    cluster.fail_peer(msg[1], msg[2])
                elif msg[0] == "rewire":
                    # (rewire, worker, port, dead_generation)
                    cluster.rewire_peer(msg[1], msg[2], msg[3])
        except (EOFError, OSError):
            stop.set()  # parent died: shut down rather than linger

    sampler = cluster.metrics_sampler

    def ship_samples(rows) -> None:
        if rows:
            conn.send(("metrics_sample", worker_id, rows))

    if sampler is not None:
        # rows ship live on the cluster's tick, so the parent's merged
        # timeline survives this worker being killed
        cluster.on_tick = lambda: ship_samples(
            sampler.tick(cluster.clock.now))
    loop.add_reader(conn.fileno(), on_parent_message)
    try:
        async with cluster.serving(transport):
            await cluster._drain()
            if cluster._error is not None:
                raise cluster._error
            cluster.on_tick = None
            if sampler is not None:
                # final partial interval, flushed in pipe order before
                # the done payload so the parent's timeline is complete
                # when the quiescence merge runs
                ship_samples(sampler.flush(cluster.clock.now))
            payload = finalize()
            conn.send(("done", worker_id, payload))
            # keep serving foreign requests until every worker reported
            # done and the parent broadcast the stop
            await stop.wait()
            deadline = loop.time() + _STOP_GRACE_S
            while (loop.time() < deadline
                   and not (cluster._active == 0 and transport.idle())):
                await asyncio.sleep(0.01)
            # what went on counting through that service (WAL appends,
            # traffic) ships again, after the timeline's last interval
            if sampler is not None:
                ship_samples(sampler.flush(cluster.clock.now))
            if isinstance(payload, dict) and "live" in payload:
                conn.send(("late", worker_id, payload["live"]))
    finally:
        loop.remove_reader(conn.fileno())


# -- parent-side controller ---------------------------------------------------


def _start_worker(fleet: tuple, worker_id: int, generation: int,
                  resume_at_us: float, workers: dict[int, tuple],
                  endpoint: Any = None) -> tuple:
    """Fork one worker of ``fleet`` (its cluster, driver and config);
    returns its (proc, conn).  ``workers`` holds the live fleet's pipes,
    which the child closes on entry."""
    parent_conn, child_conn = _FORK.Pipe()
    inherited = [conn.close for _proc, conn in workers.values()]
    inherited.append(parent_conn.close)
    if endpoint is not None:
        inherited.append(endpoint.stop)
    proc = _FORK.Process(
        target=_worker_entry,
        args=(child_conn, *fleet, worker_id, generation, resume_at_us,
              tuple(inherited)),
        daemon=True, name=f"mp-worker-{worker_id}.g{generation}")
    proc.start()
    child_conn.close()
    return proc, parent_conn


def run_mp_workers(cluster: WorkerCluster, driver: Driver, config: Any, *,
                   on_sample: Callable[[int, list], None] | None = None,
                   on_tick: Callable[[], None] | None = None,
                   tick_s: float | None = None,
                   endpoint: Any = None) -> list[Any]:
    """Fork the workers over ``cluster``, run ``driver`` in each, return
    per-worker payloads.

    ``cluster`` is the unbound cluster the run was built over; every
    worker (and every respawn) forks from this process and binds its
    copy.  ``config`` is the bench layer's ``RunConfig``: the controller
    reads its ``mp_*`` fields, ``n_partitions`` and ``horizon_us``.
    Teardown is unconditional — whatever happens, every worker process
    is joined (terminated, then killed if necessary) before this
    returns or raises.

    ``on_sample(worker_id, rows)`` receives each ``metrics_sample``
    message a worker ships (timeline rows, when the run has the
    metrics timeline on); ``on_tick`` is invoked about every
    ``tick_s`` seconds of wall clock between waits (the health
    watchdog evaluates here).  An exception from either aborts the
    run like a worker error would.  ``endpoint`` (a listening
    :class:`~repro.obs.MetricsHttpServer`) is answered from the same
    wait: this loop is the parent's only thread.

    With ``mp_recovery`` on, a worker that dies mid-run (crash or
    SIGKILL — ``mp_chaos_kill_worker`` injects one deliberately,
    ``mp_chaos_kill_after_s`` into the run) is restarted up to
    ``mp_max_restarts`` times: the controller joins the corpse,
    announces ``peer_down`` to the survivors, forks generation+1
    resuming at the fleet's elapsed time, and rewires everyone once the
    replacement advertises its port.
    """
    if config.mp_transport not in MP_TRANSPORTS:
        raise ValueError(f"unknown mp_transport {config.mp_transport!r} "
                         f"(expected one of {MP_TRANSPORTS})")
    if config.mp_codec not in MP_CODECS:
        raise ValueError(f"unknown mp_codec {config.mp_codec!r} "
                         f"(expected one of {MP_CODECS})")
    if config.mp_recovery and not config.wal_spec().enabled:
        raise ValueError(
            'mp_recovery replays the dead worker\'s log, so it needs a '
            'durable WAL: wal="fsync"|"group" (with the log off a respawn '
            'would silently lose that worker\'s committed writes)')
    n_workers = effective_mp_workers(config)
    if cluster.worker_id is not None or cluster.n_workers != n_workers:
        raise ValueError(
            f"an mp run forks its workers from an unbound cluster of "
            f"{n_workers} workers (build it with make_cluster(config)), "
            f"not from worker {cluster.worker_id} of {cluster.n_workers}")
    fleet = (cluster, driver, config)
    timeout = config.run_timeout_s
    if timeout is None:
        timeout = config.horizon_us / 1e6 + 60.0
    restarts_left = config.mp_max_restarts if config.mp_recovery else 0
    workers: dict[int, tuple] = {}       # worker_id -> live (proc, conn)
    all_workers: list[tuple] = []        # every incarnation, for teardown
    ports: dict[int, int] = {}
    generations = {w: 0 for w in range(n_workers)}
    try:
        for worker_id in range(n_workers):
            workers[worker_id] = _start_worker(fleet, worker_id, 0, 0.0,
                                               workers, endpoint)
            all_workers.append(workers[worker_id])
        deadline = time.monotonic() + timeout
        # handshake: a death here is fatal even with recovery on — no
        # run state exists yet worth saving
        ports.update(_collect(workers, set(workers), "port", deadline))
        for _proc, parent in workers.values():
            parent.send(("ports", dict(ports)))
        run_start = time.monotonic()

        victim = config.mp_chaos_kill_worker
        chaos_at = (None if victim is None
                    else run_start + config.mp_chaos_kill_after_s)
        results: dict[int, Any] = {}
        pending = set(workers)
        next_tick = (time.monotonic() + tick_s) if tick_s else None
        while pending:
            now = time.monotonic()
            if chaos_at is not None and now >= chaos_at:
                workers[victim][0].kill()
                chaos_at = None
            remaining = deadline - now
            if remaining <= 0:
                raise MpRunError(
                    f"timed out waiting for {len(pending)} worker(s) to "
                    f"report 'done' (raise RunConfig.run_timeout_s if "
                    f"the run is legitimately long)")
            wait_s = min(t - now for t in (deadline, next_tick, chaos_at)
                         if t is not None)
            by_conn = {workers[w][1]: w for w in pending}
            waited = list(by_conn)
            if endpoint is not None:
                waited.append(endpoint)
            ready = multiprocessing.connection.wait(waited,
                                                    timeout=max(0.0, wait_s))
            for conn in ready:
                if conn is endpoint:
                    endpoint.answer()
                    continue
                w = by_conn[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    if restarts_left <= 0:
                        proc = workers[w][0]
                        raise MpRunError(
                            f"worker {proc.name} died before reporting "
                            f"'done' (exit code {proc.exitcode})") from None
                    restarts_left -= 1
                    all_workers.append(_restart_worker(
                        fleet, w, workers, ports,
                        generations, run_start, deadline, endpoint))
                    continue
                if msg[0] == "error":
                    # a peer's death reaches its survivors as connection
                    # errors, sometimes before its own pipe reads EOF
                    dead = [proc for proc, _conn in workers.values()
                            if proc.exitcode not in (None, 0)]
                    if dead and restarts_left <= 0:
                        raise MpRunError(
                            f"worker {dead[0].name} died before reporting "
                            f"'done' (exit code {dead[0].exitcode}); "
                            f"worker {msg[1]} failed:\n{msg[2]}")
                    raise MpRunError(f"worker {msg[1]} failed:\n{msg[2]}")
                if msg[0] == "metrics_sample":
                    if on_sample is not None:
                        on_sample(msg[1], msg[2])
                    continue
                if msg[0] != "done":
                    raise MpRunError(f"protocol error: expected 'done', "
                                     f"worker sent {msg[0]!r}")
                results[w] = msg[2]
                pending.discard(w)
            # evaluate only after draining the ready connections: a
            # blocking restart leaves minutes of queued samples in the
            # survivors' pipes, and ticking before reading them would
            # misread that backlog as silence
            if next_tick is not None and time.monotonic() >= next_tick:
                if on_tick is not None:
                    on_tick()
                next_tick = time.monotonic() + tick_s

        for _proc, parent in workers.values():
            try:
                parent.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        join_deadline = time.monotonic() + _STOP_GRACE_S + 5.0
        # each payload's live part again, counted on until its worker
        # stopped serving; one that dies (or errs) first keeps its own
        late = {workers[w][1]: w for w in workers
                if isinstance(results[w], dict) and "live" in results[w]}
        while late:
            ready = multiprocessing.connection.wait(
                list(late),
                timeout=max(0.0, join_deadline - time.monotonic()))
            if not ready:
                break
            for conn in ready:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    del late[conn]
                    continue
                if msg[0] == "metrics_sample":
                    if on_sample is not None:
                        on_sample(msg[1], msg[2])
                    continue
                w = late.pop(conn)
                if msg[0] == "late":
                    results[w]["live"] = msg[2]
        for proc, _parent in workers.values():
            proc.join(timeout=max(0.1, join_deadline - time.monotonic()))
        return [results[w] for w in range(n_workers)]
    finally:
        # a replacement whose handshake failed never reached all_workers
        _teardown(all_workers + [w for w in workers.values()
                                 if w not in all_workers])


def _restart_worker(fleet: tuple, worker_id: int,
                    workers: dict[int, tuple],
                    ports: dict[int, int], generations: dict[int, int],
                    run_start: float, deadline: float,
                    endpoint: Any = None) -> tuple:
    """Replace a dead worker in a running fleet; returns the new
    (proc, conn) pair (also installed into ``workers``)."""
    dead_proc, dead_conn = workers.pop(worker_id)
    dead_gen = generations[worker_id]
    dead_proc.join(timeout=5.0)
    if dead_proc.is_alive():
        dead_proc.kill()
        dead_proc.join(timeout=5.0)
    try:
        dead_conn.close()
    except Exception:
        pass
    # survivors must stop waiting on the dead generation (and reap its
    # locks) before the replacement starts issuing new-generation txns
    for _proc, sconn in workers.values():
        try:
            sconn.send(("peer_down", worker_id, dead_gen))
        except (BrokenPipeError, OSError):
            pass
    generations[worker_id] = dead_gen + 1
    resume_at_us = (time.monotonic() - run_start) * 1e6
    replacement = _start_worker(fleet, worker_id, dead_gen + 1,
                                resume_at_us, workers, endpoint)
    workers[worker_id] = replacement
    # private handshake: the newcomer advertises and gets the current
    # fleet map
    port = _collect(workers, {worker_id}, "port", deadline)[worker_id]
    ports[worker_id] = port
    replacement[1].send(("ports", dict(ports)))
    for sw, (_proc, sconn) in workers.items():
        if sw != worker_id:
            try:
                sconn.send(("rewire", worker_id, port, dead_gen))
            except (BrokenPipeError, OSError):
                pass
    return replacement


def _collect(workers: dict[int, tuple], worker_ids: set[int], tag: str,
             deadline: float) -> dict[int, Any]:
    """Gather one ``(tag, worker_id, value)`` message from each of
    ``worker_ids``, surfacing worker errors, deaths, and timeouts as
    MpRunError."""
    by_conn = {workers[w][1]: w for w in worker_ids}
    pending = set(by_conn)
    out: dict[int, Any] = {}
    while pending:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise MpRunError(
                f"timed out waiting for {len(pending)} worker(s) to "
                f"report {tag!r} (raise RunConfig.run_timeout_s if the "
                f"run is legitimately long)")
        ready = multiprocessing.connection.wait(pending,
                                                timeout=remaining)
        for conn in ready:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                proc = workers[by_conn[conn]][0]
                raise MpRunError(
                    f"worker {proc.name} died before reporting {tag!r} "
                    f"(exit code {proc.exitcode})") from None
            if msg[0] == "error":
                raise MpRunError(
                    f"worker {msg[1]} failed:\n{msg[2]}")
            if msg[0] != tag:
                raise MpRunError(f"protocol error: expected {tag!r}, "
                                 f"worker sent {msg[0]!r}")
            out[msg[1]] = msg[2]
            pending.discard(conn)
    return out


def _teardown(workers: list[tuple]) -> None:
    """Join every worker incarnation, escalating so none can leak."""
    for proc, _parent in workers:
        if proc.is_alive():
            proc.terminate()
    for proc, _parent in workers:
        if proc.is_alive():
            proc.join(timeout=5.0)
    for proc, _parent in workers:
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
    for _proc, parent in workers:
        try:
            parent.close()
        except Exception:
            pass
