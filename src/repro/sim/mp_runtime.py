"""Multiprocess execution backend: every server is a real OS process.

The asyncio backend runs all servers as tasks of one process, so its
wall-clock numbers understate what truly parallel coordinators do to
each other.  Here each worker process runs its own asyncio event loop
(one or more servers per worker), and **everything** that crosses a
server boundary crosses a process boundary: one-sided verbs travel as
pickled :class:`~repro.sim.codec.OpDescriptor` specs dispatched against
the receiving worker's storage, RPC calls and replication messages as
token-routed wire envelopes (:class:`~repro.sim.codec.WireRpc` & co).
There is no escrow — a payload that cannot serialize raises a
:class:`~repro.sim.codec.CodecError` naming the offending effect.

**Topology.**  ``run_mp_workers(spec, config)`` (the parent) spawns one
worker per server by default (``config.mp_workers`` caps the process
count; servers are assigned round-robin).  Every worker deterministically
rebuilds the database from the spec's *builder* — a picklable
module-level factory — so all workers hold identical initial data; the
copy of partition ``p`` on ``p``'s owning worker is the authoritative
one, and every access to ``p`` routes there (local copies of foreign
partitions are never touched after loading).

**Lifecycle.**  Workers exchange listener ports through the parent,
connect lazily (one TCP connection per ordered worker pair, FIFO per
(src, dst) server channel), drive their share of the load, report
``done`` with their metrics payload at local quiescence, and keep
*serving* remote requests until the parent — having heard from every
worker — broadcasts ``stop``.  Teardown is unconditional: on success,
failure, or timeout the parent joins every worker, escalating to
``terminate``/``kill`` so an aborted run can never leak processes.

**Determinism caveat.**  Like the asyncio backend, runs are wall-clock
and scheduling-dependent — now additionally subject to OS process
scheduling.  Commit/abort *decisions* of contention-free programs remain
identical across sim/aio/mp (the conformance suite asserts this); counts
under contention are not bit-reproducible.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from ..obs.tracer import VERB_PHASES
from .aio_runtime import AioClock, AioNetwork
from .cluster import Server
from .codec import (PEER_DOWN, CodecError, FrameCodec, WireOneWay, WireRpc,
                    WireRpcReply, WireVerbReply, WireVerbs, decode_op,
                    encode_op)
from .effects import Coroutine, OneWay
from .network import NetworkConfig
from .runtime import EffectRuntimeBase, _payload_kind, _RpcRequest
from .shm_transport import (DEFAULT_RING_BYTES, ShmWorkerTransport,
                            cleanup_rings_by_name, create_inbound_rings,
                            ring_name, ring_names)

_LENGTH_BYTES = 4
_HOST = "127.0.0.1"

MP_TRANSPORTS = ("tcp", "shm")
MP_CODECS = ("packed", "pickle")

_STOP_GRACE_S = 5.0
"""How long a stopping worker keeps serving stragglers after ``stop``."""


class MpRunError(RuntimeError):
    """A multiprocess run failed (worker error, death, or timeout)."""


@dataclass
class MpRunSpec:
    """How each worker process recreates its share of a run.

    ``builder`` must be a *module-level* (picklable-by-reference)
    factory: ``builder(*args, **kwargs)`` builds the cluster via the
    harness's ``make_cluster`` (which, inside a worker, hands back that
    worker's live cluster) and returns a run object exposing
    ``workload`` / ``executor`` / ``config``.  ``driver(run_obj,
    cluster, worker_id)`` spawns that worker's tasks and returns a
    ``finalize() -> payload`` callable evaluated at local quiescence;
    the picklable payloads are what ``run_mp_workers`` returns to the
    parent.  Drivers are responsible for namespacing transaction ids
    (``repro.txn.common.seed_txn_ids``) before driving load.
    """

    builder: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    driver: Callable[[Any, "MpWorkerCluster", int], Callable[[], Any]] = None


def effective_mp_workers(config: Any) -> int:
    """Worker-process count for ``config`` (duck-typed RunConfig)."""
    n = config.n_partitions
    requested = getattr(config, "mp_workers", None)
    if requested is None:
        return n
    if requested < 1:
        raise ValueError(f"mp_workers must be >= 1, got {requested}")
    return min(requested, n)


# -- worker-side runtime ------------------------------------------------------


class MpServerRuntime(EffectRuntimeBase):
    """Interprets the effect vocabulary for one server of one worker.

    Owned targets (servers assigned to this worker) are reached
    in-process exactly like the asyncio loopback; everything else is
    encoded through the wire codec — descriptors for verbs, token-routed
    envelopes for RPCs and one-way messages — and crosses a real socket
    to the owning worker process.
    """

    __slots__ = ("_cluster", "network", "cpu_us", "_verb_pending",
                 "_rpc_pending", "_next_token")

    def __init__(self, cluster: "MpWorkerCluster", server_id: int):
        super().__init__(server_id)
        self._cluster = cluster
        self.network = cluster.network
        self.cpu_us = 0.0
        self._verb_pending: dict[int, tuple[Callable, bool]] = {}
        self._rpc_pending: dict[int, Callable[[Any], None]] = {}
        self._next_token = 0

    # -- base-class hooks --------------------------------------------------

    def _task_started(self) -> None:
        self._cluster._task_started()

    def _task_finished(self) -> None:
        self._cluster._task_finished()

    def perform(self, effect, cont) -> None:
        self._cluster.clock.events_fired += 1
        super().perform(effect, cont)

    def _batching_enabled(self) -> bool:
        return self.network.config.doorbell_batching

    def _defer(self, fn: Callable[[], None]) -> None:
        self._cluster.loop.call_soon(fn)

    def _do_compute(self, cost: float,
                    cont: Callable[[Any], None]) -> None:
        self.cpu_us += cost
        self._cluster.loop.call_soon(cont, None)

    def _do_sleep(self, delay: float,
                  cont: Callable[[Any], None]) -> None:
        if delay <= 0.0:
            self._cluster.loop.call_soon(cont, None)
            return
        self._cluster.loop.call_later(delay * 1e-6, cont, None)

    # -- verbs -------------------------------------------------------------

    def _one_sided(self, target: int, op: Callable[[], Any],
                   cont: Callable[[Any], None],
                   kind: str, nbytes: int | None) -> None:
        # Cross-worker verbs are accounted at their *actual* encoded
        # frame size (the codec knows better than any estimate); verbs
        # staying inside this worker keep the model's nominal sizes, as
        # no frame ever exists for them.
        if self._cluster.owns(target):
            self.network.stats.record_one_sided(
                kind, nbytes, remote=target != self.server_id,
                server=self.server_id)
            self._cluster.loop.call_soon(lambda: cont(op()))
            return
        sent = self._send_verbs(
            target, (op,), cont, batched=False,
            effect=f"OneSided(kind={kind!r}) to server {target}")
        self.network.stats.record_one_sided(kind, sent, remote=True,
                                            server=self.server_id)

    def _one_sided_batch(self, target, ops, cont, kinds) -> None:
        if self._cluster.owns(target):
            self.network.stats.record_batch(kinds, server=self.server_id)
            self._cluster.loop.call_soon(
                lambda: cont([op() for op in ops]))
            return
        kind = kinds[0][0] if kinds else "one_sided"
        sent = self._send_verbs(
            target, tuple(ops), cont, batched=True,
            effect=(f"BatchedOneSided(kind={kind!r}, {len(ops)} verbs) "
                    f"to server {target}"))
        # one frame carried the whole chain: split its real size across
        # the verbs so per-kind byte books still sum to wire bytes
        per = sent // len(ops)
        first = sent - per * (len(ops) - 1)
        self.network.stats.record_batch(
            [(k, first if i == 0 else per)
             for i, (k, _nb) in enumerate(kinds)],
            server=self.server_id)

    def _send_verbs(self, target: int, ops: tuple, cont: Callable,
                    batched: bool, effect: str) -> int:
        dst_worker = self._cluster.owner_of(target)
        if self._cluster.peer_is_down(dst_worker):
            # fail fast instead of queueing for a dead process: the
            # caller sees a peer_down status and aborts (retryably)
            result = [PEER_DOWN] * len(ops) if batched else PEER_DOWN
            self._cluster.loop.call_soon(cont, result)
            return 0
        specs = tuple(encode_op(op, effect) for op in ops)
        token = self._next_token
        self._next_token += 1
        self._verb_pending[token] = (cont, batched, dst_worker, len(ops))
        return self._cluster.transport.send(
            self.server_id, target,
            WireVerbs(token, specs, batched, self.current_trace),
            what=effect)

    # -- messages ----------------------------------------------------------

    def send_rpc(self, effect, cont: Callable[[Any], None]) -> None:
        target = effect.target
        kind = _payload_kind(effect.payload, "rpc")
        if self._cluster.owns(target):
            self.network.stats.record_message(
                kind, self.network.config.message_bytes(effect.payload),
                remote=target != self.server_id, server=self.server_id)
            self._cluster.deliver_local(
                target, self.server_id,
                _RpcRequest(self.server_id, effect.payload, cont,
                            self.current_trace))
            return
        dst_worker = self._cluster.owner_of(target)
        if self._cluster.peer_is_down(dst_worker):
            self._cluster.loop.call_soon(cont, PEER_DOWN)
            return
        token = self._next_token
        self._next_token += 1
        self._rpc_pending[token] = (cont, dst_worker)
        sent = self._cluster.transport.send(
            self.server_id, target,
            WireRpc(token, effect.payload, self.current_trace),
            what=effect.describe())
        self.network.stats.record_message(kind, sent, remote=True,
                                          server=self.server_id)

    def post(self, target: int, payload: Any,
             nbytes: int | None = None) -> None:
        kind = _payload_kind(payload, "one_way")
        if self._cluster.owns(target):
            if nbytes is None:
                nbytes = self.network.config.message_bytes(payload)
            self.network.stats.record_message(
                kind, nbytes, remote=target != self.server_id,
                server=self.server_id)
            self._cluster.deliver_local(target, self.server_id,
                                        OneWay(payload))
            return
        if self._cluster.peer_is_down(self._cluster.owner_of(target)):
            return  # one-way to a dead worker: dropped, like the wire would
        sent = self._cluster.transport.send(
            self.server_id, target, WireOneWay(payload),
            what=f"one-way message (kind={kind!r}) to server {target}")
        self.network.stats.record_message(kind, sent, remote=True,
                                          server=self.server_id)

    def send_payload(self, target: int, payload: Any, kind: str,
                     size_of: Any, nbytes: int | None = None) -> None:
        # Only in-process plumbing wrappers (RPC request/reply objects
        # carrying live continuations) reach this hook; cross-worker
        # traffic goes through the wire forms above.
        if nbytes is None:
            nbytes = self.network.config.message_bytes(size_of)
        self.network.stats.record_message(
            kind, nbytes, remote=target != self.server_id,
            server=self.server_id)
        if not self._cluster.owns(target):
            raise CodecError(
                f"in-process payload {payload!r} addressed to foreign "
                f"server {target}; this is a runtime routing bug")
        self._cluster.deliver_local(target, self.server_id, payload)

    # -- wire delivery -----------------------------------------------------

    def on_transport(self, src: int, wire: Any) -> None:
        """Handle one decoded wire envelope addressed to this server."""
        if isinstance(wire, WireVerbs):
            traced = wire.trace and self.tracer.enabled
            t0 = self._cluster.sim.now if traced else 0.0
            values = []
            for spec in wire.specs:
                op = decode_op(spec).bind(self.dispatch_context)
                values.append(op())
            if traced:
                # server-side half of the trace tree: which participant
                # executed the verbs, attributed by verb kind
                self.tracer.span(wire.trace, 0, 0, self.server_id,
                                 VERB_PHASES.get(wire.specs[0][0], "read"),
                                 t0, self._cluster.sim.now)
            if self._cluster.peer_is_down(self._cluster.owner_of(src)):
                return  # the requester died since asking
            self._cluster.transport.send(
                self.server_id, src,
                WireVerbReply(wire.token, tuple(values), wire.batched),
                what="a verb reply")
        elif isinstance(wire, WireVerbReply):
            entry = self._verb_pending.pop(wire.token, None)
            if entry is None:
                return  # reply meant for this worker's dead predecessor
            cont, batched = entry[0], entry[1]
            values = list(wire.values)
            cont(values if batched else values[0])
        elif isinstance(wire, WireRpc):
            if self.rpc_handler is None:
                raise RuntimeError(
                    f"server {self.server_id} received an RPC but has no "
                    f"handler installed")

            def reply(value: Any, token: int = wire.token,
                      requester: int = src) -> None:
                if self._cluster.peer_is_down(
                        self._cluster.owner_of(requester)):
                    return
                sent = self._cluster.transport.send(
                    self.server_id, requester, WireRpcReply(token, value),
                    what="an RPC reply")
                self.network.stats.record_message(
                    "rpc_reply", sent, remote=True, server=self.server_id)

            self.spawn(self.rpc_handler(src, wire.payload), on_done=reply,
                       trace=wire.trace)
        elif isinstance(wire, WireRpcReply):
            entry = self._rpc_pending.pop(wire.token, None)
            if entry is not None:
                entry[0](wire.value)
        elif isinstance(wire, WireOneWay):
            self.on_message(src, OneWay(wire.payload))
        else:
            raise TypeError(f"unexpected wire payload {wire!r}")

    def resolve_peer_pendings(self, worker: int) -> None:
        """Complete every in-flight request addressed to a dead worker
        with PEER_DOWN, so no coordinator hangs on a reply that will
        never come (the commit FSM turns the status into a retryable
        abort)."""
        for token in [t for t, e in self._verb_pending.items()
                      if e[2] == worker]:
            cont, batched, _w, n_ops = self._verb_pending.pop(token)
            result = [PEER_DOWN] * n_ops if batched else PEER_DOWN
            self._cluster.loop.call_soon(cont, result)
        for token in [t for t, e in self._rpc_pending.items()
                      if e[1] == worker]:
            cont, _w = self._rpc_pending.pop(token)
            self._cluster.loop.call_soon(cont, PEER_DOWN)


class MpEngine:
    """Per-server facade over one :class:`MpServerRuntime` (same surface
    as :class:`~repro.sim.coroutines.Engine`)."""

    def __init__(self, cluster: "MpWorkerCluster", server_id: int):
        self.server_id = server_id
        self._cluster = cluster
        self.runtime = MpServerRuntime(cluster, server_id)

    @property
    def active_tasks(self) -> int:
        return self.runtime.active_tasks

    def set_rpc_handler(self,
                        handler: Callable[[int, Any], Coroutine]) -> None:
        self.runtime.rpc_handler = handler

    def spawn(self, gen: Coroutine,
              on_done: Callable[[Any], None] | None = None) -> None:
        self._cluster._spawn(self.runtime, gen, on_done)

    def post(self, target: int, payload: Any,
             nbytes: int | None = None) -> None:
        self.runtime.post(target, payload, nbytes)


# -- worker-side cluster ------------------------------------------------------


class MpWorkerCluster:
    """One worker process's view of the N-server cluster.

    Presents the full ``servers`` / ``engine()`` / ``network`` / ``sim``
    surface so the database layer wires storage and RPC dispatch for
    every server — but only the servers this worker *owns*
    (``server_id % n_workers == worker_id``) execute anything; their
    local copies of foreign partitions are never touched after loading.
    """

    def __init__(self, n_servers: int, worker_id: int, n_workers: int,
                 config: NetworkConfig | None = None, generation: int = 0):
        if not 0 <= worker_id < n_workers <= n_servers:
            raise ValueError(f"bad worker topology: worker {worker_id} of "
                             f"{n_workers} over {n_servers} servers")
        self.n_workers = n_workers
        self.worker_id = worker_id
        self.generation = generation
        """Restart count of this worker slot: 0 for an original spawn,
        incremented each time the parent respawns it after a death."""
        self.clock = AioClock()
        self.sim = self.clock
        self.network = AioNetwork(config)
        self.transport: MpWorkerTransport | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._pending_spawns: list[tuple] = []
        self._active = 0
        self._idle: asyncio.Event | None = None
        self._error: BaseException | None = None
        self._claimed = False
        self.wire_tables: tuple = ()
        self.recovery_enabled = False
        self.resume_at_us = 0.0
        self.peer_down_hooks: list[Callable] = []
        """Called as ``hook(worker, dead_generation)`` when a peer dies
        (the database layer reaps the dead generation's locks here)."""
        self.metrics_sampler = None
        """Timeline sampler the bench driver installs when
        ``metrics_interval`` is set; :func:`_serve_worker` ships its
        rows to the parent as ``metrics_sample`` messages."""
        self.metrics_interval_s: float = 0.0
        self._down_workers: set[int] = set()
        self.servers = [Server(i, MpEngine(self, i))
                        for i in range(n_servers)]

    def __len__(self) -> int:
        return len(self.servers)

    def server(self, server_id: int) -> Server:
        return self.servers[server_id]

    def engine(self, server_id: int) -> MpEngine:
        return self.servers[server_id].engine

    def owns(self, server_id: int) -> bool:
        return server_id % self.n_workers == self.worker_id

    def owner_of(self, server_id: int) -> int:
        return server_id % self.n_workers

    def owned_servers(self) -> list[int]:
        return [s.id for s in self.servers if self.owns(s.id)]

    def txn_namespace(self) -> int:
        """Txn-id namespace for this worker *generation*.  The modulo
        identity ``namespace % n_workers == worker_id`` survives
        restarts (lock owners remain attributable to their worker slot)
        while ``namespace // n_workers`` is the generation, so a
        respawn never reuses its predecessor's transaction ids."""
        return self.worker_id + self.generation * self.n_workers

    def peer_is_down(self, worker: int) -> bool:
        return worker in self._down_workers

    def fail_peer(self, worker: int, dead_generation: int = 0) -> None:
        """A peer worker died: stop routing to it, complete in-flight
        requests with PEER_DOWN, and reap the dead generation's locks.
        Idempotent — the parent's announcement and a transport-level
        connection error may both report the same death."""
        if worker == self.worker_id:
            return
        if worker not in self._down_workers:
            self._down_workers.add(worker)
            if self.transport is not None:
                self.transport.fail_peer(worker)
            for server in self.servers:
                if self.owns(server.id):
                    server.engine.runtime.resolve_peer_pendings(worker)
        # hooks re-run on repeat reports: a transport-level detection
        # fires with dead_generation=0, the parent's announcement later
        # supplies the exact generation to reap
        for hook in self.peer_down_hooks:
            hook(worker, dead_generation)

    def rewire_peer(self, worker: int, advert: Any,
                    dead_generation: int = 0) -> None:
        """The parent respawned a dead peer: reattach its channel and
        re-reap the dead generation's locks (a straggler frame from the
        dead generation may have re-taken one after the first reap)."""
        self._down_workers.discard(worker)
        if self.transport is not None:
            self.transport.rewire(worker, advert)
        for hook in self.peer_down_hooks:
            hook(worker, dead_generation)

    def register_wire_tables(self, names) -> None:
        """The packed codec's table registry (called by the database
        layer during the build, i.e. before the transport exists).

        Every worker rebuilds the database deterministically from the
        same spec, so every worker derives the *same* ordered name
        list — that shared derivation is the codec "negotiation"; no
        bytes are exchanged."""
        self.wire_tables = tuple(names)

    def run(self, max_events: int | None = None) -> None:
        raise RuntimeError("mp worker clusters are driven by the worker "
                           "serve loop, not run(); drive mp runs through "
                           "run_mp_benchmark / TpccRun.run() in the parent")

    def _claim(self, n_partitions: int) -> "MpWorkerCluster":
        if self._claimed:
            raise RuntimeError("the spec builder must create exactly one "
                               "cluster per worker (make_cluster called "
                               "twice)")
        if n_partitions != len(self.servers):
            raise ValueError(f"builder asked for {n_partitions} partitions "
                             f"but this worker serves {len(self.servers)}")
        self._claimed = True
        return self

    # -- task latch & spawning ---------------------------------------------

    def _spawn(self, runtime: MpServerRuntime, gen: Coroutine,
               on_done: Callable[[Any], None] | None) -> None:
        if not self.owns(runtime.server_id):
            raise ValueError(
                f"worker {self.worker_id} cannot drive tasks for foreign "
                f"server {runtime.server_id}")
        if self.loop is None:
            self._pending_spawns.append((runtime, gen, on_done))
        else:
            runtime.spawn(gen, on_done)

    def _task_started(self) -> None:
        self._active += 1
        if self._idle is not None:
            self._idle.clear()

    def _task_finished(self) -> None:
        self._active -= 1
        if self._active == 0 and self._idle is not None:
            self._idle.set()

    # -- delivery & failure -------------------------------------------------

    def deliver_local(self, dst: int, src: int, payload: Any) -> None:
        runtime = self.engine(dst).runtime

        def arrive() -> None:
            try:
                runtime.on_message(src, payload)
            except BaseException as exc:  # noqa: BLE001 - fatal for the run
                self._fatal(exc)

        self.loop.call_soon(arrive)

    def _deliver_wire(self, dst: int, src: int, wire: Any) -> None:
        if not self.owns(dst):
            self._fatal(RuntimeError(
                f"worker {self.worker_id} received a frame for foreign "
                f"server {dst} (routing bug)"))
            return
        try:
            self.engine(dst).runtime.on_transport(src, wire)
        except BaseException as exc:  # noqa: BLE001 - fatal for the run
            self._fatal(exc)

    def _fatal(self, exc: BaseException) -> None:
        if self._error is None:
            self._error = exc
        if self._idle is not None:
            self._idle.set()

    def _loop_exception(self, loop: asyncio.AbstractEventLoop,
                        context: dict) -> None:
        self._fatal(context.get("exception")
                    or RuntimeError(context.get("message",
                                                "event loop error")))

    async def _drain(self) -> None:
        """Local quiescence: no active task after settling, transport
        outbound flushed.  A recorded fatal error ends the drain."""
        while True:
            await self._idle.wait()
            if self._error is not None:
                return
            settled = True
            for _ in range(4):
                await asyncio.sleep(0)
                if self._active or self._error is not None:
                    settled = False
                    break
            if not settled:
                if self._error is not None:
                    return
                continue
            if not self.transport.idle():
                await asyncio.sleep(0.001)
                continue
            if self._active == 0:
                return


# -- the wire -----------------------------------------------------------------


class MpWorkerTransport:
    """Real sockets between worker processes.

    One lazily-opened TCP connection per ordered (src_worker,
    dst_worker) pair; frames are length-prefixed codec bodies of
    ``(src_server, dst_server, wire_envelope)`` (struct-packed for hot
    verbs, pickled otherwise — see ``FrameCodec``).  Per-(src, dst)
    server channel FIFO follows from one connection + one writer task
    per worker pair and TCP byte ordering.  Writers coalesce: whatever
    frames accumulated in a channel queue go out as one ``write`` and
    one ``drain``, so a burst pays one syscall, not one per frame.
    """

    def __init__(self, cluster: MpWorkerCluster, listener: socket.socket,
                 ports: dict[int, int], codec: FrameCodec | None = None):
        self._cluster = cluster
        self._listener = listener
        self._ports = ports
        self._codec = codec or FrameCodec()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._queues: dict[int, asyncio.Queue] = {}
        self._writers: dict[int, asyncio.Task] = {}
        self._down: set[int] = set()
        self._channel_in_flight: dict[int, int] = {}
        self._in_flight = 0
        """Frames accepted by :meth:`send` whose bytes have not yet been
        written to their socket.  ``idle()`` must count these: a frame
        a writer task has *popped* but not yet written would otherwise
        make the channel queues look empty while the frame is still in
        this process."""
        self.frames_sent = 0
        self.wire_bytes_sent = 0

    async def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._server = await asyncio.start_server(self._serve,
                                                  sock=self._listener)
        # channels to every peer are created up front (each writer task
        # dials its connection immediately — every peer's acceptor is
        # already listening before the parent shares the port map), like
        # an RDMA cluster's queue pairs.  Creation is synchronous: a
        # fast-starting peer can deliver a verb *while* this worker is
        # still starting, and the reply must find its channel queue
        # rather than crash the serve loop.
        for dst_worker in self._ports:
            if dst_worker != self._cluster.worker_id:
                self._ensure_channel(dst_worker)

    def _ensure_channel(self, dst_worker: int) -> asyncio.Queue:
        queue = self._queues.get(dst_worker)
        if queue is None:
            queue = asyncio.Queue()
            self._queues[dst_worker] = queue
            self._writers[dst_worker] = self._loop.create_task(
                self._write_channel(dst_worker, queue))
        return queue

    def send(self, src: int, dst: int, wire: Any, what: str) -> int:
        if self._loop is None:
            raise RuntimeError("mp transport not started")
        body = self._codec.encode(src, dst, wire, what)
        dst_worker = self._cluster.owner_of(dst)
        if dst_worker == self._cluster.worker_id:
            raise RuntimeError(f"frame for owned server {dst} reached the "
                               f"transport (routing bug)")
        if dst_worker in self._down:
            return _LENGTH_BYTES + len(body)  # dropped: peer is dead
        self._in_flight += 1
        self._channel_in_flight[dst_worker] = \
            self._channel_in_flight.get(dst_worker, 0) + 1
        self._ensure_channel(dst_worker).put_nowait(body)
        return _LENGTH_BYTES + len(body)

    async def _write_channel(self, dst_worker: int,
                             queue: asyncio.Queue) -> None:
        writer = None
        try:
            _reader, writer = await asyncio.open_connection(
                _HOST, self._ports[dst_worker])
            closing = False
            while not closing:
                body = await queue.get()
                if body is _CloseChannel:
                    break
                # coalesce whatever else already queued behind it into
                # one write + one drain
                bodies = [body]
                while True:
                    try:
                        extra = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if extra is _CloseChannel:
                        closing = True
                        break
                    bodies.append(extra)
                frame = b"".join(
                    piece for b in bodies
                    for piece in (len(b).to_bytes(_LENGTH_BYTES, "big"), b))
                writer.write(frame)
                self.frames_sent += len(bodies)
                self.wire_bytes_sent += len(frame)
                self._in_flight -= len(bodies)
                self._channel_in_flight[dst_worker] = \
                    self._channel_in_flight.get(dst_worker, 0) - len(bodies)
                await writer.drain()
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            if (isinstance(exc, OSError)
                    and self._cluster.recovery_enabled):
                # the peer process died under us: a survivable event on
                # recovery runs (the parent's announcement follows)
                self._cluster.fail_peer(dst_worker)
            else:
                self._cluster._fatal(exc)
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        decode = self._codec.decode
        try:
            while True:
                header = await reader.readexactly(_LENGTH_BYTES)
                length = int.from_bytes(header, "big")
                body = await reader.readexactly(length)
                src, dst, wire = decode(body)
                self._cluster._deliver_wire(dst, src, wire)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # peer worker closed the channel (normal at shutdown)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._cluster._fatal(exc)
        finally:
            writer.close()

    def idle(self) -> bool:
        return self._in_flight == 0 and \
            all(q.empty() for q in self._queues.values())

    def fail_peer(self, dst_worker: int) -> None:
        """Tear down the channel to a dead worker; queued frames are
        dropped (they were addressed to a process that no longer
        exists) and stop counting toward ``idle()``."""
        self._down.add(dst_worker)
        task = self._writers.pop(dst_worker, None)
        if task is not None:
            task.cancel()
        queue = self._queues.pop(dst_worker, None)
        if queue is not None:
            while not queue.empty():
                queue.get_nowait()
        self._in_flight -= self._channel_in_flight.pop(dst_worker, 0)

    def rewire(self, dst_worker: int, advert: Any) -> None:
        """A respawned worker advertised a fresh port; dial it lazily
        on the next frame."""
        self._ports[dst_worker] = advert
        self._down.discard(dst_worker)

    async def stop(self) -> None:
        for queue in self._queues.values():
            queue.put_nowait(_CloseChannel)
        if self._writers:
            await asyncio.gather(*self._writers.values(),
                                 return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._queues.clear()
        self._writers.clear()
        self._loop = None


class _CloseChannel:
    """Sentinel asking a channel writer task to flush and exit."""


# -- worker process entry -----------------------------------------------------

_ACTIVE_CLUSTER: MpWorkerCluster | None = None


def current_worker_cluster() -> MpWorkerCluster | None:
    """The live cluster while a spec builder runs inside a worker."""
    return _ACTIVE_CLUSTER


def cluster_for_config(n_partitions: int,
                       config: NetworkConfig | None) -> Any:
    """What ``make_cluster(backend="mp")`` returns.

    Inside a worker: that worker's live cluster (exactly once per
    build).  In the parent: an inert template so databases and
    executors can be constructed for inspection — driving the run
    happens through :func:`run_mp_workers`.
    """
    active = _ACTIVE_CLUSTER
    if active is not None:
        return active._claim(n_partitions)
    return MpTemplateCluster(n_partitions, config)


class _TemplateEngine:
    """Accepts wiring (RPC handlers) but refuses to execute."""

    def __init__(self, server_id: int):
        self.server_id = server_id
        self.active_tasks = 0
        self.rpc_handler = None

    def set_rpc_handler(self, handler) -> None:
        self.rpc_handler = handler

    def spawn(self, gen, on_done=None) -> None:
        raise RuntimeError(
            "this database was built against the parent-side template of "
            "a multiprocess run; drive it through run_mp_benchmark / "
            "TpccRun.run(), which re-creates it inside worker processes")

    post = spawn


class MpTemplateCluster:
    """Parent-side stand-in: carries the shape, never runs."""

    def __init__(self, n_servers: int, config: NetworkConfig | None = None):
        if n_servers <= 0:
            raise ValueError("cluster needs at least one server")
        self.clock = AioClock()
        self.sim = self.clock
        self.network = AioNetwork(config)
        self.servers = [Server(i, _TemplateEngine(i))
                        for i in range(n_servers)]

    def __len__(self) -> int:
        return len(self.servers)

    def server(self, server_id: int) -> Server:
        return self.servers[server_id]

    def engine(self, server_id: int) -> _TemplateEngine:
        return self.servers[server_id].engine

    def run(self, max_events: int | None = None) -> None:
        raise RuntimeError(
            "an mp-backend cluster in the parent process is a template; "
            "drive the run through run_mp_benchmark / TpccRun.run()")


def _worker_entry(conn, spec: MpRunSpec, config: Any, worker_id: int,
                  n_workers: int, generation: int = 0,
                  resume_at_us: float = 0.0) -> None:
    """Spawned process main: build, serve, report, exit."""
    try:
        _worker_body(conn, spec, config, worker_id, n_workers,
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


def _worker_body(conn, spec: MpRunSpec, config: Any, worker_id: int,
                 n_workers: int, generation: int = 0,
                 resume_at_us: float = 0.0) -> None:
    global _ACTIVE_CLUSTER
    transport_kind = getattr(config, "mp_transport", "tcp") or "tcp"
    if transport_kind not in MP_TRANSPORTS:
        raise ValueError(f"unknown mp_transport {transport_kind!r} "
                         f"(expected one of {MP_TRANSPORTS})")
    listener = None
    rings_in = {}
    if transport_kind == "shm":
        # inbound rings must exist before any peer learns our advert;
        # with a run id the names are deterministic, so a respawned
        # generation recreates (and thereby reclaims) its predecessor's
        rings_in = create_inbound_rings(
            worker_id, n_workers,
            getattr(config, "mp_shm_ring_bytes", None) or DEFAULT_RING_BYTES,
            run_id=getattr(config, "mp_run_id", None))
        advert: Any = {src: ring.name for src, ring in rings_in.items()}
    else:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind((_HOST, 0))
        listener.listen(64)
        advert = listener.getsockname()[1]
    try:
        conn.send(("port", worker_id, advert))
        msg = conn.recv()
        if not msg or msg[0] != "ports":
            return  # parent aborted before the run started
    except BaseException:
        for ring in rings_in.values():
            ring.close()
            ring.unlink()
        if listener is not None:
            listener.close()
        raise
    ports: dict[int, Any] = msg[1]

    cluster = MpWorkerCluster(config.n_partitions, worker_id, n_workers,
                              config.network_config(),
                              generation=generation)
    cluster.recovery_enabled = bool(getattr(config, "mp_recovery", False))
    cluster.resume_at_us = resume_at_us
    _ACTIVE_CLUSTER = cluster
    try:
        run_obj = spec.builder(*spec.args, **spec.kwargs)
    finally:
        _ACTIVE_CLUSTER = None
    if not cluster._claimed:
        raise RuntimeError(
            f"spec builder {spec.builder!r} never built a cluster via "
            f"make_cluster (is its config backend set to 'mp'?)")
    finalize = spec.driver(run_obj, cluster, worker_id)

    # the codec's table registry comes from this worker's own build —
    # identical on every worker, so no negotiation bytes are needed
    codec = FrameCodec(cluster.wire_tables,
                       packed=getattr(config, "mp_codec",
                                      "packed") != "pickle")
    if transport_kind == "shm":
        transport: Any = ShmWorkerTransport(cluster, rings_in, ports, codec)
    else:
        transport = MpWorkerTransport(cluster, listener, ports, codec)

    profile_dir = getattr(config, "mp_profile_dir", None)
    profiler = None
    if profile_dir:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    try:
        asyncio.run(_serve_worker(cluster, conn, transport, finalize,
                                  worker_id))
    finally:
        if profiler is not None:
            import os
            profiler.disable()
            profiler.dump_stats(os.path.join(profile_dir,
                                             f"worker-{worker_id}.prof"))


async def _serve_worker(cluster: MpWorkerCluster, conn,
                        transport: Any,
                        finalize: Callable[[], Any],
                        worker_id: int) -> None:
    loop = asyncio.get_running_loop()
    cluster.loop = loop
    cluster._idle = asyncio.Event()
    cluster._error = None
    cluster._active = 0
    loop.set_exception_handler(cluster._loop_exception)
    cluster.transport = transport
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
                    # (rewire, worker, advert, dead_generation)
                    cluster.rewire_peer(msg[1], msg[2], msg[3])
        except (EOFError, OSError):
            stop.set()  # parent died: shut down rather than linger

    sampler = cluster.metrics_sampler
    sample_handle: asyncio.TimerHandle | None = None

    def ship_samples(rows) -> None:
        if rows:
            conn.send(("metrics_sample", worker_id, rows))

    def on_sample_timer() -> None:
        nonlocal sample_handle
        try:
            ship_samples(sampler.tick(cluster.clock.now))
        except (BrokenPipeError, OSError):
            return  # parent gone; stop sampling, stop handles exit
        sample_handle = loop.call_later(cluster.metrics_interval_s,
                                        on_sample_timer)

    loop.add_reader(conn.fileno(), on_parent_message)
    try:
        await transport.start(loop)
        # a respawned generation rejoins the fleet's elapsed timeline
        # instead of re-admitting a full horizon from zero
        cluster.clock.start(cluster.resume_at_us)
        if sampler is not None and cluster.metrics_interval_s:
            sample_handle = loop.call_later(cluster.metrics_interval_s,
                                            on_sample_timer)
        pending, cluster._pending_spawns = cluster._pending_spawns, []
        for runtime, gen, on_done in pending:
            runtime.spawn(gen, on_done)
        if cluster._active == 0:
            cluster._idle.set()
        await cluster._drain()
        if cluster._error is not None:
            raise cluster._error
        # fold the transport's ground-truth frame bytes into the stats
        # snapshot the finalize payload ships to the parent
        cluster.network.stats.wire_bytes_sent += getattr(
            transport, "wire_bytes_sent", 0)
        if sample_handle is not None:
            sample_handle.cancel()
            sample_handle = None
        if sampler is not None:
            # final partial interval, flushed in pipe order before the
            # done payload so the parent's timeline is complete when
            # the quiescence merge runs
            ship_samples(sampler.flush(cluster.clock.now))
        conn.send(("done", worker_id, finalize()))
        # keep serving foreign requests until every worker reported done
        # and the parent broadcast the stop
        await stop.wait()
        deadline = loop.time() + _STOP_GRACE_S
        while (loop.time() < deadline
               and not (cluster._active == 0 and transport.idle())):
            await asyncio.sleep(0.01)
    finally:
        if sample_handle is not None:
            sample_handle.cancel()
        loop.remove_reader(conn.fileno())
        await transport.stop()
        cluster.loop = None


# -- parent-side controller ---------------------------------------------------


def _spawn_worker(ctx, spec: MpRunSpec, config: Any, worker_id: int,
                  n_workers: int, generation: int,
                  resume_at_us: float) -> tuple:
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(
        target=_worker_entry,
        args=(child_conn, spec, config, worker_id, n_workers,
              generation, resume_at_us),
        daemon=True, name=f"mp-worker-{worker_id}.g{generation}")
    proc.start()
    child_conn.close()
    return proc, parent_conn


def run_mp_workers(spec: MpRunSpec, config: Any, *,
                   on_sample: Callable[[int, list], None] | None = None,
                   on_tick: Callable[[], None] | None = None,
                   tick_s: float | None = None) -> list[Any]:
    """Spawn the workers, run the spec, return per-worker payloads.

    ``config`` is duck-typed (the bench layer's ``RunConfig``): the
    controller reads ``n_partitions`` / ``mp_workers`` /
    ``mp_run_timeout_s`` / ``horizon_us`` and forwards the whole object
    to every worker's builder.  Teardown is unconditional — whatever
    happens, every worker process is joined (terminated, then killed if
    necessary) before this returns or raises.

    ``on_sample(worker_id, rows)`` receives each ``metrics_sample``
    message a worker ships (timeline rows, when the run has the
    metrics timeline on); ``on_tick`` is invoked about every
    ``tick_s`` seconds of wall clock between waits (the health
    watchdog evaluates here).  An exception from either aborts the
    run like a worker error would.

    With ``mp_recovery`` on, a worker that dies mid-run (crash or
    SIGKILL — ``mp_chaos_kill_worker`` injects one deliberately) is
    restarted up to ``mp_max_restarts`` times: the controller joins the
    corpse, reclaims its shm rings, announces ``peer_down`` to the
    survivors, respawns generation+1 resuming at the fleet's elapsed
    time, and rewires everyone once the replacement advertises.
    """
    if spec.driver is None:
        raise ValueError("MpRunSpec.driver is required")
    n_workers = effective_mp_workers(config)
    timeout = getattr(config, "mp_run_timeout_s", None)
    if timeout is None:
        timeout = getattr(config, "horizon_us", 0.0) / 1e6 + 60.0
    recovery = bool(getattr(config, "mp_recovery", False))
    restarts_left = int(getattr(config, "mp_max_restarts", 1)) \
        if recovery else 0
    run_id = getattr(config, "mp_run_id", None)
    ctx = multiprocessing.get_context("spawn")
    workers: dict[int, tuple] = {}       # worker_id -> live (proc, conn)
    all_workers: list[tuple] = []        # every incarnation, for teardown
    adverts: dict[int, Any] = {}
    generations = {w: 0 for w in range(n_workers)}
    chaos_timer = None
    try:
        for worker_id in range(n_workers):
            workers[worker_id] = _spawn_worker(ctx, spec, config,
                                               worker_id, n_workers, 0, 0.0)
        all_workers.extend(workers.values())
        deadline = time.monotonic() + timeout
        # handshake: a death here is fatal even with recovery on — no
        # run state exists yet worth saving
        adverts.update(_collect(workers, set(workers), "port", deadline))
        for _proc, parent in workers.values():
            parent.send(("ports", dict(adverts)))
        run_start = time.monotonic()

        victim = getattr(config, "mp_chaos_kill_worker", None)
        if victim is not None:
            chaos_timer = threading.Timer(
                getattr(config, "mp_chaos_kill_after_s", 0.5),
                workers[victim][0].kill)
            chaos_timer.daemon = True
            chaos_timer.start()

        results: dict[int, Any] = {}
        pending = set(workers)
        next_tick = (time.monotonic() + tick_s) if tick_s else None
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise MpRunError(
                    f"timed out waiting for {len(pending)} worker(s) to "
                    f"report 'done' (raise RunConfig.mp_run_timeout_s if "
                    f"the run is legitimately long)")
            wait_s = remaining
            if next_tick is not None:
                wait_s = min(wait_s,
                             max(0.0, next_tick - time.monotonic()))
            by_conn = {workers[w][1]: w for w in pending}
            ready = multiprocessing.connection.wait(list(by_conn),
                                                    timeout=wait_s)
            for conn in ready:
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
                        ctx, spec, config, w, n_workers, workers,
                        adverts, generations, run_id, run_start, deadline))
                    continue
                if msg[0] == "error":
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
        for proc, _parent in workers.values():
            proc.join(timeout=max(0.1, join_deadline - time.monotonic()))
        return [results[w] for w in range(n_workers)]
    finally:
        if chaos_timer is not None:
            chaos_timer.cancel()
        _teardown(all_workers)
        # a worker that died before its transport.stop() leaked its shm
        # rings; with a run id every possible name is derivable, else
        # fall back to the adverts actually exchanged (workers that
        # exited cleanly already unlinked — then this is a no-op)
        if run_id is not None:
            cleanup_rings_by_name(ring_names(run_id, n_workers))
        else:
            cleanup_rings_by_name(name for advert in adverts.values()
                                  if isinstance(advert, dict)
                                  for name in advert.values())


def _restart_worker(ctx, spec: MpRunSpec, config: Any, worker_id: int,
                    n_workers: int, workers: dict[int, tuple],
                    adverts: dict[int, Any], generations: dict[int, int],
                    run_id: str | None, run_start: float,
                    deadline: float) -> tuple:
    """Replace a dead worker in a running fleet; returns the new
    (proc, conn) pair (also installed into ``workers``)."""
    dead_proc, dead_conn = workers[worker_id]
    dead_gen = generations[worker_id]
    dead_proc.join(timeout=5.0)
    if dead_proc.is_alive():
        dead_proc.kill()
        dead_proc.join(timeout=5.0)
    try:
        dead_conn.close()
    except Exception:
        pass
    # reclaim the corpse's inbound rings before the replacement
    # recreates the same names
    if run_id is not None:
        cleanup_rings_by_name(ring_name(run_id, worker_id, src)
                              for src in range(n_workers)
                              if src != worker_id)
    elif isinstance(adverts.get(worker_id), dict):
        cleanup_rings_by_name(adverts[worker_id].values())
    # survivors must stop waiting on the dead generation (and reap its
    # locks) before the replacement starts issuing new-generation txns
    for sw, (_proc, sconn) in workers.items():
        if sw != worker_id:
            try:
                sconn.send(("peer_down", worker_id, dead_gen))
            except (BrokenPipeError, OSError):
                pass
    generations[worker_id] = dead_gen + 1
    resume_at_us = (time.monotonic() - run_start) * 1e6
    replacement = _spawn_worker(ctx, spec, config, worker_id, n_workers,
                                dead_gen + 1, resume_at_us)
    workers[worker_id] = replacement
    # private handshake: the newcomer rebuilds (workload population can
    # take a while), advertises, and gets the current fleet map
    advert = _collect(workers, {worker_id}, "port", deadline)[worker_id]
    adverts[worker_id] = advert
    replacement[1].send(("ports", dict(adverts)))
    for sw, (_proc, sconn) in workers.items():
        if sw != worker_id:
            try:
                sconn.send(("rewire", worker_id, advert, dead_gen))
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
                f"report {tag!r} (raise RunConfig.mp_run_timeout_s if the "
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
