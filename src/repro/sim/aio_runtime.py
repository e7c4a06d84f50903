"""Asyncio execution backend: the same effects over real event loops.

Where :class:`~repro.sim.runtime.EffectRuntime` interprets effects
against a discrete-event clock, :class:`AsyncioEffectRuntime` interprets
the identical vocabulary (``Compute``, ``OneSided``, ``BatchedOneSided``,
``Rpc``, ``All``, ``Await``, ``Sleep``) on an asyncio event loop in
*wall-clock* time.  An :class:`AioCluster` quacks exactly like
:class:`~repro.sim.cluster.Cluster` — same ``servers`` / ``engine()`` /
``network.stats`` / ``sim.now`` surface — so :class:`~repro.txn.database.
Database`, every executor, and the benchmark harness run unchanged on
either backend (``RunConfig(backend="aio")``).

Two transports move payloads between servers:

* :class:`LoopbackTransport` — in-loop delivery via ``call_soon``.
  Hermetic (no sockets), used by the tier-1 conformance suite.  FIFO is
  inherited from the loop's callback queue, which is strictly ordered.
* :class:`TcpTransport` — one real asyncio TCP connection per ordered
  (src, dst) server pair on localhost, carrying a length-prefixed pickle
  wire protocol.  FIFO per channel follows from TCP byte ordering plus a
  single writer/reader task pair per connection.

**Codec frames and the escrow fallback.**  Everything the wire codec
(:mod:`repro.sim.codec`) covers — one-sided verbs emitted as
:class:`~repro.sim.codec.OpDescriptor` data, verb replies, one-way
replication messages — is *really serialized*: the TCP transport
pickles the wire form into the frame and the receiving server re-binds
descriptors to its dispatch context, the same codec path the
multiprocess backend (:mod:`repro.sim.mp_runtime`) uses across real
process boundaries.  The in-process **escrow** stays only as a
documented fallback for genuinely local payloads: RPC request/reply
wrappers carry live continuations (meaningless outside this process),
and raw-closure verbs from effect-level tests never claim to be
shippable.  Escrow frames still cross the socket (length prefix +
pickled ``(src, token, padding)``) with the object riding an in-process
table keyed by token; either way frames are padded to the accounted
payload bytes, so real wire traffic tracks the traffic model.

What the backends guarantee:

========================  =======================  ======================
property                  sim backend              aio backend
========================  =======================  ======================
clock                     simulated microseconds   wall-clock microseconds
latency                   NetworkConfig constants  whatever the loop/stack
                                                   actually costs
(src, dst) FIFO           `_fifo_time` monotonic   loop callback order /
                                                   TCP stream order
one-sided target CPU      none (NIC model)         target's loop turn
determinism               bit-exact per seed       scheduling-dependent
========================  =======================  ======================
"""

from __future__ import annotations

import asyncio
import pickle
import time
from typing import Any, Callable, Sequence

from .cluster import Server
from .codec import (WIRE_PICKLE_PROTOCOL, OpDescriptor, WireOneWay,
                    WireVerbReply, WireVerbs, decode_op)
from .effects import Coroutine, OneWay
from .network import VERB_NOMINAL_BYTES, NetworkConfig, NetworkStats
from .runtime import EffectRuntimeBase

_LENGTH_BYTES = 8
"""Wire frames are ``len(body).to_bytes(8, 'big') + body``."""

_FRAME_OVERHEAD = 48
"""Approximate pickled size of an empty frame; padding tops frames up to
the accounted payload size beyond this."""


class AioClock:
    """Wall-clock microseconds since the cluster started running.

    Presents the slice of :class:`~repro.sim.events.Simulator` the
    database and harness layers read (``now``, ``events_fired``) so a
    :class:`AioCluster` can stand in for a simulated one.
    """

    def __init__(self) -> None:
        self._t0: float | None = None
        self.events_fired = 0

    def start(self, offset_us: float = 0.0) -> None:
        """(Re)zero the clock.  Called at every run start, so a reused
        cluster admits a full horizon again instead of inheriting the
        wall time that passed since the previous run.  ``offset_us``
        starts the clock mid-run: a restarted mp worker resumes at the
        fleet's elapsed time instead of re-admitting a full horizon."""
        self._t0 = time.perf_counter() - offset_us / 1e6

    @property
    def now(self) -> float:
        if self._t0 is None:
            return 0.0
        return (time.perf_counter() - self._t0) * 1e6


class AioNetwork:
    """Traffic model + accounting shared by every server's runtime.

    The transport moves payloads; this object holds the
    :class:`~repro.sim.network.NetworkConfig` knobs the executors read
    (doorbell batching, payload accounting) and the
    :class:`~repro.sim.network.NetworkStats` wire/local counters, kept
    to the same semantics as the simulated network so backend
    comparisons read one schema.
    """

    def __init__(self, config: NetworkConfig | None = None):
        self.config = config or NetworkConfig()
        self.stats = NetworkStats()


class AioTransport:
    """Moves a Python payload from server ``src`` to server ``dst``.

    Delivery must be FIFO per ordered (src, dst) pair and must invoke
    the destination's registered callback from the event loop (never
    reentrantly within ``send``).  Internal transport failures (socket
    errors, framing bugs) are reported through :attr:`on_error` so the
    owning cluster can abort the run instead of hanging on a frame that
    will never arrive.
    """

    on_error: Callable[[BaseException], None] | None = None

    def _fail(self, exc: BaseException) -> None:
        if self.on_error is not None:
            self.on_error(exc)
        else:
            raise exc

    def register(self, server_id: int,
                 deliver: Callable[[int, Any], None],
                 binder: Callable[[OpDescriptor], OpDescriptor] | None = None,
                 ) -> None:
        """Install ``server_id``'s delivery callback.

        ``binder`` re-binds op descriptors that arrived as codec frames
        to the receiving server's dispatch context; transports without a
        serialization boundary may ignore it.
        """
        raise NotImplementedError

    async def start(self, loop: asyncio.AbstractEventLoop) -> None:
        raise NotImplementedError

    def send(self, src: int, dst: int, payload: Any, nbytes: int) -> None:
        raise NotImplementedError

    def idle(self) -> bool:
        """True when no accepted frame is still waiting to be delivered."""
        raise NotImplementedError

    async def stop(self) -> None:
        raise NotImplementedError


class LoopbackTransport(AioTransport):
    """In-loop delivery: ``call_soon`` is the wire.

    The event loop's callback queue is strictly FIFO, so this preserves
    per-channel ordering (indeed a stronger global order).  No sockets,
    no serialization — the hermetic transport the tier-1 suite uses.
    """

    def __init__(self) -> None:
        self._deliver: dict[int, Callable[[int, Any], None]] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._in_flight = 0
        self.frames_sent = 0

    def register(self, server_id: int,
                 deliver: Callable[[int, Any], None],
                 binder: Callable[[OpDescriptor], OpDescriptor] | None = None,
                 ) -> None:
        # no serialization boundary: payloads (descriptors included)
        # arrive as the very objects that were sent, so no re-binding
        self._deliver[server_id] = deliver

    async def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    def send(self, src: int, dst: int, payload: Any, nbytes: int) -> None:
        if self._loop is None:
            raise RuntimeError("transport not started (is the cluster "
                               "running?)")
        deliver = self._deliver[dst]
        self.frames_sent += 1
        self._in_flight += 1

        def _arrive() -> None:
            self._in_flight -= 1
            deliver(src, payload)

        self._loop.call_soon(_arrive)

    def idle(self) -> bool:
        return self._in_flight == 0

    async def stop(self) -> None:
        self._in_flight = 0  # frames stranded by an aborted run
        self._loop = None


class _CloseChannel:
    """Sentinel asking a channel writer task to flush and exit."""


class TcpTransport(AioTransport):
    """Real asyncio TCP sockets on localhost, one per (src, dst) pair.

    Every server runs an ``asyncio.start_server`` acceptor on an
    ephemeral port; the first send on an ordered pair lazily opens that
    channel's connection, and a per-channel queue + writer task keeps
    sends FIFO even while the connection is still being established.
    Frames are length-prefixed pickles.  Codec-covered payloads (see
    module docstring) are pickled *into* the frame and decoded — with
    descriptors re-bound via the destination's ``binder`` — at the
    receiving server; everything else rides the escrow.  Frames are
    padded to the accounted size either way.
    """

    def __init__(self, host: str = "127.0.0.1"):
        self._host = host
        self._deliver: dict[int, Callable[[int, Any], None]] = {}
        self._binders: dict[int, Callable[[OpDescriptor], OpDescriptor]] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._servers: dict[int, asyncio.AbstractServer] = {}
        self._ports: dict[int, int] = {}
        self._queues: dict[tuple[int, int], asyncio.Queue] = {}
        self._writers: dict[tuple[int, int], asyncio.Task] = {}
        self._escrow: dict[int, Any] = {}
        self._in_flight = 0
        self._next_token = 0
        self.frames_sent = 0
        self.codec_frames_sent = 0
        """Frames whose payload really serialized (no escrow entry)."""

        self.wire_bytes_sent = 0

    def register(self, server_id: int,
                 deliver: Callable[[int, Any], None],
                 binder: Callable[[OpDescriptor], OpDescriptor] | None = None,
                 ) -> None:
        self._deliver[server_id] = deliver
        if binder is not None:
            self._binders[server_id] = binder

    async def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        for server_id in self._deliver:
            server = await asyncio.start_server(
                lambda r, w, sid=server_id: self._serve(sid, r, w),
                self._host, 0)
            self._servers[server_id] = server
            self._ports[server_id] = server.sockets[0].getsockname()[1]

    # -- sending ---------------------------------------------------------

    def send(self, src: int, dst: int, payload: Any, nbytes: int) -> None:
        if self._loop is None:
            raise RuntimeError("transport not started (is the cluster "
                               "running?)")
        body = _codec_body(payload)
        if body is not None:
            item: tuple = (src, _MODE_CODEC, body)
            self.codec_frames_sent += 1
        else:
            token = self._next_token
            self._next_token += 1
            self._escrow[token] = payload
            item = (src, _MODE_ESCROW, token)
        self._in_flight += 1
        pad = b"\x00" * max(0, nbytes - _FRAME_OVERHEAD)
        channel = (src, dst)
        queue = self._queues.get(channel)
        if queue is None:
            queue = asyncio.Queue()
            self._queues[channel] = queue
            self._writers[channel] = self._loop.create_task(
                self._write_channel(dst, queue))
        queue.put_nowait(item + (pad,))

    async def _write_channel(self, dst: int, queue: asyncio.Queue) -> None:
        writer = None
        try:
            reader, writer = await asyncio.open_connection(
                self._host, self._ports[dst])
            closing = False
            while not closing:
                items = [await queue.get()]
                # coalesce whatever queued while we awaited/drained into
                # one write: one syscall batch instead of one per frame
                while True:
                    try:
                        items.append(queue.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                pieces = []
                for item in items:
                    if item is _CloseChannel:
                        closing = True
                        break
                    body = pickle.dumps(item, protocol=WIRE_PICKLE_PROTOCOL)
                    pieces.append(len(body).to_bytes(_LENGTH_BYTES, "big"))
                    pieces.append(body)
                if pieces:
                    batch = b"".join(pieces)
                    writer.write(batch)
                    self.frames_sent += len(pieces) // 2
                    self.wire_bytes_sent += len(batch)
                    await writer.drain()
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # a dead writer strands every frame queued behind it; abort
            # the run instead of letting quiescence wait forever
            self._fail(exc)
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    # -- receiving -------------------------------------------------------

    async def _serve(self, dst: int, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        deliver = self._deliver[dst]
        try:
            while True:
                header = await reader.readexactly(_LENGTH_BYTES)
                length = int.from_bytes(header, "big")
                body = await reader.readexactly(length)
                src, mode, value, _pad = pickle.loads(body)
                if mode == _MODE_CODEC:
                    payload = _payload_from_wire(pickle.loads(value),
                                                 self._binders.get(dst))
                else:
                    payload = self._escrow.pop(value)
                try:
                    deliver(src, payload)
                finally:
                    self._in_flight -= 1
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # peer closed the channel (normal at shutdown)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail(exc)  # framing/escrow corruption: abort the run
        finally:
            writer.close()

    def idle(self) -> bool:
        return (self._in_flight == 0
                and all(q.empty() for q in self._queues.values()))

    async def stop(self) -> None:
        for queue in self._queues.values():
            queue.put_nowait(_CloseChannel)
        if self._writers:
            await asyncio.gather(*self._writers.values(),
                                 return_exceptions=True)
        for server in self._servers.values():
            server.close()
            await server.wait_closed()
        self._queues.clear()
        self._writers.clear()
        self._escrow.clear()  # frames stranded by an aborted run
        self._in_flight = 0
        self._loop = None


# -- transport-level payloads -------------------------------------------------

class _VerbRequest:
    """One-sided verb chain: run ``ops`` at the target, reply with results.

    ``batched=True`` marks a fused doorbell chain (the continuation
    expects the list); a plain verb resumes with the single value.
    """

    __slots__ = ("token", "ops", "batched")

    def __init__(self, token: int, ops: tuple, batched: bool):
        self.token = token
        self.ops = ops
        self.batched = batched


class _VerbReply:
    __slots__ = ("token", "values", "batched")

    def __init__(self, token: int, values: list, batched: bool):
        self.token = token
        self.values = values
        self.batched = batched


# -- codec framing (shared wire forms from repro.sim.codec) -------------------

_MODE_ESCROW = 0
_MODE_CODEC = 1


def _payload_to_wire(payload: Any) -> Any:
    """The codec wire form of a transport payload, or None if only the
    escrow can carry it (RPC wrappers hold live continuations; verb
    requests may carry raw local closures)."""
    if isinstance(payload, _VerbRequest):
        if all(isinstance(op, OpDescriptor) for op in payload.ops):
            return WireVerbs(payload.token,
                             tuple(op.spec() for op in payload.ops),
                             payload.batched)
        return None
    if isinstance(payload, _VerbReply):
        return WireVerbReply(payload.token, tuple(payload.values),
                             payload.batched)
    if isinstance(payload, OneWay):
        return WireOneWay(payload.payload)
    return None


def _codec_body(payload: Any) -> bytes | None:
    """Really serialize ``payload`` if the codec covers it *and* its
    contents pickle; unpicklable contents (e.g. a verb reply carrying an
    arbitrary test object) fall back to the escrow — in one process
    that is always legal."""
    wire = _payload_to_wire(payload)
    if wire is None:
        return None
    try:
        return pickle.dumps(wire, protocol=WIRE_PICKLE_PROTOCOL)
    except Exception:
        return None


def _payload_from_wire(wire: Any, binder) -> Any:
    if isinstance(wire, WireVerbs):
        ops = tuple(decode_op(spec) for spec in wire.specs)
        if binder is not None:
            ops = tuple(binder(op) for op in ops)
        return _VerbRequest(wire.token, ops, wire.batched)
    if isinstance(wire, WireVerbReply):
        return _VerbReply(wire.token, list(wire.values), wire.batched)
    if isinstance(wire, WireOneWay):
        return OneWay(wire.payload)
    raise TypeError(f"unexpected codec wire payload {wire!r}")


class AsyncioEffectRuntime(EffectRuntimeBase):
    """Interprets the effect vocabulary on an asyncio event loop.

    ``Compute`` yields the loop (cost is *recorded*, not slept — the aio
    backend measures what the hardware actually does instead of modeling
    it); ``Sleep`` maps to ``call_later``; verbs and messages cross the
    cluster's transport and execute in the target server's loop turn,
    the socket-world analogue of a one-sided NIC access.  All effect
    *semantics* — fan-in, batching grouping, RPC plumbing — come from
    :class:`~repro.sim.runtime.EffectRuntimeBase`, so both backends
    cannot disagree on what an effect means.
    """

    __slots__ = ("_cluster", "network", "cpu_us", "_pending", "_next_token")

    def __init__(self, cluster: "AioCluster", server_id: int):
        super().__init__(server_id)
        self._cluster = cluster
        self.network = cluster.network
        self.cpu_us = 0.0
        """Accumulated Compute cost (recorded, not slept)."""

        self._pending: dict[int, tuple[Callable, bool]] = {}
        self._next_token = 0

    # -- base-class hooks -------------------------------------------------

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

    # -- verbs ------------------------------------------------------------

    def _one_sided(self, target: int, op: Callable[[], Any],
                   cont: Callable[[Any], None],
                   kind: str, nbytes: int | None) -> None:
        remote = target != self.server_id
        self.network.stats.record_one_sided(kind, nbytes, remote=remote,
                                            server=self.server_id)
        if not remote:
            self._cluster.loop.call_soon(lambda: cont(op()))
            return
        self._dispatch_verbs(
            target, (op,), cont, batched=False,
            nbytes=VERB_NOMINAL_BYTES if nbytes is None else nbytes)

    def _one_sided_batch(self, target: int,
                         ops: Sequence[Callable[[], Any]],
                         cont: Callable[[list], None],
                         kinds: list[tuple[str, int | None]]) -> None:
        total = self.network.stats.record_batch(kinds,
                                                server=self.server_id)
        self._dispatch_verbs(target, tuple(ops), cont, batched=True,
                             nbytes=total)

    def _dispatch_verbs(self, target: int, ops: tuple,
                        cont: Callable, batched: bool,
                        nbytes: int) -> None:
        token = self._next_token
        self._next_token += 1
        self._pending[token] = (cont, batched)
        self._cluster.transport.send(
            self.server_id, target, _VerbRequest(token, ops, batched),
            nbytes)

    # -- messages ---------------------------------------------------------

    def send_payload(self, target: int, payload: Any, kind: str,
                     size_of: Any, nbytes: int | None = None) -> None:
        if nbytes is None:
            nbytes = self.network.config.message_bytes(size_of)
        self.network.stats.record_message(kind, nbytes,
                                          remote=target != self.server_id,
                                          server=self.server_id)
        self._cluster.transport.send(self.server_id, target, payload,
                                     nbytes)

    def on_transport(self, src: int, payload: Any) -> None:
        """Transport delivery entry point for this server."""
        if isinstance(payload, _VerbRequest):
            values = [op() for op in payload.ops]
            self._cluster.transport.send(
                self.server_id, src,
                _VerbReply(payload.token, values, payload.batched),
                VERB_NOMINAL_BYTES)
            return
        if isinstance(payload, _VerbReply):
            cont, batched = self._pending.pop(payload.token)
            cont(payload.values if batched else payload.values[0])
            return
        self.on_message(src, payload)


def _runtime_binder(runtime: "AsyncioEffectRuntime"):
    """Re-bind descriptors decoded from codec frames to the receiving
    server's dispatch context (installed by the database layer)."""
    def bind(op: OpDescriptor) -> OpDescriptor:
        return op.bind(runtime.dispatch_context)
    return bind


class AioEngine:
    """Per-server facade over one :class:`AsyncioEffectRuntime`.

    Mirrors :class:`~repro.sim.coroutines.Engine`'s surface (``spawn``,
    ``post``, ``set_rpc_handler``, ``active_tasks``) so the database
    layer wires RPC dispatch identically on both backends.
    """

    def __init__(self, cluster: "AioCluster", server_id: int):
        self.server_id = server_id
        self._cluster = cluster
        self.runtime = AsyncioEffectRuntime(cluster, server_id)

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


class AioCluster:
    """N asyncio servers sharing one loop, one transport, one clock.

    Drop-in for :class:`~repro.sim.cluster.Cluster`: ``servers`` /
    ``server()`` / ``engine()`` / ``network`` / ``sim`` present the same
    surface, with ``sim.now`` reading wall-clock microseconds.  Spawns
    before :meth:`run` are buffered and released once the loop and
    transport are up; :meth:`run` returns when every spawned coroutine
    (and everything they spawned, RPC handlers included) has finished
    and the transport has no frame in flight.
    """

    def __init__(self, n_servers: int,
                 config: NetworkConfig | None = None,
                 transport: AioTransport | str = "loopback",
                 run_timeout_s: float | None = 120.0):
        if n_servers <= 0:
            raise ValueError("cluster needs at least one server")
        self.clock = AioClock()
        self.sim = self.clock  # Database/harness read .sim.now
        self.network = AioNetwork(config)
        if isinstance(transport, str):
            if transport == "loopback":
                transport = LoopbackTransport()
            elif transport == "tcp":
                transport = TcpTransport()
            else:
                raise ValueError(f"unknown aio transport {transport!r}")
        self.transport = transport
        self.run_timeout_s = run_timeout_s
        self.on_tick: Callable[[], Any] | None = None
        """Observer called every ``tick_interval_s`` of wall clock
        while the loop runs (the metrics timeline sampler installs
        itself here).  An exception from it is fatal to the run, so a
        health watchdog abort propagates out of :meth:`run`."""
        self.tick_interval_s: float | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._pending_spawns: list[tuple] = []
        self._active = 0
        self._idle: asyncio.Event | None = None
        self._error: BaseException | None = None
        self.transport.on_error = self._fatal
        self.servers = [Server(i, AioEngine(self, i))
                        for i in range(n_servers)]
        for server in self.servers:
            runtime = server.engine.runtime
            self.transport.register(
                server.id,
                self._guarded(runtime.on_transport),
                binder=_runtime_binder(runtime))

    def __len__(self) -> int:
        return len(self.servers)

    def server(self, server_id: int) -> Server:
        return self.servers[server_id]

    def engine(self, server_id: int) -> AioEngine:
        return self.servers[server_id].engine

    # -- task latch --------------------------------------------------------

    def _spawn(self, runtime: AsyncioEffectRuntime, gen: Coroutine,
               on_done: Callable[[Any], None] | None) -> None:
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

    # -- failure propagation ------------------------------------------------

    def _guarded(self, deliver: Callable[[int, Any], None],
                 ) -> Callable[[int, Any], None]:
        """Route delivery-time exceptions (a verb op raising at the
        target, a task stepping onto a bug) into :meth:`_fatal` so they
        abort the run like the simulator's do, instead of being
        swallowed by the loop or killing a transport reader task."""
        def guarded(src: int, payload: Any) -> None:
            try:
                deliver(src, payload)
            except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                self._fatal(exc)
        return guarded

    def _fatal(self, exc: BaseException) -> None:
        if self._error is None:
            self._error = exc
        if self._idle is not None:
            self._idle.set()  # wake _drain so run() can re-raise

    # -- driving -----------------------------------------------------------

    def run(self, max_events: int | None = None) -> None:
        """Run the event loop until all spawned work completes.

        ``max_events`` exists for signature compatibility with the
        simulated cluster and is not supported here.
        """
        if max_events is not None:
            raise ValueError("max_events is a simulator concept; the "
                             "asyncio backend runs to completion")
        asyncio.run(self._main())

    def run_until_complete(self) -> None:
        self.run()

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._error = None
        # a previous aborted run may have left tasks that can never
        # finish (their continuations died with that run's loop); the
        # latch tracks only this run's work
        self._active = 0
        # callback exceptions (Compute/Sleep continuations stepping onto
        # a bug) land in the loop's handler; treat them as fatal too
        self.loop.set_exception_handler(self._loop_exception)
        tick_handle: asyncio.TimerHandle | None = None
        try:
            await self.transport.start(self.loop)
            self.clock.start()
            if self.on_tick is not None and self.tick_interval_s:
                def _tick() -> None:
                    nonlocal tick_handle
                    try:
                        self.on_tick()
                    except BaseException as exc:  # noqa: BLE001
                        self._fatal(exc)
                        return
                    tick_handle = self.loop.call_later(
                        self.tick_interval_s, _tick)
                tick_handle = self.loop.call_later(
                    self.tick_interval_s, _tick)
            pending, self._pending_spawns = self._pending_spawns, []
            for runtime, gen, on_done in pending:
                runtime.spawn(gen, on_done)
            if self._active == 0:
                self._idle.set()
            if self.run_timeout_s is None:
                await self._drain()
            else:
                await asyncio.wait_for(self._drain(), self.run_timeout_s)
        finally:
            if tick_handle is not None:
                tick_handle.cancel()
            await self.transport.stop()
            self.loop = None
            self._idle = None
        if self._error is not None:
            raise self._error

    def _loop_exception(self, loop: asyncio.AbstractEventLoop,
                        context: dict) -> None:
        self._fatal(context.get("exception")
                    or RuntimeError(context.get("message",
                                                "event loop error")))

    async def _drain(self) -> None:
        """Wait until no task is active and no frame is in flight.

        The latch can transiently read zero while a fire-and-forget
        message is crossing the transport (its handler task has not
        spawned yet), so quiescence requires the transport idle *and*
        the latch still zero after yielding to pending deliveries.  A
        recorded fatal error ends the drain immediately; :meth:`_main`
        re-raises it.
        """
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
