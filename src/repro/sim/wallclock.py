"""The wall-clock world: one runtime, one cluster.

Where :class:`~repro.sim.runtime.EffectRuntime` interprets effects
against a discrete-event clock, :class:`WallClockRuntime` interprets
the identical vocabulary (``Compute``, ``Round``, ``Rpc``, ``All``,
``Await``, ``Sleep``) on an
asyncio event loop in wall-clock time.  A :class:`WorkerCluster` quacks
like :class:`~repro.sim.cluster.Cluster` — same ``servers`` /
``engine()`` / ``network.stats`` / ``sim.now`` surface — so
:class:`~repro.txn.database.Database`, every executor and the harness
run unchanged on it.

A cluster is one *worker's* view of the N servers.  Servers the worker
**owns** (``server_id % n_workers == worker_id``) are reached in-process
through ``loop.call_soon``; **foreign** servers are reached as codec
frames over the worker's transport (:mod:`repro.sim.transport`): op
descriptors for verbs, token-routed envelopes for RPCs and one-way
messages.  Nothing else distinguishes the two wall-clock backends:

* ``backend="aio"`` is this cluster with one worker that owns every
  server, no transport, and :meth:`WorkerCluster.run` driving the loop
  in the calling process;
* ``backend="mp"`` is the same classes with each worker in its own OS
  process under :mod:`repro.sim.supervisor`, which hands every worker a
  transport and drives :meth:`WorkerCluster.serving` itself.

This module imports neither sockets nor processes (linted by
``tests/sim/test_layering.py``).

What the backends guarantee:

========================  =======================  ======================
property                  sim backend              aio / mp backends
========================  =======================  ======================
clock                     simulated microseconds   wall-clock microseconds
latency                   `sim.network` constants  whatever the loop/stack
                                                   actually costs
(src, dst) FIFO           `_fifo_time` monotonic   loop callback order /
                                                   one stream per worker
                                                   pair
one-sided target CPU      none (NIC model)         target's loop turn
determinism               bit-exact per seed       scheduling-dependent
========================  =======================  ======================

Commit/abort *decisions* of contention-free programs are identical on
sim, aio and mp at every worker count (the conformance suite asserts
this); counts under contention are not bit-reproducible.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from functools import partial
from typing import Any, Callable

from ..obs.tracer import VERB_PHASES
from .cluster import Server
from .codec import (PEER_DOWN, CodecError, WireOneWay, WireRpc, WireRpcReply,
                    WireVerbReply, WireVerbs, decode_op, encode_op)
from .effects import Coroutine, OneWay
from .network import (VERB_NOMINAL_BYTES, NetworkStats, approx_payload_bytes,
                      doorbell_groups)
from .runtime import EffectRuntimeBase, _payload_kind


class AioClock:
    """Wall-clock microseconds since the cluster started running.

    Presents the slice of :class:`~repro.sim.events.Simulator` the
    database and harness layers read (``now``, ``events_fired``).
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
    """The ``doorbell_batching`` switch the executors read and the
    :class:`~repro.sim.network.NetworkStats` wire/local counters, kept
    to the same semantics as the simulated network so backend
    comparisons read one schema."""

    def __init__(self, doorbell_batching: bool = False):
        self.doorbell_batching = doorbell_batching
        self.stats = NetworkStats()


class WallClockRuntime(EffectRuntimeBase):
    """Interprets the effect vocabulary for one server of one worker.

    ``Compute`` yields the loop (cost is *recorded*, not slept — the
    wall-clock backends measure what the hardware does instead of
    modelling it); ``Sleep`` maps to ``call_later``; verbs and messages
    to owned servers run in a later loop turn, everything else is
    encoded through the wire codec and crosses the transport to the
    owning worker.  Effect *semantics* — fan-in, RPC plumbing — come
    from :class:`~repro.sim.runtime.EffectRuntimeBase`.

    Every verb travels in a ``Round`` (a lone verb is a round of one).
    The foreign verbs of one round that share a destination worker
    travel as a single ``WireVerbs`` chain, and the round resumes once
    every chain has replied and every owned verb has run.  A carrier
    detail: the round's verbs are accounted as the simulated network
    accounts them (lone or fused per target, with doorbell batching),
    so ``NetworkStats`` reads the same on every topology; only the
    bytes of a foreign chain are its frame's real size.
    """

    __slots__ = ("_cluster", "network", "cpu_us", "_pending",
                 "_next_token")

    def __init__(self, cluster: "WorkerCluster", server_id: int):
        super().__init__(server_id)
        self._cluster = cluster
        self.network = cluster.network
        self.cpu_us = 0.0
        """Accumulated Compute cost (recorded, not slept)."""
        self._pending: dict[int, tuple[Callable[[Any], None], int, Any]] = {}
        """token -> (resume, dst_worker, what to resume with if that
        worker dies), for every verb chain and RPC awaiting its reply"""
        self._next_token = 0

    # -- base-class hooks --------------------------------------------------

    def spawn(self, gen: Coroutine,
              on_done: Callable[[Any], None] | None = None,
              trace: int = 0) -> None:
        cluster = self._cluster
        if not cluster.owns(self.server_id):
            if cluster.worker_id is None:
                raise RuntimeError(
                    "an mp run's cluster drives nothing in the parent: "
                    "run it through run_benchmark / Run.run(), which "
                    "forks the workers that do")
            raise ValueError(
                f"worker {cluster.worker_id} cannot drive tasks for "
                f"foreign server {self.server_id}")
        if cluster.loop is None:  # released by WorkerCluster.serving()
            cluster._pending_spawns.append((self, gen, on_done))
        else:
            super().spawn(gen, on_done, trace)

    def _task_started(self) -> None:
        self._cluster._task_started()

    def _task_finished(self) -> None:
        self._cluster._task_finished()

    def perform(self, effect, cont) -> None:
        self._cluster.clock.events_fired += 1
        super().perform(effect, cont)

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

    def _do_round(self, effect, cont: Callable[[list], None]) -> None:
        """Owned verbs run in later loop turns; the foreign verbs bound
        for one worker leave as one chain, sent once the round is
        issued.  A foreign chain is accounted at its frame's actual
        size; owned verbs keep the model's nominal sizes, as no frame
        ever exists for them."""
        items, kind, sizes = effect.items, effect.kind, effect.sizes
        n = len(items)
        cluster = self._cluster
        loop = cluster.loop
        # one event per verb, as when each verb was its own effect
        cluster.clock.events_fired += n
        if not n:
            loop.call_soon(cont, [])
            return
        results: list[Any] = [None] * n
        remaining = n

        def run_owned(i: int, op: Callable[[], Any]) -> None:
            nonlocal remaining
            results[i] = op()
            remaining -= 1
            if not remaining:
                cont(results)

        def resume_chain(idxs: list[int], values) -> None:
            nonlocal remaining
            for i, value in zip(idxs, values):
                results[i] = value
            remaining -= len(idxs)
            if not remaining:
                cont(results)

        home = self.server_id
        batches = batched = 0
        if self.network.doorbell_batching:
            for _target, idxs, fused in doorbell_groups(home, items):
                if fused:
                    batches += 1
                    batched += len(idxs)
        local = local_bytes = remote_bytes = 0
        chains: dict[int, tuple[int, list[int], list]] = {}
        for i, (target, op) in enumerate(items):
            if cluster.owns(target):
                nbytes = sizes[i] if sizes else VERB_NOMINAL_BYTES
                if target == home:
                    local += 1
                    local_bytes += nbytes
                else:
                    remote_bytes += nbytes
                loop.call_soon(run_owned, i, op)
                continue
            worker = cluster.owner_of(target)
            chain = chains.get(worker)
            if chain is None:
                chain = chains[worker] = (target, [], [])
            chain[1].append(i)
            chain[2].append(encode_op(op, target, kind))
        for target, idxs, specs in chains.values():
            remote_bytes += self._send_chain(
                target, tuple(specs), partial(resume_chain, idxs))
        self.network.stats.record_round(
            kind, home, local, local_bytes, n - local - batched,
            remote_bytes, batches, batched)

    def _send_chain(self, target: int, specs: tuple,
                    resume: Callable[[Any], None]) -> int:
        """Send ``specs`` as one ``WireVerbs`` frame to ``target``'s
        worker; ``resume`` gets the reply's values (``PEER_DOWN`` for
        each if that worker is dead).  Returns the frame's size, 0 when
        nothing was sent."""
        token = self._expect_reply(self._cluster.owner_of(target), resume,
                                   (PEER_DOWN,) * len(specs))
        if token is None:
            return 0
        return self._cluster.transport.send(
            self.server_id, target,
            WireVerbs(token, specs, len(specs) > 1, self.current_trace))

    def _expect_reply(self, dst_worker: int, resume: Callable[[Any], None],
                      if_down: Any) -> int | None:
        """The token of a request about to leave for ``dst_worker``.  A
        dead worker gets none: instead of queueing for it, the caller
        resumes with a peer_down status and aborts (retryably)."""
        if self._cluster.peer_is_down(dst_worker):
            self._cluster.loop.call_soon(resume, if_down)
            return None
        token = self._next_token
        self._next_token += 1
        self._pending[token] = (resume, dst_worker, if_down)
        return token

    # -- messages ----------------------------------------------------------

    def send_rpc(self, effect, cont: Callable[[Any], None]) -> None:
        target = effect.target
        if self._cluster.owns(target):
            super().send_rpc(effect, cont)
            return
        token = self._expect_reply(self._cluster.owner_of(target), cont,
                                   PEER_DOWN)
        if token is not None:
            sent = self._cluster.transport.send(
                self.server_id, target,
                WireRpc(token, effect.payload, self.current_trace))
            self.network.stats.record_message(
                _payload_kind(effect.payload, "rpc"), sent, remote=True,
                server=self.server_id)

    def post(self, target: int, payload: Any,
             nbytes: int | None = None) -> None:
        if self._cluster.owns(target):
            super().post(target, payload, nbytes)
            return
        if self._cluster.peer_is_down(self._cluster.owner_of(target)):
            return  # one-way to a dead worker: dropped, like the wire would
        sent = self._cluster.transport.send(self.server_id, target,
                                            WireOneWay(payload))
        self.network.stats.record_message(_payload_kind(payload, "one_way"),
                                          sent, remote=True,
                                          server=self.server_id)

    def send_payload(self, target: int, payload: Any, kind: str,
                     size_of: Any, nbytes: int | None = None) -> None:
        # Only in-process plumbing wrappers (RPC request/reply objects
        # carrying live continuations) reach this hook; cross-worker
        # traffic goes through the wire forms above.
        if nbytes is None:
            nbytes = approx_payload_bytes(size_of)
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
                WireVerbReply(wire.token, tuple(values), wire.batched))
        elif isinstance(wire, (WireVerbReply, WireRpcReply)):
            # no entry: a reply meant for this worker's dead predecessor
            entry = self._pending.pop(wire.token, None)
            if entry is not None:
                entry[0](wire.values if isinstance(wire, WireVerbReply)
                         else wire.value)
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
                    self.server_id, requester, WireRpcReply(token, value))
                self.network.stats.record_message(
                    "rpc_reply", sent, remote=True, server=self.server_id)

            self.spawn(self.rpc_handler(src, wire.payload), on_done=reply,
                       trace=wire.trace)
        elif isinstance(wire, WireOneWay):
            self.on_message(src, OneWay(wire.payload))
        else:
            raise TypeError(f"unexpected wire payload {wire!r}")

    def resolve_peer_pendings(self, worker: int) -> None:
        """Complete every in-flight request addressed to a dead worker
        with PEER_DOWN, so no coordinator hangs on a reply that will
        never come (the commit FSM turns the status into a retryable
        abort)."""
        for token in [t for t, e in self._pending.items()
                      if e[1] == worker]:
            resume, _worker, if_down = self._pending.pop(token)
            self._cluster.loop.call_soon(resume, if_down)


class _NoWire:
    """Transport of a worker that owns every server: nothing to carry,
    so always idle (a ``send`` would be a routing bug and is absent)."""

    async def start(self, loop: asyncio.AbstractEventLoop) -> None:
        pass

    async def stop(self) -> None:
        pass

    def idle(self) -> bool:
        return True


class WorkerCluster:
    """One worker's view of the N-server cluster.

    Presents the full ``servers`` / ``engine()`` / ``network`` / ``sim``
    surface so the database layer wires storage and RPC dispatch for
    every server — but only the servers this worker *owns* execute
    anything; its copies of foreign partitions are never touched.
    Spawns before the loop is up are buffered and released by
    :meth:`serving`.

    ``worker_id=None`` builds an *unbound* cluster: the one an mp run is
    built over in the parent.  It owns no server, so it drives nothing;
    each forked worker binds its inherited copy (:meth:`bind`).
    """

    def __init__(self, n_servers: int, doorbell_batching: bool = False,
                 *, worker_id: int | None = 0, n_workers: int = 1,
                 run_timeout_s: float | None = 120.0):
        if not (n_workers <= n_servers and (
                worker_id is None or 0 <= worker_id < n_workers)):
            raise ValueError(f"bad worker topology: worker {worker_id} of "
                             f"{n_workers} over {n_servers} servers")
        self.n_workers = n_workers
        self.worker_id = worker_id
        self.generation = 0
        """Restart count of this worker slot: 0 for an original spawn,
        incremented each time the supervisor respawns it after a death."""
        self.clock = AioClock()
        self.sim = self.clock  # Database/harness read .sim.now
        self.network = AioNetwork(doorbell_batching)
        self.transport: Any = _NoWire()
        self.run_timeout_s = run_timeout_s
        """Hang guard of the in-process :meth:`run` (the supervisor
        bounds mp runs from the parent instead)."""
        self.on_tick: Callable[[], Any] | None = None
        """Observer called every ``tick_interval_s`` of wall clock while
        the loop runs (the metrics timeline samples here).  An exception
        from it is fatal to the run, so a health-watchdog abort
        propagates out of :meth:`run`."""
        self.tick_interval_s: float | None = None
        self.metrics_sampler = None
        """Timeline sampler the mp bench driver installs; the
        supervisor's worker loop ships its rows to the parent."""
        self.metrics_endpoint: Any = None
        """Live metrics endpoint of an aio run
        (:class:`~repro.obs.MetricsHttpServer`, listening): the loop
        answers it while it runs and closes it on the way out."""
        self.loop: asyncio.AbstractEventLoop | None = None
        self._pending_spawns: list[tuple] = []
        self._active = 0
        self._idle: asyncio.Event | None = None
        self._error: BaseException | None = None
        self._tick_handle: asyncio.TimerHandle | None = None
        self.recovery_enabled = False
        self.resume_at_us = 0.0
        self.bind_hooks: list[Callable[[], Any]] = []
        """Called once :meth:`bind` gives the cluster its identity (the
        database layer opens the logs of the servers it now owns)."""
        self.peer_down_hooks: list[Callable] = []
        """Called as ``hook(worker, dead_generation)`` when a peer dies
        (the database layer reaps the dead generation's locks here)."""
        self._down_workers: set[int] = set()
        self.servers = [Server(i, WallClockRuntime(self, i))
                        for i in range(n_servers)]

    def __len__(self) -> int:
        return len(self.servers)

    def server(self, server_id: int) -> Server:
        return self.servers[server_id]

    def engine(self, server_id: int) -> WallClockRuntime:
        return self.servers[server_id].engine

    # -- topology ----------------------------------------------------------

    def bind(self, worker_id: int, generation: int = 0,
             resume_at_us: float = 0.0) -> None:
        """Give an unbound cluster its worker identity: what a forked mp
        worker does first with the cluster it inherited from the
        parent's build.  ``generation`` counts the slot's restarts and
        ``resume_at_us`` starts a respawn's clock at the fleet's elapsed
        time.  Traffic counts start from zero: the parent folds each
        finished fleet's into its own stats, which the next fleet forks
        from."""
        if self.worker_id is not None:
            raise RuntimeError(f"the cluster is already worker "
                               f"{self.worker_id}'s")
        if not 0 <= worker_id < self.n_workers:
            raise ValueError(f"no worker {worker_id} of {self.n_workers}")
        self.worker_id = worker_id
        self.generation = generation
        self.resume_at_us = resume_at_us
        self.network.stats = NetworkStats()
        for hook in self.bind_hooks:
            hook()

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
            self.transport.fail_peer(worker)
            for server in self.servers:
                if self.owns(server.id):
                    server.engine.resolve_peer_pendings(worker)
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
        self.transport.rewire(worker, advert)
        for hook in self.peer_down_hooks:
            hook(worker, dead_generation)

    # -- task latch & spawning ---------------------------------------------

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
        self.loop.call_soon(self.engine(dst).on_message, src, payload)

    def _deliver_wire(self, dst: int, src: int, wire: Any) -> None:
        if not self.owns(dst):
            self._fatal(RuntimeError(
                f"worker {self.worker_id} received a frame for foreign "
                f"server {dst} (routing bug)"))
            return
        try:
            self.engine(dst).on_transport(src, wire)
        except BaseException as exc:  # noqa: BLE001 - fatal for the run
            self._fatal(exc)

    def _fatal(self, exc: BaseException) -> None:
        if self._error is None:
            self._error = exc
        if self._idle is not None:
            self._idle.set()  # wake _drain so the driver can re-raise

    def _loop_exception(self, loop: asyncio.AbstractEventLoop,
                        context: dict) -> None:
        # callback exceptions (an op, message handler or continuation
        # raising, the tick observer aborting the run) land here
        self._fatal(context.get("exception")
                    or RuntimeError(context.get("message",
                                                "event loop error")))

    def _tick(self) -> None:
        if self.on_tick is None:
            return  # observer detached: stop rescheduling
        self.on_tick()  # raising is fatal (and stops the rescheduling)
        self._tick_handle = self.loop.call_later(self.tick_interval_s,
                                                 self._tick)

    # -- driving -----------------------------------------------------------

    @contextlib.asynccontextmanager
    async def serving(self, transport: Any = None):
        """Bring the worker up on the running loop — latch, failure
        routing, transport, metrics endpoint, clock, tick observer,
        buffered spawns — and take it down again on the way out.  The
        one loop set-up both :meth:`run` and the supervisor's worker
        loop use."""
        self.loop = loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._error = None
        # a previous aborted run may have left tasks that can never
        # finish (their continuations died with that run's loop); the
        # latch tracks only this run's work
        self._active = 0
        loop.set_exception_handler(self._loop_exception)
        if transport is not None:
            self.transport = transport
        try:
            await self.transport.start(loop)
            if self.metrics_endpoint is not None:
                await self.metrics_endpoint.serve()
            # a respawned generation rejoins the fleet's elapsed
            # timeline instead of re-admitting a full horizon from zero
            self.clock.start(self.resume_at_us)
            if self.on_tick is not None and self.tick_interval_s:
                self._tick_handle = loop.call_later(self.tick_interval_s,
                                                    self._tick)
            pending, self._pending_spawns = self._pending_spawns, []
            for runtime, gen, on_done in pending:
                runtime.spawn(gen, on_done)
            if self._active == 0:
                self._idle.set()
            yield
        finally:
            if self._tick_handle is not None:
                self._tick_handle.cancel()
                self._tick_handle = None
            if self.metrics_endpoint is not None:
                self.metrics_endpoint.stop()
            await self.transport.stop()
            self.loop = None

    def run(self) -> None:
        """Run the loop in the calling process until all spawned work
        (and everything it spawned, RPC handlers included) completes."""
        if self.worker_id is None or self.n_workers != 1:
            raise RuntimeError("an mp cluster is driven by the supervisor's "
                               "worker processes, not run(); drive mp runs "
                               "through run_benchmark / Run.run() in the "
                               "parent")
        asyncio.run(self._main())

    async def _main(self) -> None:
        async with self.serving():
            await asyncio.wait_for(self._drain(), self.run_timeout_s)
        if self._error is not None:
            raise self._error

    async def _drain(self) -> None:
        """Local quiescence: no active task after settling, transport
        outbound flushed.

        The latch can transiently read zero while a fire-and-forget
        message is in a ``call_soon`` hop (its handler task has not
        spawned yet), so quiescence requires the latch still zero after
        yielding to pending deliveries.  A recorded fatal error ends
        the drain immediately; the driver re-raises it.
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
