"""Effect interpretation runtimes: how yielded effects get scheduled.

:class:`EffectRuntimeBase` owns everything between a coroutine yielding
an :class:`~repro.sim.effects.Effect` and that coroutine being resumed
with the result: task bookkeeping, effect dispatch, fan-out/fan-in for
:class:`~repro.sim.effects.All`, and RPC request/reply plumbing.  Those
are *semantics* shared by every backend; only the primitive operations
— run CPU work, move a round of verbs or a message, defer a
continuation — differ between a simulated cluster and a real transport.
Backends implement the small ``_do_*`` / ``_send_payload`` surface:

* :class:`EffectRuntime` (this module) interprets effects over the
  discrete-event :class:`~repro.sim.events.Simulator`, a
  :class:`~repro.sim.cpu.Core`, and the RDMA-flavoured
  :class:`~repro.sim.network.Network`.
* :class:`~repro.sim.wallclock.WallClockRuntime` interprets the same
  vocabulary over an asyncio event loop — wall-clock time instead of
  simulated microseconds, in-process (aio) or one worker per OS process
  (mp).

**Rounds.**  Every one-sided verb travels in a
:class:`~repro.sim.effects.Round`: the transaction layers yield each
parallel round of verbs as one, and a lone verb as a round of one.  The
backend turns it into traffic in one call (``_do_round``, its only verb
primitive): :class:`EffectRuntime` hands it to
:meth:`~repro.sim.network.Network.round`, the wall-clock runtime builds
one wire chain per destination worker.  **Doorbell batching** is that
call's decision too.  Real RDMA NICs let a sender post a chain of work
requests with a single doorbell; the NIC processes them back-to-back
and raises one completion.  With
:attr:`~repro.sim.network.Network.doorbell_batching` enabled, the verbs
of a round that share a remote target (two or more) cost one fused
round trip; :func:`~repro.sim.network.doorbell_groups` is that rule,
and both runtimes apply it.  With the knob off (the default) every verb
is issued individually, byte-for-byte reproducing the unbatched
simulation.
"""

from __future__ import annotations

from typing import Any, Callable

from ..obs.tracer import NOOP_TRACER
from .cpu import Core
from .effects import (All, Await, Compute, Coroutine, Effect, OneWay, Round,
                      Rpc, Sleep)
from .events import Simulator
from .network import Network


class _Task:
    __slots__ = ("gen", "on_done", "trace")

    def __init__(self, gen: Coroutine, on_done: Callable[[Any], None] | None,
                 trace: int = 0):
        self.gen = gen
        self.on_done = on_done
        self.trace = trace


def _payload_kind(payload: Any, default: str) -> str:
    """Traffic-accounting kind of an application payload.

    The transaction layers address RPCs as ``(kind, body)`` tuples (see
    ``Database.register_rpc``); anything else falls back to ``default``.
    """
    if (isinstance(payload, tuple) and payload
            and isinstance(payload[0], str)):
        return payload[0]
    return default


class EffectRuntimeBase:
    """Backend-neutral effect semantics for one server.

    Subclasses provide the primitives (CPU, sleep, verbs, messages,
    deferral); everything above those — task driving, ``All`` fan-in,
    RPC plumbing — is shared, so the simulated and
    asyncio runtimes cannot drift apart in *meaning*, only in *cost*.
    """

    __slots__ = ("server_id", "active_tasks", "rpc_handler",
                 "dispatch_context", "tracer", "current_trace",
                 "_current_task")

    def __init__(self, server_id: int):
        self.server_id = server_id
        self.active_tasks = 0
        self.rpc_handler: Callable[[int, Any], Coroutine] | None = None
        self.dispatch_context: Any = None
        """The :class:`~repro.sim.codec.DispatchContext` op descriptors
        arriving over a serialization boundary are re-bound to;
        installed by the database layer when it wires storage."""
        self.tracer = NOOP_TRACER
        """Per-run span sink (see :mod:`repro.obs`); the module-level
        no-op unless the harness installs a live tracer."""
        self.current_trace = 0
        """Trace id of the task being advanced right now (0 = untraced).
        Re-established from the task on every resume, so continuations
        and RPC handlers inherit the context of the request they serve."""
        self._current_task: _Task | None = None

    def set_rpc_handler(self,
                        handler: Callable[[int, Any], Coroutine]) -> None:
        """Install the coroutine factory used to serve incoming RPCs.

        ``handler(src, request)`` must return a coroutine whose return
        value is the RPC reply.
        """
        self.rpc_handler = handler

    # -- task scheduling -------------------------------------------------

    def spawn(self, gen: Coroutine,
              on_done: Callable[[Any], None] | None = None,
              trace: int = 0) -> None:
        """Start driving a coroutine; ``on_done`` receives its return."""
        self.active_tasks += 1
        self._task_started()
        self._advance(_Task(gen, on_done, trace), None)

    def set_trace(self, trace: int) -> None:
        """Attach ``trace`` to the currently-advancing task.

        Called by the transaction layer when a request's trace id is
        allocated after its task already started (retries reuse the
        task); sticks to the task so later resumes keep the context.
        """
        task = self._current_task
        if task is not None:
            task.trace = trace
        self.current_trace = trace

    def _advance(self, task: _Task, value: Any) -> None:
        self._current_task = task
        self.current_trace = task.trace
        try:
            effect = task.gen.send(value)
        except StopIteration as stop:
            self.active_tasks -= 1
            if task.on_done is not None:
                task.on_done(stop.value)
            self._task_finished()
            return
        self.perform(effect, lambda result: self._advance(task, result))

    def _task_started(self) -> None:
        """Hook: a task became active (used by backends with a latch)."""

    def _task_finished(self) -> None:
        """Hook: a task ran to completion."""

    # -- effect dispatch -------------------------------------------------

    def perform(self, effect: Effect,
                cont: Callable[[Any], None]) -> None:
        """Interpret one effect; ``cont`` receives its result.

        Dispatch is one dict probe on the effect's concrete class (see
        :data:`_EFFECT_DISPATCH`) — this is the hottest call in every
        backend, entered once per yielded effect.
        """
        handler = _EFFECT_DISPATCH.get(effect.__class__)
        if handler is None:
            handler = _resolve_dispatch(effect)
        handler(self, effect, cont)

    def _perform_compute(self, effect: Compute,
                         cont: Callable[[Any], None]) -> None:
        self._do_compute(effect.cost, cont)

    def _perform_rpc(self, effect: Rpc,
                     cont: Callable[[Any], None]) -> None:
        # via self so subclass send_rpc overrides keep working
        self.send_rpc(effect, cont)

    def _perform_sleep(self, effect: Sleep,
                       cont: Callable[[Any], None]) -> None:
        self._do_sleep(effect.delay, cont)

    def _perform_await(self, effect: Await,
                       cont: Callable[[Any], None]) -> None:
        if effect.signal.fired:
            value = effect.signal.value
            self._defer(lambda: cont(value))
        else:
            effect.signal._waiters.append(cont)

    def _perform_round(self, effect: Round,
                       cont: Callable[[Any], None]) -> None:
        self._do_round(effect, cont)

    def _perform_all(self, effect: All,
                     cont: Callable[[Any], None]) -> None:
        subs = effect.effects
        n = len(subs)
        if n == 0:
            # No sub-effects: resume immediately (still asynchronously, so
            # callers cannot observe a reentrant resume).
            self._defer(lambda: cont([]))
            return
        results: list[Any] = [None] * n
        remaining = [n]

        def collector(index: int) -> Callable[[Any], None]:
            def collect(value: Any) -> None:
                results[index] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    cont(results)
            return collect

        for i, sub in enumerate(subs):
            self.perform(sub, collector(i))

    # -- RPC plumbing ----------------------------------------------------

    def send_rpc(self, effect: Rpc, cont: Callable[[Any], None]) -> None:
        self.send_payload(effect.target,
                          _RpcRequest(self.server_id, effect.payload, cont,
                                      self.current_trace),
                          kind=_payload_kind(effect.payload, "rpc"),
                          size_of=effect.payload)

    def post(self, target: int, payload: Any,
             nbytes: int | None = None) -> None:
        """Fire-and-forget message to ``target`` (no reply awaited).

        A sender fanning one payload out to several targets sizes it
        once and passes ``nbytes`` with every post.
        """
        self.send_payload(target, OneWay(payload),
                          kind=_payload_kind(payload, "one_way"),
                          size_of=payload, nbytes=nbytes)

    def on_message(self, src: int, payload: Any) -> None:
        """Delivery entry point for this server (any transport)."""
        if isinstance(payload, _RpcRequest):
            if self.rpc_handler is None:
                raise RuntimeError(
                    f"server {self.server_id} received an RPC but has no "
                    f"handler installed")
            handler_gen = self.rpc_handler(src, payload.payload)
            self.spawn(handler_gen,
                       on_done=lambda reply: self.send_payload(
                           src, _RpcReply(payload, reply),
                           kind="rpc_reply", size_of=reply),
                       trace=payload.trace)
        elif isinstance(payload, _RpcReply):
            payload.request.cont(payload.value)
        elif isinstance(payload, OneWay):
            if self.rpc_handler is None:
                raise RuntimeError(
                    f"server {self.server_id} received a message but has "
                    f"no handler installed")
            self.spawn(self.rpc_handler(src, payload.payload))
        else:
            raise TypeError(f"unexpected network payload {payload!r}")

    # -- backend primitives ----------------------------------------------

    def _defer(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` soon, never reentrantly within the caller's frame."""
        raise NotImplementedError

    def _do_compute(self, cost: float, cont: Callable[[Any], None]) -> None:
        raise NotImplementedError

    def _do_sleep(self, delay: float, cont: Callable[[Any], None]) -> None:
        raise NotImplementedError

    def _do_round(self, effect: Round, cont: Callable[[list], None]) -> None:
        """Issue every verb of ``effect`` at once; ``cont`` gets their
        results in ``effect.items`` order."""
        raise NotImplementedError

    def send_payload(self, target: int, payload: Any, kind: str,
                     size_of: Any, nbytes: int | None = None) -> None:
        """Deliver ``payload`` to ``target``'s :meth:`on_message` (FIFO
        per (src, dst) channel); ``size_of`` is the application-level
        body used for byte accounting unless the sender already sized
        it (``nbytes``)."""
        raise NotImplementedError


_EFFECT_DISPATCH: dict[type, Callable] = {
    Compute: EffectRuntimeBase._perform_compute,
    Round: EffectRuntimeBase._perform_round,
    Rpc: EffectRuntimeBase._perform_rpc,
    Sleep: EffectRuntimeBase._perform_sleep,
    Await: EffectRuntimeBase._perform_await,
    All: EffectRuntimeBase._perform_all,
}
"""Per-class effect dispatch: the isinstance ladder this replaced cost
up to seven type checks per effect; the table costs one hash probe.
Entries are plain functions fetched from the class, so primitives and
``send_rpc`` still dispatch dynamically through ``self`` inside them."""


def _resolve_dispatch(effect: Any) -> Callable:
    """Slow path for effect *subclasses*: walk the MRO once, cache."""
    for base in type(effect).__mro__:
        handler = _EFFECT_DISPATCH.get(base)
        if handler is not None:
            _EFFECT_DISPATCH[type(effect)] = handler
            return handler
    raise TypeError(f"unknown effect {effect!r}")


class EffectRuntime(EffectRuntimeBase):
    """Drives coroutines for one *simulated* server.

    The runtime multiplexes any number of tasks over one simulated
    :class:`~repro.sim.cpu.Core` and one shared
    :class:`~repro.sim.network.Network`.  Incoming RPCs spawn handler
    coroutines on this same runtime (and therefore compete for its CPU),
    exactly like the worker coroutines in the paper.
    """

    __slots__ = ("sim", "network", "core")

    def __init__(self, sim: Simulator, network: Network, server_id: int,
                 core: Core | None = None):
        super().__init__(server_id)
        self.sim = sim
        self.network = network
        self.core = core or Core(sim)
        network.register_handler(server_id, self.on_message)

    def _defer(self, fn: Callable[[], None]) -> None:
        self.sim.schedule(0.0, fn)

    def _do_compute(self, cost: float, cont: Callable[[Any], None]) -> None:
        self.core.execute(cost, lambda: cont(None))

    def _do_sleep(self, delay: float, cont: Callable[[Any], None]) -> None:
        self.sim.schedule(delay, lambda: cont(None))

    def _do_round(self, effect: Round, cont: Callable[[list], None]) -> None:
        self.network.round(self.server_id, effect.items, effect.kind,
                           effect.sizes, cont)

    def send_payload(self, target: int, payload: Any, kind: str,
                     size_of: Any, nbytes: int | None = None) -> None:
        self.network.send(self.server_id, target, payload,
                          kind=kind, nbytes=nbytes, size_of=size_of)


class _RpcRequest:
    __slots__ = ("src", "payload", "cont", "trace")

    def __init__(self, src: int, payload: Any, cont: Callable[[Any], None],
                 trace: int = 0):
        self.src = src
        self.payload = payload
        self.cont = cont
        self.trace = trace


class _RpcReply:
    __slots__ = ("request", "value")

    def __init__(self, request: _RpcRequest, value: Any):
        self.request = request
        self.value = value
