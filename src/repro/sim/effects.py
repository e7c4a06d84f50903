"""The effect vocabulary: everything a transaction coroutine may yield.

Chiller hides network latency by running each transaction as a coroutine
on a per-core execution engine: when one transaction blocks on the
network, the engine switches to another (Section 6 of the paper).  We use
plain Python generators as coroutines.  A transaction coroutine *yields
effects* and is resumed with their results:

* :class:`Compute` — consume this engine's CPU for ``cost`` microseconds.
* :class:`Round` — one parallel round of one-sided verbs against any
  mix of (possibly remote) partitions' storage; resumes with the list
  of their return values.  It is the only verb effect: a lone verb is
  a round of one.  How the round crosses the network is the runtime's
  decision: with doorbell batching it fuses the verbs that share a
  remote target into one round trip, and the wall-clock backends ship
  the verbs bound for one worker process as one frame.
* :class:`Rpc` — send a payload to another engine's RPC handler (itself a
  coroutine, consuming the *remote* CPU); resumes with the reply.
* :class:`All` — perform several effects concurrently; resumes with the
  list of their results (used where one fan-out mixes rounds of several
  kinds or rounds and RPCs, e.g. a migration's install and its replica
  ships).
* :class:`Sleep` — pure delay.
* :class:`Await` — suspend until a :class:`Signal` fires.

Sub-procedures compose with ``yield from``.  Interpreting these effects
is the job of :class:`~repro.sim.runtime.EffectRuntime`; this module
deliberately knows nothing about scheduling.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Sequence

Coroutine = Generator["Effect", Any, Any]


class Effect:
    """Base class for everything a transaction coroutine may yield."""

    __slots__ = ()


class Compute(Effect):
    """Consume ``cost`` microseconds of the engine's CPU."""

    __slots__ = ("cost",)

    def __init__(self, cost: float):
        self.cost = cost


class Round(Effect):
    """One parallel round of one-sided verbs: the transaction layers'
    lock, validate, prepare, replicate and decision rounds.

    ``items`` are ``(target, op)`` pairs, every verb of traffic kind
    ``kind``; ``sizes`` is ``None`` (each verb the nominal size) or one
    byte count per verb, the network's per-kind traffic accounting.
    Resumes with the verbs' return values in ``items`` order.  A target
    may repeat, and a lone verb is a round of one
    (``[x] = yield Round(((target, op),), kind)``).  With
    :attr:`~repro.sim.network.Network.doorbell_batching` on, the verbs
    that share a remote target travel as one fused round trip; off (the
    default), each verb is its own.

    ``op`` runs against ``target``'s storage via the NIC.  It is either
    a zero-argument callable (legal only while the target lives in the
    issuing process — the in-process backends and genuinely local
    verbs) or, in its **descriptor form**, a
    :class:`~repro.sim.codec.OpDescriptor`: the same operation as
    picklable data, which any backend can ship across a real process
    boundary and dispatch server-side.  The transaction layers emit
    descriptors for every record verb; raw closures remain a documented
    fallback for local-only payloads.
    """

    __slots__ = ("items", "kind", "sizes")

    def __init__(self, items: Sequence[tuple[int, Callable[[], Any]]],
                 kind: str = "one_sided",
                 sizes: Sequence[int] | None = None):
        if sizes is not None and len(sizes) != len(items):
            raise ValueError(
                f"got {len(sizes)} sizes for {len(items)} verbs")
        self.items = items
        self.kind = kind
        self.sizes = sizes


class Rpc(Effect):
    """Send ``payload`` to server ``target``'s RPC handler, await reply."""

    __slots__ = ("target", "payload")

    def __init__(self, target: int, payload: Any):
        self.target = target
        self.payload = payload


class All(Effect):
    """Perform several effects concurrently; resume with list of results."""

    __slots__ = ("effects",)

    def __init__(self, effects: Iterable[Effect]):
        self.effects = tuple(effects)


class Sleep(Effect):
    """Suspend for ``delay`` microseconds without consuming CPU."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        self.delay = delay


class Signal:
    """A one-shot rendezvous: coroutines Await it, someone fires it.

    Used for out-of-band completions, e.g. the Chiller coordinator
    waiting for the inner host's replicas to acknowledge (the acks
    arrive as messages addressed to the coordinator, not as replies to
    any request the coordinator sent).
    """

    __slots__ = ("fired", "value", "_waiters")

    def __init__(self) -> None:
        self.fired = False
        self.value: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    def fire(self, value: Any = None) -> None:
        if self.fired:
            raise RuntimeError("signal already fired")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(value)


class Await(Effect):
    """Suspend until ``signal`` fires; resumes with the fired value."""

    __slots__ = ("signal",)

    def __init__(self, signal: Signal):
        self.signal = signal


class OneWay:
    """Wrapper marking a message that expects no reply."""

    __slots__ = ("payload",)

    def __init__(self, payload: Any):
        self.payload = payload
