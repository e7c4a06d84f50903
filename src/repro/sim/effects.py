"""The effect vocabulary: everything a transaction coroutine may yield.

Chiller hides network latency by running each transaction as a coroutine
on a per-core execution engine: when one transaction blocks on the
network, the engine switches to another (Section 6 of the paper).  We use
plain Python generators as coroutines.  A transaction coroutine *yields
effects* and is resumed with their results:

* :class:`Compute` — consume this engine's CPU for ``cost`` microseconds.
* :class:`OneSided` — a one-sided verb against a (possibly remote)
  partition's storage; resumes with the verb's return value.
* :class:`BatchedOneSided` — several one-sided verbs against the *same*
  destination; resumes with the list of their return values.  With
  doorbell batching enabled the runtime fuses them into one round trip.
* :class:`Rpc` — send a payload to another engine's RPC handler (itself a
  coroutine, consuming the *remote* CPU); resumes with the reply.
* :class:`All` — perform several effects concurrently; resumes with the
  list of their results (used, e.g., to lock records on many servers in
  one round trip).
* :class:`Sleep` — pure delay.
* :class:`Await` — suspend until a :class:`Signal` fires.

Sub-procedures compose with ``yield from``.  Interpreting these effects
is the job of :class:`~repro.sim.runtime.EffectRuntime`; this module
deliberately knows nothing about scheduling.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable

Coroutine = Generator["Effect", Any, Any]


class Effect:
    """Base class for everything a transaction coroutine may yield."""

    __slots__ = ()


class Compute(Effect):
    """Consume ``cost`` microseconds of the engine's CPU."""

    __slots__ = ("cost",)

    def __init__(self, cost: float):
        self.cost = cost


class OneSided(Effect):
    """Execute ``op`` against server ``target``'s storage via the NIC.

    ``op`` is either a zero-argument callable (legal only while the
    target lives in the issuing process — the in-process backends and
    genuinely local verbs) or, in its **descriptor form**, a
    :class:`~repro.sim.codec.OpDescriptor`: the same operation as
    picklable data, which any backend can ship across a real process
    boundary and dispatch server-side.  The transaction layers emit
    descriptors for every record verb; raw closures remain a documented
    fallback for local-only payloads.

    ``kind`` and ``nbytes`` feed the network's per-kind traffic
    accounting; ``nbytes=None`` uses a nominal verb size.
    """

    __slots__ = ("target", "op", "kind", "nbytes")

    def __init__(self, target: int, op: Callable[[], Any],
                 kind: str = "one_sided", nbytes: int | None = None):
        self.target = target
        self.op = op
        self.kind = kind
        self.nbytes = nbytes


class BatchedOneSided(Effect):
    """Several one-sided verbs against one destination, fused if possible.

    Resumes with the list of the verbs' return values, in ``ops`` order.
    With :attr:`~repro.sim.network.Network.doorbell_batching`
    enabled the runtime issues remote groups as a single fused round trip
    (``Network.one_sided_batch``); otherwise — and always for local
    targets — each verb is issued individually, reproducing the
    unbatched behaviour exactly.

    ``nbytes`` may be ``None`` (nominal verb size), one int applied to
    every verb, or a sequence of per-verb sizes matching ``ops``.
    """

    __slots__ = ("target", "ops", "kind", "nbytes")

    def __init__(self, target: int, ops: Iterable[Callable[[], Any]],
                 kind: str = "one_sided",
                 nbytes: int | Iterable[int] | None = None):
        self.target = target
        self.ops = tuple(ops)
        self.kind = kind
        self.nbytes = nbytes

    def per_verb_nbytes(self) -> list[int | None]:
        if self.nbytes is None or isinstance(self.nbytes, int):
            return [self.nbytes] * len(self.ops)
        sizes = list(self.nbytes)
        if len(sizes) != len(self.ops):
            raise ValueError(
                f"got {len(sizes)} sizes for {len(self.ops)} verbs")
        return sizes


class Rpc(Effect):
    """Send ``payload`` to server ``target``'s RPC handler, await reply."""

    __slots__ = ("target", "payload")

    def __init__(self, target: int, payload: Any):
        self.target = target
        self.payload = payload

    def describe(self) -> str:
        """Human label used by codec errors to name the effect."""
        kind = ""
        if (isinstance(self.payload, tuple) and self.payload
                and isinstance(self.payload[0], str)):
            kind = f"kind={self.payload[0]!r}, "
        return f"Rpc({kind}...) to server {self.target}"


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
