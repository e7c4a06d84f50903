"""RDMA-flavoured network model.

Two transport primitives, mirroring the NAM-DB substrate Chiller builds on:

* **One-sided verbs** (:meth:`Network.one_sided`): the operation executes
  against the *target's storage* at arrival time without consuming any
  CPU at the target — the NIC does the work.  This is how the outer
  region reads, writes, and lock words (via CAS) are accessed remotely.

* **Messages / RPCs** (:meth:`Network.send`): delivered to a handler at
  the target; whatever the handler does (e.g. executing an inner region)
  costs target CPU.  Delivery on each (src, dst) channel is FIFO, the
  in-order property the paper's inner-region replication relies on
  (RDMA queue-pair semantics).

A third primitive, :meth:`Network.one_sided_batch`, models **doorbell
batching**: a sender posts a chain of one-sided verbs to the same
destination with a single doorbell; the NIC processes them back-to-back
and raises one completion, so N verbs cost one round trip plus a small
per-verb NIC serialization term instead of N independent issues.

The transaction layers issue neither primitive verb by verb:
:meth:`Network.round` takes a whole parallel round at once (a lone verb
is a round of one) and schedules exactly the events the per-verb
primitives would.  With ``doorbell_batching`` on it calls them, fusing
the verbs that :func:`doorbell_groups` (the rule every runtime shares)
puts in one chain.  Every verb, whichever path issues it, is booked by
:meth:`NetworkStats.record_round`.

The latencies are the module constants below: a network round trip
costs ~27x a local storage access, consistent with the paper's "at
least an order of magnitude" premise.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Any, Callable, Sequence

from .._stats import stat
from .events import Simulator

_UNSET = object()

LOCAL_ACCESS_US = 0.15
"""A storage operation against the local partition, in microseconds."""

ONE_WAY_US = 1.7
"""One-way propagation between two servers (InfiniBand EDR class)."""

VERB_OVERHEAD_US = 0.3
"""NIC processing added to each one-sided verb at the target."""

RPC_OVERHEAD_US = 0.4
"""Dispatch overhead added when delivering a message to a handler."""

BATCHED_VERB_US = 0.05
"""NIC serialization cost of each verb after the first in a
doorbell-batched chain (the chain shares propagation, doorbell, and
completion)."""

VERB_NOMINAL_BYTES = 32
"""Approximate wire size of one one-sided verb (header + cacheline-ish
payload) used when the issuer provides no better estimate."""

MESSAGE_NOMINAL_BYTES = 64
"""Flat estimate charged for a payload too deep to walk."""

PAYLOAD_WALK_MAX_DEPTH = 16
"""Recursion bound for :func:`approx_payload_bytes`.  Anything nested
deeper is charged the flat :data:`MESSAGE_NOMINAL_BYTES` instead of
overflowing the stack."""

_BACK_REFERENCE_BYTES = 8
"""Charge for a container the walk has already visited (a cyclic or
shared reference: serializers ship those as back-references, and
re-walking them would make the walk exponential on shared DAGs)."""

PHASE_OF_KIND = {
    "lock_read": "lock",
    "lock_insert": "lock",
    "plain_read": "lock",          # OCC's lock-free read phase
    "validate_read": "validate",
    "validate_write": "validate",
    "replicate": "replicate",
    "chiller_replicate": "replicate",
    "chiller_ack": "replicate",
    "commit": "commit",
    "release": "commit",
    "inner_commit": "commit",
    "prepare": "commit",
    "decision": "commit",
    "recover_query": "commit",
    "migrate_lock": "migrate",
    "migrate_install": "migrate",
    "migrate_remove": "migrate",
    "placement_flip": "migrate",
    "placement_lease": "migrate",
}
"""Transaction-phase bucket of each traffic kind, for the Fig.-style
bytes-by-phase breakdown (unlisted kinds land in ``other``)."""


def phase_of_kind(kind: str) -> str:
    return PHASE_OF_KIND.get(kind, "other")


_LEN, _DICT, _ITEMS, _OPAQUE = "len", "dict", "items", "opaque"

_SHAPE_OF: dict[type, Any] = {}
"""How the payload walk sizes instances of each class it has met: an
int is a scalar's nominal size, a tuple names a dataclass's fields,
the rest is one of the four codes above.  Classified once per class."""


def _shape_of(cls: type) -> Any:
    if cls is type(None) or cls is bool:
        shape: Any = 1
    elif issubclass(cls, (int, float)):
        shape = 8
    elif issubclass(cls, (str, bytes)):
        shape = _LEN
    elif issubclass(cls, dict):
        shape = _DICT
    elif issubclass(cls, (list, tuple, set, frozenset)):
        shape = _ITEMS
    elif dataclasses.is_dataclass(cls):
        shape = tuple(f.name for f in dataclasses.fields(cls))
    else:
        shape = _OPAQUE
    _SHAPE_OF[cls] = shape
    return shape


def approx_payload_bytes(obj: Any) -> int:
    """Rough serialized size of an application payload, in bytes.

    This is accounting, not serialization: containers and dataclasses
    are walked recursively, scalars get nominal sizes, and anything
    opaque (closures, handles) a flat 64.  Good enough to break traffic
    down by message kind in experiment reports.  The walk is linear in
    the number of distinct containers — each is visited once (cycles and
    shared sub-structures are charged as back-references) — and
    depth-capped at :data:`PAYLOAD_WALK_MAX_DEPTH`.
    """
    return _walk(obj, 0, set())


def _walk(obj: Any, depth: int, seen: set[int]) -> int:
    shape = _SHAPE_OF.get(obj.__class__)
    if shape is None:
        shape = _shape_of(obj.__class__)
    if shape.__class__ is int:
        return shape
    if shape is _LEN:
        return len(obj)
    if depth >= PAYLOAD_WALK_MAX_DEPTH:
        return MESSAGE_NOMINAL_BYTES
    if shape is _OPAQUE:
        return 64
    if id(obj) in seen:
        return _BACK_REFERENCE_BYTES
    seen.add(id(obj))
    if shape is _ITEMS:
        children = obj
    elif shape is _DICT:
        children = chain.from_iterable(obj.items())
    else:
        children = [getattr(obj, name) for name in shape]
    depth += 1
    total = 8
    shapes = _SHAPE_OF
    for child in children:
        shape = shapes.get(child.__class__)
        if shape.__class__ is int:      # leaves sized without a call
            total += shape
        elif shape is _LEN:
            total += len(child)
        else:
            total += _walk(child, depth, seen)
    return total


_SCALAR_BYTES = {int: 8, float: 8, bool: 1, type(None): 1, str: 0}
"""What the walk charges each value type the bulk sizing of
:func:`write_set_bytes` knows (a str: its length, added apart)."""

_BULK_ABOVE = 4
"""Write sets of at most this many writes are walked: below it the
per-write loop is faster than the bulk passes' fixed cost."""


def write_set_bytes(writes: tuple, depth: int = 0) -> int:
    """:func:`approx_payload_bytes` of the write set ``writes``, a tuple
    of ``(kind, table, key, values)`` writes, as the walk sizes it at
    ``depth`` inside its message — to the byte.

    The commit path ships one shape: ``(str, str, tuple of int, dict of
    str -> int / float / bool / None / str)`` writes that share no
    container.  A set of more than :data:`_BULK_ABOVE` such writes is
    sized in bulk, by whole-set passes (``zip``, type sets, summed
    lengths) that run in C; the byte count is the walk's.  Any other
    set is walked inline: a write, its key tuple and its values dict
    are one loop each here instead of one generic walk apiece.  Anything
    else in them (a deeper container, a dataclass, an opaque object, a
    write set near the depth cap) goes to the walk with the same
    ``seen`` set, so back-references and the cap come out as the
    walk's.
    """
    if depth + 2 >= PAYLOAD_WALK_MAX_DEPTH:
        return _walk(writes, depth, set())
    n = len(writes)
    if n > _BULK_ABOVE and writes.__class__ is tuple:
        # the walk charges 8 per container, 8 per int or float, 1 per
        # bool or None and its length per str; it charges a container it
        # meets twice as a back-reference, so every one must be distinct
        # (a repeated write repeats its key tuple, and nothing of these
        # types can contain the write set or a write)
        if (set(map(type, writes)) == {tuple}
                and set(map(len, writes)) == {4}):
            kinds, tables, keys, values = zip(*writes)
            if ({*map(type, kinds), *map(type, tables)} == {str}
                    and set(map(type, keys)) == {tuple}
                    and set(map(type, values)) == {dict}
                    and set(map(type, chain.from_iterable(keys))) <= {int}
                    and len({*map(id, keys), *map(id, values)}) == 2 * n):
                names = list(chain.from_iterable(values))
                scalars = list(chain.from_iterable(map(dict.values, values)))
                types = list(map(type, scalars))
                known = set(types)
                if (set(map(type, names)) <= {str}
                        and known <= _SCALAR_BYTES.keys()):
                    return (8 + 24 * n + sum(map(len, kinds))
                            + sum(map(len, tables))
                            + 8 * sum(map(len, keys))
                            + sum(map(len, names))
                            + sum(map(_SCALAR_BYTES.__getitem__, types))
                            + (sum(map(len, filter(str.__instancecheck__,
                                                   scalars)))
                               if str in known else 0))
    shapes = _SHAPE_OF
    seen = {id(writes)}
    below = depth + 3           # the depth of a field's own children
    total = 8
    for write in writes:
        if write.__class__ is not tuple:
            total += _walk(write, depth + 1, seen)
            continue
        if id(write) in seen:
            total += _BACK_REFERENCE_BYTES
            continue
        seen.add(id(write))
        total += 8
        for field in write:
            shape = shapes.get(field.__class__)
            if shape.__class__ is int:
                total += shape
            elif shape is _LEN:
                total += len(field)
            elif shape is _DICT or shape is _ITEMS:
                if id(field) in seen:
                    total += _BACK_REFERENCE_BYTES
                    continue
                seen.add(id(field))
                total += 8
                for item in (chain.from_iterable(field.items())
                             if shape is _DICT else field):
                    shape = shapes.get(item.__class__)
                    if shape.__class__ is int:
                        total += shape
                    elif shape is _LEN:
                        total += len(item)
                    else:
                        total += _walk(item, below, seen)
            else:
                total += _walk(field, depth + 2, seen)
    return total


@dataclass
class NetworkStats:
    """Counters for traffic accounting (used in experiment reports).

    Wire counters (``one_sided_remote``, ``messages``, ``bytes_by_kind``)
    only ever record traffic that actually crossed between two servers;
    same-server deliveries land in the ``*_local`` counters so locality
    improvements show up as wire traffic *shrinking*, not moving.
    """

    one_sided_local: int = 0
    one_sided_remote: int = stat(timeline="wire_verbs")
    messages: int = stat(timeline="wire_messages")
    """Messages delivered across the wire (``src != dst``)."""

    messages_local: int = 0
    """Messages a server delivered to itself (loopback, never wire)."""

    one_sided_batches: int = 0
    """Fused doorbell-batched round trips issued."""

    one_sided_batched_verbs: int = 0
    """Total verbs carried inside those fused round trips."""

    bytes_by_kind: dict[str, int] = stat(dict, timeline="wire_bytes")
    """Approximate payload bytes that crossed the wire, per kind."""

    local_bytes_by_kind: dict[str, int] = stat(dict)
    """Approximate payload bytes of same-server deliveries, per kind."""

    bytes_by_server_kind: dict[int, dict[str, int]] = stat(dict)
    """Wire bytes broken down by *issuing* server (execution engine)
    and kind — the per-executor traffic view.  Only populated for
    traffic whose recorder knows its issuer (all three backends pass
    it); kinds here always sum to ``bytes_by_kind``."""

    wire_bytes_sent: int = stat(timeline="wire_bytes_sent")
    """Actual encoded frame bytes a real transport pushed onto its
    carrier (length prefixes included), counted where the frame is
    written.  Zero on the sim backend — the simulator models sizes
    rather than encoding frames; on mp runs it is the ground-truth
    companion to the modeled ``bytes_by_kind`` (which on mp also uses
    actual frame sizes for cross-worker traffic but keeps nominal
    estimates for same-process deliveries)."""

    def add_bytes(self, kind: str, nbytes: int,
                  remote: bool = True, server: int | None = None) -> None:
        book = self.bytes_by_kind if remote else self.local_bytes_by_kind
        book[kind] = book.get(kind, 0) + nbytes
        if remote and server is not None:
            per = self.bytes_by_server_kind.setdefault(server, {})
            per[kind] = per.get(kind, 0) + nbytes

    # Recording helpers: the one bookkeeping implementation every
    # backend shares (the simulated Network and the wall-clock runtime
    # both call these), so the wire/local split cannot drift between
    # backends.

    def record_message(self, kind: str, nbytes: int, remote: bool,
                       server: int | None = None) -> None:
        if remote:
            self.messages += 1
        else:
            self.messages_local += 1
        self.add_bytes(kind, nbytes, remote=remote, server=server)

    def record_round(self, kind: str, server: int, local: int,
                     local_bytes: int, remote: int, remote_bytes: int,
                     batches: int = 0, batched: int = 0) -> None:
        """Account one round of ``kind`` verbs issued by ``server`` at
        once: ``local`` same-server verbs, ``remote`` lone wire verbs and
        ``batched`` verbs inside ``batches`` fused chains.  The only
        verb book: a lone verb is a round of one, a fused chain a round
        of one batch.  A book no verb of the round reaches is left
        untouched."""
        if local:
            self.one_sided_local += local
            self.add_bytes(kind, local_bytes, remote=False)
        if remote or batched:
            self.one_sided_remote += remote
            self.one_sided_batches += batches
            self.one_sided_batched_verbs += batched
            self.add_bytes(kind, remote_bytes, server=server)

    def total_remote_ops(self) -> int:
        """Round trips / deliveries that crossed the wire.  A fused
        batch counts once, however many verbs it carries; local
        deliveries never count."""
        return self.one_sided_remote + self.one_sided_batches + self.messages

    def total_bytes(self) -> int:
        """Bytes that crossed the wire (local deliveries excluded)."""
        return sum(self.bytes_by_kind.values())

    # -- Fig.-style phase breakdowns --------------------------------------

    def bytes_by_phase(self) -> dict[str, int]:
        """Wire bytes folded into transaction phases
        (lock/validate/replicate/commit/migrate/other)."""
        phases: dict[str, int] = {}
        for kind, nbytes in self.bytes_by_kind.items():
            phase = phase_of_kind(kind)
            phases[phase] = phases.get(phase, 0) + nbytes
        return phases

    def bytes_by_server_phase(self) -> dict[int, dict[str, int]]:
        """Per-executor phase breakdown: issuing server -> phase -> bytes."""
        out: dict[int, dict[str, int]] = {}
        for server, per in sorted(self.bytes_by_server_kind.items()):
            phases: dict[str, int] = {}
            for kind, nbytes in per.items():
                phase = phase_of_kind(kind)
                phases[phase] = phases.get(phase, 0) + nbytes
            out[server] = phases
        return out


def doorbell_groups(src: int, items: Sequence[tuple[int, Any]],
                    ) -> list[tuple[int, list[int], bool]]:
    """How doorbell batching issues one round of ``(dst, op)`` verbs
    from ``src``: per target, in first-appearance order, the indices of
    its verbs and whether they ride as one fused chain — a remote target
    with two or more verbs; every other verb goes on its own.  The one
    copy of the rule every runtime applies."""
    groups: dict[int, list[int]] = {}
    for i, (dst, _op) in enumerate(items):
        groups.setdefault(dst, []).append(i)
    return [(dst, idxs, dst != src and len(idxs) > 1)
            for dst, idxs in groups.items()]


class Network:
    """Connects ``n_servers`` simulated servers with FIFO channels."""

    def __init__(self, sim: Simulator, doorbell_batching: bool = False):
        self._sim = sim
        self.doorbell_batching = doorbell_batching
        """Fuse same-destination one-sided verbs issued in one parallel
        round into a single doorbell-batched round trip.  Off by
        default: the unbatched model is the seed-calibrated baseline."""
        self.stats = NetworkStats()
        self._handlers: dict[int, Callable[[int, Any], None]] = {}
        self._last_delivery: dict[tuple[int, int], float] = {}

    def register_handler(self, server_id: int,
                         handler: Callable[[int, Any], None]) -> None:
        """Install the message handler for ``server_id``.

        The handler receives ``(src_server_id, payload)``.
        """
        self._handlers[server_id] = handler

    def one_sided(self, src: int, dst: int, op: Callable[[], Any],
                  on_complete: Callable[[Any], None],
                  kind: str = "one_sided",
                  nbytes: int | None = None) -> None:
        """Run ``op`` against ``dst`` as a one-sided verb.

        ``op`` executes at arrival time (no target CPU involved); its
        return value is delivered back to ``on_complete`` at ``src`` after
        the return trip.  Local operations (``src == dst``) only pay the
        local access latency.  ``kind``/``nbytes`` feed the per-kind
        traffic accounting (``None``: the nominal verb size).
        """
        size = VERB_NOMINAL_BYTES if nbytes is None else nbytes
        if src == dst:
            self.stats.record_round(kind, src, 1, size, 0, 0)
            self._sim.schedule(LOCAL_ACCESS_US, lambda: on_complete(op()))
            return
        self.stats.record_round(kind, src, 0, 0, 1, size)
        arrive = self._fifo_time(src, dst, ONE_WAY_US + VERB_OVERHEAD_US)

        def _at_target() -> None:
            result = op()
            self._sim.schedule_at(
                self._fifo_time(dst, src, ONE_WAY_US,
                                base=self._sim.now),
                lambda: on_complete(result))

        self._sim.schedule_at(arrive, _at_target)

    def one_sided_batch(self, src: int, dst: int,
                        ops: Sequence[Callable[[], Any]],
                        on_complete: Callable[[list], None],
                        kind: str = "one_sided",
                        sizes: Sequence[int] | None = None) -> None:
        """Issue a doorbell-batched chain of verbs in one round trip.

        All ``ops`` execute back-to-back at ``dst``'s arrival time; one
        completion delivers the list of their results (in ``ops`` order)
        back to ``src``.  ``kind`` and ``sizes`` (one byte count per
        verb, or ``None`` for nominal sizes) feed the traffic
        accounting as in :meth:`round` — the payloads still cross the
        wire even though the round trips are fused.
        Degenerate chains (one verb, or a local target) fall back to
        :meth:`one_sided` semantics via the caller; this primitive
        insists on a genuinely remote multi-verb chain.
        """
        if src == dst:
            raise ValueError("doorbell batching is a NIC-to-NIC primitive; "
                             "local verbs do not ring a doorbell")
        if len(ops) < 2:
            raise ValueError("a doorbell batch needs at least two verbs")
        self.stats.record_round(
            kind, src, 0, 0, 0, VERB_NOMINAL_BYTES * len(ops)
            if sizes is None else sum(sizes), 1, len(ops))
        arrive = self._fifo_time(
            src, dst, ONE_WAY_US + VERB_OVERHEAD_US
            + (len(ops) - 1) * BATCHED_VERB_US)

        def _at_target() -> None:
            results = [op() for op in ops]
            self._sim.schedule_at(
                self._fifo_time(dst, src, ONE_WAY_US,
                                base=self._sim.now),
                lambda: on_complete(results))

        self._sim.schedule_at(arrive, _at_target)

    def round(self, src: int, items: Sequence[tuple[int, Callable[[], Any]]],
              kind: str, sizes: Sequence[int] | None,
              cont: Callable[[list], None]) -> None:
        """Issue one parallel round of ``(dst, op)`` verbs from ``src``;
        ``cont`` gets their results in ``items`` order once the last
        completes.

        The events are those :meth:`one_sided` would schedule for each
        verb, in ``items`` order and at the same times, and each
        :class:`NetworkStats` book is updated once for the whole round.
        With :attr:`doorbell_batching` the round is issued as the
        :func:`doorbell_groups` say: :meth:`one_sided_batch` for each
        fused group, :meth:`one_sided` for every other verb.
        """
        sim = self._sim
        n = len(items)
        if not n:
            sim.schedule(0.0, lambda: cont([]))
            return
        results: list[Any] = [None] * n
        remaining = n

        def finish(i: int, value: Any) -> None:
            nonlocal remaining
            results[i] = value
            remaining -= 1
            if not remaining:
                cont(results)

        if self.doorbell_batching:
            def finish_chain(idxs: list[int], values: list) -> None:
                nonlocal remaining
                for i, value in zip(idxs, values):
                    results[i] = value
                remaining -= len(idxs)
                if not remaining:
                    cont(results)

            for dst, idxs, fused in doorbell_groups(src, items):
                if fused:
                    self.one_sided_batch(
                        src, dst, [items[i][1] for i in idxs],
                        partial(finish_chain, idxs), kind,
                        [sizes[i] for i in idxs] if sizes else None)
                    continue
                for i in idxs:
                    self.one_sided(src, dst, items[i][1], partial(finish, i),
                                   kind, sizes[i] if sizes else None)
            return
        fifo_time = self._fifo_time
        schedule_at = sim.schedule_at

        def at_local(i: int, op: Callable[[], Any]) -> None:
            nonlocal remaining
            results[i] = op()
            remaining -= 1
            if not remaining:
                cont(results)

        def at_target(i: int, op: Callable[[], Any], dst: int) -> None:
            value = op()
            schedule_at(fifo_time(dst, src, ONE_WAY_US, base=sim.now),
                        partial(finish, i, value))

        nominal = VERB_NOMINAL_BYTES
        local = local_bytes = remote_bytes = 0
        now = sim.now
        outbound = ONE_WAY_US + VERB_OVERHEAD_US
        for i, (dst, op) in enumerate(items):
            if dst == src:
                local += 1
                local_bytes += sizes[i] if sizes else nominal
                schedule_at(now + LOCAL_ACCESS_US, partial(at_local, i, op))
                continue
            remote_bytes += sizes[i] if sizes else nominal
            schedule_at(fifo_time(src, dst, outbound),
                        partial(at_target, i, op, dst))
        self.stats.record_round(kind, src, local, local_bytes, n - local,
                                remote_bytes)

    def send(self, src: int, dst: int, payload: Any,
             kind: str = "message", nbytes: int | None = None,
             size_of: Any = _UNSET) -> None:
        """Deliver ``payload`` to ``dst``'s registered handler (FIFO).

        Byte accounting uses ``nbytes`` if given, else estimates from
        ``size_of`` (the application-level body, when ``payload`` is a
        plumbing wrapper holding continuations), else from ``payload``.
        """
        if dst not in self._handlers:
            raise KeyError(f"server {dst} has no registered message handler")
        if nbytes is None:
            nbytes = approx_payload_bytes(
                payload if size_of is _UNSET else size_of)
        self.stats.record_message(kind, nbytes, remote=src != dst,
                                  server=src)
        delay = (LOCAL_ACCESS_US if src == dst
                 else ONE_WAY_US + RPC_OVERHEAD_US)
        arrive = self._fifo_time(src, dst, delay)
        handler = self._handlers[dst]
        self._sim.schedule_at(arrive, lambda: handler(src, payload))

    def _fifo_time(self, src: int, dst: int, delay: float,
                   base: float | None = None) -> float:
        """Next delivery time on the (src, dst) channel, kept monotonic."""
        key = (src, dst)
        when = (base if base is not None else self._sim.now) + delay
        last = self._last_delivery.get(key, 0.0)
        if when <= last:
            when = last + 1e-9
        self._last_delivery[key] = when
        return when
