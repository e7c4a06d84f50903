"""Wire codec: remote operations as *data*, not closures.

The simulated and asyncio backends could get away with shipping Python
closures between servers because every server lived in one process.  A
multiprocess backend cannot: anything that crosses a server boundary
must survive serialization.  This module is that boundary's vocabulary:

* :class:`OpDescriptor` — a picklable ``(kind, partition, table, key,
  args)`` description of one one-sided verb.  Descriptors are
  *callable*: in-process backends invoke them exactly like the closures
  they replaced (the descriptor carries a non-serialized binding to a
  :class:`DispatchContext`), while cross-process transports ship
  :meth:`OpDescriptor.spec` and re-bind at the receiving server.
* A **server-side dispatch table** (:data:`OP_HANDLERS`, populated via
  :func:`op_handler`): each verb kind maps to a handler executing
  against the target's storage.  The transaction layer registers its
  verbs (lock_read, commit, validate_*, replica_apply, ...) at import
  time, so any process that builds a database can serve any verb.
* **Wire message forms** (:class:`WireVerbs`, :class:`WireRpc`, ...):
  the picklable shapes one-sided verbs, RPC calls, and replication
  messages take on a real socket, with token-based reply routing
  replacing in-process continuation identity.

Layering: this module knows nothing about storage or transactions — it
owns the registry and the envelope shapes; the layers above register
handlers and choose what to put in ``args`` (which must be picklable).
"""

from __future__ import annotations

import marshal
import pickle
from dataclasses import dataclass
from struct import Struct
from typing import Any, Callable, Sequence, Tuple
from zlib import crc32


WIRE_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
"""Pinned pickle protocol for every pickled wire frame (codec ``dumps``
and the :class:`FrameCodec` fallback).  Explicit pinning keeps the hot
path off pickle's compatibility default (protocol 4 era framing) and
makes the wire format an asserted property instead of an interpreter
accident."""


class CodecError(TypeError):
    """A payload cannot cross a serialization boundary.

    Raised when an effect carries a raw closure (or otherwise
    unpicklable payload) toward a remote process; the message names the
    offending effect so the emitting layer is easy to find.
    """


class DispatchContext:
    """What a server-side verb handler may touch.

    One per database build: ``store_of(partition)`` resolves the local
    copy of a partition's primary store, ``replicas`` is the local
    :class:`~repro.replication.ReplicaManager` (or ``None``).  In-process
    backends share one context; each multiprocess worker builds its own
    from its deterministic copy of the database.

    The commit-durability layer adds three optional bindings, all
    opaque to this module: ``commits`` (the process's prepared-txn /
    decision table), ``wal_of(server_id)`` (per-server write-ahead log,
    or ``None`` when durability is off), and ``leases`` (the
    controller-election lease cells).
    """

    __slots__ = ("store_of", "replicas", "commits", "wal_of", "leases")

    def __init__(self, store_of: Callable[[int], Any],
                 replicas: Any = None, commits: Any = None,
                 wal_of: Callable[[int], Any] | None = None,
                 leases: Any = None):
        self.store_of = store_of
        self.replicas = replicas
        self.commits = commits
        self.wal_of = wal_of
        self.leases = leases


PEER_DOWN = ("peer_down",)
"""Result sentinel a runtime substitutes for a verb/RPC reply when the
destination worker is known dead.  Shaped like the status tuples verb
handlers return (``result[0]`` is the status string), so executor reply
loops can classify it without a type check."""


OP_HANDLERS: dict[str, Callable[[DispatchContext, "OpDescriptor"], Any]] = {}
"""The server-side dispatch table: verb kind -> handler."""


def op_handler(kind: str):
    """Register a server-side handler for descriptor kind ``kind``."""
    def register(fn):
        if kind in OP_HANDLERS:
            raise ValueError(f"op handler {kind!r} already registered")
        OP_HANDLERS[kind] = fn
        return fn
    return register


OpSpec = Tuple[str, int, Any, Any, tuple]
"""The picklable form of a descriptor: (kind, partition, table, key, args)."""


class OpDescriptor:
    """One remote operation as data.

    ``partition`` is the partition whose primary store the verb runs
    against (for most verbs this equals the target server; replica
    verbs address the hosting server and carry the replicated partition
    in ``args``).  ``args`` must be picklable.

    The ``_ctx`` binding is deliberately excluded from pickling: a
    descriptor arriving in another process is re-bound to *that*
    process's :class:`DispatchContext` before execution.
    """

    __slots__ = ("kind", "partition", "table", "key", "args", "_ctx",
                 "_handler")

    def __init__(self, kind: str, partition: int, table: str | None = None,
                 key: Any = None, args: tuple = ()):
        self.kind = kind
        self.partition = partition
        self.table = table
        self.key = key
        self.args = args
        self._ctx: DispatchContext | None = None
        self._handler: Callable | None = None

    def bind(self, ctx: DispatchContext | None) -> "OpDescriptor":
        self._ctx = ctx
        # pre-resolve the registry lookup so the (hot) __call__ path is
        # one attribute load instead of a dict probe per execution
        self._handler = None if ctx is None else OP_HANDLERS.get(self.kind)
        return self

    def spec(self) -> OpSpec:
        return (self.kind, self.partition, self.table, self.key, self.args)

    def __call__(self) -> Any:
        handler = self._handler
        if handler is not None:
            return handler(self._ctx, self)
        # slow path: unbound, or bound before the verb was registered
        if self._ctx is None:
            raise CodecError(
                f"descriptor {self!r} is unbound: bind() it to a "
                f"DispatchContext before executing")
        handler = OP_HANDLERS.get(self.kind)
        if handler is None:
            raise CodecError(
                f"no op handler registered for verb kind {self.kind!r} "
                f"(is the transaction layer imported in this process?)")
        self._handler = handler
        return handler(self._ctx, self)

    def __getstate__(self) -> OpSpec:
        return self.spec()

    def __setstate__(self, state: OpSpec) -> None:
        self.kind, self.partition, self.table, self.key, self.args = state
        self._ctx = None
        self._handler = None

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, OpDescriptor)
                and self.spec() == other.spec())

    def __hash__(self) -> int:
        return hash((self.kind, self.partition, self.table))

    def __repr__(self) -> str:
        return (f"OpDescriptor({self.kind!r}, p{self.partition}, "
                f"{self.table!r}, {self.key!r})")


def encode_op(op: Any, target: int, kind: str) -> OpSpec:
    """The wire form of one ``kind`` verb bound for server ``target``;
    raises :class:`CodecError` for closures.

    The error names the verb, so the layer still shipping a raw closure
    toward a remote process is easy to locate; the name is built only
    then, not for every verb that crosses.
    """
    if isinstance(op, OpDescriptor):
        return op.spec()
    raise CodecError(
        f"1 one-sided verb(s) (kind={kind!r}) to server {target} carries "
        f"a raw callable {op!r} which cannot cross a process boundary; "
        f"emit a sim.codec.OpDescriptor instead (closures are only legal "
        f"for local targets)")


def decode_op(spec: OpSpec) -> OpDescriptor:
    """Rebuild an (unbound) descriptor from its wire form."""
    kind, partition, table, key, args = spec
    return OpDescriptor(kind, partition, table, key, args)


def dumps(obj: Any, what: str | None = None) -> bytes:
    """Pickle ``obj`` (at :data:`WIRE_PICKLE_PROTOCOL`) or raise a
    :class:`CodecError` naming ``what`` — by default ``obj`` is a
    frame's ``(src, dst, wire)`` triple, named by :func:`describe_wire`
    only then."""
    try:
        return pickle.dumps(obj, protocol=WIRE_PICKLE_PROTOCOL)
    except Exception as exc:  # pickle raises a zoo of types
        if what is None:
            what = describe_wire(obj[2], obj[1])
        raise CodecError(f"{what} is not picklable and cannot cross a "
                         f"process boundary: {exc}") from exc


# -- wire message envelopes ---------------------------------------------------
#
# Token-based request/reply routing: the in-process runtimes route RPC
# replies by carrying the request object (and its continuation) inside
# the payload; across processes only the token travels, and each side
# keeps its own token -> continuation table.

@dataclass(frozen=True)
class WireVerbs:
    """A chain of one-sided verbs: run in order at the target, reply
    with their values.

    ``batched=True`` marks a chain of more than one verb and is echoed
    in the reply.  Which values resume which continuation (a lone verb
    the single value, a fused doorbell group its list) is the sender's
    book-keeping under ``token``, not the wire's.
    """

    token: int
    specs: tuple  # of OpSpec
    batched: bool
    trace: int = 0  # tracing context; 0 = untraced (the common case)


@dataclass(frozen=True)
class WireVerbReply:
    token: int
    values: tuple
    batched: bool


@dataclass(frozen=True)
class WireRpc:
    """An RPC request: spawn the target's handler, reply with its return."""

    token: int
    payload: Any
    trace: int = 0


@dataclass(frozen=True)
class WireRpcReply:
    token: int
    value: Any


@dataclass(frozen=True)
class WireOneWay:
    """A fire-and-forget message (no reply is routed back)."""

    payload: Any


def describe_wire(wire: Any, dst: int) -> str:
    """How a codec error names envelope ``wire`` bound for server
    ``dst``: its kind and target.  Built only when encoding fails, never
    for a frame that crosses."""
    if isinstance(wire, WireVerbs):
        return f"a chain of {len(wire.specs)} verb(s) to server {dst}"
    if isinstance(wire, (WireRpc, WireOneWay)):
        payload = wire.payload
        kind = (f"kind={payload[0]!r}, " if isinstance(payload, tuple)
                and payload and isinstance(payload[0], str) else "")
        label = "Rpc" if isinstance(wire, WireRpc) else "one-way message"
        return f"{label}({kind}...) to server {dst}"
    return f"{type(wire).__name__} to server {dst}"  # a reply


# -- packed frames and WAL records --------------------------------------------
#
# Profiles of the mp backend put the encoding of WireVerbs and
# WireVerbReply at the top of the wire path.  Pickle re-ships the
# dataclass scaffolding both ends already agree on; a frame instead
# ships the envelope's fields as one tuple written by CPython's C
# ``marshal`` — verb kinds and table names as plain strings (marshal's
# back-references keep a repeated one to a few bytes), keys, args and
# reply values as they are.  A frame body is a 5-byte header — the
# frame tag and a CRC-32 of everything after the header, seeded with
# the tag — then the payload:
#
#   FRAME_PICKLE (0)        pickle of (src, dst, wire) — anything
#   FRAME_VERBS (1)         marshal of (src, dst, token, batched, specs)
#   FRAME_VERB_REPLY (2)    marshal of (src, dst, token, batched, values)
#   FRAME_VERBS_TRACED (3)  an 8-byte trace id, then FRAME_VERBS's tuple;
#                           emitted only for traced requests, so an
#                           untraced frame carries no trace bytes
#
# marshal writes exact builtin types only: a frame holding anything else
# (an Enum, a NamedTuple, a closure) is pickled whole, so CodecError
# semantics are exactly those of the pickle path.  The checksum is what
# keeps decode total on a corrupt body: marshal sizes a tuple or list
# by the count it reads before reading the items, so one flipped bit can
# ask for gigabytes, and pickle's memo can be told to grow the same way.
# Both formats belong to one interpreter build; every worker is forked
# from the parent's process, and each trusts its peers' frames as it
# trusted their pickles.

WIRE_MARSHAL_VERSION = 4
"""Pinned marshal format for packed frames and WAL records (the current
format of CPython 3.4 and later: back-references for repeated
strings)."""

FRAME_PICKLE = 0
FRAME_VERBS = 1
FRAME_VERB_REPLY = 2
FRAME_VERBS_TRACED = 3

_S_HEAD = Struct("<BI")       # frame tag, crc32(payload, tag)
_S_CRC = Struct("<I")
_S_Q = Struct("<q")


def _frame(tag: int, payload: bytes) -> bytes:
    return _S_HEAD.pack(tag, crc32(payload, tag)) + payload


class FrameCodec:
    """Encodes/decodes one transport frame body (without length prefix).

    One per transport end.  ``packed=False`` keeps the decoder (frames
    from a packed peer still decode) but makes every *encoded* frame
    FRAME_PICKLE, which is the ``mp_codec="pickle"`` escape hatch and
    the byte-accounting baseline.  The positional argument is accepted
    and ignored: frames intern nothing, so there is no table registry
    (``benchmarks/e2e/probes.py`` still passes one).
    """

    __slots__ = ("packed",)

    def __init__(self, _tables: Sequence[str] = (), /, packed: bool = True):
        self.packed = packed

    def encode(self, src: int, dst: int, wire: Any,
               what: str | None = None) -> bytes:
        """The frame body for ``wire`` travelling ``src -> dst``.

        Falls back to the pickle frame for anything marshal cannot
        write; raises :class:`CodecError` (naming ``what``, by default
        :func:`describe_wire` of the envelope) only if the pickle
        fallback fails too — identical failure semantics to the
        pure-pickle path.
        """
        if self.packed:
            kind = type(wire)
            try:
                if kind is WireVerbs:
                    fields = (src, dst, wire.token, wire.batched, wire.specs)
                    if wire.trace:
                        return _frame(FRAME_VERBS_TRACED,
                                      _S_Q.pack(wire.trace)
                                      + marshal.dumps(fields,
                                                      WIRE_MARSHAL_VERSION))
                    return _frame(FRAME_VERBS, marshal.dumps(
                        fields, WIRE_MARSHAL_VERSION))
                if kind is WireVerbReply:
                    return _frame(FRAME_VERB_REPLY, marshal.dumps(
                        (src, dst, wire.token, wire.batched, wire.values),
                        WIRE_MARSHAL_VERSION))
            except ValueError:  # marshal refuses a value: pickle it all
                pass
        return _frame(FRAME_PICKLE, dumps((src, dst, wire), what))

    def decode(self, body: bytes) -> tuple:
        """``(src, dst, wire)`` from a frame body of any format.

        A body this codec did not write whole raises :class:`CodecError`
        and nothing else.
        """
        if len(body) < _S_HEAD.size:
            raise CodecError(f"wire frame of {len(body)} bytes is shorter "
                             f"than its header")
        tag, check = _S_HEAD.unpack_from(body)
        payload = body[_S_HEAD.size:]
        if crc32(payload, tag) != check:
            raise CodecError(f"wire frame of {len(body)} bytes fails its "
                             f"checksum (tag {tag})")
        try:
            if tag == FRAME_VERBS:
                src, dst, token, batched, specs = marshal.loads(payload)
                return src, dst, WireVerbs(token, specs, batched)
            if tag == FRAME_VERB_REPLY:
                src, dst, token, batched, values = marshal.loads(payload)
                return src, dst, WireVerbReply(token, values, batched)
            if tag == FRAME_VERBS_TRACED:
                src, dst, token, batched, specs = marshal.loads(
                    payload[_S_Q.size:])
                return src, dst, WireVerbs(token, specs, batched,
                                           _S_Q.unpack_from(payload)[0])
            if tag == FRAME_PICKLE:
                src, dst, wire = pickle.loads(payload)
                return src, dst, wire
        except Exception as exc:  # marshal's and pickle's zoo of types
            raise CodecError(f"undecodable wire frame of {len(body)} bytes "
                             f"(tag {tag}): {type(exc).__name__}: "
                             f"{exc}") from exc
        raise CodecError(f"unknown wire frame tag {tag!r}")


def pack_record(record: tuple) -> bytes:
    """The byte body of one WAL record: a CRC-32, then the marshalled
    tuple.  A record marshal cannot write raises :class:`CodecError`;
    it is never pickled instead."""
    if type(record) is not tuple:
        raise CodecError(f"a WAL record is a tuple, not a "
                         f"{type(record).__name__}")
    try:
        body = marshal.dumps(record, WIRE_MARSHAL_VERSION)
    except ValueError as exc:
        raise CodecError(f"WAL record {record!r:.120} holds a value "
                         f"marshal cannot write: {exc}") from exc
    return _S_CRC.pack(crc32(body)) + body


def unpack_record(body: bytes) -> tuple:
    """Rebuild a WAL record tuple from :func:`pack_record` bytes.

    ``body`` comes off a disk that may hold anything: unless it is
    exactly one record tuple, ending at ``len(body)``, this raises
    :class:`CodecError` and nothing else.
    """
    if (len(body) < _S_CRC.size
            or crc32(body[_S_CRC.size:]) != _S_CRC.unpack_from(body)[0]):
        raise CodecError(f"WAL record of {len(body)} bytes fails its "
                         f"checksum")
    payload = body[_S_CRC.size:]
    try:
        value = marshal.loads(payload)
    except Exception as exc:  # EOFError, ValueError, TypeError
        raise CodecError(f"undecodable WAL record of {len(body)} bytes: "
                         f"{type(exc).__name__}: {exc}") from exc
    if type(value) is not tuple:
        raise CodecError(f"WAL record decodes to a "
                         f"{type(value).__name__}, not a tuple")
    # marshal ignores trailing bytes, and reads without lookahead: the
    # record ends at the body's last byte iff the body less that byte no
    # longer decodes (marshal.load from a BytesIO would say so through
    # tell(), but reads item by item through Python calls, ~15x slower)
    try:
        marshal.loads(payload[:-1])
    except Exception:
        return value
    raise CodecError(f"WAL record of {len(body)} bytes ends before its "
                     f"last byte")
