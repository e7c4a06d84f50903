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

import pickle
from dataclasses import dataclass
from struct import Struct
from typing import Any, Callable, Sequence, Tuple


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


def encode_op(op: Any, effect: str = "a one-sided effect") -> OpSpec:
    """The wire form of one verb; raises :class:`CodecError` for closures.

    ``effect`` names the emitting effect in the error so the layer still
    shipping a raw closure toward a remote process is easy to locate.
    """
    if isinstance(op, OpDescriptor):
        return op.spec()
    raise CodecError(
        f"{effect} carries a raw callable {op!r} which cannot cross a "
        f"process boundary; emit a sim.codec.OpDescriptor instead "
        f"(closures are only legal for local targets)")


def decode_op(spec: OpSpec) -> OpDescriptor:
    """Rebuild an (unbound) descriptor from its wire form."""
    kind, partition, table, key, args = spec
    return OpDescriptor(kind, partition, table, key, args)


def dumps(obj: Any, what: str) -> bytes:
    """Pickle ``obj`` (at :data:`WIRE_PICKLE_PROTOCOL`) or raise a
    :class:`CodecError` naming ``what``."""
    try:
        return pickle.dumps(obj, protocol=WIRE_PICKLE_PROTOCOL)
    except Exception as exc:  # pickle raises a zoo of types
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


# -- struct-packed hot-verb frames --------------------------------------------
#
# Profiles of the mp backend put pickle.dumps/loads of WireVerbs and
# WireVerbReply at the top of the wire path: every frame re-ships the
# dataclass scaffolding (class names, field names, verb-kind strings,
# table-name strings) that both ends already agree on.  The packed
# codec strips all of it.  A frame's first byte selects the format:
#
#   FRAME_PICKLE (0)        pickle of (src, dst, wire) — anything
#   FRAME_VERBS (1)         packed WireVerbs whose specs are all hot verbs
#   FRAME_VERB_REPLY (2)    packed WireVerbReply
#   FRAME_VERBS_TRACED (3)  FRAME_VERBS + an 8-byte trace id after the
#                           header; emitted only for traced requests, so
#                           tracing-off frames are byte-identical to
#                           before the field existed
#
# The packed formats never carry a string the peer can intern instead:
# verb kinds index :data:`HOT_VERBS`, table names index the per-run
# table registry (both workers build the database deterministically, so
# ``sorted(table names)`` is identical on every end — that sorted tuple
# *is* the negotiation), and interned constants like lock modes index
# :data:`WIRE_ATOMS` (registered at import time by the layers that own
# them, in deterministic import order).  Keys and args are packed by a
# small tagged-value encoder (ints, floats, strings, bytes, bools,
# None, flat tuples); anything else rides as an embedded pickle blob,
# and if even that fails the whole frame falls back to FRAME_PICKLE so
# :class:`CodecError` semantics are exactly those of the pickle path.

HOT_VERBS: tuple = ("lock_read", "plain_read", "commit", "release",
                    "prepare", "decision", "recover_query")
"""Verb kinds with a fixed packed encoding (index = wire verb id).
Extend only by appending: the index *is* the wire id, so reordering
breaks any mixed-version pairing."""

FRAME_PICKLE = 0
FRAME_VERBS = 1
FRAME_VERB_REPLY = 2
FRAME_VERBS_TRACED = 3

WIRE_ATOMS: list = []
"""Interned wire constants (e.g. lock modes): small hashable singletons
that would otherwise pickle as full class references.  Registered at
import time via :func:`register_wire_atom`; both ends of a connection
run the same deterministic imports, so index ``i`` means the same atom
everywhere."""


def register_wire_atom(atom: Any) -> Any:
    """Intern ``atom`` in the wire constant table (idempotent)."""
    hash(atom)  # must be hashable — the encoder looks atoms up by value
    if atom not in WIRE_ATOMS:
        WIRE_ATOMS.append(atom)
    return atom


class _Unpackable(Exception):
    """Internal: this wire object has no packed form — pickle the frame."""


# value tags for the key/args/reply encoder
_V_NONE, _V_FALSE, _V_TRUE, _V_INT, _V_FLOAT = 0, 1, 2, 3, 4
_V_STR, _V_BYTES, _V_BLOB, _V_ATOM, _V_TUPLE = 5, 6, 7, 8, 9

_S_HDR = Struct("<BHHqBH")    # frame tag, src, dst, token, batched, count
_S_SPEC = Struct("<BHB")      # verb id, partition, table id (0xFF = None)
_S_Q = Struct("<q")
_S_D = Struct("<d")
_S_I = Struct("<I")
_S_H = Struct("<H")
_S_B = Struct("<B")

_INT64_MIN, _INT64_MAX = -(2 ** 63), 2 ** 63 - 1


class FrameCodec:
    """Encodes/decodes one transport frame body (without length prefix).

    One per transport end.  ``tables`` is the run's interned table
    registry — the deterministically ordered table names both workers
    derived from their own database build.  ``packed=False`` keeps the
    decoder (frames from a packed peer still decode) but makes every
    *encoded* frame FRAME_PICKLE, which is the ``mp_codec="pickle"``
    escape hatch and the byte-accounting baseline.
    """

    __slots__ = ("tables", "packed", "_table_id", "_verb_id", "_atoms",
                 "_atom_id")

    def __init__(self, tables: Sequence[str] = (), packed: bool = True):
        self.tables = tuple(tables)
        self.packed = packed
        if len(self.tables) >= 0xFF:
            raise ValueError("table registry overflows the 1-byte wire id")
        self._table_id = {name: i for i, name in enumerate(self.tables)}
        self._verb_id = {kind: i for i, kind in enumerate(HOT_VERBS)}
        self._atoms = tuple(WIRE_ATOMS)
        self._atom_id = {atom: i for i, atom in enumerate(self._atoms)}

    # -- encode ------------------------------------------------------------

    def encode(self, src: int, dst: int, wire: Any, what: str) -> bytes:
        """The frame body for ``wire`` travelling ``src -> dst``.

        Falls back to the pickle frame for anything without a packed
        form; raises :class:`CodecError` (naming ``what``) only if the
        pickle fallback fails too — identical failure semantics to the
        pure-pickle path.
        """
        if self.packed:
            try:
                if type(wire) is WireVerbs:
                    return self._encode_verbs(src, dst, wire)
                if type(wire) is WireVerbReply:
                    return self._encode_reply(src, dst, wire)
            except _Unpackable:
                pass
        return b"\x00" + dumps((src, dst, wire), what)

    def _encode_verbs(self, src: int, dst: int, wire: WireVerbs) -> bytes:
        verb_id = self._verb_id
        table_id = self._table_id
        if wire.trace:
            out = [_S_HDR.pack(FRAME_VERBS_TRACED, src, dst, wire.token,
                               wire.batched, len(wire.specs)),
                   _S_Q.pack(wire.trace)]
        else:
            out = [_S_HDR.pack(FRAME_VERBS, src, dst, wire.token,
                               wire.batched, len(wire.specs))]
        for kind, partition, table, key, args in wire.specs:
            vid = verb_id.get(kind)
            if vid is None:
                raise _Unpackable
            tid = 0xFF if table is None else table_id.get(table)
            if tid is None:
                raise _Unpackable
            out.append(_S_SPEC.pack(vid, partition, tid))
            self._pack_value(out, key)
            self._pack_value(out, tuple(args))
        return b"".join(out)

    def _encode_reply(self, src: int, dst: int, wire: WireVerbReply) -> bytes:
        out = [_S_HDR.pack(FRAME_VERB_REPLY, src, dst, wire.token,
                           wire.batched, len(wire.values))]
        for value in wire.values:
            self._pack_value(out, value)
        return b"".join(out)

    def _pack_value(self, out: list, value: Any) -> None:
        kind = type(value)
        if kind is int:
            if _INT64_MIN <= value <= _INT64_MAX:
                out.append(b"\x03" + _S_Q.pack(value))
            else:
                self._pack_blob(out, value)
        elif kind is str:
            raw = value.encode("utf-8")
            out.append(b"\x05" + _S_I.pack(len(raw)))
            out.append(raw)
        elif kind is tuple:
            if len(value) > 0xFFFF:
                raise _Unpackable
            out.append(b"\x09" + _S_H.pack(len(value)))
            for element in value:
                self._pack_value(out, element)
        elif value is None:
            out.append(b"\x00")
        elif kind is bool:
            out.append(b"\x02" if value else b"\x01")
        elif kind is float:
            out.append(b"\x04" + _S_D.pack(value))
        elif kind is bytes:
            out.append(b"\x06" + _S_I.pack(len(value)))
            out.append(value)
        else:
            try:
                atom = self._atom_id.get(value)
            except TypeError:  # unhashable — no atom can match
                atom = None
            if atom is not None:
                out.append(b"\x08" + _S_B.pack(atom))
            else:
                self._pack_blob(out, value)

    def _pack_blob(self, out: list, value: Any) -> None:
        try:
            raw = pickle.dumps(value, protocol=WIRE_PICKLE_PROTOCOL)
        except Exception:
            raise _Unpackable from None
        out.append(b"\x07" + _S_I.pack(len(raw)))
        out.append(raw)

    # -- decode ------------------------------------------------------------

    def decode(self, body: bytes) -> tuple:
        """``(src, dst, wire)`` from a frame body of either format."""
        tag = body[0]
        if tag == FRAME_PICKLE:
            return pickle.loads(body[1:])
        _tag, src, dst, token, batched, count = _S_HDR.unpack_from(body, 0)
        offset = _S_HDR.size
        if tag == FRAME_VERBS or tag == FRAME_VERBS_TRACED:
            trace = 0
            if tag == FRAME_VERBS_TRACED:
                trace = _S_Q.unpack_from(body, offset)[0]
                offset += _S_Q.size
            specs = []
            for _ in range(count):
                vid, partition, tid = _S_SPEC.unpack_from(body, offset)
                offset += _S_SPEC.size
                key, offset = self._unpack_value(body, offset)
                args, offset = self._unpack_value(body, offset)
                specs.append((HOT_VERBS[vid], partition,
                              None if tid == 0xFF else self.tables[tid],
                              key, args))
            return src, dst, WireVerbs(token, tuple(specs), bool(batched),
                                       trace)
        if tag == FRAME_VERB_REPLY:
            values = []
            for _ in range(count):
                value, offset = self._unpack_value(body, offset)
                values.append(value)
            return src, dst, WireVerbReply(token, tuple(values),
                                           bool(batched))
        raise CodecError(f"unknown wire frame tag {tag!r}")

    def _unpack_value(self, body: bytes, offset: int) -> tuple:
        tag = body[offset]
        offset += 1
        if tag == _V_INT:
            return _S_Q.unpack_from(body, offset)[0], offset + 8
        if tag == _V_STR:
            n = _S_I.unpack_from(body, offset)[0]
            offset += 4
            return body[offset:offset + n].decode("utf-8"), offset + n
        if tag == _V_TUPLE:
            n = _S_H.unpack_from(body, offset)[0]
            offset += 2
            elements = []
            for _ in range(n):
                element, offset = self._unpack_value(body, offset)
                elements.append(element)
            return tuple(elements), offset
        if tag == _V_NONE:
            return None, offset
        if tag == _V_FALSE:
            return False, offset
        if tag == _V_TRUE:
            return True, offset
        if tag == _V_FLOAT:
            return _S_D.unpack_from(body, offset)[0], offset + 8
        if tag == _V_BYTES:
            n = _S_I.unpack_from(body, offset)[0]
            offset += 4
            return bytes(body[offset:offset + n]), offset + n
        if tag == _V_BLOB:
            n = _S_I.unpack_from(body, offset)[0]
            offset += 4
            return pickle.loads(body[offset:offset + n]), offset + n
        if tag == _V_ATOM:
            return self._atoms[body[offset]], offset + 1
        raise CodecError(f"unknown wire value tag {tag!r}")


# -- record (WAL) bodies -------------------------------------------------------
#
# The write-ahead log reuses the tagged-value encoder for its record
# bodies: a record is a flat tuple of picklable values, packed exactly
# like a verb's key/args.  No table interning is involved — WAL files
# outlive any one run's table registry, so table names travel as plain
# strings — which is why these helpers can share one module-level codec
# regardless of which database wrote the record.

_record_codec: "FrameCodec | None" = None


def pack_record(record: tuple) -> bytes:
    """The byte body of one WAL record (a flat tuple of wire values)."""
    global _record_codec
    if _record_codec is None:
        _record_codec = FrameCodec()
    out: list = []
    _record_codec._pack_value(out, record)
    return b"".join(out)


def unpack_record(body: bytes) -> tuple:
    """Rebuild a WAL record tuple from :func:`pack_record` bytes.

    ``body`` comes off a disk that may hold anything: unless it is
    exactly one packed tuple, ending at ``len(body)``, this raises
    :class:`CodecError` and nothing else.
    """
    global _record_codec
    if _record_codec is None:
        _record_codec = FrameCodec()
    try:
        value, offset = _record_codec._unpack_value(body, 0)
    except Exception as exc:  # struct, pickle, utf-8, index, memory...
        raise CodecError(f"undecodable WAL record of {len(body)} bytes: "
                         f"{type(exc).__name__}: {exc}") from exc
    if type(value) is not tuple:
        raise CodecError(f"WAL record decodes to a "
                         f"{type(value).__name__}, not a tuple")
    if offset != len(body):
        raise CodecError(f"WAL record ends at byte {offset} of "
                         f"{len(body)}")
    return value
