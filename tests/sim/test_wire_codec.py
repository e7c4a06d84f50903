"""Frame codec tests (sim/codec.py FrameCodec).

The marshal-packed wire format must be *invisible*: for every verb
chain and every reply whose contents marshal can write, decoding the
packed frame yields exactly the wire object the pickle frame would have
carried — same specs, same values, same token/batched flags.  A frame
holding anything marshal refuses must fall back to a whole-frame pickle
(never a corrupt or partial packed frame), the packed form must be
smaller than the pickle it replaces, and ``decode`` must be total: any
body is a ``(src, dst, wire)`` triple or a :class:`CodecError`.
"""

import enum
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.conformance import build_conformance_run, conformance_config
from repro.sim.codec import (FRAME_PICKLE, FRAME_VERB_REPLY, FRAME_VERBS,
                             FRAME_VERBS_TRACED, OP_HANDLERS, CodecError,
                             FrameCodec, WireOneWay, WireRpc, WireVerbReply,
                             WireVerbs)
from repro.storage import LockMode
from repro.txn.commit_fsm import _commit_op, _release_op
from repro.txn.executor import (_lock_read_op, _plain_read_op,
                                _replica_apply_op)

VERB_KINDS = sorted(OP_HANDLERS)
"""Every verb kind a handler is registered for (the layers above register
theirs at import time; ``repro.bench`` imports them all)."""


def make_codec(packed: bool = True) -> FrameCodec:
    return FrameCodec(packed=packed)


def roundtrip(codec: FrameCodec, wire, src: int = 1, dst: int = 2):
    body = codec.encode(src, dst, wire, "a test frame")
    got_src, got_dst, got_wire = codec.decode(body)
    assert (got_src, got_dst) == (src, dst)
    return body, got_wire


# -- value strategies ---------------------------------------------------------

# what marshal writes: every builtin scalar (ints far beyond int64, -0.0,
# unicode, bytes) and the builtin containers, nested
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 63, max_value=2 ** 200),
    st.integers(max_value=-(2 ** 63) - 1),
    st.floats(allow_nan=False),
    st.just(-0.0),
    st.text(max_size=24),
    st.binary(max_size=24),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=8)

specs = st.tuples(
    st.text(max_size=16),                                    # any verb kind
    st.integers(min_value=0, max_value=0xFFFF),              # partition
    st.one_of(st.none(), st.text(max_size=16)),              # any table
    values,                                                  # key
    st.tuples(values) | st.tuples(values, st.integers()),    # args
)

verbs_frames = st.builds(
    WireVerbs,
    token=st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    specs=st.tuples(specs) | st.tuples(specs, specs, specs),
    batched=st.booleans(),
)

reply_frames = st.builds(
    WireVerbReply,
    token=st.integers(min_value=0, max_value=2 ** 62),
    values=st.tuples(values) | st.tuples(values, values),
    batched=st.booleans(),
)


# -- the property: packed path == pickle path ---------------------------------


@settings(max_examples=200, deadline=None)
@given(wire=verbs_frames)
def test_packed_verbs_equal_pickle_path(wire):
    packed_codec = make_codec(packed=True)
    pickle_codec = make_codec(packed=False)
    body, from_packed = roundtrip(packed_codec, wire)
    _, from_pickle = roundtrip(pickle_codec, wire)
    assert body[0] == FRAME_VERBS
    assert from_packed == wire
    assert from_packed == from_pickle


@settings(max_examples=200, deadline=None)
@given(wire=reply_frames)
def test_packed_reply_equals_pickle_path(wire):
    packed_codec = make_codec(packed=True)
    pickle_codec = make_codec(packed=False)
    body, from_packed = roundtrip(packed_codec, wire)
    _, from_pickle = roundtrip(pickle_codec, wire)
    assert body[0] == FRAME_VERB_REPLY
    assert from_packed == wire
    assert from_packed == from_pickle


@settings(max_examples=100, deadline=None)
@given(wire=verbs_frames)
def test_cross_codec_decode(wire):
    """A packed peer's frames decode on an unpacked peer and vice versa
    (``packed=False`` only changes what gets *encoded*)."""
    packed_codec = make_codec(packed=True)
    pickle_codec = make_codec(packed=False)
    body = packed_codec.encode(3, 4, wire, "a test frame")
    assert pickle_codec.decode(body) == (3, 4, wire)
    body = pickle_codec.encode(3, 4, wire, "a test frame")
    assert packed_codec.decode(body) == (3, 4, wire)


def test_negative_zero_keeps_its_sign():
    wire = WireVerbReply(1, (-0.0, (0.0, -0.0)), False)
    _, got = roundtrip(make_codec(), wire)
    assert [str(v) for v in (got.values[0], *got.values[1])] == \
        ["-0.0", "0.0", "-0.0"]


# -- every verb kind packs: no whitelist ---------------------------------------


@pytest.mark.parametrize("kind", VERB_KINDS)
def test_every_hot_verb_packs(kind):
    codec = make_codec()
    wire = WireVerbs(9, ((kind, 3, "accounts", (0, "k"), (17,)),), False)
    body, got = roundtrip(codec, wire)
    assert body[0] == FRAME_VERBS
    assert got == wire


def test_all_hot_chain_ships_one_packed_frame():
    """A fused doorbell chain stays packed end to end."""
    codec = make_codec()
    wire = WireVerbs(42, (
        ("lock_read", 0, "accounts", 11, (True, 7001)),
        ("plain_read", 1, "usertable", (2, 3), ()),
        ("commit", 0, None, None, ((("update", "accounts", 11,
                                     {"balance": 1.0}),), 7001)),
        ("replica_apply", 1, None, None, (0, (("update", "accounts", 11,
                                               {"balance": 1.0}),))),
        ("release", 1, None, None, (7001,)),
    ), True)
    body, got = roundtrip(codec, wire)
    assert body[0] == FRAME_VERBS
    assert got == wire


def test_reply_round_trip_fixed():
    codec = make_codec()
    wire = WireVerbReply(7, (("ok", {"balance": 5.0}, 2), ("conflict",),
                             [1, 2, 3], None), True)
    body, got = roundtrip(codec, wire)
    assert body[0] == FRAME_VERB_REPLY
    assert got == wire


def test_lock_modes_travel_as_bools():
    """``lock_read`` args carry ``(exclusive, txn_id)``: the storage
    API's enum never reaches the wire."""
    db = build_conformance_run(conformance_config("sim")).database
    for mode in LockMode:
        op = _lock_read_op(db, 0, "accounts", 1, mode, 7001)
        assert op.args == (mode is LockMode.EXCLUSIVE, 7001)


# -- fallback paths -----------------------------------------------------------


class Colour(enum.Enum):
    RED = "red"


class Point(NamedTuple):
    x: int
    y: int


@pytest.mark.parametrize("odd", [Colour.RED, Point(1, 2), LockMode.SHARED],
                         ids=["enum", "namedtuple", "lockmode"])
@pytest.mark.parametrize("where", ["key", "args", "reply"])
def test_unmarshallable_value_anywhere_pickles_the_frame(odd, where):
    codec = make_codec()
    if where == "reply":
        wire = WireVerbReply(1, (("ok", {"f": (1, odd)}, 2),), False)
    else:
        key, args = ((odd, 1), ()) if where == "key" else (1, ([odd], 2))
        wire = WireVerbs(1, (("lock_read", 0, "accounts", key, args),),
                         False)
    body, got = roundtrip(codec, wire)
    assert body[0] == FRAME_PICKLE
    assert got == wire


def test_mixed_chain_falls_back_whole_frame():
    """One unmarshallable value in a chain demotes the *whole* frame
    (frames are atomic: a target never sees half a chain packed)."""
    codec = make_codec()
    wire = WireVerbs(1, (
        ("lock_read", 0, "accounts", 1, (False, 1)),
        ("migrate_remove", 0, "accounts", 1, (Colour.RED,)),
    ), True, trace=5)
    body, got = roundtrip(codec, wire)
    assert body[0] == FRAME_PICKLE
    assert got == wire


def test_non_verb_wire_objects_always_pickle():
    codec = make_codec()
    wire = WireRpc(5, ("kind", {"body": 1}))
    body, got = roundtrip(codec, wire)
    assert body[0] == FRAME_PICKLE
    assert got == wire


def test_unpicklable_payload_still_raises_codec_error():
    """The pickle-fallback contract: CodecError semantics unchanged."""
    codec = make_codec()
    with pytest.raises(CodecError, match="RPC to server 2"):
        codec.encode(0, 2, WireRpc(1, lambda: 1), "RPC to server 2")


def test_an_unnamed_frame_is_named_by_its_envelope_only_on_failure():
    """The transport passes no name: a frame that fails to encode is
    named from its envelope's kind and target when it fails."""
    codec = make_codec()
    with pytest.raises(CodecError, match=r"Rpc\(kind='chiller_inner', "
                                         r"\.\.\.\) to server 2"):
        codec.encode(0, 2, WireRpc(1, ("chiller_inner", lambda: 1)))
    with pytest.raises(CodecError, match="one-way message"):
        codec.encode(0, 3, WireOneWay(lambda: 1))
    wire = WireVerbs(1, (("commit", 0, None, None, (lambda: 1,)),), False)
    with pytest.raises(CodecError,
                       match=r"a chain of 1 verb\(s\) to server 1"):
        codec.encode(0, 1, wire)


def test_unpicklable_arg_inside_hot_verb_raises_codec_error():
    codec = make_codec()
    wire = WireVerbs(1, (("commit", 0, None, None,
                          (lambda: 1, 7001)),), False)
    with pytest.raises(CodecError, match="commit chain"):
        codec.encode(0, 1, wire, "commit chain")


def test_lambda_in_a_reply_raises_codec_error():
    wire = WireVerbReply(1, (("ok", {"f": lambda: 1}, 2),), False)
    with pytest.raises(CodecError, match="reply to server 0"):
        make_codec().encode(1, 0, wire, "reply to server 0")


# -- the point of all this: packed is smaller ---------------------------------


def test_packed_hot_chain_is_smaller_than_pickled():
    """The wire-byte claim the NetworkStats accounting relies on: a
    four-verb ``lock_read`` chain's packed frame undercuts its pickle."""
    wire = WireVerbs(1234, (
        ("lock_read", 2, "warehouse", 7, (True, 900001)),
        ("lock_read", 2, "district", (7, 3), (True, 900001)),
        ("lock_read", 2, "customer", (7, 3, 1009), (False, 900001)),
        ("lock_read", 2, "stock", (7, 55021), (True, 900001)),
    ), True)
    packed = make_codec(packed=True).encode(0, 2, wire, "chain")
    pickled = make_codec(packed=False).encode(0, 2, wire, "chain")
    assert packed[0] == FRAME_VERBS and pickled[0] == FRAME_PICKLE
    assert len(packed) < len(pickled), (len(packed), len(pickled))


def test_packed_reply_is_smaller_than_pickled():
    wire = WireVerbReply(1234, tuple(
        ("ok", {"balance": 10.0 + i, "name": f"c{i}"}, 3)
        for i in range(4)), True)
    packed = make_codec(packed=True).encode(2, 0, wire, "reply")
    pickled = make_codec(packed=False).encode(2, 0, wire, "reply")
    assert packed[0] == FRAME_VERB_REPLY
    assert len(packed) < len(pickled), (len(packed), len(pickled))


# -- trace context on the wire ------------------------------------------------
# Trace ids (repro.obs) ride the packed frames under a separate tag
# (FRAME_VERBS_TRACED) so untraced frames carry no trace bytes; the
# pickle escape hatch carries the dataclass field for free.  Both paths
# must round-trip the id exactly.

traced_verbs_frames = st.builds(
    WireVerbs,
    token=st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    specs=st.tuples(specs) | st.tuples(specs, specs, specs),
    batched=st.booleans(),
    trace=st.integers(min_value=0, max_value=2 ** 63 - 1),
)


@settings(max_examples=200, deadline=None)
@given(wire=traced_verbs_frames)
def test_trace_context_round_trips_both_codecs(wire):
    for packed in (True, False):
        codec = make_codec(packed=packed)
        _, got = roundtrip(codec, wire)
        assert got == wire
        assert got.trace == wire.trace


@pytest.mark.parametrize("packed", [True, False])
@pytest.mark.parametrize("kind", VERB_KINDS)
def test_every_hot_verb_carries_trace(kind, packed):
    codec = make_codec(packed=packed)
    wire = WireVerbs(9, ((kind, 3, "accounts", (0, "k"), (17,)),), False,
                     trace=(5 << 40) | 123)
    body, got = roundtrip(codec, wire)
    if packed:
        assert body[0] == FRAME_VERBS_TRACED
    assert got == wire


def test_untraced_packed_frame_bytes_unchanged():
    """trace=0 keeps the FRAME_VERBS layout: the tracing field costs
    untraced runs not a single wire byte, a traced frame exactly 8."""
    codec = make_codec()
    untraced = WireVerbs(9, (("lock_read", 3, "accounts", 1,
                              (True, 5)),), False)
    traced = WireVerbs(9, untraced.specs, False, trace=1)
    body_untraced = codec.encode(0, 1, untraced, "frame")
    body_traced = codec.encode(0, 1, traced, "frame")
    assert body_untraced[0] == FRAME_VERBS
    assert body_traced[0] == FRAME_VERBS_TRACED
    assert len(body_traced) == len(body_untraced) + 8
    assert codec.decode(body_untraced)[2].trace == 0
    assert codec.decode(body_traced)[2].trace == 1


@settings(max_examples=100, deadline=None)
@given(trace=st.integers(min_value=0, max_value=2 ** 63 - 1))
def test_wire_rpc_carries_trace_via_pickle(trace):
    """Cross-worker RPC envelopes always pickle; the trace field rides
    along on both codec modes unchanged."""
    wire = WireRpc(7, ("inner", {"warehouse": 3}), trace)
    for packed in (True, False):
        _, got = roundtrip(make_codec(packed=packed), wire)
        assert got == wire
        assert got.trace == trace


# -- decode is total: a triple or a CodecError, for any corruption -------------


def recorded_frames() -> dict:
    """One frame of each shape the mp backend ships, built by the
    executor's own verb builders and answered by its own handlers."""
    db = build_conformance_run(conformance_config("sim")).database
    pid = db.partition_of("accounts", 1)
    chain = [_lock_read_op(db, pid, "accounts", key, mode, 7001)
             for key, mode in ((1, LockMode.EXCLUSIVE), (2, LockMode.SHARED),
                               (3, LockMode.EXCLUSIVE))]
    chain.append(_plain_read_op(db, pid, "accounts", 4))
    values = tuple(op() for op in chain)
    writes = (("update", "accounts", 1, {"balance": 99.5}),)
    commit = _commit_op(db, pid, list(writes), 7001)
    replica = _replica_apply_op(db, (pid + 1) % len(db.cluster), pid, writes)
    _release_op(db, pid, 7001)()
    specs = tuple(op.spec() for op in chain)
    wires = {
        "lock_read chain": WireVerbs(31, specs, True),
        "reply": WireVerbReply(31, values, True),
        "commit": WireVerbs(32, (commit.spec(),), False),
        "replica_apply": WireVerbs(33, (replica.spec(),), False),
        "traced chain": WireVerbs(34, specs, True, trace=(3 << 40) | 17),
        "rpc": WireRpc(35, ("inner_region", {"accounts": (1, 2)}), 0),
    }
    codec = make_codec()
    return {name: codec.encode(0, 1, wire, name)
            for name, wire in wires.items()}


FRAMES = recorded_frames()


def triple_or_codec_error(codec: FrameCodec, body: bytes) -> None:
    try:
        got = codec.decode(body)
    except CodecError:
        return
    assert type(got) is tuple and len(got) == 3


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_every_truncation_and_bit_flip_decodes_or_raises_codec_error(name):
    body = FRAMES[name]
    codec = make_codec()
    assert codec.decode(body)[:2] == (0, 1)
    assert body[0] == (FRAME_PICKLE if name == "rpc" else
                       FRAME_VERBS_TRACED if name == "traced chain" else
                       FRAME_VERB_REPLY if name == "reply" else FRAME_VERBS)
    for end in range(len(body)):
        triple_or_codec_error(codec, body[:end])
    for bit in range(8 * len(body)):
        flipped = bytearray(body)
        flipped[bit // 8] ^= 1 << (bit % 8)
        triple_or_codec_error(codec, bytes(flipped))


@settings(max_examples=300, deadline=None)
@given(body=st.binary(max_size=64))
def test_arbitrary_bytes_decode_or_raise_codec_error(body):
    triple_or_codec_error(make_codec(), body)
