"""The framed-TCP channel: hostile streams, real frames, FIFO, failure.

Two groups.  The receiver tests feed raw bytes — through a socket
pair, or chunk by chunk straight into ``data_received`` — to the
transport's receiving protocol and require a prompt typed failure for
every malformed stream, never a buffer waiting for a frame that cannot
complete.  The channel tests run two single-server workers of one
2-server cluster on one event loop, each with its own transport, so the
frames between them cross real localhost sockets without the cost of
spawning processes.
"""

import asyncio
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (MAX_FRAME_BYTES, CodecError, Round, Sleep,
                       TcpTransport, WorkerCluster)
from repro.sim.codec import (OP_HANDLERS, PEER_DOWN, DispatchContext,
                             FrameCodec, OpDescriptor, WireOneWay, WireVerbs)
from repro.sim.transport import _Receiver, bind_listener

PROMPT_S = 5.0
"""Every wait below is bounded: a hang is a failure, not a timeout of
the whole suite."""


# -- the receiver against hostile byte streams ---------------------------------


class _RecordingCluster:
    """Just enough cluster for the receiver: records what it is handed."""

    worker_id = 0
    recovery_enabled = False

    def __init__(self):
        self.delivered = []
        self.errors = []

    def _deliver_wire(self, dst, src, wire):
        self.delivered.append((dst, src, wire))

    def _fatal(self, exc):
        self.errors.append(exc)


def read_stream(data: bytes, recovery: bool = False) -> _RecordingCluster:
    """Feed ``data`` then EOF through a socket into one receiver;
    return what the cluster saw once the receiver has hung up."""
    cluster = _RecordingCluster()
    cluster.recovery_enabled = recovery

    async def main():
        loop = asyncio.get_running_loop()
        hung_up = loop.create_future()

        class Receiver(_Receiver):
            def connection_lost(self, exc):
                super().connection_lost(exc)
                hung_up.set_result(None)

        ours, theirs = socket.socketpair()
        transport = TcpTransport(cluster, listener=None, ports={})
        await loop.create_connection(lambda: Receiver(transport), sock=ours)
        theirs.sendall(data)
        theirs.close()
        await asyncio.wait_for(hung_up, PROMPT_S)
        assert not transport._receivers

    asyncio.run(main())
    return cluster


def frame(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


GOOD_BODY = FrameCodec().encode(1, 0, WireOneWay("hello"), "a test frame")


def test_whole_frames_then_eof_is_a_clean_close():
    cluster = read_stream(frame(GOOD_BODY) * 3)
    assert not cluster.errors
    assert [(dst, src, wire.payload)
            for dst, src, wire in cluster.delivered] == [(0, 1, "hello")] * 3


@pytest.mark.parametrize("claimed", [0, MAX_FRAME_BYTES + 1, 0xFFFFFFFF])
def test_out_of_range_length_is_a_typed_error_not_a_giant_read(claimed):
    """A corrupt or hostile header must fail at once; the old reader
    called ``readexactly(4 GiB)`` and hung."""
    cluster = read_stream(frame(GOOD_BODY) + claimed.to_bytes(4, "big")
                          + b"x" * 64)
    assert len(cluster.delivered) == 1  # the frame before it was fine
    [error] = cluster.errors
    assert isinstance(error, CodecError)
    assert str(claimed) in str(error) and "peer" in str(error)


def test_truncated_header_is_a_typed_error():
    cluster = read_stream(frame(GOOD_BODY) + b"\x00\x00")
    [error] = cluster.errors
    assert isinstance(error, CodecError)
    assert "2 of 4 bytes" in str(error)


def test_truncated_body_is_a_typed_error():
    cluster = read_stream(frame(GOOD_BODY)[:-3])
    assert not cluster.delivered
    [error] = cluster.errors
    assert isinstance(error, CodecError)
    assert f"{len(GOOD_BODY) - 3} of {len(GOOD_BODY)} bytes" in str(error)


def test_truncation_by_a_killed_peer_is_survivable_on_recovery_runs():
    """A SIGKILL can land mid-write; with recovery on, the parent's
    peer_down announcement handles the death, not the reader."""
    cluster = read_stream(frame(GOOD_BODY)[:-3], recovery=True)
    assert not cluster.errors and not cluster.delivered


class _NoSocket:
    """What a receiver asks of its asyncio transport."""

    closed = False

    def get_extra_info(self, name):
        return ("test-peer", 0)

    def close(self):
        self.closed = True


def chunked(data: bytes, cuts) -> _RecordingCluster:
    """Hand ``data`` to one receiver's ``data_received`` in the pieces
    the sorted ``cuts`` make of it, then EOF."""
    cluster = _RecordingCluster()
    receiver = _Receiver(TcpTransport(cluster, listener=None, ports={}))
    receiver.connection_made(_NoSocket())
    edges = [0, *sorted(cuts), len(data)]
    for start, end in zip(edges, edges[1:]):
        if start < end and not receiver.transport.closed:
            receiver.data_received(data[start:end])
    if not receiver.transport.closed:
        receiver.eof_received()
    return cluster


BODIES = [FrameCodec().encode(1, 0, WireOneWay(payload), "a test frame")
          for payload in ("a", "bb" * 40, 3, None, b"x" * 300)]
STREAM = b"".join(frame(body) for body in BODIES)


def payloads(cluster) -> list:
    return [wire.payload for _dst, _src, wire in cluster.delivered]


def test_every_single_split_point_delivers_the_same_frames():
    """Including every split inside a 4-byte header."""
    expected = payloads(chunked(STREAM, []))
    assert expected == ["a", "bb" * 40, 3, None, b"x" * 300]
    for cut in range(1, len(STREAM)):
        cluster = chunked(STREAM, [cut])
        assert not cluster.errors and payloads(cluster) == expected, cut


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, len(STREAM)), max_size=40))
def test_any_chunking_of_a_stream_delivers_the_same_frames_in_order(cuts):
    cluster = chunked(STREAM, cuts)
    assert not cluster.errors
    assert payloads(cluster) == ["a", "bb" * 40, 3, None, b"x" * 300]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, len(STREAM) + 8), max_size=12),
       st.sampled_from([0, MAX_FRAME_BYTES + 1, 0xFFFFFFFF]))
def test_a_bad_header_fails_the_same_way_however_it_is_chunked(cuts, claimed):
    cluster = chunked(STREAM + claimed.to_bytes(4, "big") + b"y" * 4, cuts)
    assert len(cluster.delivered) == len(BODIES)
    [error] = cluster.errors
    assert isinstance(error, CodecError) and str(claimed) in str(error)


def test_oversized_frame_is_refused_at_the_sender():
    class Owner:
        worker_id = 0

        def owner_of(self, server_id):
            return 1

    transport = TcpTransport(Owner(), listener=None, ports={})
    transport._loop = object()  # "started"; nothing is ever written
    with pytest.raises(CodecError, match="frame limit"):
        transport.send(0, 1, WireOneWay(b"x" * (MAX_FRAME_BYTES + 1)))
    assert transport.idle()


# -- two workers, one loop, real sockets ---------------------------------------


def _log_verb(ctx, op):
    """A verb with an ordered, observable effect at its target; the key
    ``"taken"`` answers like a NO_WAIT lock conflict."""
    ctx.store_of(op.partition).append(("verb", op.key))
    return ("conflict",) if op.key == "taken" else op.key


@pytest.fixture(autouse=True)
def test_log_verb(monkeypatch):
    """Registered for this module's tests only: the handler table is
    process-wide and other suites assert its exact contents."""
    monkeypatch.setitem(OP_HANDLERS, "test_log", _log_verb)


def log_op(target: int, key) -> tuple:
    return (target, OpDescriptor("test_log", target, None, key))


def log_verb(target: int, key) -> Round:
    return Round([log_op(target, key)])


class Pair:
    """Workers 0 and 1 of a 2-server cluster, each owning one server."""

    def __init__(self):
        self.log: list = []     # what server 1 saw, in arrival order
        self.workers = [WorkerCluster(2, worker_id=w, n_workers=2)
                        for w in range(2)]
        ctx = DispatchContext(lambda _partition: self.log)
        for cluster in self.workers:
            for server in cluster.servers:
                server.engine.dispatch_context = ctx

        def handler(src, request):
            self.log.append(("message", request))
            return None
            yield  # pragma: no cover - generator marker

        self.workers[1].engine(1).set_rpc_handler(handler)
        self.transports: list[TcpTransport] = []

    def run(self, program, unreachable_peer: bool = False) -> None:
        """Drive ``program`` on server 0 until worker 0 drains.  With
        ``unreachable_peer`` worker 0's port map names a port nobody
        listens on, so its writer cannot dial worker 1."""
        async def main():
            listeners = [bind_listener() for _ in self.workers]
            ports = {w: l.getsockname()[1]
                     for w, l in enumerate(listeners)}
            seen_by_0 = dict(ports)
            if unreachable_peer:
                closed = bind_listener()
                seen_by_0[1] = closed.getsockname()[1]
                closed.close()
            a, b = self.workers
            self.transports = [TcpTransport(a, listeners[0], seen_by_0),
                               TcpTransport(b, listeners[1], ports)]
            async with b.serving(self.transports[1]), \
                    a.serving(self.transports[0]):
                a.engine(0).spawn(program)
                await asyncio.wait_for(a._drain(), PROMPT_S)
                # like two processes would: each side's acceptor waits
                # for the other side's writer to hang up
                await asyncio.gather(*(t.stop() for t in self.transports))
            if a._error is not None:
                raise a._error

        asyncio.run(main())


def test_frames_really_cross_a_socket_and_are_counted():
    pair = Pair()
    out = []

    def program():
        [value] = yield log_verb(1, "k")
        out.append(value)

    pair.run(program())
    assert out == ["k"] and pair.log == [("verb", "k")]
    request_side, reply_side = pair.transports
    # one verb frame out, one reply frame back, both length-prefixed
    assert request_side.frames_sent == 1 and reply_side.frames_sent == 1
    # counted where the frame left, into the sender's own network stats
    stats, reply_stats = (w.network.stats for w in pair.workers)
    assert stats.wire_bytes_sent > 4
    assert reply_stats.wire_bytes_sent > 4
    assert request_side.idle() and reply_side.idle()
    # the runtime accounted the verb at its actual encoded frame size
    assert stats.one_sided_remote == 1
    assert stats.total_bytes() == stats.wire_bytes_sent


def test_a_round_of_one_resumes_with_its_value_on_every_path(monkeypatch):
    """A lone verb is a round of one, and resumes with ``[value]``: to
    an owned server (no frame), to a foreign one (exactly one
    ``WireVerbs`` frame of one spec, not batched) and to a dead worker
    (``[PEER_DOWN]``, nothing sent: the reply the migration, lease and
    recovery callers branch on)."""
    chains = []
    send = TcpTransport.send

    def recording_send(self, src, dst, wire):
        if type(wire) is WireVerbs:
            chains.append((len(wire.specs), wire.batched))
        return send(self, src, dst, wire)

    monkeypatch.setattr(TcpTransport, "send", recording_send)
    pair = Pair()
    out = []

    ctx = pair.workers[0].engine(0).dispatch_context

    def program():
        # an owned verb runs in this process: its descriptor is bound
        owned = OpDescriptor("test_log", 0, None, "owned").bind(ctx)
        out.append((yield Round([(0, owned)])))
        out.append((yield log_verb(1, "foreign")))
        pair.workers[0].fail_peer(1)
        out.append((yield log_verb(1, "dead")))

    pair.run(program())
    assert out == [["owned"], ["foreign"], [PEER_DOWN]]
    assert pair.log == [("verb", "owned"), ("verb", "foreign")]
    assert chains == [(1, False)]
    stats = pair.workers[0].network.stats
    assert (stats.one_sided_local, stats.one_sided_remote) == (1, 2)


def test_one_round_is_one_frame_per_destination_worker():
    """k foreign verbs of one ``Round`` ride one chain: k results in
    issue order, a conflict in the middle stopping nothing, and exactly
    one request frame and one reply frame on the wire — while every
    verb is still accounted on its own."""
    pair = Pair()
    keys = ["a", "b", "taken", "c", "d"]
    out = []

    def program():
        out.append((yield Round([log_op(1, key) for key in keys])))

    pair.run(program())
    assert out == [["a", "b", ("conflict",), "c", "d"]]
    assert pair.log == [("verb", key) for key in keys]
    request_side, reply_side = pair.transports
    assert (request_side.frames_sent, reply_side.frames_sent) == (1, 1)
    stats = pair.workers[0].network.stats
    assert stats.one_sided_remote == len(keys)
    assert stats.one_sided_batches == 0
    assert stats.total_bytes() == stats.wire_bytes_sent


def test_fifo_per_channel_under_interleaved_verbs_and_messages():
    """Verbs and one-way messages from server 0 to server 1 share one
    stream: server 1 must see them in exactly the order issued."""
    pair = Pair()
    engine = pair.workers[0].engine(0)

    def program():
        for i in range(40):
            engine.post(1, 2 * i)               # fire-and-forget...
            engine.perform(             # ...and a verb behind it,
                log_verb(1, 2 * i + 1),         # neither awaited
                lambda _value: None)
        yield Sleep(50_000.0)

    pair.run(program())
    assert [key for _kind, key in pair.log] == list(range(80))
    assert {kind for kind, _key in pair.log} == {"verb", "message"}


def test_transport_error_aborts_the_run_instead_of_hanging_quiescence():
    """A writer that cannot reach its peer strands every frame queued
    behind it; the run must fail with that error, promptly."""
    def program():
        yield log_verb(1, "never-arrives")

    pair = Pair()
    with pytest.raises(ConnectionRefusedError):
        pair.run(program(), unreachable_peer=True)
    assert pair.log == []
