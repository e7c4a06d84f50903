"""The framed-TCP channel between worker processes.

One send path: ``encode → write on the sender's stack → data_received →
cut → decode → dispatch``.  :meth:`TcpTransport.send` encodes a wire
envelope with the :class:`~repro.sim.codec.FrameCodec` and hands
``len‖body`` to the destination worker's socket before it returns — no
queue, no task to wake; asyncio's transport buffers whatever the kernel
does not take at once.  The peer's :class:`_Receiver` cuts the byte
stream back into frames as it arrives, decodes each and hands it to its
cluster's ``_deliver_wire`` on the same stack.

A frame on the stream is ``len(body).to_bytes(4, "big") + body`` with
``0 < len(body) <= MAX_FRAME_BYTES``.  The receiver trusts nothing it
has not checked: a zero or oversized length, or a stream that ends
inside a frame, is a :class:`~repro.sim.codec.CodecError` naming the
peer — a prompt failure of the run, never a buffer growing toward a
multi-GiB frame that cannot complete.

What the cluster asks of its transport — the seam a second carrier
would have to fit: ``start(loop)`` / ``stop()``, ``send(src, dst, wire)
-> frame bytes``, ``idle()``, ``fail_peer(worker)`` /
``rewire(worker, advert)``; every frame written is counted into the
cluster's ``network.stats.wire_bytes_sent`` as it leaves.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any

from .codec import CodecError, FrameCodec, describe_wire

_LENGTH_BYTES = 4
_HOST = "127.0.0.1"

MAX_FRAME_BYTES = 1 << 24
"""Largest frame body either end accepts.  Real frames are a verb chain
or one RPC payload — hundreds of bytes, a migrated record batch at
most — so 16 MiB only ever rejects a corrupt or hostile header."""


def bind_listener() -> socket.socket:
    """A listening localhost socket on an ephemeral port; its port is
    what a worker advertises to its peers."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind((_HOST, 0))
    listener.listen(64)
    return listener


class _Sender(asyncio.Protocol):
    """The dialled end of one worker pair's connection: written to,
    never read.  Frames sent while the dial is still in progress wait
    in ``pending`` and leave, in order, when the connection is made."""

    def __init__(self, owner: "TcpTransport", dst_worker: int):
        self.owner = owner
        self.dst_worker = dst_worker
        self.pending: list[bytes] = []
        self.transport: asyncio.Transport | None = None
        self.dial: asyncio.Future | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        if self.owner._senders.get(self.dst_worker) is not self:
            transport.abort()  # torn down while dialling
            return
        self.transport = transport
        if self.pending:
            transport.write(b"".join(self.pending))
            self.pending.clear()

    def connection_lost(self, exc: BaseException | None) -> None:
        self.owner._sender_lost(self, exc or ConnectionResetError(
            f"worker {self.dst_worker} closed its end of the channel"))

    def dialled(self, dial: asyncio.Future) -> None:
        if not dial.cancelled() and dial.exception() is not None:
            self.owner._sender_lost(self, dial.exception())

    def close(self) -> None:
        """Hang up; frames the kernel has not taken yet are dropped."""
        self.pending.clear()
        if self.transport is not None:
            self.transport.abort()
        else:
            self.dial.cancel()


class _Receiver(asyncio.Protocol):
    """The accepted end: cuts the peer's byte stream into frames."""

    def __init__(self, owner: "TcpTransport"):
        self.owner = owner
        self.transport: asyncio.Transport | None = None
        self.peer: Any = None
        self.buffer = bytearray()  # of a frame whose end has not come

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.peer = transport.get_extra_info("peername")
        self.owner._receivers.add(self)

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer
        buffer += data
        decode = self.owner._codec.decode
        deliver = self.owner._cluster._deliver_wire
        offset, size = 0, len(buffer)
        try:
            while size - offset >= _LENGTH_BYTES:
                start = offset + _LENGTH_BYTES
                length = int.from_bytes(buffer[offset:start], "big")
                if not 0 < length <= MAX_FRAME_BYTES:
                    raise CodecError(
                        f"peer {self.peer} sent a frame header claiming "
                        f"{length} bytes (accepted: 1..{MAX_FRAME_BYTES}); "
                        f"the stream is corrupt")
                if start + length > size:
                    break
                offset = start + length
                src, dst, wire = decode(bytes(buffer[start:offset]))
                deliver(dst, src, wire)
        except Exception as exc:
            # nothing after a bad frame can be trusted: drop it all
            offset = size
            self.owner._cluster._fatal(exc)
            self.transport.close()
        del buffer[:offset]

    def eof_received(self) -> None:
        # EOF between frames is the peer closing its channel (normal at
        # shutdown).  EOF *inside* one means it died mid-write: survivable
        # on recovery runs (peer_down follows), a framing error otherwise.
        got = len(self.buffer)
        if got and not self.owner._cluster.recovery_enabled:
            expected = _LENGTH_BYTES
            if got >= _LENGTH_BYTES:
                got -= _LENGTH_BYTES
                expected = int.from_bytes(self.buffer[:_LENGTH_BYTES], "big")
            self.owner._cluster._fatal(CodecError(
                f"stream from peer {self.peer} ended inside a frame: got "
                f"{got} of {expected} bytes"))

    def connection_lost(self, exc: BaseException | None) -> None:
        # a reset by a peer that is already gone is not this end's error
        self.owner._receivers.discard(self)


class TcpTransport:
    """Real sockets between worker processes.

    One TCP connection per ordered (src_worker, dst_worker) pair,
    dialled when the transport starts.  Per-(src, dst) server channel
    FIFO follows from one connection per worker pair, frames written in
    ``send`` order, and TCP byte ordering.
    """

    def __init__(self, cluster: Any, listener: socket.socket,
                 ports: dict[int, int], codec: FrameCodec | None = None):
        self._cluster = cluster
        self._listener = listener
        self._ports = ports
        self._codec = codec or FrameCodec()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._senders: dict[int, _Sender] = {}
        self._receivers: set[_Receiver] = set()
        self.frames_sent = 0

    async def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._server = await loop.create_server(lambda: _Receiver(self),
                                                sock=self._listener)
        # every peer is dialled up front (its listener is bound before
        # the parent shares the port map), like an RDMA cluster's queue
        # pairs.  Dialling does not block: a fast-starting peer can
        # deliver a verb *while* this worker is still starting, and the
        # reply waits in its sender's pending list.
        for dst_worker in self._ports:
            if dst_worker != self._cluster.worker_id:
                self._dial(dst_worker)

    def _dial(self, dst_worker: int) -> _Sender:
        sender = self._senders[dst_worker] = _Sender(self, dst_worker)
        sender.dial = asyncio.ensure_future(self._loop.create_connection(
            lambda: sender, _HOST, self._ports[dst_worker]))
        sender.dial.add_done_callback(sender.dialled)
        return sender

    def send(self, src: int, dst: int, wire: Any) -> int:
        if self._loop is None:
            raise RuntimeError("transport not started")
        body = self._codec.encode(src, dst, wire)
        if len(body) > MAX_FRAME_BYTES:
            raise CodecError(f"{describe_wire(wire, dst)} encodes to "
                             f"{len(body)} bytes, over the "
                             f"{MAX_FRAME_BYTES}-byte frame limit")
        dst_worker = self._cluster.owner_of(dst)
        if dst_worker == self._cluster.worker_id:
            raise RuntimeError(f"frame for owned server {dst} reached the "
                               f"transport (routing bug)")
        frame = len(body).to_bytes(_LENGTH_BYTES, "big") + body
        sender = self._senders.get(dst_worker) or self._dial(dst_worker)
        if sender.transport is None:
            sender.pending.append(frame)
        else:
            sender.transport.write(frame)
        self.frames_sent += 1
        self._cluster.network.stats.wire_bytes_sent += len(frame)
        return len(frame)

    def _sender_lost(self, sender: _Sender, exc: BaseException) -> None:
        if self._senders.get(sender.dst_worker) is not sender:
            return  # this end hung up first (fail_peer, stop)
        if isinstance(exc, OSError) and self._cluster.recovery_enabled:
            # the peer process died under us: a survivable event on
            # recovery runs (the parent's announcement follows)
            self._cluster.fail_peer(sender.dst_worker)
        else:
            # its frames are gone: abort, or their requesters wait forever
            self._cluster._fatal(exc)

    def idle(self) -> bool:
        """No frame waits for its dial and no byte sits in asyncio's
        write buffer: all that :meth:`send` accepted has left."""
        return not any(
            s.pending or (s.transport is not None
                          and s.transport.get_write_buffer_size())
            for s in self._senders.values())

    def fail_peer(self, dst_worker: int) -> None:
        """Tear down the channel to a dead worker; unwritten frames are
        dropped (their addressee no longer exists) and stop counting
        toward ``idle()``.  Nothing more is sent until :meth:`rewire`."""
        sender = self._senders.pop(dst_worker, None)
        if sender is not None:
            sender.close()

    def rewire(self, dst_worker: int, advert: Any) -> None:
        """A respawned worker advertised a fresh port; dial it lazily
        on the next frame."""
        self._ports[dst_worker] = advert

    async def stop(self) -> None:
        self._loop = None
        senders, self._senders = self._senders, {}
        for sender in senders.values():
            sender.close()
        for receiver in list(self._receivers):
            receiver.transport.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
