"""The framed-TCP channel between worker processes.

One send path: ``encode → queue → coalesced write → drain → read →
decode → dispatch``.  :meth:`TcpTransport.send` encodes a wire envelope
with the :class:`~repro.sim.codec.FrameCodec` and queues the body on
the destination worker's channel; one writer task per channel joins
whatever queued into a single ``write`` + ``drain``; the peer's reader
task cuts the stream back into frames, decodes each and hands it to its
cluster's ``_deliver_wire``.

A frame on the stream is ``len(body).to_bytes(4, "big") + body`` with
``0 < len(body) <= MAX_FRAME_BYTES``.  The reader trusts nothing it has
not checked: a zero or oversized length, or a stream that ends inside a
frame, is a :class:`~repro.sim.codec.CodecError` naming the peer — a
prompt failure of the run, never a reader parked on a multi-GiB read.

What the cluster asks of its transport — the seam a second carrier
would have to fit: ``start(loop)`` / ``stop()``, ``send(src, dst, wire,
what) -> frame bytes``, ``idle()``, ``fail_peer(worker)`` /
``rewire(worker, advert)`` and the ``wire_bytes_sent`` counter.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any

from .codec import CodecError, FrameCodec

_LENGTH_BYTES = 4
_HOST = "127.0.0.1"

MAX_FRAME_BYTES = 1 << 24
"""Largest frame body either end accepts.  Real frames are a verb chain
or one RPC payload — hundreds of bytes, a migrated record batch at
most — so 16 MiB only ever rejects a corrupt or hostile header."""


class _CloseChannel:
    """Sentinel asking a channel writer task to flush and exit."""


def bind_listener() -> socket.socket:
    """A listening localhost socket on an ephemeral port; its port is
    what a worker advertises to its peers."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind((_HOST, 0))
    listener.listen(64)
    return listener


class TcpTransport:
    """Real sockets between worker processes.

    One TCP connection per ordered (src_worker, dst_worker) pair,
    dialled when the transport starts.  Per-(src, dst) server channel
    FIFO follows from one connection + one writer task per worker pair
    and TCP byte ordering.  Writers coalesce: whatever frames
    accumulated in a channel queue go out as one ``write`` and one
    ``drain``, so a burst pays one syscall, not one per frame.
    """

    def __init__(self, cluster: Any, listener: socket.socket,
                 ports: dict[int, int], codec: FrameCodec | None = None):
        self._cluster = cluster
        self._listener = listener
        self._ports = ports
        self._codec = codec or FrameCodec()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._queues: dict[int, asyncio.Queue] = {}
        self._writers: dict[int, asyncio.Task] = {}
        self._down: set[int] = set()
        self._channel_in_flight: dict[int, int] = {}
        self._in_flight = 0
        """Frames accepted by :meth:`send` whose bytes have not yet been
        written to their socket.  ``idle()`` must count these: a frame
        a writer task has *popped* but not yet written would otherwise
        make the channel queues look empty while the frame is still in
        this process."""
        self.frames_sent = 0
        self.wire_bytes_sent = 0

    async def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._server = await asyncio.start_server(self._read_channel,
                                                  sock=self._listener)
        # channels to every peer are created up front (each writer task
        # dials its connection immediately — every peer's acceptor is
        # already listening before the parent shares the port map), like
        # an RDMA cluster's queue pairs.  Creation is synchronous: a
        # fast-starting peer can deliver a verb *while* this worker is
        # still starting, and the reply must find its channel queue
        # rather than crash the serve loop.
        for dst_worker in self._ports:
            if dst_worker != self._cluster.worker_id:
                self._ensure_channel(dst_worker)

    def _ensure_channel(self, dst_worker: int) -> asyncio.Queue:
        queue = self._queues.get(dst_worker)
        if queue is None:
            queue = asyncio.Queue()
            self._queues[dst_worker] = queue
            self._writers[dst_worker] = self._loop.create_task(
                self._write_channel(dst_worker, queue))
        return queue

    def send(self, src: int, dst: int, wire: Any, what: str) -> int:
        if self._loop is None:
            raise RuntimeError("transport not started")
        body = self._codec.encode(src, dst, wire, what)
        if len(body) > MAX_FRAME_BYTES:
            raise CodecError(f"{what} encodes to {len(body)} bytes, over "
                             f"the {MAX_FRAME_BYTES}-byte frame limit")
        dst_worker = self._cluster.owner_of(dst)
        if dst_worker == self._cluster.worker_id:
            raise RuntimeError(f"frame for owned server {dst} reached the "
                               f"transport (routing bug)")
        if dst_worker in self._down:
            return _LENGTH_BYTES + len(body)  # dropped: peer is dead
        self._in_flight += 1
        self._channel_in_flight[dst_worker] = \
            self._channel_in_flight.get(dst_worker, 0) + 1
        self._ensure_channel(dst_worker).put_nowait(body)
        return _LENGTH_BYTES + len(body)

    async def _write_channel(self, dst_worker: int,
                             queue: asyncio.Queue) -> None:
        writer = None
        try:
            _reader, writer = await asyncio.open_connection(
                _HOST, self._ports[dst_worker])
            closing = False
            while not closing:
                body = await queue.get()
                if body is _CloseChannel:
                    break
                # coalesce whatever else already queued behind it into
                # one write + one drain
                bodies = [body]
                while True:
                    try:
                        extra = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if extra is _CloseChannel:
                        closing = True
                        break
                    bodies.append(extra)
                frame = b"".join(
                    piece for b in bodies
                    for piece in (len(b).to_bytes(_LENGTH_BYTES, "big"), b))
                writer.write(frame)
                self.frames_sent += len(bodies)
                self.wire_bytes_sent += len(frame)
                self._in_flight -= len(bodies)
                self._channel_in_flight[dst_worker] = \
                    self._channel_in_flight.get(dst_worker, 0) - len(bodies)
                await writer.drain()
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            if (isinstance(exc, OSError)
                    and self._cluster.recovery_enabled):
                # the peer process died under us: a survivable event on
                # recovery runs (the parent's announcement follows)
                self._cluster.fail_peer(dst_worker)
            else:
                # a dead writer strands every frame queued behind it;
                # abort the run instead of letting quiescence wait
                self._cluster._fatal(exc)
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _read_channel(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        decode = self._codec.decode
        peer = writer.get_extra_info("peername")
        try:
            while True:
                header = await reader.readexactly(_LENGTH_BYTES)
                length = int.from_bytes(header, "big")
                if not 0 < length <= MAX_FRAME_BYTES:
                    raise CodecError(
                        f"peer {peer} sent a frame header claiming "
                        f"{length} bytes (accepted: 1..{MAX_FRAME_BYTES}); "
                        f"the stream is corrupt")
                src, dst, wire = decode(await reader.readexactly(length))
                self._cluster._deliver_wire(dst, src, wire)
        except asyncio.IncompleteReadError as cut:
            # EOF between frames is the peer closing its channel (normal
            # at shutdown).  EOF *inside* one means the peer died
            # mid-write: survivable on recovery runs (the parent's
            # peer_down follows), a framing error otherwise.
            if cut.partial and not self._cluster.recovery_enabled:
                self._cluster._fatal(CodecError(
                    f"stream from peer {peer} ended inside a frame: got "
                    f"{len(cut.partial)} of {cut.expected} bytes"))
        except ConnectionError:
            pass  # reset by a peer that is already gone
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._cluster._fatal(exc)
        finally:
            writer.close()

    def idle(self) -> bool:
        return self._in_flight == 0 and \
            all(q.empty() for q in self._queues.values())

    def fail_peer(self, dst_worker: int) -> None:
        """Tear down the channel to a dead worker; queued frames are
        dropped (they were addressed to a process that no longer
        exists) and stop counting toward ``idle()``."""
        self._down.add(dst_worker)
        task = self._writers.pop(dst_worker, None)
        if task is not None:
            task.cancel()
        queue = self._queues.pop(dst_worker, None)
        if queue is not None:
            while not queue.empty():
                queue.get_nowait()
        self._in_flight -= self._channel_in_flight.pop(dst_worker, 0)

    def rewire(self, dst_worker: int, advert: Any) -> None:
        """A respawned worker advertised a fresh port; dial it lazily
        on the next frame."""
        self._ports[dst_worker] = advert
        self._down.discard(dst_worker)

    async def stop(self) -> None:
        for queue in self._queues.values():
            queue.put_nowait(_CloseChannel)
        if self._writers:
            await asyncio.gather(*self._writers.values(),
                                 return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._queues.clear()
        self._writers.clear()
        self._loop = None
