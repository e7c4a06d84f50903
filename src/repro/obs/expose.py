"""Exposition for the live metrics timeline: Prometheus and CSV.

Two renderings of one :class:`~repro.obs.timeline.Timeline`:

* :func:`to_prometheus` — the text exposition format scrapers expect:
  cumulative counters as ``*_total`` with ``server`` (and ``reason`` /
  ``tenant``) labels, gauges as last-seen values.  On the aio/mp
  backends ``RunConfig(metrics_port=...)`` serves it live from a
  stdlib :class:`MetricsHttpServer` during the run, answered by the
  loop that drives the run (aio's event loop, the mp supervisor's wait
  loop); the sim backend has no wall clock to scrape against, so there
  it is an end-of-run artifact only.
* :func:`timeline_csv` / :func:`write_timeline_csv` — one wide row per
  sample for pandas/gnuplot post-processing
  (``RunConfig(metrics_csv=...)``).

Everything here is read-only over an already-collected timeline; no
rendering path touches the run's hot loops (a scrape costs the loop
that answers it one render, between two callbacks or two waits).
"""

from __future__ import annotations

import asyncio
import io
import re
import socket
from http import HTTPStatus
from typing import Callable, Iterable

PREFIX = "repro"
"""Namespace of every exported metric name."""
_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_ANSWER_TIMEOUT_S = 1.0
"""How long :meth:`MetricsHttpServer.answer` waits on a slow scraper."""
_LINE_LIMIT = 65536
"""Longest request or header line read (asyncio's stream default)."""


def _metric_name(key: str) -> str:
    return f"{PREFIX}_{_NAME_RE.sub('_', key)}"


def to_prometheus(timeline, health: Iterable = ()) -> str:
    """Render the timeline in Prometheus text exposition format.

    Counter keys containing a ``.`` split into a labeled family:
    ``aborts.lock_timeout`` becomes
    ``repro_aborts_by_reason_total{reason="lock_timeout"}``.
    """
    out = io.StringIO()

    # cumulative counters, per server
    plain: dict[str, dict[int, float]] = {}
    labeled: dict[str, dict[tuple[int, str], float]] = {}
    for server in timeline.servers():
        for row in timeline.rows(server):
            for key, value in row.counters.items():
                if "." in key:
                    family, label = key.split(".", 1)
                    book = labeled.setdefault(family, {})
                    book[(server, label)] = \
                        book.get((server, label), 0.0) + value
                else:
                    book = plain.setdefault(key, {})
                    book[server] = book.get(server, 0.0) + value

    for key in sorted(plain):
        name = _metric_name(key) + "_total"
        out.write(f"# TYPE {name} counter\n")
        for server in sorted(plain[key]):
            out.write(f'{name}{{server="{server}"}} '
                      f'{plain[key][server]:g}\n')
    for family in sorted(labeled):
        name = _metric_name(family) + "_by_reason_total"
        out.write(f"# TYPE {name} counter\n")
        for server, label in sorted(labeled[family]):
            out.write(f'{name}{{server="{server}",'
                      f'reason="{label}"}} '
                      f'{labeled[family][(server, label)]:g}\n')

    # gauges: last observed value per server
    gauge_keys = sorted({key for row in timeline.rows()
                         for key in row.gauges})
    for key in gauge_keys:
        name = _metric_name(key)
        out.write(f"# TYPE {name} gauge\n")
        for server in timeline.servers():
            out.write(f'{name}{{server="{server}"}} '
                      f'{timeline.gauge_last(key, server):g}\n')

    # per-tenant open-loop counters
    tenants = timeline.tenant_totals()
    if tenants:
        keys = sorted({key for book in tenants.values()
                       for key in book})
        for key in keys:
            name = _metric_name(f"tenant_{key}") + "_total"
            out.write(f"# TYPE {name} counter\n")
            for tenant in sorted(tenants):
                value = tenants[tenant].get(key, 0.0)
                out.write(f'{name}{{tenant="{tenant}"}} {value:g}\n')

    # watchdog events, by kind
    kinds: dict[str, int] = {}
    for event in health:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    name = f"{PREFIX}_health_events_total"
    out.write(f"# TYPE {name} counter\n")
    if kinds:
        for kind in sorted(kinds):
            out.write(f'{name}{{kind="{kind}"}} {kinds[kind]}\n')
    else:
        out.write(f'{name}{{kind="none"}} 0\n')

    name = f"{PREFIX}_timeline_dropped_samples_total"
    out.write(f"# TYPE {name} counter\n")
    out.write(f"{name} {timeline.dropped}\n")
    return out.getvalue()


# -- CSV ----------------------------------------------------------------------

def timeline_csv(timeline) -> str:
    """One wide row per sample: ``t_us,server,gen`` then the union of
    counter, gauge, and flattened ``tenant/counter`` columns."""
    rows = timeline.rows()
    counter_keys: set[str] = set()
    gauge_keys: set[str] = set()
    tenant_keys: set[str] = set()
    for row in rows:
        counter_keys.update(row.counters)
        gauge_keys.update(row.gauges)
        for tenant, book in row.tenants.items():
            tenant_keys.update(f"{tenant}/{key}" for key in book)
    columns = (sorted(counter_keys) + sorted(gauge_keys)
               + sorted(tenant_keys))
    out = io.StringIO()
    out.write(",".join(["t_us", "server", "gen"] + columns) + "\n")
    for row in rows:
        cells = [f"{row.t_us:g}", str(row.server), str(row.gen)]
        for key in sorted(counter_keys):
            cells.append(f"{row.counters.get(key, 0):g}")
        for key in sorted(gauge_keys):
            cells.append(f"{row.gauges.get(key, 0):g}")
        for key in sorted(tenant_keys):
            tenant, _, counter = key.partition("/")
            cells.append(
                f"{row.tenants.get(tenant, {}).get(counter, 0):g}")
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def write_timeline_csv(timeline, path: str) -> None:
    with open(path, "w") as f:
        f.write(timeline_csv(timeline))


class MetricsHttpServer:
    """Serves ``GET /metrics`` from a provider callable, bound to
    localhost.  Port 0 binds an ephemeral port (the scrape tests use
    this); ``url`` reports the bound address.

    Stdlib-only, and never a thread of its own: :meth:`listen` binds,
    then the loop that drives the run answers — aio's event loop through
    :meth:`serve`, the mp supervisor's wait loop through :meth:`answer`
    whenever the socket (:meth:`fileno`) is readable.  A thread could
    serve neither: aio's busy loop releases and retakes the GIL on every
    iteration, faster than a waiting thread wakes to take it, and a
    thread alive in the mp parent would be copied, half-held locks and
    all, into every forked worker.
    """

    def __init__(self, port: int, provider: Callable[[], str],
                 host: str = "127.0.0.1"):
        self.provider = provider
        self.host = host
        self.port = port
        self._socket = None
        self._server = None

    def response(self, request_line: bytes) -> bytes:
        """The whole HTTP reply to a request whose first line is
        ``request_line`` (``GET /metrics HTTP/1.1``)."""
        words = request_line.split()
        path = words[1].decode("latin-1") if len(words) > 1 else ""
        if path.rstrip("/") not in ("", "/metrics"):
            status, body = 404, b"not found\n"
        else:
            status, body = 200, self.provider().encode()
        return (b"HTTP/1.0 %d %s\r\nContent-Type: %s\r\n"
                b"Content-Length: %d\r\n\r\n"
                % (status, HTTPStatus(status).phrase.encode(),
                   _CONTENT_TYPE.encode(), len(body)) + body)

    def listen(self) -> int:
        """Bind and listen without answering: connections queue until
        :meth:`serve` or :meth:`answer` takes them."""
        self._socket = socket.create_server((self.host, self.port))
        self._socket.setblocking(False)  # answer() never waits in accept
        self.port = self._socket.getsockname()[1]
        return self.port

    def fileno(self) -> int:
        """The listening socket's descriptor, readable while a
        connection waits (``multiprocessing.connection.wait`` takes
        this object as it is)."""
        return self._socket.fileno()

    def answer(self) -> None:
        """Answer one queued connection in the calling thread; a
        scraper that sends nothing is cut off after
        ``_ANSWER_TIMEOUT_S``."""
        try:
            conn, _addr = self._socket.accept()
        except BlockingIOError:
            return  # the scraper gave up between the wait and here
        with conn:
            conn.settimeout(_ANSWER_TIMEOUT_S)
            try:
                with conn.makefile("rb") as request:
                    line = request.readline(_LINE_LIMIT)
                    while request.readline(_LINE_LIMIT).strip():
                        pass  # headers: none matters
                conn.sendall(self.response(line))
            except OSError:
                pass  # the scraper hung up or stalled

    async def serve(self) -> None:
        """Answer the :meth:`listen` socket from the running event loop
        until :meth:`stop`."""
        self._server = await asyncio.start_server(self._answer,
                                                  sock=self._socket)

    async def _answer(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            line = await reader.readline()
            while (await reader.readline()).strip():
                pass  # headers: none matters
            writer.write(self.response(line))
            await writer.drain()
        except ConnectionError:
            pass  # the scraper hung up
        finally:
            writer.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def stop(self) -> None:
        if self._server is not None:
            self._server.close()  # closes the listening socket too
            self._server = None
        if self._socket is not None:
            self._socket.close()
            self._socket = None
