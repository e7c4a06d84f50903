"""Exposition for the live metrics timeline: Prometheus and CSV.

Two renderings of one :class:`~repro.obs.timeline.Timeline`:

* :func:`to_prometheus` — the text exposition format scrapers expect:
  cumulative counters as ``*_total`` with ``server`` (and ``reason`` /
  ``tenant``) labels, gauges as last-seen values.  On the aio/mp
  backends ``RunConfig(metrics_port=...)`` serves it live from a
  stdlib :class:`MetricsHttpServer` during the run (on aio from the
  run's own event loop); the sim backend has no wall clock to scrape
  against, so there it is an end-of-run artifact only.
* :func:`timeline_csv` / :func:`write_timeline_csv` — one wide row per
  sample for pandas/gnuplot post-processing
  (``RunConfig(metrics_csv=...)``).

Everything here is read-only over an already-collected timeline; no
rendering path touches the run's hot loops (an aio scrape costs its
event loop one render, between two callbacks).
"""

from __future__ import annotations

import asyncio
import io
import re
import socket
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Iterable

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _metric_name(key: str, prefix: str) -> str:
    return f"{prefix}_{_NAME_RE.sub('_', key)}"


def to_prometheus(timeline, health: Iterable = (),
                  prefix: str = "repro") -> str:
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
        name = _metric_name(key, prefix) + "_total"
        out.write(f"# TYPE {name} counter\n")
        for server in sorted(plain[key]):
            out.write(f'{name}{{server="{server}"}} '
                      f'{plain[key][server]:g}\n')
    for family in sorted(labeled):
        name = _metric_name(family, prefix) + "_by_reason_total"
        out.write(f"# TYPE {name} counter\n")
        for server, label in sorted(labeled[family]):
            out.write(f'{name}{{server="{server}",'
                      f'reason="{label}"}} '
                      f'{labeled[family][(server, label)]:g}\n')

    # gauges: last observed value per server
    gauge_keys = sorted({key for row in timeline.rows()
                         for key in row.gauges})
    for key in gauge_keys:
        name = _metric_name(key, prefix)
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
            name = _metric_name(f"tenant_{key}", prefix) + "_total"
            out.write(f"# TYPE {name} counter\n")
            for tenant in sorted(tenants):
                value = tenants[tenant].get(key, 0.0)
                out.write(f'{name}{{tenant="{tenant}"}} {value:g}\n')

    # watchdog events, by kind
    kinds: dict[str, int] = {}
    for event in health:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    name = f"{prefix}_health_events_total"
    out.write(f"# TYPE {name} counter\n")
    if kinds:
        for kind in sorted(kinds):
            out.write(f'{name}{{kind="{kind}"}} {kinds[kind]}\n')
    else:
        out.write(f'{name}{{kind="none"}} 0\n')

    name = f"{prefix}_timeline_dropped_samples_total"
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

    Two ways to serve, stdlib-only both: :meth:`start` answers from a
    daemon thread (the mp parent, which mostly waits on its workers);
    :meth:`listen` then :meth:`serve` answer from the event loop that
    drives an aio run.  A thread cannot serve that run: the busy loop
    releases and retakes the GIL on every iteration, faster than a
    waiting thread wakes to take it, so the thread runs only once the
    loop ends.
    """

    def __init__(self, port: int, provider: Callable[[], str],
                 host: str = "127.0.0.1"):
        self.provider = provider
        self.host = host
        self.port = port
        self._httpd = None
        self._thread = None
        self._socket = None
        self._server = None

    def reply(self, path: str) -> tuple[int, bytes]:
        """Status and body of a ``GET`` of ``path``."""
        if path.rstrip("/") not in ("", "/metrics"):
            return 404, b"not found\n"
        return 200, self.provider().encode()

    def start(self) -> int:
        reply = self.reply

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                status, body = reply(self.path)
                self.send_response(status)
                self.send_header("Content-Type", _CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._httpd = ThreadingHTTPServer((self.host, self.port),
                                          Handler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="metrics-http",
                                        daemon=True)
        self._thread.start()
        return self.port

    def listen(self) -> int:
        """Bind and listen without answering: connections queue until
        :meth:`serve` runs on the loop."""
        self._socket = socket.create_server((self.host, self.port))
        self.port = self._socket.getsockname()[1]
        return self.port

    async def serve(self) -> None:
        """Answer the :meth:`listen` socket from the running event loop
        until :meth:`stop`."""
        self._server = await asyncio.start_server(self._answer,
                                                  sock=self._socket)

    async def _answer(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = (await reader.readline()).split()
            while (await reader.readline()).strip():
                pass  # headers: none matters
            path = request[1].decode("latin-1") if len(request) > 1 else ""
            status, body = self.reply(path)
            writer.write(b"HTTP/1.0 %d %s\r\nContent-Type: %s\r\n"
                         b"Content-Length: %d\r\n\r\n"
                         % (status, HTTPStatus(status).phrase.encode(),
                            _CONTENT_TYPE.encode(), len(body)) + body)
            await writer.drain()
        except ConnectionError:
            pass  # the scraper hung up
        finally:
            writer.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._server is not None:
            self._server.close()  # closes the listening socket too
            self._server = None
        if self._socket is not None:
            self._socket.close()
            self._socket = None
