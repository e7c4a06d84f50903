"""Unit tests for exposition: Prometheus text, CSV, HTTP."""

import asyncio
import select
import socket
import urllib.error
import urllib.request

from repro.obs import (HealthEvent, MetricsHttpServer, Timeline,
                       TimelineSample, timeline_csv, to_prometheus)


def sample_timeline():
    tl = Timeline(100.0)
    tl.add(TimelineSample(
        t_us=100.0, server=0,
        counters={"commits": 5, "aborts": 1,
                  "aborts.lock_conflict": 1, "wire_bytes": 640},
        gauges={"queue_depth": 2.0},
        tenants={"gold": {"scheduled": 4, "in_slo": 3}}))
    tl.add(TimelineSample(t_us=100.0, server=1,
                          counters={"completed": 3},
                          gauges={"queue_depth": 0.0}))
    tl.add(TimelineSample(t_us=200.0, server=0,
                          counters={"commits": 2},
                          gauges={"queue_depth": 1.0}))
    return tl


def event(kind="stall"):
    return HealthEvent(kind=kind, t_us=200.0, server=0, value=0.0,
                       threshold=0.0, message=f"{kind} happened")


# -- Prometheus -------------------------------------------------------------

def test_prometheus_counters_sum_per_server():
    text = to_prometheus(sample_timeline())
    assert 'repro_commits_total{server="0"} 7' in text
    assert 'repro_completed_total{server="1"} 3' in text
    assert "# TYPE repro_commits_total counter" in text


def test_prometheus_dotted_keys_become_reason_labels():
    text = to_prometheus(sample_timeline())
    assert ('repro_aborts_by_reason_total{server="0",'
            'reason="lock_conflict"} 1') in text


def test_prometheus_gauges_report_the_last_value():
    text = to_prometheus(sample_timeline())
    assert 'repro_queue_depth{server="0"} 1' in text
    assert 'repro_queue_depth{server="1"} 0' in text


def test_prometheus_tenants_and_health():
    text = to_prometheus(sample_timeline(), health=[event()])
    assert 'repro_tenant_scheduled_total{tenant="gold"} 4' in text
    assert 'repro_health_events_total{kind="stall"} 1' in text
    empty = to_prometheus(sample_timeline())
    assert 'repro_health_events_total{kind="none"} 0' in empty


def test_prometheus_ends_with_newline_and_sane_names():
    text = to_prometheus(sample_timeline())
    assert text.endswith("\n")
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name = line.split("{")[0].split(" ")[0]
            assert name.replace("_", "").isalnum(), name


# -- CSV --------------------------------------------------------------------

def test_csv_is_wide_with_stable_sorted_columns():
    lines = timeline_csv(sample_timeline()).splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["t_us", "server", "gen"]
    # counter, gauge, and tenant column blocks are each sorted
    counters = [h for h in header if h in
                ("aborts", "aborts.lock_conflict", "commits",
                 "completed", "wire_bytes")]
    assert counters == sorted(counters)
    assert "commits" in header and "queue_depth" in header
    assert "gold/scheduled" in header
    assert len(lines) == 4  # header + three samples
    first = dict(zip(header, lines[1].split(",")))
    assert first["server"] == "0" and first["commits"] == "5"
    # absent columns render as 0, keeping every row the same width
    second = dict(zip(header, lines[2].split(",")))
    assert second["server"] == "1" and second["commits"] == "0"


# -- HTTP endpoint ----------------------------------------------------------

def answered_get(server, path: str) -> bytes:
    """A ``GET`` of ``path`` answered by :meth:`answer` in this thread,
    as the mp supervisor's wait loop answers one: the request queues in
    the listen backlog and the socket buffer until ``answer`` runs."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=5) as client:
        client.sendall(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        readable, _, _ = select.select([server], [], [], 5)
        assert readable == [server]  # fileno() is what the wait set polls
        server.answer()
        return client.makefile("rb").read()


def test_http_server_scrapes_prometheus_text():
    tl = sample_timeline()
    server = MetricsHttpServer(0, lambda: to_prometheus(tl))
    server.listen()
    try:
        assert server.port != 0  # rebound to the ephemeral port
        head, _, body = answered_get(server, "/metrics").partition(
            b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 OK")
        assert b"Content-Type: text/plain" in head
        assert f"Content-Length: {len(body)}".encode() in head
        assert b'repro_commits_total{server="0"} 7' in body
    finally:
        server.stop()


def test_http_server_404s_other_paths():
    server = MetricsHttpServer(0, lambda: "x 1\n")
    server.listen()
    try:
        assert answered_get(server, "/other").startswith(
            b"HTTP/1.0 404 Not Found")
        # a scraper that hangs up before it asks costs one accept
        socket.create_connection(("127.0.0.1", server.port)).close()
        server.answer()
        assert answered_get(server, "/metrics").endswith(b"\r\n\r\nx 1\n")
    finally:
        server.stop()


def test_loop_served_endpoint_answers_from_the_loop_and_closes():
    """The aio spelling: :meth:`listen` queues connections, the running
    loop answers them, :meth:`stop` closes the port."""
    tl = sample_timeline()
    server = MetricsHttpServer(0, lambda: to_prometheus(tl))
    port = server.listen()
    assert port != 0

    async def get(path: str) -> bytes:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        reply = await reader.read()
        writer.close()
        return reply

    async def scrape() -> tuple[bytes, bytes]:
        await server.serve()
        try:
            return await get("/metrics"), await get("/other")
        finally:
            server.stop()

    metrics, other = asyncio.run(scrape())
    head, _, body = metrics.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 200 OK")
    assert b"Content-Type: text/plain" in head
    assert f"Content-Length: {len(body)}".encode() in head
    assert b'repro_commits_total{server="0"} 7' in body
    assert other.startswith(b"HTTP/1.0 404 Not Found")
    try:
        urllib.request.build_opener(urllib.request.ProxyHandler({})).open(
            server.url, timeout=5)
        raise AssertionError("expected the port to be closed")
    except urllib.error.URLError:
        pass
