"""In-process wall-clock backend specifics: clock, latch, accounting.

Effect *semantics* are covered by the conformance suite
(`test_conformance.py`) and the wire by `test_transport.py`; this file
tests what is unique to running the wall-clock cluster in-process
(``backend="aio"``: one worker that owns every server) — the wall
clock, run-to-quiescence, and the wire/local traffic split.
"""

import pytest

from repro.sim import Compute, Round, Rpc, Sleep
from repro.sim import WorkerCluster as AioCluster


# -- clock and run loop ------------------------------------------------------


def test_clock_advances_in_wall_microseconds(run_program):
    cluster = AioCluster(1)
    seen = []

    def txn():
        seen.append(cluster.sim.now)
        yield Sleep(5_000.0)  # 5ms wall
        seen.append(cluster.sim.now)

    run_program(cluster, txn())
    before, after = seen
    assert after - before >= 4_000.0  # timers may fire slightly early-ish
    assert cluster.sim.events_fired > 0


def test_clock_rezeros_for_each_run(run_program):
    """A reused cluster must get a fresh horizon: wall time that passed
    between runs (even the previous run itself) must not count."""
    import time

    cluster = AioCluster(1)

    def first():
        yield Sleep(20_000.0)

    run_program(cluster, first())
    time.sleep(0.05)  # idle wall time between runs
    seen = []

    def second():
        seen.append(cluster.sim.now)
        yield Sleep(1_000.0)

    run_program(cluster, second())
    assert seen[0] < 20_000.0  # restarted near zero, not ~70ms in


def test_run_returns_only_when_spawned_handlers_finish(run_program):
    """RPC handler tasks spawned mid-run also hold the cluster open."""
    cluster = AioCluster(2)
    done = []

    def handler(src, request):
        yield Sleep(3_000.0)
        done.append("handler")
        return None

    cluster.engine(1).set_rpc_handler(handler)

    def txn():
        cluster.engine(0).post(1, "work")
        yield Compute(0.1)

    run_program(cluster, txn())
    assert done == ["handler"]


def test_max_events_is_rejected():
    """The wall-clock run takes no event budget: it runs to quiescence."""
    cluster = AioCluster(1)
    with pytest.raises(TypeError):
        cluster.run(max_events=10)


def test_cluster_is_reusable_after_an_aborted_run(run_program):
    """A run killed by a raising verb op must not poison the next run:
    the task latch and the transport escrow both reset."""
    cluster = AioCluster(2, run_timeout_s=10.0)

    def bad():
        yield Round([(1, lambda: 1 / 0)])

    cluster.engine(0).spawn(bad())
    with pytest.raises(ZeroDivisionError):
        cluster.run()

    def good():
        [value] = yield Round([(1, lambda: "recovered")])
        return value

    assert run_program(cluster, good()) == "recovered"
    assert cluster.transport.idle()


def test_compute_cost_is_recorded_not_slept(run_program):
    cluster = AioCluster(1)

    def txn():
        yield Compute(10_000_000.0)  # 10 simulated seconds

    import time
    start = time.perf_counter()
    run_program(cluster, txn())
    assert time.perf_counter() - start < 1.0
    assert cluster.engine(0).cpu_us == 10_000_000.0


# -- traffic accounting ------------------------------------------------------


def test_aio_stats_split_local_and_wire(run_program):
    cluster = AioCluster(2)

    def handler(src, request):
        return request
        yield  # pragma: no cover - generator marker

    for sid in range(2):
        cluster.engine(sid).set_rpc_handler(handler)

    def txn():
        yield Round([(0, lambda: None)])  # local verb
        yield Round([(1, lambda: None)])  # wire verb
        yield Rpc(0, "self")              # local message
        yield Rpc(1, "peer")              # wire message

    run_program(cluster, txn())
    stats = cluster.network.stats
    assert stats.one_sided_local == 1
    assert stats.one_sided_remote == 1
    # each RPC is a request message plus an rpc_reply message; the
    # self-RPC pair stays local, the peer pair crosses the wire
    assert stats.messages_local == 2
    assert stats.messages == 2
    assert stats.total_remote_ops() == 1 + 2
    assert stats.total_bytes() > 0
    assert sum(stats.local_bytes_by_kind.values()) > 0
