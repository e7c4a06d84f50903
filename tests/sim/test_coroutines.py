"""Unit tests for the coroutine execution engines."""

import pytest

from repro.sim import (All, Cluster, Compute, Round, Rpc, Sleep,
                       network)


@pytest.fixture(autouse=True)
def round_latencies(monkeypatch):
    """Round network constants, so the timings below add up by hand."""
    for name, value in (("LOCAL_ACCESS_US", 0.1), ("ONE_WAY_US", 1.0),
                        ("VERB_OVERHEAD_US", 0.0), ("RPC_OVERHEAD_US", 0.0)):
        monkeypatch.setattr(network, name, value)


def test_compute_consumes_engine_cpu():
    cluster = Cluster(1)
    results = []

    def txn():
        yield Compute(5.0)
        return "done"

    cluster.engine(0).spawn(txn(), results.append)
    cluster.run()
    assert results == ["done"]
    assert cluster.engine(0).core.busy_time == pytest.approx(5.0)
    assert cluster.sim.now == pytest.approx(5.0)


def test_two_coroutines_share_one_core_fifo():
    cluster = Cluster(1)
    done_at = {}

    def txn(name):
        yield Compute(3.0)
        done_at[name] = cluster.sim.now

    cluster.engine(0).spawn(txn("a"))
    cluster.engine(0).spawn(txn("b"))
    cluster.run()
    assert done_at["a"] == pytest.approx(3.0)
    assert done_at["b"] == pytest.approx(6.0)


def test_network_wait_does_not_hold_cpu():
    """While one txn waits on the network, another can use the core."""
    cluster = Cluster(2)
    done_at = {}

    def remote_reader():
        yield Round([(1, lambda: 7)])
        done_at["reader"] = cluster.sim.now

    def local_cruncher():
        yield Compute(1.5)
        done_at["cruncher"] = cluster.sim.now

    cluster.engine(0).spawn(remote_reader())
    cluster.engine(0).spawn(local_cruncher())
    cluster.run()
    assert done_at["reader"] == pytest.approx(2.0)   # round trip
    assert done_at["cruncher"] == pytest.approx(1.5)  # overlapped


def test_one_sided_resumes_with_result():
    cluster = Cluster(2)
    out = []

    def txn():
        [value] = yield Round([(1, lambda: 41)])
        return value + 1

    cluster.engine(0).spawn(txn(), out.append)
    cluster.run()
    assert out == [42]


def test_all_runs_effects_concurrently():
    cluster = Cluster(3)
    out = []

    def txn():
        results = yield All([Round([(1, lambda: "a")]),
                             Round([(2, lambda: "b")])])
        out.append((results, cluster.sim.now))

    cluster.engine(0).spawn(txn())
    cluster.run()
    results, when = out[0]
    assert results == [["a"], ["b"]]
    assert when == pytest.approx(2.0)  # one round trip, not two


def test_all_empty_effect_list():
    cluster = Cluster(1)
    out = []

    def txn():
        results = yield All([])
        out.append(results)

    cluster.engine(0).spawn(txn())
    cluster.run()
    assert out == [[]]


def test_rpc_consumes_remote_cpu():
    cluster = Cluster(2)
    out = []

    def handler(src, request):
        yield Compute(4.0)
        return request * 10

    cluster.engine(1).set_rpc_handler(handler)

    def txn():
        reply = yield Rpc(1, 5)
        out.append((reply, cluster.sim.now))

    cluster.engine(0).spawn(txn())
    cluster.run()
    reply, when = out[0]
    assert reply == 50
    # one-way + 4us handler CPU + one-way reply
    assert when == pytest.approx(1.0 + 4.0 + 1.0)
    assert cluster.engine(1).core.busy_time == pytest.approx(4.0)
    assert cluster.engine(0).core.busy_time == pytest.approx(0.0)


def test_rpc_without_handler_raises():
    cluster = Cluster(2)

    def txn():
        yield Rpc(1, "ping")

    cluster.engine(0).spawn(txn())
    with pytest.raises(RuntimeError):
        cluster.run()


def test_sleep_advances_time_without_cpu():
    cluster = Cluster(1)
    out = []

    def txn():
        yield Sleep(9.0)
        out.append(cluster.sim.now)

    cluster.engine(0).spawn(txn())
    cluster.run()
    assert out == [9.0]
    assert cluster.engine(0).core.busy_time == 0.0


def test_yield_from_composes_subprocedures():
    cluster = Cluster(2)
    out = []

    def fetch(target):
        [value] = yield Round([(target, lambda: 10)])
        return value

    def txn():
        a = yield from fetch(1)
        b = yield from fetch(1)
        return a + b

    cluster.engine(0).spawn(txn(), out.append)
    cluster.run()
    assert out == [20]


def test_post_delivers_one_way_message():
    cluster = Cluster(2)
    seen = []

    def handler(src, request):
        seen.append((src, request))
        return None
        yield  # pragma: no cover - makes this a generator

    cluster.engine(1).set_rpc_handler(handler)
    cluster.engine(0).post(1, "notify")
    cluster.run()
    assert seen == [(0, "notify")]


def test_nested_all_effects():
    """An All may contain Alls; results mirror the nesting."""
    cluster = Cluster(3)
    out = []

    def txn():
        results = yield All([
            All([Round([(1, lambda: "aa")]), Round([(2, lambda: "ab")])]),
            Round([(1, lambda: "b")]),
            All([]),
        ])
        out.append((results, cluster.sim.now))

    cluster.engine(0).spawn(txn())
    cluster.run()
    results, when = out[0]
    assert results == [[["aa"], ["ab"]], ["b"], []]
    assert when == pytest.approx(2.0, abs=1e-6)  # still one round trip


def test_deeply_nested_all_preserves_structure():
    cluster = Cluster(2)
    out = []

    def txn():
        results = yield All([All([All([Round([(1, lambda: 1)])])])])
        out.append(results)

    cluster.engine(0).spawn(txn())
    cluster.run()
    assert out == [[[[[1]]]]]


def test_signal_double_fire_raises():
    from repro.sim import Signal

    signal = Signal()
    signal.fire("first")
    with pytest.raises(RuntimeError):
        signal.fire("second")
    assert signal.value == "first"


def test_await_after_fire_resumes_with_fired_value():
    from repro.sim import Await, Signal

    cluster = Cluster(1)
    signal = Signal()
    signal.fire(123)
    out = []

    def txn():
        value = yield Await(signal)
        out.append(value)

    cluster.engine(0).spawn(txn())
    cluster.run()
    assert out == [123]


def test_active_task_accounting():
    cluster = Cluster(1)

    def txn():
        yield Compute(1.0)

    engine = cluster.engine(0)
    engine.spawn(txn())
    assert engine.active_tasks == 1
    cluster.run()
    assert engine.active_tasks == 0
